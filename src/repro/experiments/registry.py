"""Experiment registry: one entry per paper table/figure.

``run_experiment("fig05")`` regenerates the corresponding artifact;
:data:`EXPERIMENTS` maps every id to its runner and is what the
benchmark harness iterates.

``run_experiment`` is also the resilience entry point: the
``resume``/``max_retries``/``cell_timeout``/``ledger_path`` keywords
build an :class:`~repro.resilience.ExecutionPolicy`, install it for
the duration of the run (every sweep cell then executes under retry/
deadline/checkpoint policies), and record what happened — resumed,
retried and quarantined cells — in the result's ``provenance``.

And it is the observability entry point: every run installs an
:class:`~repro.obs.ObsContext` (span tracer, metrics registry,
structured event log) mirroring the resilience context, summarises the
run in ``provenance["telemetry"]``, and exports on request — a Chrome
Trace Event file (``trace_out``), a metrics snapshot
(``metrics_json``) and a span JSONL log (``span_log``, defaulting to a
sibling of the run ledger).
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Callable

from ..core.report import ExperimentResult
from ..errors import (
    ExperimentError,
    ObservabilityError,
    SweepInterruptedError,
)
from ..obs import events as obs_events
from ..obs.context import ObsContext, activate_obs
from ..obs.export import write_chrome_trace, write_span_log
from ..obs.telemetry import (
    LEDGER_FILE,
    MANIFEST_FILE,
    METRICS_JSON_FILE,
    SPAN_LOG_FILE,
    TRACE_FILE,
    open_sink,
    telemetry_dir,
)
from ..parallel.pool import (
    ParallelConfig,
    activate_parallel,
    resolve_cache_dir,
    resolve_run_dir,
    resolve_supervision,
    resolve_workers,
)
from ..parallel.supervise import drain_guard
from ..resilience.executor import (
    ExecutionContext,
    ExecutionPolicy,
    activate,
)
from ..resilience.faults import FaultPlan
from ..resilience.policy import NO_RETRY, RetryPolicy
from . import (
    fig01_runtime,
    fig02_quality,
    fig03_opmix,
    fig04_crf_sweep,
    fig05_topdown,
    fig06_uarch,
    fig07_missrate,
    fig08_10_cbp,
    fig11_preset,
    fig12_15_threads,
    fig16_threads_topdown,
    table1,
    table2,
)

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1.run,
    "table2": table2.run,
    "fig01": fig01_runtime.run,
    "fig02": fig02_quality.run,
    "fig03": fig03_opmix.run,
    "fig04": fig04_crf_sweep.run,
    "fig05": fig05_topdown.run,
    "fig06": fig06_uarch.run,
    "fig07": fig07_missrate.run,
    "fig08": lambda **kw: fig08_10_cbp.run(figure="fig08", **kw),
    "fig09": lambda **kw: fig08_10_cbp.run(figure="fig09", **kw),
    "fig10": lambda **kw: fig08_10_cbp.run(figure="fig10", **kw),
    "fig11": fig11_preset.run,
    "fig12": lambda **kw: fig12_15_threads.run(figure="fig12", **kw),
    "fig13": lambda **kw: fig12_15_threads.run(figure="fig13", **kw),
    "fig14": lambda **kw: fig12_15_threads.run(figure="fig14", **kw),
    "fig15": lambda **kw: fig12_15_threads.run(figure="fig15", **kw),
    "fig16": fig16_threads_topdown.run,
}


def experiment_ids() -> list[str]:
    """All registered artifact ids."""
    return list(EXPERIMENTS)


def default_ledger_path(experiment_id: str) -> str:
    """Where a run checkpoints when no explicit path is given.

    ``REPRO_LEDGER_DIR`` overrides the default ``.repro/ledgers``
    directory under the current working directory.
    """
    base = os.environ.get(
        "REPRO_LEDGER_DIR", os.path.join(".repro", "ledgers")
    )
    return os.path.join(base, f"{experiment_id}.jsonl")


_UNEXPECTED_KWARG = re.compile(r"unexpected keyword argument '([^']+)'")


def _call_runner(
    experiment_id: str, runner: Callable[..., ExperimentResult], kwargs: dict
) -> ExperimentResult:
    """Invoke a runner, surfacing bad keywords as ExperimentError."""
    try:
        return runner(**kwargs)
    except TypeError as exc:
        match = _UNEXPECTED_KWARG.search(str(exc))
        if match is None:
            raise
        raise ExperimentError(
            f"experiment {experiment_id!r} does not accept the "
            f"keyword argument {match.group(1)!r}"
        ) from None


def default_span_log_path(ledger_path: str) -> str:
    """Span-log path riding alongside a run ledger."""
    stem, _ = os.path.splitext(ledger_path)
    return f"{stem}.spans.jsonl"


def _write_manifest(
    run_dir: str, manifest: dict, *, replace: bool = False
) -> None:
    """Write/update the run directory's ``run.json`` (best effort).

    The manifest is advisory metadata for ``repro status`` — a run
    must never die because its description could not be written.
    The exit rewrite merges over the on-disk file rather than
    replacing it: other subsystems annotate the manifest mid-run
    (the shm data plane's ``shm_segments`` list) and those keys must
    survive.  The start-of-run write passes ``replace=True`` so a
    reused run directory does not inherit a prior run's ``error`` or
    ``ended_wall``.
    """
    path = os.path.join(run_dir, MANIFEST_FILE)
    merged: dict = {}
    if not replace:
        try:
            with open(path, encoding="utf-8") as handle:
                on_disk = json.load(handle)
            if isinstance(on_disk, dict):
                merged = on_disk
        except (OSError, json.JSONDecodeError, FileNotFoundError):
            pass
    merged.update(manifest)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError:
        pass


def run_experiment(
    experiment_id: str,
    *,
    resume: bool = False,
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    ledger_path: str | None = None,
    fault_plan: FaultPlan | None = None,
    trace_out: str | None = None,
    metrics_json: str | None = None,
    span_log: str | None = None,
    run_dir: str | None = None,
    obs: ObsContext | None = None,
    workers: int | str | None = None,
    cache_dir: str | None = None,
    cache_salt: str = "",
    heartbeat_interval: float | None = None,
    max_worker_restarts: int | None = None,
    validate_claims: bool = False,
    **kwargs,
) -> ExperimentResult:
    """Regenerate one table/figure by id.

    Parameters
    ----------
    resume:
        Replay cells already checkpointed in the ledger instead of
        re-executing them (implies checkpointing).
    max_retries:
        Per-cell retries for transient failures (exponential backoff).
    cell_timeout:
        Per-cell watchdog deadline in seconds.
    ledger_path:
        Where to checkpoint completed cells (JSONL).  Defaults to
        :func:`default_ledger_path` whenever ``resume`` is set.
    fault_plan:
        Explicit fault-injection plan (testing); by default the
        process-wide ``REPRO_FAULT_PLAN`` plan applies.
    trace_out:
        Write the run's spans as a Chrome Trace Event file here
        (loadable in Perfetto / ``about:tracing``).
    metrics_json:
        Write the run's metrics-registry snapshot as JSON here.
    span_log:
        Write the raw span/event JSONL log here.  Defaults to a
        ``<experiment>.spans.jsonl`` sibling of the run ledger
        whenever one is in use.
    run_dir:
        Collect every run artifact under one directory: the ledger
        (``ledger.jsonl``), span log (``spans.jsonl``), metrics
        snapshot (``metrics.json``), Chrome trace (``trace.json``), a
        ``run.json`` manifest, per-process telemetry streams
        (``telemetry/``) and the pool's heartbeat sidecars
        (``heartbeats/``) — the artifact contract
        ``repro status`` and ``repro report`` read (see
        OBSERVABILITY.md).  Implies checkpointing; explicit artifact
        paths still win over the run-dir defaults.  Defaults to
        ``REPRO_RUN_DIR``, else off.
    obs:
        An explicit :class:`~repro.obs.ObsContext` to collect into
        (testing — e.g. with a fake clock); one is created per run
        otherwise.
    workers:
        Sweep cells execute over a process pool of this size
        (``"auto"`` = one per core); sweep grids are merged back in
        deterministic
        point order, so results match a serial run.  Defaults to
        ``REPRO_WORKERS``, else serial.
    cache_dir:
        Enable the content-addressed result cache rooted here (see
        :mod:`repro.cache`); cells whose key is already stored are
        served from disk.  Defaults to ``REPRO_CACHE_DIR``, else off.
    cache_salt:
        Extra string folded into every cache key (a campaign id);
        changing it orphans previous entries.
    heartbeat_interval:
        Seconds between pool-worker heartbeats; the supervisor kills a
        worker whose lease misses beats past the stall deadline.
        Defaults to ``REPRO_HEARTBEAT_INTERVAL``, else 0.5.
    max_worker_restarts:
        Pool rebuilds tolerated per sweep before the run fails.
        Defaults to ``REPRO_MAX_WORKER_RESTARTS``, else 12.
    validate_claims:
        Evaluate the paper claims registered for this experiment (see
        :mod:`repro.validate`) over the fresh result and record the
        verdicts in ``provenance["claims"]``.  Evaluation never fails
        the run — failed claims are verdicts, not exceptions.
    kwargs:
        Forwarded to the experiment runner (``session=``, figure
        selection, ...); unknown names raise
        :class:`~repro.errors.ExperimentError`.

    Every run executes under an installed observability context: spans
    cover the session, each sweep cell, each retry attempt and each
    codec pipeline stage, and the result's ``provenance["telemetry"]``
    summarises per-cell durations plus retry/quarantine counters that
    match the run ledger.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{', '.join(EXPERIMENTS)}"
        ) from None

    run_dir = resolve_run_dir(run_dir)
    if run_dir is not None:
        try:
            os.makedirs(run_dir, exist_ok=True)
        except OSError as exc:
            raise ExperimentError(
                f"cannot create run directory {run_dir!r}: {exc}"
            ) from exc
        if ledger_path is None:
            ledger_path = os.path.join(run_dir, LEDGER_FILE)
        if span_log is None:
            span_log = os.path.join(run_dir, SPAN_LOG_FILE)
        if metrics_json is None:
            metrics_json = os.path.join(run_dir, METRICS_JSON_FILE)
        if trace_out is None:
            trace_out = os.path.join(run_dir, TRACE_FILE)

    resilient = (
        resume
        or max_retries is not None
        or cell_timeout is not None
        or ledger_path is not None
        or fault_plan is not None
    )
    if resume and ledger_path is None:
        ledger_path = default_ledger_path(experiment_id)

    supervision = resolve_supervision(
        heartbeat_interval, max_worker_restarts
    )
    parallel = ParallelConfig(
        workers=workers,
        cache_dir=cache_dir,
        cache_salt=cache_salt,
        heartbeat_interval=heartbeat_interval,
        max_worker_restarts=max_worker_restarts,
        run_dir=run_dir,
    )
    obs_context = obs if obs is not None else ObsContext()
    manifest: dict = {}
    if run_dir is not None:
        manifest = {
            "schema_version": 1,
            "experiment_id": experiment_id,
            "status": "running",
            "started_wall": time.time(),
            "pid": os.getpid(),
            "workers": resolve_workers(workers),
        }
        _write_manifest(run_dir, manifest, replace=True)
        obs_context.telemetry = open_sink(
            telemetry_dir(run_dir),
            role="parent",
            obs=obs_context,
            interval=supervision.heartbeat_interval,
        )
    outcome, error_text = "complete", None
    try:
        with activate_obs(obs_context), activate_parallel(parallel), \
                drain_guard():
            with obs_context.tracer.span(
                "session", experiment=experiment_id
            ):
                if not resilient:
                    result = _call_runner(experiment_id, runner, kwargs)
                    context = None
                else:
                    policy = ExecutionPolicy(
                        retry=(
                            RetryPolicy(max_retries=max_retries)
                            if max_retries is not None
                            else NO_RETRY
                        ),
                        cell_timeout=cell_timeout,
                        ledger_path=ledger_path,
                        resume=resume,
                        faults=fault_plan,
                    )
                    context = ExecutionContext(
                        policy, experiment_id=experiment_id
                    )
                    with activate(context):
                        result = _call_runner(experiment_id, runner, kwargs)
            result.provenance["parallel"] = {
                "workers": resolve_workers(workers),
                "cache_dir": resolve_cache_dir(cache_dir),
                "heartbeat_interval": supervision.heartbeat_interval,
                "max_worker_restarts": supervision.max_worker_restarts,
            }
            if run_dir is not None:
                result.provenance["parallel"]["run_dir"] = run_dir
            if context is not None:
                result.provenance.update(context.guard.provenance())
                quarantined = context.guard.quarantined_keys()
                if quarantined:
                    obs_events.emit(
                        "experiment.quarantined",
                        f"{experiment_id}: {len(quarantined)} cell(s) "
                        f"quarantined",
                        experiment=experiment_id,
                        cells=quarantined,
                    )
            if validate_claims:
                # Imported at call time: repro.validate pulls in this
                # module for its engine, so a top-level import would
                # cycle.
                from ..validate.claims import evaluate_result_claims

                evaluate_result_claims(result)
    except SweepInterruptedError as exc:
        outcome, error_text = "interrupted", str(exc)
        raise
    except BaseException as exc:
        outcome, error_text = "error", f"{type(exc).__name__}: {exc}"
        raise
    finally:
        if obs_context.telemetry is not None:
            obs_context.telemetry.stop(outcome=outcome)
            obs_context.telemetry = None
        if run_dir is not None:
            manifest["status"] = outcome
            manifest["ended_wall"] = time.time()
            if error_text is not None:
                manifest["error"] = error_text
            _write_manifest(run_dir, manifest)
        if outcome != "complete":
            # Best-effort artifact flush: an interrupted or crashed
            # run's spans/metrics are exactly what a post-mortem
            # wants, and a failed export must not mask the original
            # exception.
            _flush_artifacts(
                obs_context,
                span_log=span_log,
                metrics_json=metrics_json,
            )
    result.provenance["telemetry"] = obs_context.telemetry_summary()

    spans = obs_context.tracer.spans
    if trace_out is not None:
        write_chrome_trace(trace_out, spans)
    if metrics_json is not None:
        _write_metrics_json(metrics_json, obs_context)
    if span_log is None and ledger_path is not None:
        span_log = default_span_log_path(ledger_path)
    if span_log is not None:
        write_span_log(span_log, spans, obs_context.events.events)
    return result


def _flush_artifacts(
    obs_context: ObsContext,
    *,
    span_log: str | None,
    metrics_json: str | None,
) -> None:
    """Export the span log and metrics snapshot, best effort (exception
    path)."""
    for path, write in (
        (
            span_log,
            lambda p: write_span_log(
                p, obs_context.tracer.spans, obs_context.events.events
            ),
        ),
        (metrics_json, lambda p: _write_metrics_json(p, obs_context)),
    ):
        if path is None:
            continue
        try:
            write(path)
        except Exception:  # noqa: BLE001 - must not mask the original
            pass


def _write_metrics_json(path: str, obs_context: ObsContext) -> None:
    """Dump the run's metrics snapshot (``--metrics-json``)."""
    parent = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(obs_context.metrics.to_json(indent=2) + "\n")
    except OSError as exc:
        raise ObservabilityError(
            f"cannot write metrics snapshot {path!r}: {exc}"
        ) from exc
