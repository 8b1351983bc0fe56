"""Parallel sweep execution: fan cells over a process pool.

One characterization cell is CPU-bound, pure Python and completely
independent of every other cell, which makes the sweep grids of the
paper's figures embarrassingly parallel.  :func:`execute_cells` is the
one engine both execution modes share:

- **serial** (``workers=1``, the default) iterates the specs exactly
  as :func:`repro.core.sweeps.sweep_cells` always has — same
  ``sweep.cell`` span, same quarantine-drops-the-cell semantics;
- **pooled** (``workers>1``) dispatches each not-yet-computed cell to
  a :class:`~concurrent.futures.ProcessPoolExecutor` worker.  The
  worker reconstructs a :class:`~repro.core.session.Session` and runs
  *the same* ``Session.report`` code path the serial loop runs — the
  full retry/fault/timeout/quarantine stack executes inside the
  worker — then ships the serialized result home together with its
  telemetry (spans, events, metrics snapshot).

The parent re-parents each worker's spans under a coordinating
``sweep.cell`` span, rebased onto the parent's monotonic clock via a
``(wall, monotonic)`` anchor pair captured on both sides, so the
Chrome-trace export shows true cross-process concurrency on one
timeline.  Completed cells are appended to the parent's run ledger
(resume keeps working), and worker metrics fold into the parent's
registry without double-counting: only the worker bumps the per-cell
counters, the parent merely merges.

Worker processes are forked, so they inherit the parent's imports and
environment; only the per-cell job (spec, machine, policies, cache
location) crosses the pickle boundary.

The pool is *supervised* (see :mod:`repro.parallel.supervise`): every
dispatch takes a lease in the parent's ledger, workers heartbeat to
per-cell sidecar files, and the parent's dispatch loop detects broken
pools, dead workers and stalled leases, rebuilds the pool, and
re-dispatches only the lost cells — repeat offenders are poisoned
into quarantine with a :class:`~repro.errors.WorkerCrashError` instead
of crashing the sweep a third time.  SIGINT/SIGTERM drain gracefully:
in-flight cells finish, the ledger stays resumable, and the run exits
through :class:`~repro.errors.SweepInterruptedError`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import shutil
import signal as _signal
import tempfile
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait
from typing import Any, Iterable, Iterator

from ..cache import ResultCache
from ..clock import SYSTEM_CLOCK
from ..core.serialize import from_jsonable, to_jsonable
from ..core.session import CellSpec, RunKey, Session
from ..errors import (
    ExperimentError,
    QuarantinedCellError,
    ShmError,
    SweepInterruptedError,
    VideoError,
    WorkerCrashError,
)
from ..obs import events as obs_events
from ..obs.context import ObsContext, activate_obs, current_obs, record_metric
from ..obs.events import Event
from ..obs.span import ERROR, OK as SPAN_OK, active_tracer, trace_span
from ..obs.telemetry import (
    heartbeat_dir,
    open_sink,
    reset_rss_peak,
    rss_peak_kib,
    telemetry_dir,
)
from ..resilience.executor import (
    CellOutcome,
    ExecutionPolicy,
    ResilienceGuard,
)
from ..resilience.ledger import OK, QUARANTINED
from .shm import InlineVideo, ShmDataPlane
from .supervise import (
    HeartbeatWriter,
    Lease,
    SupervisionConfig,
    drain_guard,
    drain_requested,
)

#: Environment override for the default worker count (0 = all cores).
_ENV_WORKERS = "REPRO_WORKERS"
#: Environment overrides for the supervisor's knobs.
_ENV_HEARTBEAT = "REPRO_HEARTBEAT_INTERVAL"
_ENV_RESTARTS = "REPRO_MAX_WORKER_RESTARTS"
_ENV_MISSES = "REPRO_HEARTBEAT_MISSES"
_ENV_CRASHES = "REPRO_MAX_CELL_CRASHES"
#: How long a broken pool's exited workers get to report a status.
_EXIT_SETTLE_SECONDS = 1.0


@dataclass(frozen=True)
class ParallelConfig:
    """One experiment run's parallelism/caching knobs.

    Installed by ``run_experiment`` via :func:`activate_parallel`, read
    by :func:`resolve_workers`/:func:`resolve_cache_dir` so the knobs
    reach every sweep without threading arguments through each
    experiment module (the same ambient-context pattern as the
    resilience and observability contexts).
    """

    workers: int | str | None = None  # None -> env -> 1; "auto" -> cores
    cache_dir: str | None = None     # None -> env -> no cache
    cache_salt: str = ""
    #: Supervision knobs; ``None`` falls through env to the defaults.
    heartbeat_interval: float | None = None
    max_worker_restarts: int | None = None
    #: Run directory: when set, heartbeat sidecars move from a
    #: tempdir to ``<run-dir>/heartbeats/`` (and survive the run for
    #: ``repro status``) and every worker streams telemetry samples
    #: into ``<run-dir>/telemetry/``.
    run_dir: str | None = None

    def __post_init__(self) -> None:
        # Reject nonsense at construction, not deep inside a sweep.
        # (The historical "0 means one per core" special case parsed
        # differently at every layer; 0 is now an error everywhere and
        # "auto" is the one spelling of one-worker-per-core.)
        _check_workers(self.workers)


_current: ParallelConfig | None = None


def current_parallel() -> ParallelConfig | None:
    """The config installed by the innermost :func:`activate_parallel`."""
    return _current


@contextmanager
def activate_parallel(config: ParallelConfig) -> Iterator[ParallelConfig]:
    """Install ``config`` for the duration of one experiment run."""
    global _current
    previous = _current
    _current = config
    try:
        yield config
    finally:
        _current = previous


#: The one spelling of "one worker per core" at every layer.
WORKERS_AUTO = "auto"


def _check_workers(workers: int | str | None) -> int | str | None:
    """Validate a worker-count setting without resolving it.

    Accepts ``None`` (inherit), ``"auto"`` (one per core) or a
    positive integer; everything else — including the historical
    ``0``, which different layers used to read as "auto", "serial" or
    "invalid" depending on the code path — raises up front.
    """
    if workers is None:
        return None
    if isinstance(workers, str):
        if workers.strip().lower() == WORKERS_AUTO:
            return WORKERS_AUTO
        raise ExperimentError(
            f"worker count {workers!r} is not an integer or 'auto'"
        )
    if isinstance(workers, bool) or workers < 1:
        raise ExperimentError(
            f"worker count must be >= 1, got {workers!r} "
            f"(use 'auto' for one worker per core)"
        )
    return workers


def resolve_workers(workers: int | str | None = None) -> int:
    """Effective worker count: explicit > ambient > env > 1.

    ``"auto"`` anywhere in the chain means "one worker per core";
    ``0`` is an error everywhere (it used to silently mean auto here
    while the CLI documented it and ``ParallelConfig`` ignored it —
    three layers, three semantics).
    """
    if workers is None and _current is not None:
        workers = _current.workers
    if workers is None:
        raw = os.environ.get(_ENV_WORKERS, "")
        if raw:
            if raw.strip().lower() == WORKERS_AUTO:
                workers = WORKERS_AUTO
            else:
                try:
                    workers = int(raw)
                except ValueError:
                    raise ExperimentError(
                        f"{_ENV_WORKERS}={raw!r} is not an integer or "
                        f"'auto'"
                    ) from None
    if workers is None:
        return 1
    workers = _check_workers(workers)
    if workers == WORKERS_AUTO:
        return os.cpu_count() or 1
    return workers


def _env_number(name: str, parse, kind: str):
    raw = os.environ.get(name, "")
    if not raw:
        return None
    try:
        return parse(raw)
    except ValueError:
        raise ExperimentError(f"{name}={raw!r} is not {kind}") from None


def resolve_supervision(
    heartbeat_interval: float | None = None,
    max_worker_restarts: int | None = None,
) -> SupervisionConfig:
    """Effective supervisor knobs: explicit > ambient > env > defaults.

    ``REPRO_HEARTBEAT_INTERVAL`` / ``REPRO_MAX_WORKER_RESTARTS`` mirror
    the CLI flags; ``REPRO_HEARTBEAT_MISSES`` and
    ``REPRO_MAX_CELL_CRASHES`` are env-only (they tune the stall
    deadline and the poison threshold, which almost never need
    per-run adjustment).
    """
    if heartbeat_interval is None and _current is not None:
        heartbeat_interval = _current.heartbeat_interval
    if heartbeat_interval is None:
        heartbeat_interval = _env_number(_ENV_HEARTBEAT, float, "a number")
    if max_worker_restarts is None and _current is not None:
        max_worker_restarts = _current.max_worker_restarts
    if max_worker_restarts is None:
        max_worker_restarts = _env_number(_ENV_RESTARTS, int, "an integer")
    misses = _env_number(_ENV_MISSES, int, "an integer")
    crashes = _env_number(_ENV_CRASHES, int, "an integer")
    defaults = SupervisionConfig()
    return SupervisionConfig(
        heartbeat_interval=(
            heartbeat_interval
            if heartbeat_interval is not None
            else defaults.heartbeat_interval
        ),
        heartbeat_misses=(
            misses if misses is not None else defaults.heartbeat_misses
        ),
        max_worker_restarts=(
            max_worker_restarts
            if max_worker_restarts is not None
            else defaults.max_worker_restarts
        ),
        max_cell_crashes=(
            crashes if crashes is not None else defaults.max_cell_crashes
        ),
    )


def resolve_cache_dir(cache_dir: str | None = None) -> str | None:
    """Effective cache directory: explicit > ambient > env > disabled."""
    if cache_dir is None and _current is not None:
        cache_dir = _current.cache_dir
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return cache_dir


def resolve_run_dir(run_dir: str | None = None) -> str | None:
    """Effective run directory: explicit > ambient > env > disabled."""
    if run_dir is None and _current is not None:
        run_dir = _current.run_dir
    if run_dir is None:
        run_dir = os.environ.get("REPRO_RUN_DIR") or None
    return run_dir


def run_spec(session: Session, spec: CellSpec) -> Any:
    """Execute one grid point — the single cell-execution function.

    Both the serial loop and every pool worker funnel through this
    (and thus through ``Session.report``), so quarantine handling, span
    attributes and ledger records cannot diverge between modes.
    """
    return session.report(spec.codec, spec.video, spec.crf, spec.preset)


# -- worker side -----------------------------------------------------


@dataclass(frozen=True)
class _CellJob:
    """Everything a worker needs to execute one cell, picklable."""

    spec: CellSpec
    machine: Any
    num_frames: int | None
    policy: ExecutionPolicy | None
    experiment_id: str
    cache_dir: str | None
    cache_salt: str
    #: Heartbeat sidecar file for this dispatch (``None`` = no beats).
    hb_path: str | None = None
    heartbeat_interval: float = 0.5
    #: Worker crashes this cell already caused; primes crash-kind
    #: fault counters so an injected kill is not re-fired forever.
    prior_crashes: int = 0
    #: Telemetry stream directory (``None`` = telemetry disabled).
    telemetry_dir: str | None = None
    #: Video delivery payload for this cell's clip — a
    #: :class:`~repro.parallel.shm.ShmVideoHandle` (zero-copy attach)
    #: or, where the publish failed, an
    #: :class:`~repro.parallel.shm.InlineVideo` (pickled planes).
    #: ``None`` only for a clip the parent could not resolve, which
    #: the worker then fails on exactly as a serial run would.
    video_payload: Any = None


def _worker_init() -> None:
    """Pool-worker initializer: leave terminal signals to the parent.

    Ctrl-C reaches the whole foreground process group; if workers died
    on the first SIGINT there would be nothing left to drain.  Workers
    ignore SIGINT/SIGTERM and the parent decides — finish in-flight
    cells on a drain, SIGKILL on a stall.
    """
    _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    _signal.signal(_signal.SIGTERM, _signal.SIG_IGN)


def _worker_cell(job: _CellJob) -> dict[str, Any]:
    """Run one cell in a pool worker; ship result + telemetry home.

    Runs under a fresh :class:`ObsContext` (the fork inherited the
    parent's ambient collectors, which must not be touched from
    another process) and, when the parent runs guarded, a fresh
    ledger-less :class:`ResilienceGuard` carrying the parent's retry/
    timeout/fault policies — checkpointing stays with the parent.
    """
    obs = ObsContext()
    anchor_wall = time.time()
    anchor_mono = obs.clock.monotonic()
    session = Session(machine=job.machine, num_frames=job.num_frames)
    if job.video_payload is not None:
        session.add_video_source(
            job.spec.video, session.video_frames(), job.video_payload
        )
    if job.policy is not None:
        session.guard = ResilienceGuard(job.policy, job.experiment_id)
    if job.cache_dir:
        session.cache = ResultCache(job.cache_dir, salt=job.cache_salt)
    key = RunKey(
        job.spec.codec, job.spec.video, job.spec.crf, job.spec.preset,
        job.num_frames,
    )
    cell_key = session.cell_key(key)
    if (
        job.prior_crashes
        and job.policy is not None
        and job.policy.faults is not None
    ):
        job.policy.faults.prime(cell_key, job.prior_crashes)
    heartbeat = None
    if job.hb_path:
        heartbeat = HeartbeatWriter(
            job.hb_path, key=cell_key, interval=job.heartbeat_interval
        )
        heartbeat.start()
    sink = None
    if job.telemetry_dir:
        sink = open_sink(
            job.telemetry_dir,
            role="worker",
            obs=obs,
            interval=job.heartbeat_interval,
        )
        if sink is not None:
            sink.annotate(inflight=cell_key)
    # The cell's memory number rides with telemetry: the kernel's RSS
    # high-water mark, reset here and read when the cell ends, is what
    # `repro report` ranks per cell.  Where the reset is refused there
    # is no window to read, so the field stays None.
    peak_window = sink is not None and reset_rss_peak()
    status, payload, error = OK, None, None
    try:
        with activate_obs(obs):
            cell_start = obs.clock.monotonic()
            try:
                payload = to_jsonable(run_spec(session, job.spec))
            except QuarantinedCellError as exc:
                status = QUARANTINED
                error = f"{type(exc.cause).__name__}: {exc.cause}"
            cell_end = obs.clock.monotonic()
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        if sink is not None:
            sink.annotate(inflight=None)
            sink.stop(
                cell=cell_key,
                status=status,
                cell_peak_rss_kib=rss_peak_kib() if peak_window else None,
            )
    outcome = (
        session.guard.outcomes[-1]
        if session.guard is not None and session.guard.outcomes
        else None
    )
    return {
        "key": cell_key,
        "status": status,
        "payload": payload,
        "error": error,
        "attempts": outcome.attempts if outcome is not None else 1,
        "elapsed": (
            outcome.elapsed_seconds
            if outcome is not None
            else cell_end - cell_start
        ),
        "cell_start": cell_start,
        "cell_end": cell_end,
        "anchors": {"wall": anchor_wall, "mono": anchor_mono},
        "spans": [span.to_jsonable() for span in obs.tracer.spans],
        "events": [event.to_jsonable() for event in obs.events.events],
        "metrics": obs.metrics.snapshot(),
        "pid": os.getpid(),
    }


# -- parent side -----------------------------------------------------


def _worker_policy(guard: ResilienceGuard | None) -> ExecutionPolicy | None:
    """The parent's policy, rebuilt for in-worker execution.

    The ledger stays with the parent (workers get ``ledger_path=None``)
    and the fault plan is resolved *here* and shipped explicitly, so
    workers do not re-read the environment.  Per-site fault hit
    counters stay correct because each site is dispatched to exactly
    one worker.
    """
    if guard is None:
        return None
    base = guard.policy
    return ExecutionPolicy(
        retry=base.retry,
        cell_timeout=base.cell_timeout,
        ledger_path=None,
        resume=False,
        faults=base.fault_plan(),
    )


def _merge_result(
    session: Session,
    spec: CellSpec,
    key: RunKey,
    index: int,
    result: dict[str, Any],
    *,
    offset: float,
    thread_rows: dict[tuple[int, int], int],
) -> None:
    """Adopt one worker's result: report, ledger, spans, metrics."""
    guard = session.guard
    if result["status"] == OK:
        report = from_jsonable(result["payload"])
        session._reports[key] = report
        if guard is not None:
            guard.record_remote(
                CellOutcome(
                    key=result["key"],
                    status=OK,
                    attempts=result["attempts"],
                    elapsed_seconds=result["elapsed"],
                ),
                payload=result["payload"],
            )
    else:
        session._quarantined[key] = QuarantinedCellError(
            result["key"], RuntimeError(result["error"])
        )
        if guard is not None:
            guard.record_remote(
                CellOutcome(
                    key=result["key"],
                    status=QUARANTINED,
                    attempts=result["attempts"],
                    elapsed_seconds=result["elapsed"],
                    error=result["error"],
                )
            )

    obs = current_obs()
    tracer = active_tracer()
    if tracer is not None:
        # One synthetic timeline row per (worker pid, worker thread),
        # stable across cells, so the Chrome trace shows each worker as
        # its own concurrent lane.
        def row(local_tid: int) -> int:
            rid = thread_rows.get((result["pid"], local_tid))
            if rid is None:
                rid = thread_rows[(result["pid"], local_tid)] = (
                    tracer.synthetic_thread()
                )
            return rid

        thread_map = {
            tid: row(tid)
            for tid in sorted(
                {record.get("thread", 0) for record in result["spans"]} | {0}
            )
        }
        current = tracer.current()
        coordinator = tracer.record_span(
            "sweep.cell",
            result["cell_start"] + offset,
            result["cell_end"] + offset,
            parent_id=current.span_id if current is not None else None,
            thread=thread_map[0],
            status=SPAN_OK if result["status"] == OK else ERROR,
            error=(
                None
                if result["status"] == OK
                else f"QuarantinedCellError: {result['error']}"
            ),
            point=str(spec),
            index=index,
            worker=result["pid"],
        )
        tracer.graft(
            result["spans"],
            parent_id=coordinator.span_id,
            offset=offset,
            thread_map=thread_map,
        )
    if obs is not None:
        for record in result["events"]:
            # Append rebased copies directly: the worker already
            # mirrored any warning to the (shared) stderr.
            obs.events.events.append(
                Event(
                    kind=record["kind"],
                    message=record["message"],
                    time=record["time"] + offset,
                    level=record["level"],
                    fields=dict(record["fields"]),
                )
            )
        obs.metrics.merge_snapshot(result["metrics"])


def _execute_serial(
    session: Session, specs: list[CellSpec]
) -> list[Any | None]:
    """The ``workers=1`` engine: the classic sweep loop, spec-driven."""
    results: list[Any | None] = []
    for index, spec in enumerate(specs):
        signame = drain_requested()
        if signame is not None:
            raise SweepInterruptedError(
                signame, completed=index, total=len(specs)
            )
        try:
            with trace_span("sweep.cell", point=str(spec), index=index):
                results.append(run_spec(session, spec))
        except QuarantinedCellError:
            results.append(None)
    return results


def _kill_pids(pids: Iterable[int]) -> None:
    """SIGKILL each pid; a worker already gone is already what we want.

    SIGKILL (not SIGTERM) because the target may be SIGSTOPped — a
    stopped process queues every catchable signal until SIGCONT, and a
    hung worker is exactly the one that will never resume itself.
    """
    for pid in pids:
        try:
            os.kill(pid, _signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _pool_pids(pool: ProcessPoolExecutor) -> list[int]:
    processes = getattr(pool, "_processes", None) or {}
    return list(processes)


def _reap_broken(pool: ProcessPoolExecutor) -> set[int]:
    """Read a broken pool's worker exits, then SIGKILL its survivors.

    Returns the pids that exited with a non-zero status.  Workers
    ignore SIGTERM, so the executor's own teardown leaves a healthy
    worker running or exiting 0: only the worker that actually died
    reads as non-zero.  A worker whose sentinel is ready has exited,
    but its status can lag for a moment (the kernel has not reaped it
    yet, or the executor's thread is mid-``join``), so those are
    polled briefly.  Survivors are killed next: their cells are lost
    and re-dispatched anyway, and from Python 3.12 the executor joins
    them while holding the lock ``shutdown()`` takes, so a live
    survivor would hang the shutdown.  Call before ``shutdown()``,
    which drops the process table.
    """
    processes = list((getattr(pool, "_processes", None) or {}).items())
    ready = set(mp_wait([process.sentinel for _, process in processes], 0))
    exited = [(pid, p) for pid, p in processes if p.sentinel in ready]
    deadline = time.monotonic() + _EXIT_SETTLE_SECONDS
    codes = {pid: process.exitcode for pid, process in exited}
    while None in codes.values() and time.monotonic() < deadline:
        time.sleep(0.001)
        codes = {pid: process.exitcode for pid, process in exited}
    for _, process in processes:
        process.kill()  # a no-op once the process has been reaped
    return {pid for pid, code in codes.items() if code}


class _Supervisor:
    """Parent-side state for one supervised pooled sweep.

    Owns the dispatch queue, the in-flight lease table, per-cell crash
    counts and the restart budget; the dispatch loop in
    :func:`_execute_pooled` drives it.  Results merge as they arrive —
    determinism comes from the final key-ordered assembly, not from
    completion order, so re-dispatching lost cells in any order is
    safe.
    """

    def __init__(
        self,
        session: Session,
        pending: dict[RunKey, tuple[int, CellSpec]],
        config: SupervisionConfig,
        worker_count: int,
    ) -> None:
        self.session = session
        self.guard = session.guard
        self.pending = pending
        self.config = config
        self.worker_count = worker_count
        self.queue: deque[RunKey] = deque(
            sorted(pending, key=lambda k: pending[k][0])
        )
        self.inflight: dict[Any, Lease] = {}
        self.crashes: dict[str, int] = {}
        self.restarts = 0
        self.dispatch_seq = 0
        # Heartbeat sidecars: inside the run directory (where they
        # survive for `repro status` post-mortems) when one is set,
        # else a tempdir removed on close.  One fresh subdirectory per
        # sweep either way — an experiment may run several sweeps and
        # their dispatch sequence numbers would otherwise collide.
        run_dir = resolve_run_dir()
        if run_dir is not None:
            parent = heartbeat_dir(run_dir)
            os.makedirs(parent, exist_ok=True)
            self.hb_dir = tempfile.mkdtemp(prefix="sweep-", dir=parent)
            self.hb_persistent = True
        else:
            self.hb_dir = tempfile.mkdtemp(prefix="repro-hb-")
            self.hb_persistent = False

    def dispatch(self, pool: ProcessPoolExecutor, job_template) -> bool:
        """Submit cells until the pool is saturated or a drain holds.

        Returns ``False`` when the pool turns out to be broken already
        (a worker died between ticks): the un-submitted cell goes back
        to the queue head and the caller runs the rebuild path.
        """
        while (
            self.queue
            and len(self.inflight) < self.worker_count
            and drain_requested() is None
        ):
            key = self.queue.popleft()
            index, spec = self.pending[key]
            cell_key = self.session.cell_key(key)
            prior = self.crashes.get(cell_key, 0)
            self.dispatch_seq += 1
            hb_path = os.path.join(
                self.hb_dir, f"{self.dispatch_seq:06d}.jsonl"
            )
            job = job_template(spec, hb_path, prior)
            # What actually crosses the process boundary per dispatch —
            # the number the zero-copy data plane exists to shrink.
            record_metric(
                "counter",
                "pool.payload_bytes",
                float(len(pickle.dumps(job, pickle.HIGHEST_PROTOCOL))),
            )
            try:
                future = pool.submit(_worker_cell, job)
            except BrokenProcessPool:
                self.queue.appendleft(key)
                return False
            self.inflight[future] = Lease(
                key=key,
                cell_key=cell_key,
                index=index,
                spec=spec,
                hb_path=hb_path,
                granted_wall=time.time(),
                seq=self.dispatch_seq,
            )
            if self.guard is not None:
                self.guard.grant_lease(
                    cell_key,
                    seq=self.dispatch_seq,
                    prior_crashes=prior,
                    wall=time.time(),
                    hb=os.path.basename(hb_path),
                )
            else:
                record_metric("counter", "pool.leases.granted")
        return True

    def check_stalls(self, pool: ProcessPoolExecutor) -> None:
        """SIGKILL workers whose leases missed the heartbeat deadline.

        The kill surfaces as a broken pool on the next tick;
        ``stall_killed`` pins crash blame on the stalled cell so the
        innocent in-flight cells are re-dispatched blame-free.
        """
        now_wall = time.time()
        for lease in self.inflight.values():
            if lease.stall_killed:
                continue
            if not lease.stalled(now_wall, self.config.stall_deadline):
                continue
            lease.stall_killed = True
            record_metric("counter", "pool.leases.expired")
            pid = lease.beat_pid()
            obs_events.warn(
                "pool.lease_stalled",
                f"cell {lease.cell_key}: no heartbeat for "
                f"{self.config.stall_deadline:g}s; killing worker",
                cell=lease.cell_key,
                pid=pid,
                deadline=self.config.stall_deadline,
            )
            _kill_pids([pid] if pid is not None else _pool_pids(pool))

    def handle_lost(self, lost: list[Lease], crashed: set[int]) -> None:
        """Blame, ledger, poison or requeue every lost lease.

        Blame goes to stall-killed leases when the supervisor caused
        the break, else to leases whose last heartbeat names a worker
        in ``crashed`` (the pids that exited non-zero), so a healthy
        cell running beside a crashing one is requeued blame-free.
        When no lease maps to a crashed worker, blame falls back to
        leases whose cells demonstrably started (their heartbeat file
        exists), else — the worker died before any beat — to every
        lost lease, which guarantees a repeatedly-crashing cell
        accumulates blame and the sweep always makes progress toward
        poisoning it.
        """
        lost.sort(key=lambda lease: lease.index)
        stalled = [lease for lease in lost if lease.stall_killed]
        died = [lease for lease in lost if lease.beat_pid() in crashed]
        started = [lease for lease in lost if lease.started()]
        blamed = {
            lease.seq for lease in (stalled or died or started or lost)
        }
        requeue: list[RunKey] = []
        for lease in lost:
            reason = (
                "stalled past heartbeat deadline"
                if lease.stall_killed
                else "worker process died"
            )
            count = self.crashes.get(lease.cell_key, 0)
            if lease.seq in blamed:
                count += 1
                self.crashes[lease.cell_key] = count
            if self.guard is not None:
                self.guard.lease_lost(
                    lease.cell_key,
                    reason,
                    seq=lease.seq,
                    blamed=lease.seq in blamed,
                    crashes=count,
                    wall=time.time(),
                )
            else:
                record_metric("counter", "pool.leases.lost")
            if (
                lease.seq in blamed
                and count > self.config.max_cell_crashes
            ):
                self._poison(lease, count, reason)
            else:
                requeue.append(lease.key)
        self.queue = deque(
            sorted(
                [*requeue, *self.queue],
                key=lambda k: self.pending[k][0],
            )
        )

    def _poison(self, lease: Lease, count: int, reason: str) -> None:
        cause = WorkerCrashError(lease.cell_key, count, reason)
        self.session._quarantined[lease.key] = QuarantinedCellError(
            lease.cell_key, cause
        )
        if self.guard is not None:
            self.guard.record_remote(
                CellOutcome(
                    key=lease.cell_key,
                    status=QUARANTINED,
                    attempts=count,
                    error=f"{type(cause).__name__}: {cause}",
                )
            )
        record_metric("counter", "pool.cells.poisoned")
        record_metric("counter", "cells.quarantined")
        obs_events.warn(
            "pool.poison",
            f"cell {lease.cell_key} crashed {count} worker(s); "
            f"quarantined as poison",
            cell=lease.cell_key,
            crashes=count,
        )

    def spend_restart(self, lost_count: int) -> None:
        """Account one pool rebuild; raise once the budget is gone."""
        self.restarts += 1
        record_metric("counter", "pool.restarts")
        obs_events.warn(
            "pool.worker_crash",
            f"process pool broke ({lost_count} lease(s) lost); "
            f"rebuilding (restart {self.restarts}/"
            f"{self.config.max_worker_restarts})",
            lost=lost_count,
            restarts=self.restarts,
        )
        if self.restarts > self.config.max_worker_restarts:
            raise ExperimentError(
                f"process pool broke {self.restarts} times; restart "
                f"budget ({self.config.max_worker_restarts}) exhausted "
                "— raise --max-worker-restarts or fix the crash"
            )

    def close(self) -> None:
        if not self.hb_persistent:
            shutil.rmtree(self.hb_dir, ignore_errors=True)


def _execute_pooled(
    session: Session, specs: list[CellSpec], workers: int
) -> list[Any | None]:
    """Fan uncomputed cells over a supervised process pool."""
    parent_wall = time.time()
    parent_mono = SYSTEM_CLOCK.monotonic()
    guard = session.guard
    keys = [
        RunKey(s.codec, s.video, s.crf, s.preset, session.num_frames)
        for s in specs
    ]

    pending: dict[RunKey, tuple[int, CellSpec]] = {}
    for index, (spec, key) in enumerate(zip(specs, keys)):
        if (
            key in session._reports
            or key in session._quarantined
            or key in pending
        ):
            continue
        if guard is not None and guard.is_resumable(session.cell_key(key)):
            # Replay from the ledger in the parent: cheap, and the
            # RESUMED bookkeeping stays identical to the serial path.
            with trace_span("sweep.cell", point=str(spec), index=index):
                run_spec(session, spec)
            continue
        pending[key] = (index, spec)

    with drain_guard():
        if pending:
            _run_supervised(
                session,
                pending,
                workers,
                parent_wall=parent_wall,
                parent_mono=parent_mono,
            )
        signame = drain_requested()
        if signame is not None:
            completed = sum(
                1
                for key in keys
                if key in session._reports or key in session._quarantined
            )
            raise SweepInterruptedError(signame, completed, len(keys))

    # Merged output preserves the caller's point order exactly;
    # quarantined cells surface as None, mirroring the serial drop.
    return [
        None if key in session._quarantined else session._reports.get(key)
        for key in keys
    ]


def _run_supervised(
    session: Session,
    pending: dict[RunKey, tuple[int, CellSpec]],
    workers: int,
    *,
    parent_wall: float,
    parent_mono: float,
) -> None:
    """The supervised dispatch loop: at most ``workers`` cells in
    flight, heartbeat checks every tick, pool rebuilds on breakage."""
    guard = session.guard
    policy = _worker_policy(guard)
    cache_dir = session.cache.root if session.cache is not None else None
    cache_salt = session.cache.salt if session.cache is not None else ""
    experiment_id = guard.experiment_id if guard is not None else ""
    worker_count = min(workers, len(pending))
    config = resolve_supervision()
    run_dir = resolve_run_dir()
    stream_dir = telemetry_dir(run_dir) if run_dir is not None else None
    obs = current_obs()
    parent_sink = getattr(obs, "telemetry", None)
    if parent_sink is not None:
        # The sweep record lands *before* the first dispatch, so an
        # interrupted run's telemetry still says what was planned.
        parent_sink.flush(
            kind="sweep", cells=len(pending), workers=worker_count
        )
        parent_sink.annotate(phase="pool.supervise")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    obs_events.emit(
        "pool.start",
        f"dispatching {len(pending)} cell(s) over "
        f"{worker_count} worker(s)",
        cells=len(pending),
        workers=worker_count,
        heartbeat_interval=config.heartbeat_interval,
    )
    thread_rows: dict[tuple[int, int], int] = {}
    plane = ShmDataPlane(run_dir=run_dir)
    payloads: dict[str, Any] = {}
    supervisor: _Supervisor | None = None
    pool: ProcessPoolExecutor | None = None
    merged = 0

    def job_template(
        spec: CellSpec, hb_path: str, prior: int
    ) -> _CellJob:
        return _CellJob(
            spec=spec,
            machine=session.machine,
            num_frames=session.num_frames,
            policy=policy,
            experiment_id=experiment_id,
            cache_dir=cache_dir,
            cache_salt=cache_salt,
            hb_path=hb_path,
            heartbeat_interval=config.heartbeat_interval,
            prior_crashes=prior,
            telemetry_dir=stream_dir,
            video_payload=payloads.get(spec.video),
        )

    def make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=worker_count,
            mp_context=context,
            initializer=_worker_init,
        )

    def merge(lease: Lease, result: dict[str, Any]) -> None:
        offset = (
            parent_mono
            - result["anchors"]["mono"]
            + result["anchors"]["wall"]
            - parent_wall
        )
        _merge_result(
            session, lease.spec, lease.key, lease.index, result,
            offset=offset, thread_rows=thread_rows,
        )

    def rebuild_after_break(
        broken_pool: ProcessPoolExecutor, lost: list[Lease]
    ) -> ProcessPoolExecutor:
        """Salvage finished futures, account the break, fresh pool.

        The executor poisons every in-flight future when one worker
        dies, but a future that completed *before* the break still
        holds its real result — merge those, lose the rest.
        """
        nonlocal merged
        for future, lease in list(supervisor.inflight.items()):
            salvaged = False
            if future.done():
                try:
                    merge(lease, future.result())
                    merged += 1
                    salvaged = True
                except Exception:  # noqa: BLE001 - poisoned future
                    pass
            if not salvaged:
                lost.append(lease)
        supervisor.inflight.clear()
        crashed = _reap_broken(broken_pool)
        supervisor.spend_restart(len(lost))
        supervisor.handle_lost(lost, crashed)
        broken_pool.shutdown(wait=False, cancel_futures=True)
        return make_pool()

    try:
        supervisor = _Supervisor(session, pending, config, worker_count)
        # Video data plane: resolve each distinct clip once in the
        # parent (through the session, so a registered video source is
        # what ships) and publish it to shared memory; a clip whose
        # publish fails ships its planes inline instead.  The parent
        # owns every shm segment for the whole dispatch loop —
        # including across pool rebuilds, whose fresh workers re-attach
        # the same segments — and the ``finally`` below unlinks them on
        # drain, crash, a pool that never starts and normal completion
        # alike, and removes the heartbeat directory with them.
        for name in dict.fromkeys(spec.video for _, spec in pending.values()):
            try:
                video = session.video(name)
            except VideoError:
                continue  # non-catalog clip: worker raises as before
            try:
                payloads[name] = plane.publish(video)
            except ShmError:
                record_metric("counter", "shm.publish.fallbacks")
                payloads[name] = InlineVideo.from_video(video)
        pool = make_pool()
        with trace_span(
            "pool.supervise", cells=len(pending), workers=worker_count
        ):
            while supervisor.queue or supervisor.inflight:
                if not supervisor.dispatch(pool, job_template):
                    # A worker died between ticks; submit refused.
                    pool = rebuild_after_break(pool, [])
                    continue
                if not supervisor.inflight:
                    # Nothing running and nothing dispatchable: a
                    # drain request is holding the queue back.
                    break
                done, _ = futures_wait(
                    list(supervisor.inflight),
                    timeout=config.poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                lost: list[Lease] = []
                pool_broken = False
                for future in done:
                    lease = supervisor.inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        lost.append(lease)
                        continue
                    merge(lease, result)
                    merged += 1
                if pool_broken:
                    pool = rebuild_after_break(pool, lost)
                    continue
                supervisor.check_stalls(pool)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if supervisor is not None:
            supervisor.close()
        plane.close()
        if parent_sink is not None:
            parent_sink.annotate(phase=None)
            parent_sink.flush()
    obs_events.emit(
        "pool.done",
        f"pool completed {merged} cell(s) "
        f"({supervisor.restarts} restart(s))",
        cells=merged,
        restarts=supervisor.restarts,
        poisoned=sum(
            1
            for count in supervisor.crashes.values()
            if count > config.max_cell_crashes
        ),
    )


def execute_cells(
    session: Session,
    specs: Iterable[CellSpec | tuple],
    workers: int | None = None,
) -> list[Any | None]:
    """Execute a batch of grid points serially or over a process pool.

    Returns one entry per input spec, in input order: the cell's
    :class:`~repro.uarch.perfcounters.PerfReport`, or ``None`` where
    the cell was quarantined (callers drop those points, exactly as
    :func:`~repro.core.sweeps.sweep_cells` does).
    """
    normalised = [CellSpec.of(spec) for spec in specs]
    count = resolve_workers(workers)
    with drain_guard():
        if count <= 1 or len(normalised) <= 1:
            return _execute_serial(session, normalised)
        return _execute_pooled(session, normalised, count)
