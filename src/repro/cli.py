"""Command-line interface: ``python -m repro <command>``.

Each command covers one of the library's workflows:

``list``
    Show the available encoders, vbench clips and experiment ids.
``encode``
    Characterize one encode and print the perf-style report.
``experiment``
    Regenerate a paper table/figure and print its rows/series;
    ``--trace-out``/``--metrics-json``/``--span-log`` capture the
    run's telemetry artifacts, ``--workers`` fans sweep cells over a
    process pool and ``--cache-dir`` memoises them on disk.
``cache``
    Inspect (``--stats``) or empty (``--clear``) the result cache at
    ``--cache-dir``.
``trace``
    Validate a captured Chrome trace or span log, or summarise one.
``status``
    Render the live (or post-mortem) state of a ``--run-dir`` run
    from its on-disk artifacts alone.
``report``
    Fuse a run directory's ledger, span log and telemetry into one
    run-health report (slowest cells, retry blame, fault timeline).
``bench``
    Check the committed ``BENCH_*.json`` perf trajectories against
    their recorded floors (``--check``); exits non-zero on
    regression.
``validate``
    Regenerate the claimed experiments and machine-check the paper's
    claims (plus the simulator's structural invariants) against them;
    exits non-zero when a claim regresses.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .cache import ResultCache
from .codecs import encoder_names
from .core import characterize, format_result
from .errors import (
    ExperimentError,
    ObservabilityError,
    ReproError,
    SweepInterruptedError,
)
from .experiments import experiment_ids, run_experiment
from .obs import events as obs_events
from .obs.export import (
    read_span_log,
    timing_summary,
    validate_chrome_trace_file,
    validate_span_log_file,
)
from .parallel.pool import ParallelConfig, parse_workers
from .profiling import format_perf_report
from .validate import (
    DEFAULT_SEED,
    claim_experiments,
    validate as validate_claims_run,
    write_report,
)
from .video import vbench


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0")
    return value


def _workers_arg(text: str) -> int:
    """``--workers``: a positive integer or the word ``auto``, parsed
    by the same function as every other layer's worker count."""
    try:
        return parse_workers(text)
    except ExperimentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Do Video Encoding Workloads Stress the "
            "Microarchitecture?' (IISWC 2023)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list encoders, clips and experiments")

    encode = sub.add_parser("encode", help="characterize one encode")
    encode.add_argument("--codec", default="svt-av1", choices=encoder_names())
    encode.add_argument("--video", default="game1")
    encode.add_argument("--crf", type=float, default=40)
    encode.add_argument("--preset", type=int, default=6)
    encode.add_argument("--frames", type=int, default=None)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("id", choices=experiment_ids())
    experiment.add_argument(
        "--resume", action="store_true",
        help="skip cells already checkpointed in the run ledger",
    )
    experiment.add_argument(
        "--max-retries", type=_nonnegative_int, default=None, metavar="N",
        help="retry each sweep cell up to N times on transient failure",
    )
    experiment.add_argument(
        "--cell-timeout", type=_positive_float, default=None,
        metavar="SECONDS", help="watchdog deadline per sweep cell",
    )
    experiment.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="checkpoint ledger path (default .repro/ledgers/<id>.jsonl "
             "when --resume is given)",
    )
    experiment.add_argument(
        "--json", action="store_true",
        help="print the result as schema-versioned JSON",
    )
    experiment.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's spans as a Chrome Trace Event file "
             "(open in Perfetto or about:tracing)",
    )
    experiment.add_argument(
        "--metrics-json", default=None, metavar="PATH",
        help="write the run's metrics-registry snapshot as JSON",
    )
    experiment.add_argument(
        "--span-log", default=None, metavar="PATH",
        help="write the raw span/event JSONL log (default: alongside "
             "the run ledger when one is in use)",
    )
    experiment.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="collect every run artifact (ledger, span log, metrics, "
             "trace, manifest, worker telemetry, heartbeats) under "
             "DIR; 'repro status DIR' and 'repro report DIR' read it "
             "(default: off)",
    )
    experiment.add_argument(
        "--workers", type=_workers_arg, default=None, metavar="N",
        help="run sweep cells over a pool of N worker processes "
             "('auto' = one per core; default: serial)",
    )
    experiment.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="memoise cell results in a content-addressed cache at "
             "PATH (default: disabled)",
    )
    experiment.add_argument(
        "--heartbeat-interval", type=_positive_float, default=None,
        metavar="SECONDS",
        help="seconds between pool-worker heartbeats; a lease missing "
             "beats past the stall deadline gets its worker killed and "
             "its cell re-dispatched (default: "
             f"{ParallelConfig.heartbeat_interval:g})",
    )
    experiment.add_argument(
        "--max-worker-restarts", type=_nonnegative_int, default=None,
        metavar="N",
        help="pool rebuilds tolerated per sweep after worker crashes "
             f"(default: {ParallelConfig.max_worker_restarts})",
    )
    experiment.add_argument(
        "--validate", action="store_true",
        help="evaluate the paper claims registered for this experiment "
             "and record the verdicts in provenance[\"claims\"]",
    )

    validate = sub.add_parser(
        "validate",
        help="machine-check the paper's claims against fresh results",
    )
    validate.add_argument(
        "--experiment", action="append", dest="experiments", default=None,
        choices=claim_experiments(), metavar="ID",
        help="validate only this experiment's claims (repeatable; "
             f"default: all of {', '.join(claim_experiments())})",
    )
    validate.add_argument(
        "--json", action="store_true",
        help="print the full claims report as JSON instead of text",
    )
    validate.add_argument(
        "--strict", action="store_true",
        help="treat skipped claims (missing data) as failures",
    )
    validate.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON claims report here (the CI artifact)",
    )
    validate.add_argument(
        "--workers", type=_workers_arg, default=None, metavar="N",
        help="run sweep cells over a pool of N worker processes "
             "('auto' = one per core; default: serial)",
    )
    validate.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="serve already-computed cells from the result cache at "
             "PATH (default: disabled)",
    )
    validate.add_argument(
        "--seed", type=_nonnegative_int, default=DEFAULT_SEED,
        help="root seed of the randomized invariant harness "
             "(default: %(default)s)",
    )
    validate.add_argument(
        "--invariant-cases", type=_nonnegative_int, default=25,
        metavar="N", help="randomized cases per invariant (default: 25)",
    )
    validate.add_argument(
        "--skip-invariants", action="store_true",
        help="check paper claims only, without the invariant harness",
    )

    cache = sub.add_parser(
        "cache", help="inspect or clear a result cache"
    )
    cache.add_argument(
        "--cache-dir", required=True, metavar="PATH",
        help="cache root, as given to 'repro experiment --cache-dir'",
    )
    cache.add_argument(
        "--stats", action="store_true",
        help="print entry count and on-disk size",
    )
    cache.add_argument(
        "--clear", action="store_true",
        help="delete every cached entry",
    )

    trace = sub.add_parser(
        "trace", help="validate or summarise captured run telemetry"
    )
    trace.add_argument(
        "--validate", default=None, metavar="ARTIFACT",
        help="schema-check a telemetry artifact: a Chrome Trace Event "
             "file (*.json) or a span log (*.jsonl)",
    )
    trace.add_argument(
        "--summary", default=None, metavar="SPANS_JSONL",
        help="print a hierarchical timing summary of a span log",
    )

    status = sub.add_parser(
        "status",
        help="show a run directory's live or post-mortem state",
    )
    status.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="run directory written by 'repro experiment --run-dir'",
    )
    status.add_argument(
        "--json", action="store_true",
        help="print the raw status aggregate as JSON",
    )

    report = sub.add_parser(
        "report",
        help="fuse a run directory's artifacts into a health report",
    )
    report.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="run directory written by 'repro experiment --run-dir'",
    )
    report.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of text",
    )
    report.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON report here (the CI artifact)",
    )

    bench = sub.add_parser(
        "bench",
        help="check committed BENCH_*.json perf floors",
    )
    bench.add_argument(
        "--check", action="store_true",
        help="compare each BENCH file's measurements against its "
             "recorded *_floor/*_parity keys; exit 1 on regression",
    )
    bench.add_argument(
        "files", nargs="*", metavar="BENCH_JSON",
        help="BENCH files to check (default: ./BENCH_*.json)",
    )
    bench.add_argument(
        "--tolerance", type=_positive_float, default=None,
        metavar="FRACTION",
        help="noise band below each floor that still passes "
             "(default: 0.10)",
    )
    bench.add_argument(
        "--history", default=None, metavar="PATH",
        help="append one trajectory point per checked file here "
             "(JSONL; default: no history)",
    )

    return parser


def _run_validate_command(args: argparse.Namespace) -> int:
    """``repro validate``: the paper-claims regression gate."""
    try:
        report = validate_claims_run(
            args.experiments,
            workers=args.workers,
            cache_dir=args.cache_dir,
            seed=args.seed,
            invariant_cases=max(args.invariant_cases, 1),
            with_invariants=not args.skip_invariants,
        )
        if args.out is not None:
            write_report(args.out, report)
    except SweepInterruptedError as exc:
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.to_json(indent=2) if args.json else report.format_text())
    return 0 if report.passed(strict=args.strict) else 1


def _run_cache_command(args: argparse.Namespace) -> int:
    """``repro cache``: result-cache administration."""
    if not args.stats and not args.clear:
        print("error: cache requires --stats and/or --clear",
              file=sys.stderr)
        return 2
    root = args.cache_dir
    cache = ResultCache(root)
    try:
        if args.clear:
            removed = cache.clear()
            print(f"{root}: removed {removed} entr"
                  f"{'y' if removed == 1 else 'ies'}")
        if args.stats:
            stats = cache.stats()
            print(f"{root}: {stats['entries']} entr"
                  f"{'y' if stats['entries'] == 1 else 'ies'}, "
                  f"{stats['bytes']} bytes")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_trace_command(args: argparse.Namespace) -> int:
    """``repro trace``: artifact validation and summaries."""
    if args.validate is None and args.summary is None:
        print("error: trace requires --validate and/or --summary",
              file=sys.stderr)
        return 2
    if args.validate is not None:
        # Dispatch on extension: span logs are JSONL, Chrome traces
        # are a single JSON object.
        if args.validate.endswith(".jsonl"):
            problems = validate_span_log_file(args.validate)
            kind = "span log"
        else:
            problems = validate_chrome_trace_file(args.validate)
            kind = "Chrome Trace Event file"
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 2
        print(f"{args.validate}: valid {kind}")
    if args.summary is not None:
        try:
            spans, events = read_span_log(args.summary)
        except ObservabilityError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(timing_summary(spans, title=args.summary))
        warnings = [e for e in events if e.level == "warning"]
        if warnings:
            print(f"{len(warnings)} warning event(s):")
            for event in warnings:
                print(f"  [{event.kind}] {event.message}")
    return 0


def _run_status_command(args: argparse.Namespace) -> int:
    """``repro status``: render a run directory's on-disk state."""
    from dataclasses import asdict

    from .obs.runstatus import format_status, load_run_status

    status = load_run_status(args.run_dir)
    if args.json:
        payload = asdict(status)
        payload["cells_completed"] = status.cells_completed
        payload["eta_seconds"] = status.eta_seconds()
        payload["throughput"] = status.throughput()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_status(status))
    return 0


def _run_report_command(args: argparse.Namespace) -> int:
    """``repro report``: the fused run-health report."""
    from .obs.report import format_report, run_report

    report = run_report(args.run_dir)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0


def _run_bench_command(args: argparse.Namespace) -> int:
    """``repro bench --check``: the perf-trajectory regression gate."""
    from .bench import (
        append_history,
        check_files,
        discover_bench_files,
        format_results,
    )
    from .bench.check import DEFAULT_TOLERANCE

    if not args.check:
        print("error: bench requires --check", file=sys.stderr)
        return 2
    paths = args.files or discover_bench_files()
    if not paths:
        print("error: no BENCH_*.json files found", file=sys.stderr)
        return 2
    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    try:
        results, passed = check_files(paths, tolerance=tolerance)
        if args.history is not None:
            append_history(paths, results, args.history)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_results(results))
    return 0 if passed else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        print("encoders:    " + ", ".join(encoder_names()))
        print("clips:       " + ", ".join(vbench.names()))
        print("experiments: " + ", ".join(experiment_ids()))
        return 0

    if args.command == "encode":
        report = characterize(
            args.codec, args.video, crf=args.crf, preset=args.preset,
            num_frames=args.frames,
        )
        print(format_perf_report(report))
        return 0

    if args.command == "experiment":
        try:
            result = run_experiment(
                args.id,
                resume=args.resume,
                max_retries=args.max_retries,
                cell_timeout=args.cell_timeout,
                ledger_path=args.ledger,
                trace_out=args.trace_out,
                metrics_json=args.metrics_json,
                span_log=args.span_log,
                run_dir=args.run_dir,
                workers=args.workers,
                cache_dir=args.cache_dir,
                heartbeat_interval=args.heartbeat_interval,
                max_worker_restarts=args.max_worker_restarts,
                validate_claims=args.validate,
            )
        except SweepInterruptedError as exc:
            # Graceful drain: state is flushed and resumable; exit with
            # the conventional interrupted-by-signal code.
            print(f"interrupted: {exc}", file=sys.stderr)
            return 130
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.to_json(indent=2) if args.json else format_result(result))
        quarantined = result.provenance.get("quarantined", [])
        if quarantined:
            cells = ", ".join(q["cell"] for q in quarantined)
            obs_events.warn(
                "quarantine",
                f"{len(quarantined)} cell(s) quarantined: {cells}",
                experiment=args.id,
                cells=[q["cell"] for q in quarantined],
            )
        return 0

    if args.command == "validate":
        return _run_validate_command(args)

    if args.command == "cache":
        return _run_cache_command(args)

    if args.command == "trace":
        return _run_trace_command(args)

    if args.command == "status":
        return _run_status_command(args)

    if args.command == "report":
        return _run_report_command(args)

    if args.command == "bench":
        return _run_bench_command(args)

    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
