"""The repository benchmark: cold characterization passes, timed and checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fast-preset-4k --seed 0 --seconds 60 --trace 0

Each pass runs in a fresh process (``child.py``), so every pass pays
the program's real set-up and starts cold.  Passes repeat until the
next one would end after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics; it also writes the
traced pass's spans and self-time table under
``.perfbench/trace/<workload>/``.

Every cell's simulated statistics are checked for exact equality: with
the recorded fingerprint in ``reference.json`` where one exists, else
with the run's first pass (and, for the pooled workload, with a serial
run of the same grid).  Every pass is also re-read through a fresh
``Session`` over its result cache and must equal what it computed.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Setup-only processes per untraced run, on top of one per pass.
SETUP_PROBES = 3
#: Every run must end well inside the caller's 180-second limit.
RUN_LIMIT_S = 170.0


def _child_env(tmp: Path) -> dict[str, str]:
    """The environment of every benchmark process.

    ``REPRO_*`` settings are dropped so that no ambient configuration
    changes the workload; numeric libraries get one thread each so the
    pooled workload's workers do not oversubscribe the cores.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")]
    env.update({
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class Runner:
    """Starts child processes for one workload and seed."""

    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.args = args
        self.work = work
        self.started = time.monotonic()
        self.env = _child_env(work / "tmp")
        self.count = 0

    def child(self, mode: str) -> dict | None:
        """Run one child process; its JSON result, or None if it failed."""
        self.count += 1
        work = self.work / f"{self.count:03d}-{mode}"
        work.mkdir(parents=True)
        out = work / "result.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--work", str(work),
            "--out", str(out),
        ]
        if self.args.cells:
            command += ["--cells", str(self.args.cells)]
        if self.args.groups:
            command += ["--groups", str(self.args.groups)]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        launched = time.monotonic()
        process = subprocess.Popen(
            command + ["--launched-at", repr(launched)],
            cwd=ROOT,
            env=self.env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _stop(process)
        if code != 0 or not out.exists():
            print(f"perfbench: {mode} process failed (exit {code})",
                  file=sys.stderr)
            return None
        result = json.loads(out.read_text())
        result["duration_s"] = time.monotonic() - launched
        result["work"] = str(work)
        return result


def _stop(process: subprocess.Popen) -> None:
    """End a child and its process group (which holds its pool workers).

    A child still running gets SIGINT first: the program drains its
    pool and unlinks its shared-memory segments on the way out.
    """
    if process.poll() is None:
        os.killpg(process.pid, signal.SIGINT)
        try:
            process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def _passes(runner: Runner, modes: tuple[str, ...], seconds: float) -> list:
    """Cycle through ``modes`` until the next pass would end too late."""
    start = time.monotonic()
    results: list[tuple[str, dict | None]] = []
    while True:
        mode = modes[len(results) % len(modes)]
        results.append((mode, runner.child(mode)))
        durations = [r["duration_s"] for _, r in results if r is not None]
        if not durations:
            break
        elapsed = time.monotonic() - start
        done = {m for m, r in results if r is not None}
        if set(modes) <= done and elapsed + statistics.median(durations) > seconds:
            break
        if elapsed > RUN_LIMIT_S / 2:
            break
    return results


def _check(
    results: list[tuple[str, dict | None]],
    cell_ids: list[str],
    expected: dict[str, str],
) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass's cells."""
    attempted = failed = 0
    problems: list[str] = []
    first = next((r["cells"] for _, r in results if r is not None), {})
    for index, (_, result) in enumerate(results):
        cells = result["cells"] if result is not None else {}
        for cid in cell_ids:
            attempted += 1
            cell = cells.get(cid)
            want = expected.get(cid) or first.get(cid, {}).get("digest")
            if cell is None:
                problem = "process failed"
            elif cell["error"] is not None:
                problem = cell["error"]
            elif not cell["reread_equal"]:
                problem = "re-read from the result cache differs"
            elif cell["digest"] != want:
                problem = f"fingerprint {cell['digest']} != {want}"
            else:
                continue
            failed += 1
            problems.append(f"pass {index + 1} {cid}: {problem}")
    return attempted, failed, problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _table(rows: list[tuple[str, str, list[float]]]) -> str:
    """Name, median, unit, sample count, min and max of each metric."""
    lines = [f"{'metric':32s} {'median':>14s}  {'unit':8s} {'n':>3s}"
             f"  {'min':>12s} {'max':>12s}"]
    for name, unit, values in rows:
        low, high = (min(values), max(values)) if values else (0.0, 0.0)
        lines.append(f"{name:32s} {_median(values):14.6g}  {unit:8s}"
                     f" {len(values):3d}  {low:12.6g} {high:12.6g}")
    return "\n".join(lines)


def _layer_report(tables: dict, wall: float) -> str:
    """The traced pass's self-time table; the main process sums to wall."""
    out = []
    for section, title in (
        ("pass", "main process, timed pass (self times add up to wall_s)"),
        ("workers", "pool workers, summed over processes"),
        ("reread", "re-read through a fresh session (untimed)"),
    ):
        table = tables.get(section) or {}
        if not table:
            continue
        total = sum(row["self_s"] for row in table.values())
        out.append(f"{title}: self total {total:.4f} s")
        out.append(f"  {'layer':28s} {'calls':>8s} {'self_s':>10s} "
                   f"{'incl_s':>10s} {'share':>7s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            share = row["self_s"] / total if total else 0.0
            out.append(f"  {name:28s} {row['calls']:8d} {row['self_s']:10.4f}"
                       f" {row['incl_s']:10.4f} {share:7.1%}")
    out.append(f"traced wall_s {wall:.4f} s")
    return "\n".join(out)


def main() -> int:
    manifest_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cells", type=int, default=None,
                        help="run at most CELLS cells per content draw")
    parser.add_argument("--groups", type=int, default=None,
                        help="run at most GROUPS content draws")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="fingerprint file (the self-test corrupts one)")
    args = parser.parse_args()
    # On SIGTERM, unwind so that the running child's process group is
    # killed and reaped (Runner.child's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(names)}", file=sys.stderr)
        return 2
    seconds = args.seconds or manifest["run_seconds"]
    reference = json.loads(Path(args.reference).read_text())
    expected = reference["workloads"].get(args.workload, {})

    out_dir = ROOT / ".perfbench"
    work = out_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    runner = Runner(args, work)
    try:
        warm = runner.child("probe")  # compiles bytecode, warms the disk
        if warm is None:
            print("perfbench: set-up failed", file=sys.stderr)
            return 1
        cell_ids = warm["cell_ids"]
        setups = []
        if not args.trace:
            probes = [runner.child("probe") for _ in range(SETUP_PROBES)]
            setups = [p["setup_s"] for p in probes if p is not None]
        modes = ("pass", "trace") if args.trace else ("pass",)
        results = _passes(runner, modes, seconds)
        if args.workload == "catalog-pooled" and not set(cell_ids) <= set(expected):
            # No recorded fingerprint: pooled must equal serial.
            serial = runner.child("serial")
            if serial is not None:
                expected = {
                    cid: cell["digest"] for cid, cell in serial["cells"].items()
                } | expected
        attempted, failed, problems = _check(results, cell_ids, expected)
        report = _report(args, manifest, results, setups, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = sum(cid in expected for cid in cell_ids)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(results)} passes; {checked} of {len(cell_ids)} cells have a "
          "recorded (or serial) fingerprint, the rest are checked against "
          "the first pass")
    print(report)
    rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':32s} {rate:14.6g}  {'ratio':8s} {attempted:3d}"
          f"  ({failed} of {attempted} cells failed)")
    for problem in problems[:20]:
        print(f"  FAILED {problem}")
    metrics_key = "per_layer" if args.trace else "end_to_end"
    series = _series(args, results, setups)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {
                "value": _median(series.get(m["name"], [])),
                "unit": m["unit"],
            }
            for m in manifest[metrics_key]
        },
    }
    print(json.dumps(result))
    return 0


def _series(args, results, setups) -> dict[str, list[float]]:
    """Each metric's samples; the reported value is their median."""
    plain = [r for m, r in results if m == "pass" and r is not None]
    if not args.trace:
        return {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": setups + [r["setup_s"] for r in plain],
            "sim_minst_per_s": [r["sim_minst"] / r["wall_s"] for r in plain],
            "peak_rss_mib": [r["peak_rss_kib"] / 1024 for r in plain],
        }
    traced = [r for m, r in results if m == "trace" and r is not None]
    series = {
        name: [r["layers"][name] for r in traced]
        for name in (traced[0]["layers"] if traced else ())
    }
    series["tracing.wall_s"] = [r["wall_s"] for r in traced]
    series["tracing.overhead_s"] = [
        _median(series["tracing.wall_s"]) - _median([r["wall_s"] for r in plain])
    ]
    return series


def _report(args, manifest, results, setups, out_dir: Path) -> str:
    """The printed metric table; traced runs also write their outputs."""
    series = _series(args, results, setups)
    metrics_key = "per_layer" if args.trace else "end_to_end"
    text = _table([
        (m["name"], m["unit"], series.get(m["name"], []))
        for m in manifest[metrics_key]
    ])
    traced = [r for m, r in results if m == "trace" and r is not None]
    if traced:
        first = traced[0]
        trace_dir = out_dir / "trace" / args.workload
        trace_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(Path(first["work"]) / "spans.jsonl",
                        trace_dir / "spans.jsonl")
        overhead = series["tracing.overhead_s"][0]
        layers = _layer_report(first["layer_tables"], first["wall_s"])
        layers += f"\ntracing overhead (traced - untraced wall_s) {overhead:.4f} s"
        (trace_dir / "layers.txt").write_text(layers + "\n")
        (trace_dir / "layers.json").write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "metrics": {name: _median(v) for name, v in series.items()},
            "tables": first["layer_tables"],
        }, indent=1) + "\n")
        text += "\n\n" + layers + f"\n(written to {trace_dir})"
    return text


if __name__ == "__main__":
    sys.exit(main())
