"""Micro-benchmark: observability must be (nearly) free.

Three contracts are guarded here:

- the **disabled tracer** (see ``repro.obs.span``) costs one
  module-global read per span site: a grid swept through the
  instrumented ``sweep_cells`` must run within 5% of an
  uninstrumented replica of the same loop;
- the **telemetry flush path** (see ``repro.obs.telemetry``) adds
  <2% to a pooled fig04 sweep when a run directory enables it, and
  exactly nothing when disabled (no sink is even constructed);
- a **run directory as a whole** (ledger, heartbeats, telemetry and
  any per-cell work they switch on) keeps a pooled fig04 sweep under
  1.3x the same sweep without one.

The flush floor is asserted by *accounting*, not by differencing two
noisy wall-clock runs: count the sample lines the run actually wrote,
micro-benchmark the per-flush cost on the same machine, and bound
``flushes x per_flush_seconds / sweep_seconds``.  Two end-to-end runs
differ by scheduler noise far larger than 2%; the accounting bound is
stable because both factors are measured tightly.  Accounting only
sees the flushes, though, and other per-cell work a run directory
switches on passes it unseen; so the whole run directory is also
bounded end to end, by a ratio wide enough to sit above that noise.
"""

import json
import time

from repro.core.sweeps import sweep_cells
from repro.errors import QuarantinedCellError
from repro.experiments import common, fig04_crf_sweep, run_experiment
from repro.obs.context import ObsContext
from repro.obs.span import active_tracer
from repro.obs.telemetry import TelemetrySink

N_CELLS = 200
BEST_OF = 7

#: Telemetry may cost at most this fraction of a pooled sweep.
TELEMETRY_OVERHEAD_FLOOR = 0.02

#: A run directory may make a pooled sweep at most this much slower.
RUN_DIR_SLOWDOWN_BOUND = 1.3


def _work(point):
    """One synthetic sweep cell: enough arithmetic to be a real load."""
    total = 0.0
    for i in range(400):
        total += (point + i) * 0.5 % 7.0
    return total


def _sweep_baseline(points, run):
    """``sweep_cells`` with the instrumentation stripped out."""
    kept_points, kept_results = [], []
    for index, point in enumerate(points):
        try:
            result = run(point)
        except QuarantinedCellError:
            continue
        kept_points.append(point)
        kept_results.append(result)
    return kept_points, kept_results


def _best_of(fn):
    best = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracer_overhead_under_five_percent():
    assert active_tracer() is None, "benchmark requires tracing disabled"
    points = list(range(N_CELLS))

    # Warm both paths before timing.
    sweep_cells(points, _work)
    _sweep_baseline(points, _work)

    instrumented = _best_of(lambda: sweep_cells(points, _work))
    baseline = _best_of(lambda: _sweep_baseline(points, _work))

    ratio = instrumented / baseline
    assert ratio < 1.05, (
        f"disabled-tracer sweep_cells is {ratio:.3f}x the no-obs "
        f"baseline ({instrumented * 1e3:.2f}ms vs {baseline * 1e3:.2f}ms)"
    )


def _per_flush_seconds(tmp_path) -> float:
    """Best-of-N cost of one telemetry flush, with a busy registry."""
    obs = ObsContext()
    for i in range(20):
        obs.metrics.counter(f"bench.counter.{i}").inc(i)
        obs.metrics.gauge(f"bench.gauge.{i}").set(i)
    sink = TelemetrySink(str(tmp_path / "flush-bench.jsonl"), obs=obs)
    rounds = 50
    best = float("inf")
    for _ in range(BEST_OF):
        start = time.perf_counter()
        for _ in range(rounds):
            sink.flush()
        best = min(best, time.perf_counter() - start)
    return best / rounds


def test_telemetry_flush_overhead_under_two_percent(tmp_path, monkeypatch):
    """Enabled: flush cost is <2% of a pooled fig04 sweep's wall time."""
    grid = (35,)
    monkeypatch.setattr(common, "sweep_crfs", lambda: grid)
    monkeypatch.setattr(fig04_crf_sweep, "sweep_crfs", lambda: grid)
    run_dir = tmp_path / "run"
    start = time.perf_counter()
    run_experiment("fig04", run_dir=str(run_dir), workers=2)
    sweep_seconds = time.perf_counter() - start

    flushes = 0
    for stream in sorted((run_dir / "telemetry").glob("*.jsonl")):
        with open(stream, encoding="utf-8") as handle:
            flushes += sum(1 for line in handle if line.strip())
    assert flushes > 0, "telemetry enabled but no samples were written"

    per_flush = _per_flush_seconds(tmp_path)
    overhead = flushes * per_flush / sweep_seconds
    print(
        f"BENCH_obs: {flushes} flushes x {per_flush * 1e6:.1f}us over "
        f"{sweep_seconds:.2f}s sweep = {overhead:.4%} overhead"
    )
    assert overhead < TELEMETRY_OVERHEAD_FLOOR, (
        f"telemetry flush path costs {overhead:.2%} of the pooled "
        f"sweep (floor {TELEMETRY_OVERHEAD_FLOOR:.0%}): {flushes} "
        f"flushes at {per_flush * 1e6:.1f}us over {sweep_seconds:.2f}s"
    )


def test_run_dir_slowdown_under_bound(tmp_path, monkeypatch):
    """Enabled end to end: a run dir costs <1.3x, best of 3 each way."""
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    grid = (35,)
    monkeypatch.setattr(common, "sweep_crfs", lambda: grid)
    monkeypatch.setattr(fig04_crf_sweep, "sweep_crfs", lambda: grid)
    best = {"plain": float("inf"), "run_dir": float("inf")}
    order = ["plain", "run_dir"]
    for attempt in range(3):
        for side in order:
            run_dir = (
                str(tmp_path / f"run-{attempt}") if side == "run_dir" else None
            )
            start = time.perf_counter()
            run_experiment("fig04", run_dir=run_dir, workers=2)
            best[side] = min(best[side], time.perf_counter() - start)
        order.reverse()  # alternate which side goes first: host drift
    ratio = best["run_dir"] / best["plain"]
    print(
        f"BENCH_obs: pooled fig04 {best['run_dir']:.2f}s with a run dir "
        f"vs {best['plain']:.2f}s without = {ratio:.2f}x"
    )
    assert ratio < RUN_DIR_SLOWDOWN_BOUND, (
        f"a run directory makes pooled fig04 {ratio:.2f}x slower "
        f"({best['run_dir']:.2f}s vs {best['plain']:.2f}s, best of 3; "
        f"bound {RUN_DIR_SLOWDOWN_BOUND}x)"
    )


def test_telemetry_disabled_writes_nothing(tmp_path, monkeypatch):
    """Disabled: no run dir means no sink, no streams, no flushes.

    The disabled path is structural — ``_worker_cell`` guards on a
    ``None`` field and never constructs a sink — so "~0 overhead" is
    asserted as *absence*, not as a noise-prone timing ratio.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    grid = (60,)
    monkeypatch.setattr(common, "sweep_crfs", lambda: grid)
    monkeypatch.setattr(fig04_crf_sweep, "sweep_crfs", lambda: grid)
    result = run_experiment("fig04", workers=2)
    assert result.provenance["parallel"].get("run_dir") is None
    leftovers = [
        path for path in tmp_path.rglob("*.jsonl")
        if "telemetry" in str(path)
    ]
    assert leftovers == [], f"telemetry written while disabled: {leftovers}"
