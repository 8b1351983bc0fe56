"""Integration tests for the parallel sweep engine.

Drives real ``run_experiment`` calls with the characterization pass
stubbed (the same synthetic-report fixture as the resilience
integration tests), comparing pooled runs against serial ones: results
must be element-for-element identical, quarantine/retry/resume
provenance must match, and worker telemetry must land re-parented in
the parent's collectors.
"""

import os
import tracemalloc

import pytest

os.environ.setdefault("REPRO_FAST", "1")

import repro.core.session as session_mod  # noqa: E402
from repro.core import to_jsonable  # noqa: E402
from repro.core.session import CellSpec, Session  # noqa: E402
from repro.core.sweeps import sweep_specs  # noqa: E402
from repro.errors import (  # noqa: E402
    ExperimentError,
    QuarantinedCellError,
)
from repro.experiments import common, run_experiment  # noqa: E402
from repro.obs.context import ObsContext  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.span import Tracer  # noqa: E402
from repro.parallel.pool import (  # noqa: E402
    ParallelConfig,
    activate_parallel,
    execute_cells,
    resolve_cache_dir,
    resolve_workers,
)
from repro.resilience import FaultPlan, RunLedger  # noqa: E402
from tests.test_resilience_integration import synthetic_report  # noqa: E402

WORKERS = 4


@pytest.fixture()
def stub_characterize(monkeypatch):
    """Replace the encode+measure pass; returns the parent's call log.

    Pool workers are forked, so they inherit the patched module global;
    their calls are invisible here — the log counts *parent-side*
    executions only, which is exactly what the dispatch tests assert.
    """
    calls = []

    def fake(codec, video, machine=None, crf=None, preset=None,
             num_frames=None):

        # the session resolves catalog clips to Video objects now

        video = getattr(video, "name", video)
        calls.append((codec, video, crf, preset))
        return synthetic_report(codec, video, crf=crf, preset=preset)

    monkeypatch.setattr(session_mod, "characterize", fake)
    return calls


@pytest.fixture(autouse=True)
def tiny_grids(monkeypatch):
    from repro.experiments import fig04_crf_sweep

    for module in (common, fig04_crf_sweep):
        monkeypatch.setattr(module, "sweep_videos",
                            lambda: ("desktop", "game1"))
        monkeypatch.setattr(module, "sweep_crfs", lambda: (10, 35, 60))


GRID_CELLS = 6  # 2 videos x 3 CRFs


class TestWorkerResolution:
    def test_default_is_serial(self):
        assert resolve_workers() == 1

    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_auto_means_all_cores(self):
        assert resolve_workers("auto") == (os.cpu_count() or 1)
        assert resolve_workers(" AUTO ") == (os.cpu_count() or 1)

    def test_zero_rejected_everywhere(self):
        # 0 used to mean "one per core" here, "serial" in older docs
        # and "invalid" nowhere — it is now an explicit error at every
        # layer, with 'auto' as the one spelling of one-per-core.
        with pytest.raises(ExperimentError, match="'auto'"):
            resolve_workers(0)
        with pytest.raises(ExperimentError, match="'auto'"):
            ParallelConfig(workers=0)

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError, match=">= 1"):
            resolve_workers(-1)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers() == (os.cpu_count() or 1)

    def test_env_zero_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ExperimentError, match=">= 1"):
            resolve_workers()

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ExperimentError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_ambient_config_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        with activate_parallel(ParallelConfig(workers=2)):
            assert resolve_workers() == 2
            assert resolve_workers(7) == 7  # explicit still wins

    def test_cache_dir_resolution_order(self, monkeypatch):
        assert resolve_cache_dir() is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/env-cache")
        assert resolve_cache_dir() == "/tmp/env-cache"
        with activate_parallel(ParallelConfig(cache_dir="/tmp/ambient")):
            assert resolve_cache_dir() == "/tmp/ambient"
            assert resolve_cache_dir("/tmp/explicit") == "/tmp/explicit"


class TestPooledDeterminism:
    def test_fig04_pooled_matches_serial_exactly(self, stub_characterize):
        serial = run_experiment("fig04", workers=1)
        pooled = run_experiment("fig04", workers=WORKERS)
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series
        assert pooled.provenance["parallel"]["workers"] == WORKERS

    def test_execute_cells_element_for_element(self, stub_characterize):
        specs = sweep_specs("svt-av1", ("desktop", "game1"), (10, 35, 60), 6)
        serial = execute_cells(Session(num_frames=3), specs, workers=1)
        pooled = execute_cells(Session(num_frames=3), specs, workers=WORKERS)
        assert len(pooled) == len(serial) == GRID_CELLS
        for ours, theirs in zip(pooled, serial):
            assert to_jsonable(ours) == to_jsonable(theirs)

    def test_pooled_cells_do_not_run_in_parent(self, stub_characterize):
        specs = sweep_specs("svt-av1", ("desktop", "game1"), (10, 35, 60), 6)
        session = Session(num_frames=3)
        results = execute_cells(session, specs, workers=WORKERS)
        assert stub_characterize == []  # all six ran in workers
        assert all(r is not None for r in results)
        # Later lazy report() calls hit the session's in-memory store.
        session.report("svt-av1", "desktop", 10, 6)
        assert stub_characterize == []

    def test_duplicate_specs_dispatch_once(self, stub_characterize):
        spec = CellSpec("svt-av1", "desktop", 35.0, 6)
        session = Session(num_frames=3)
        results = execute_cells(session, [spec, spec, spec], workers=WORKERS)
        assert len(results) == 3
        assert results[0] == results[1] == results[2]

    def test_prefetch_is_noop_at_one_worker(self, stub_characterize):
        session = Session(num_frames=3)
        dispatched = session.prefetch(
            [("svt-av1", "desktop", 35.0, 6)], workers=1
        )
        assert dispatched == 0
        assert stub_characterize == []

    def test_prefetch_takes_cell_specs_serially(self, stub_characterize):
        # The sweep_specs docstring example, at one worker.
        session = Session(num_frames=3)
        specs = sweep_specs("svt-av1", ("desktop", "game1"), 35, 6)
        assert session.prefetch(specs, workers=1) == 0
        assert stub_characterize == []

    def test_prefetch_takes_cell_specs_pooled(self, stub_characterize):
        session = Session(num_frames=3)
        specs = sweep_specs("svt-av1", ("desktop", "game1"), (10, 35), 6)
        assert session.prefetch(specs, workers=WORKERS) == len(specs)
        session.report("svt-av1", "game1", 35, 6)
        assert stub_characterize == []  # every cell ran in a worker


class TestPooledResilience:
    def test_permanent_fault_quarantines_same_cell_as_serial(
        self, stub_characterize
    ):
        plan = FaultPlan.parse("cell:svt-av1:desktop:10:*@fatal@times=*")
        serial = run_experiment(
            "fig04", max_retries=1, fault_plan=plan, workers=1
        )
        pooled = run_experiment(
            "fig04", max_retries=1, fault_plan=plan, workers=WORKERS
        )
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series
        quarantined = pooled.provenance["quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["cell"].startswith("cell:svt-av1:desktop:10")
        assert len(pooled.tables[0].rows) == GRID_CELLS - 1

    def test_quarantine_is_sticky_after_prefetch(self, stub_characterize):
        plan = FaultPlan.parse("cell:svt-av1:desktop:10:*@fatal@times=*")
        result = run_experiment(
            "fig04", max_retries=0, fault_plan=plan, workers=WORKERS
        )
        assert len(result.tables[0].rows) == GRID_CELLS - 1

    def test_worker_retries_reach_parent_provenance(self, stub_characterize):
        plan = FaultPlan.parse(
            "cell:svt-av1:desktop:10:*@transient@times=1"
        )
        pooled = run_experiment(
            "fig04", max_retries=2, fault_plan=plan, workers=WORKERS
        )
        assert len(pooled.tables[0].rows) == GRID_CELLS
        assert pooled.provenance["retries"] == 1
        assert pooled.provenance["executed"] == GRID_CELLS

    def test_pooled_run_checkpoints_to_parent_ledger(
        self, stub_characterize, tmp_path
    ):
        ledger_path = str(tmp_path / "fig04.jsonl")
        run_experiment("fig04", ledger_path=ledger_path, workers=WORKERS)
        assert len(RunLedger(ledger_path)) == GRID_CELLS

    def test_resume_replays_in_parent_and_pools_the_rest(
        self, stub_characterize, tmp_path
    ):
        ledger_path = str(tmp_path / "fig04.jsonl")
        run_experiment("fig04", ledger_path=ledger_path, workers=1)
        lines = open(ledger_path).read().splitlines()
        with open(ledger_path, "w") as handle:
            handle.write("\n".join(lines[:4]) + "\n")

        stub_characterize.clear()
        result = run_experiment(
            "fig04", resume=True, ledger_path=ledger_path, workers=WORKERS
        )
        # Resumable cells replay from their payloads (no characterize
        # call anywhere); the two missing cells run in pool workers
        # (no *parent* characterize call).
        assert stub_characterize == []
        assert result.provenance["resumed"] == 4
        assert result.provenance["executed"] == GRID_CELLS - 4
        assert len(result.tables[0].rows) == GRID_CELLS
        assert len(RunLedger(ledger_path)) == GRID_CELLS


class TestPooledTelemetry:
    def test_worker_spans_reparented_under_sweep_cells(
        self, stub_characterize, tmp_path
    ):
        obs = ObsContext()
        run_experiment(
            "fig04", workers=WORKERS, obs=obs,
            ledger_path=str(tmp_path / "fig04.jsonl"),
        )
        spans = obs.tracer.spans
        coordinators = [
            s for s in spans
            if s.name == "sweep.cell" and "worker" in s.attrs
        ]
        assert len(coordinators) == GRID_CELLS
        by_id = {s.span_id: s for s in spans}
        for coordinator in coordinators:
            # Every coordinator hangs off the session span...
            assert coordinator.parent_id in by_id
            # ...and adopted the worker's cell span underneath it.
            children = [
                s for s in spans if s.parent_id == coordinator.span_id
            ]
            assert any(child.name == "cell" for child in children)
            for child in children:
                assert child.start >= coordinator.start - 0.5
        # Worker lanes map to synthetic thread rows, not the parent's.
        parent_rows = {s.thread for s in spans if s.name == "session"}
        worker_rows = {s.thread for s in coordinators}
        assert not (worker_rows & parent_rows)

    def test_worker_metrics_merge_without_double_counting(
        self, stub_characterize, tmp_path
    ):
        obs = ObsContext()
        run_experiment(
            "fig04", workers=WORKERS, obs=obs,
            ledger_path=str(tmp_path / "fig04.jsonl"),
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cells.ok"] == GRID_CELLS
        assert counters["sim.instructions"] > 0

    def test_pool_events_emitted(self, stub_characterize):
        obs = ObsContext()
        run_experiment("fig04", workers=WORKERS, obs=obs)
        kinds = [event.kind for event in obs.events.events]
        assert "pool.start" in kinds and "pool.done" in kinds

    def test_run_dir_cells_do_not_trace_allocations(
        self, monkeypatch, tmp_path
    ):
        """A run directory measures each cell by its worker's RSS
        high-water mark, never by running it under ``tracemalloc``."""
        from repro.obs.report import run_report

        def fake(codec, video, machine=None, crf=None, preset=None,
                 num_frames=None):
            if tracemalloc.is_tracing():
                raise RuntimeError("cell ran under tracemalloc")
            video = getattr(video, "name", video)
            return synthetic_report(codec, video, crf=crf, preset=preset)

        monkeypatch.setattr(session_mod, "characterize", fake)
        run_dir = str(tmp_path / "run")
        result = run_experiment("fig04", workers=2, run_dir=run_dir)
        assert result.provenance["quarantined"] == []
        assert len(result.tables[0].rows) == GRID_CELLS
        report = run_report(run_dir)
        assert report["cell_peaks"]
        assert all(
            row["cell_peak_rss_kib"] > 0 for row in report["cell_peaks"]
        )

    def test_refused_peak_reset_omits_cell_peaks(
        self, stub_characterize, monkeypatch, tmp_path
    ):
        """No ``clear_refs`` reset: no ``VmHWM`` read, no report section."""
        from repro.obs import telemetry
        from repro.obs.report import format_report, run_report

        status = tmp_path / "status"
        status.write_text("VmHWM:\t     999 kB\n")
        refused = tmp_path / "no-proc" / "clear_refs"
        monkeypatch.setattr(telemetry, "_PROC_CLEAR_REFS", str(refused))
        monkeypatch.setattr(telemetry, "_PROC_STATUS", str(status))
        run_dir = str(tmp_path / "run")
        run_experiment("fig04", workers=2, run_dir=run_dir)

        streams = telemetry.read_telemetry(telemetry.telemetry_dir(run_dir))
        finals = [
            sample
            for samples in streams.values()
            for sample in samples
            if sample.get("cell")
        ]
        assert len(finals) == GRID_CELLS
        # 999 would mean the stand-in status file was read.
        assert all(s["cell_peak_rss_kib"] is None for s in finals)
        report = run_report(run_dir)
        assert "cell_peaks" not in report
        assert "cell peaks" not in format_report(report)


class TestGraftPrimitives:
    def test_graft_rebases_and_reparents(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        records = [span.to_jsonable() for span in worker.spans]

        parent = Tracer()
        host = parent.record_span("sweep.cell", 10.0, 20.0,
                                  thread=parent.synthetic_thread())
        parent.graft(records, parent_id=host.span_id, offset=100.0)
        grafted = {s.name: s for s in parent.spans if s.name != "sweep.cell"}
        assert grafted["outer"].parent_id == host.span_id
        assert grafted["inner"].parent_id == grafted["outer"].span_id
        original = {s.name: s for s in worker.spans}
        assert grafted["outer"].start == pytest.approx(
            original["outer"].start + 100.0
        )

    def test_merge_snapshot_folds_every_instrument(self):
        ours = MetricsRegistry()
        ours.counter("cells.ok").inc(2)
        ours.histogram("cell.seconds").observe(1.0)

        theirs = MetricsRegistry()
        theirs.counter("cells.ok").inc(3)
        theirs.gauge("pool.workers").set(4)
        theirs.histogram("cell.seconds").observe(2.0)

        ours.merge_snapshot(theirs.snapshot())
        merged = ours.snapshot()
        assert merged["counters"]["cells.ok"] == 5
        assert merged["gauges"]["pool.workers"] == 4
        assert merged["histograms"]["cell.seconds"]["count"] == 2


class TestSweepSpecs:
    def test_grid_order_is_nested_loops(self):
        specs = sweep_specs(("a", "b"), "v", (1, 2), 6)
        assert [str(s) for s in specs] == [
            "a:v:1:6", "a:v:2:6", "b:v:1:6", "b:v:2:6",
        ]

    def test_scalars_accepted_everywhere(self):
        (only,) = sweep_specs("svt-av1", "desktop", 35, 6)
        assert only == CellSpec("svt-av1", "desktop", 35, 6)


class TestQuarantinePlaceholders:
    def test_quarantined_cell_is_none_in_batch_and_raises_lazily(
        self, stub_characterize, monkeypatch
    ):
        def exploding(codec, video, machine=None, crf=None, preset=None,
                      num_frames=None):
            # the session resolves catalog clips to Video objects now
            video = getattr(video, "name", video)
            if video == "desktop":
                raise RuntimeError("boom")
            return synthetic_report(codec, video, crf=crf, preset=preset)

        monkeypatch.setattr(session_mod, "characterize", exploding)
        from repro.resilience.executor import (
            ExecutionPolicy,
            ResilienceGuard,
        )

        session = Session(
            num_frames=3, guard=ResilienceGuard(ExecutionPolicy())
        )
        specs = sweep_specs("svt-av1", ("desktop", "game1"), 35, 6)
        results = execute_cells(session, specs, workers=WORKERS)
        assert results[0] is None
        assert results[1] is not None
        with pytest.raises(QuarantinedCellError):
            session.report("svt-av1", "desktop", 35, 6)
