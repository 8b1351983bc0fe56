"""Live-run telemetry: sinks, run status, health report, artifacts.

The observability PR's acceptance criteria, exercised end-to-end with
the characterization pass stubbed (same synthetic-report fixture as
the chaos suite):

- a :class:`~repro.obs.telemetry.TelemetrySink` appends schema'd
  samples with sticky annotations and counter *deltas*, and never
  raises out of ``flush`` (a dead disk makes the writer silent, not
  the run dead);
- telemetry readers drop (never truncate) a torn final line — the
  writer may be alive and mid-append — skip unknown schema versions,
  and raise on mid-file corruption;
- ``repro status`` on a run directory from an interrupted (SIGINT)
  pooled sweep reports per-worker lease/heartbeat state and the
  resumable cell count from on-disk artifacts alone, demonstrated by
  killing a worker mid-sweep;
- ``repro report`` fuses ledger + span log + telemetry into the
  run-health view: slowest cells, lease incidents, fault timeline,
  per-phase time;
- a completed ``--run-dir`` run writes the full artifact contract
  (OBSERVABILITY.md), with the metrics snapshot as ``metrics.json``.
"""

import json
import os
import time

import numpy as np
import pytest

os.environ.setdefault("REPRO_FAST", "1")

import repro.cli as cli  # noqa: E402
import repro.core.session as session_mod  # noqa: E402
from repro.errors import (  # noqa: E402
    ObservabilityError,
    SweepInterruptedError,
)
from repro.experiments import common, run_experiment  # noqa: E402
from repro.obs.context import ObsContext  # noqa: E402
from repro.obs.report import format_report, run_report  # noqa: E402
from repro.obs.runstatus import (  # noqa: E402
    RunStatus,
    WorkerView,
    format_status,
    load_run_status,
)
from repro.obs.telemetry import (  # noqa: E402
    TELEMETRY_SCHEMA_VERSION,
    TelemetrySink,
    open_sink,
    read_telemetry,
    read_telemetry_file,
    reset_rss_peak,
    rss_peak_kib,
)
from repro.parallel import pool as pool_mod  # noqa: E402
from repro.parallel.supervise import request_drain  # noqa: E402
from repro.resilience import FaultPlan, RunLedger  # noqa: E402
from tests.test_resilience_integration import synthetic_report  # noqa: E402

WORKERS = 2
GRID_CELLS = 6  # 2 videos x 3 CRFs
FAST_HB = {"heartbeat_interval": 0.05}


@pytest.fixture()
def stub_characterize(monkeypatch):
    """Replace the encode+measure pass; returns the call log."""
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


def _lines(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestTelemetrySink:
    def test_flush_appends_schema_seq_and_resources(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = TelemetrySink(path, role="parent")
        sink.flush()
        sink.flush(kind="final", outcome="complete")
        first, last = _lines(path)
        assert first["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert (first["seq"], last["seq"]) == (0, 1)
        assert first["role"] == "parent"
        assert first["pid"] == os.getpid()
        assert first["kind"] == "sample"
        assert first["cpu_seconds"] >= 0.0
        assert last["kind"] == "final"
        assert last["outcome"] == "complete"

    def test_annotate_is_sticky_until_removed(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = TelemetrySink(path)
        sink.annotate(inflight="cell:x", phase="pool")
        sink.flush()
        sink.flush()
        sink.annotate(inflight=None)
        sink.flush()
        samples = _lines(path)
        assert [s.get("inflight") for s in samples] == [
            "cell:x", "cell:x", None,
        ]
        assert all(s["phase"] == "pool" for s in samples)

    def test_counter_deltas_between_samples(self, tmp_path):
        obs = ObsContext()
        sink = TelemetrySink(str(tmp_path / "t.jsonl"), obs=obs)
        obs.metrics.counter("cells.ok").inc(2)
        sink.flush()
        obs.metrics.counter("cells.ok").inc(3)
        obs.metrics.gauge("pool.width").set(4)
        sink.flush()
        sink.flush()
        first, second, third = _lines(sink.path)
        assert first["counters_delta"] == {"cells.ok": 2}
        assert second["counters_delta"] == {"cells.ok": 3}
        assert second["counters_total"] == {"cells.ok": 5}
        assert second["gauges"] == {"pool.width": 4}
        # No counter moved between the last two samples.
        assert third["counters_delta"] == {}

    def test_flush_never_raises_on_unwritable_path(self, tmp_path):
        sink = TelemetrySink(str(tmp_path / "missing" / "t.jsonl"))
        sink.flush()  # must not raise
        assert not os.path.exists(sink.path)

    def test_open_sink_lifecycle_ends_with_final(self, tmp_path):
        directory = str(tmp_path / "telemetry")
        sink = open_sink(directory, role="worker", interval=0.02)
        assert sink is not None
        time.sleep(0.08)
        sink.stop(outcome="done")
        samples = read_telemetry_file(sink.path)
        assert len(samples) >= 2  # start() flushes immediately
        assert samples[-1]["kind"] == "final"
        assert samples[-1]["outcome"] == "done"

    def test_rss_peak_reset_opens_a_new_window(self):
        if not reset_rss_peak():
            pytest.skip("kernel refuses the RSS high-water-mark reset")
        before = rss_peak_kib()
        block = np.ones(32 * 2**20 // 8)  # 32 MiB, every page touched
        del block
        peak = rss_peak_kib()
        assert before is not None and peak is not None
        assert peak - before >= 24 * 1024
        assert reset_rss_peak()
        assert rss_peak_kib() < peak


class TestTelemetryReading:
    def _write(self, path, records, tail=""):
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
            handle.write(tail)

    def _record(self, seq, **extra):
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "kind": "sample",
            "seq": seq,
            "wall": 100.0 + seq,
            "pid": 1,
            "role": "worker",
            **extra,
        }

    def test_torn_final_line_dropped_not_truncated(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        self._write(
            path, [self._record(0), self._record(1)],
            tail='{"schema_version": 1, "ki',
        )
        size_before = os.path.getsize(path)
        samples = read_telemetry_file(path)
        assert [s["seq"] for s in samples] == [0, 1]
        # The writer may still be alive: the reader must not repair.
        assert os.path.getsize(path) == size_before

    def test_unknown_schema_version_skipped(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        future = self._record(1)
        future["schema_version"] = TELEMETRY_SCHEMA_VERSION + 1
        self._write(path, [self._record(0), future])
        samples = read_telemetry_file(path)
        assert [s["seq"] for s in samples] == [0]

    def test_midfile_corruption_raises(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps(self._record(0)) + "\n")
        with pytest.raises(ObservabilityError, match="corrupt"):
            read_telemetry_file(path)

    def test_missing_directory_reads_empty(self, tmp_path):
        assert read_telemetry(str(tmp_path / "nope")) == {}

    def test_directory_groups_streams_by_name(self, tmp_path):
        self._write(str(tmp_path / "worker-11.jsonl"), [self._record(0)])
        self._write(str(tmp_path / "parent-10.jsonl"), [self._record(0)])
        (tmp_path / "README.txt").write_text("not telemetry")
        streams = read_telemetry(str(tmp_path))
        assert sorted(streams) == ["parent-10", "worker-11"]


class TestRunStatusMath:
    def _status(self, **overrides):
        status = RunStatus(run_dir="r", generated_wall=1000.0)
        status.manifest = {"status": "running", "started_wall": 900.0}
        status.cells_ok = 4
        status.durations = [1.0, 2.0, 3.0, 2.0]
        status.cells_planned = 10
        status.workers = [
            WorkerView(
                stream="worker-1", role="worker", pid=1, samples=3,
                first_wall=900.0, last_wall=999.0, rss_kib=1024.0,
                peak_rss_kib=2048.0, cpu_seconds=1.0, inflight=None,
                last_kind="sample",
            ),
        ]
        for key, value in overrides.items():
            setattr(status, key, value)
        return status

    def test_throughput_and_eta(self):
        status = self._status()
        assert status.cells_completed == 4
        assert status.throughput() == pytest.approx(4 / 100.0)
        # 6 cells remain, mean 2s each, over one live worker.
        assert status.eta_seconds() == pytest.approx(12.0)

    def test_eta_unknowable_without_plan_or_durations(self):
        assert self._status(cells_planned=None).eta_seconds() is None
        assert self._status(durations=[]).eta_seconds() is None
        finished = self._status()
        finished.manifest = {"status": "complete", "started_wall": 900.0}
        assert finished.eta_seconds() is None

    def test_eta_none_before_first_completed_cell(self):
        # Zero completed cells used to divide by a zero mean; now it is
        # an honest "can't say".
        status = self._status(cells_ok=0, durations=[])
        assert status.eta_seconds() is None
        assert status.throughput() is None

    def test_eta_zero_when_nothing_remains(self):
        status = self._status(cells_ok=10, cells_planned=10)
        assert status.eta_seconds() == 0.0

    def test_eta_ignores_closed_worker_streams(self):
        # A worker whose stream ended ("final") is not coming back;
        # counting it deflated ETAs near the end of every run.
        live = self._status().workers[0]
        done = WorkerView(
            stream="worker-2", role="worker", pid=2, samples=5,
            first_wall=900.0, last_wall=950.0, rss_kib=None,
            peak_rss_kib=None, cpu_seconds=None, inflight=None,
            last_kind="final",
        )
        status = self._status(workers=[live, done])
        # 6 remaining x 2s mean over ONE live worker, not two.
        assert status.eta_seconds() == pytest.approx(12.0)
        status = self._status(workers=[done])
        assert status.eta_seconds() is None

    def test_elapsed_prefers_parent_monotonic_span(self):
        # A wall-clock step (NTP, suspend) makes started_wall lie; the
        # parent stream's monotonic span is a true duration.
        parent = WorkerView(
            stream="parent", role="parent", pid=9, samples=4,
            first_wall=999999.0, last_wall=900.0,  # wall stepped back
            rss_kib=None, peak_rss_kib=None, cpu_seconds=None,
            inflight=None, last_kind="sample",
            first_mono=50.0, last_mono=250.0,
        )
        status = self._status(workers=[parent])
        assert status.elapsed_seconds() == pytest.approx(200.0)
        assert status.throughput() == pytest.approx(4 / 200.0)

    def test_elapsed_wall_fallback_never_negative(self):
        # No telemetry: wall math is all there is, but a run "started
        # in the future" must clamp to zero, and throughput must
        # refuse to divide by it (the old math returned negatives).
        status = self._status(workers=[])
        status.manifest = {"status": "running", "started_wall": 1500.0}
        assert status.elapsed_seconds() == 0.0
        assert status.throughput() is None
        status.manifest = {}
        assert status.elapsed_seconds() is None
        assert status.throughput() is None

    def test_format_status_renders_progress_and_workers(self):
        text = format_status(self._status())
        assert "4 ok" in text
        assert "0 resumable (unresolved leases)" in text
        assert "pool planned 10" in text
        assert "worker-1" in text
        assert "1.0MiB" in text

    def test_empty_directory_degrades_gracefully(self, tmp_path):
        status = load_run_status(str(tmp_path))
        assert status.cells_completed == 0
        assert status.workers == []
        assert not status.running
        assert "(no manifest" in format_status(status)


def _interrupt_on_first_rebuild(monkeypatch):
    """Arrange the SIGINT drain to land while a lost lease is unresolved.

    The supervisor accounts a pool break (``spend_restart``) *before*
    requeue/re-dispatch; requesting the drain there is exactly the
    operator hitting Ctrl-C as the crash is reported, and pins the
    killed cell's ledger state at LOST.
    """
    original = pool_mod._Supervisor.spend_restart

    def hooked(self, lost_count):
        request_drain("SIGINT")
        original(self, lost_count)

    monkeypatch.setattr(pool_mod._Supervisor, "spend_restart", hooked)


def _interrupted_run(tmp_path, monkeypatch):
    """One pooled fig04 run, worker SIGKILLed then SIGINT-drained."""
    run_dir = str(tmp_path / "run")
    _interrupt_on_first_rebuild(monkeypatch)
    plan = FaultPlan.parse("cell:svt-av1:game1:35:*@kill@times=1")
    with pytest.raises(SweepInterruptedError, match="SIGINT"):
        run_experiment(
            "fig04", workers=WORKERS, run_dir=run_dir,
            fault_plan=plan, **FAST_HB,
        )
    return run_dir


class TestInterruptedStatus:
    """The acceptance test: status from an interrupted run's disk."""

    def test_status_reports_killed_worker_and_resumable_cells(
        self, stub_characterize, tmp_path, monkeypatch, capsys
    ):
        run_dir = _interrupted_run(tmp_path, monkeypatch)

        # Everything below reads on-disk artifacts only.
        with open(os.path.join(run_dir, "run.json"),
                  encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["status"] == "interrupted"

        status = load_run_status(run_dir)
        assert not status.running
        ledger = RunLedger(os.path.join(run_dir, "ledger.jsonl"))
        assert sorted(status.resumable) == sorted(
            ledger.unresolved_leases()
        )
        # The killed cell is resumable; its co-in-flight cell may have
        # been salvaged (OK) or lost with the pool — both are honest.
        assert any("game1:35" in key for key in status.resumable)
        assert 1 <= len(status.resumable) <= WORKERS
        assert status.cells_quarantined == 0
        # Cells dispatched before the kill completed; at most the
        # co-in-flight lease was also lost, and at most one trailing
        # cell was still queued (no lease, no record — plain pending).
        assert status.cells_ok >= GRID_CELLS - 1 - WORKERS
        assert (
            GRID_CELLS - 1
            <= status.cells_ok + len(status.resumable)
            <= GRID_CELLS
        )
        assert status.cells_planned == GRID_CELLS

        # Per-cell heartbeat sidecars survived in the run directory,
        # including the killed worker's last beat.
        assert status.heartbeats
        beat_keys = {beat.key for beat in status.heartbeats}
        assert any("game1:35" in key for key in beat_keys)
        assert all(beat.pid is not None for beat in status.heartbeats)

        # The parent and both pool workers left telemetry streams.
        roles = {worker.role for worker in status.workers}
        assert roles == {"parent", "worker"}
        parent = [w for w in status.workers if w.role == "parent"][0]
        assert parent.last_kind == "final"

        # The CLI renders the same picture.
        assert cli.main(["status", run_dir]) == 0
        text = capsys.readouterr().out
        assert "interrupted" in text
        assert (
            f"{len(status.resumable)} resumable (unresolved leases)"
            in text
        )
        assert f"pool planned {GRID_CELLS}" in text
        for key in status.resumable:
            assert key in text

    def test_status_json_round_trips(
        self, stub_characterize, tmp_path, monkeypatch, capsys
    ):
        run_dir = _interrupted_run(tmp_path, monkeypatch)
        assert cli.main(["status", run_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"]["status"] == "interrupted"
        assert payload["cells_completed"] == payload["cells_ok"]
        assert payload["resumable"]
        assert payload["eta_seconds"] is None  # not running any more

    def test_resume_completes_and_clears_resumable(
        self, stub_characterize, tmp_path, monkeypatch
    ):
        run_dir = _interrupted_run(tmp_path, monkeypatch)
        before = load_run_status(run_dir)
        assert before.resumable
        result = run_experiment(
            "fig04", workers=WORKERS, run_dir=run_dir, resume=True,
            **FAST_HB,
        )
        assert len(result.tables[0].rows) == GRID_CELLS
        after = load_run_status(run_dir)
        assert after.manifest["status"] == "complete"
        assert after.resumable == []
        assert after.cells_ok == GRID_CELLS


class TestRunReport:
    def test_report_blames_the_lost_lease(
        self, stub_characterize, tmp_path, monkeypatch, capsys
    ):
        run_dir = _interrupted_run(tmp_path, monkeypatch)
        report = run_report(run_dir)
        assert report["manifest"]["status"] == "interrupted"
        assert report["cells"]["resumable"] >= 1
        incidents = report["lease_incidents"]
        assert any(
            row["kind"] == "lease.lost" and "game1:35" in row["cell"]
            for row in incidents
        )
        kinds = {row["kind"] for row in report["fault_timeline"]}
        assert "pool.worker_crash" in kinds
        # The interrupted run still flushed its span log: phase rows
        # exist and the completed cells rank in slowest_cells.
        assert any(
            row["phase"] == "sweep.cell" for row in report["phases"]
        )
        assert report["slowest_cells"]

        text = format_report(report)
        assert "lease incidents" in text
        assert "fault timeline" in text

        out = str(tmp_path / "health.json")
        assert cli.main(["report", run_dir, "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            written = json.load(handle)
        assert written["cells"] == report["cells"]
        assert "run-health report" in capsys.readouterr().out


class TestRunDirectoryContract:
    def test_complete_run_writes_every_artifact(
        self, stub_characterize, tmp_path
    ):
        run_dir = tmp_path / "run"
        result = run_experiment(
            "fig04", workers=WORKERS, run_dir=str(run_dir), **FAST_HB
        )
        assert result.provenance["parallel"]["run_dir"] == str(run_dir)
        # Exactly the contract: every artifact, and nothing else.
        assert sorted(entry.name for entry in run_dir.iterdir()) == [
            "heartbeats", "ledger.jsonl", "metrics.json", "run.json",
            "spans.jsonl", "telemetry", "trace.json",
        ]
        assert (run_dir / "telemetry").is_dir()
        assert (run_dir / "heartbeats").is_dir()

        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["ended_wall"] >= manifest["started_wall"]

        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["counters"]["cells.ok"] == GRID_CELLS

        status = load_run_status(str(run_dir))
        assert status.cells_ok == GRID_CELLS
        assert status.resumable == []
        assert {w.role for w in status.workers} == {"parent", "worker"}
