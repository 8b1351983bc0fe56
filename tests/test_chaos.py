"""Chaos suite: process-level faults against the supervised pool.

The supervision layer's acceptance criteria, exercised end-to-end with
the characterization pass stubbed (same synthetic-report fixture as
the resilience integration tests):

- injected worker deaths (``os._exit``, SIGKILL) and hangs (SIGSTOP
  past the heartbeat deadline) leave the pooled result
  element-for-element identical to a serial run — no cell lost, none
  double-counted, every lease resolved;
- a cell that kills its worker every time is classified poison and
  quarantined as a :class:`~repro.errors.WorkerCrashError` instead of
  crashing the sweep, while a healthy cell lost beside it on every
  pool break is re-dispatched, not blamed;
- the restart budget bounds how many pool rebuilds a sweep tolerates;
- heartbeat/lease primitives round-trip through their sidecar files,
  including a torn final heartbeat line;
- the run ledger truncates (not merely skips) a torn final line, so a
  crashed run resumes cleanly — while mid-file corruption still
  raises;
- cache ENOSPC faults never raise out of the cache (a put fails
  quietly, a get degrades to a miss);
- a drain request (SIGINT/SIGTERM) finishes in-flight cells, flushes
  the ledger and raises :class:`~repro.errors.SweepInterruptedError`;
  ``--resume`` then completes the interrupted run, including one
  interrupted while leases were outstanding.
"""

import json
import os
import threading
import time

import pytest

os.environ.setdefault("REPRO_FAST", "1")

import repro.core.session as session_mod  # noqa: E402
from repro.cache import ResultCache  # noqa: E402
from repro.errors import (  # noqa: E402
    CheckpointError,
    ExperimentError,
    ReproError,
    SweepInterruptedError,
    WorkerCrashError,
)
from repro.experiments import common, run_experiment  # noqa: E402
from repro.parallel import supervise  # noqa: E402
from repro.parallel.pool import (  # noqa: E402
    ParallelConfig,
    activate_parallel,
    resolve_supervision,
)
from repro.parallel.shm import SEGMENT_PREFIX, leaked_segments  # noqa: E402
from repro.parallel.supervise import (  # noqa: E402
    HeartbeatWriter,
    Lease,
    SupervisionConfig,
    drain_guard,
    drain_requested,
    last_beat,
    request_drain,
)
from repro.resilience import (  # noqa: E402
    FaultPlan,
    LedgerRecord,
    RunLedger,
    install,
)
from repro.resilience import faults as faults_mod  # noqa: E402
from repro.resilience.ledger import LEASE, OK  # noqa: E402
from tests.test_resilience_integration import synthetic_report  # noqa: E402

WORKERS = 2
GRID_CELLS = 6  # 2 videos x 3 CRFs
#: Aggressive supervision so hang detection fits in test time.
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


def _supervision(result):
    return result.provenance["telemetry"]["supervision"]


class TestChaosParity:
    """Injected crashes must not change the answer."""

    def test_sigkill_parity(self, stub_characterize, tmp_path):
        serial = run_experiment("fig04", workers=1)
        ledger = str(tmp_path / "kill.jsonl")
        plan = FaultPlan.parse("cell:svt-av1:game1:35:*@kill@times=1")
        pooled = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series
        assert pooled.provenance["worker_crashes"] >= 1
        assert RunLedger(ledger).unresolved_leases() == []
        stats = _supervision(pooled)
        assert stats["worker_restarts"] >= 1
        assert stats["leases_lost"] >= 1
        assert stats["leases_granted"] >= GRID_CELLS

    def test_exit_and_kill_in_one_sweep(self, stub_characterize, tmp_path):
        serial = run_experiment("fig04", workers=1)
        plan = FaultPlan.parse(
            "cell:svt-av1:game1:35:*@kill@times=1;"
            "cell:svt-av1:desktop:10:*@exit@times=1"
        )
        ledger = str(tmp_path / "two.jsonl")
        pooled = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series
        assert _supervision(pooled)["worker_restarts"] >= 2
        assert RunLedger(ledger).unresolved_leases() == []

    def test_hang_past_heartbeat_deadline(
        self, stub_characterize, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_HEARTBEAT_MISSES", "5")
        serial = run_experiment("fig04", workers=1)
        plan = FaultPlan.parse("cell:svt-av1:game1:60:*@hang@times=1")
        ledger = str(tmp_path / "hang.jsonl")
        pooled = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series
        assert _supervision(pooled)["leases_expired"] >= 1
        assert RunLedger(ledger).unresolved_leases() == []

    def test_crash_does_not_double_count_cells(
        self, stub_characterize, tmp_path
    ):
        plan = FaultPlan.parse("cell:svt-av1:desktop:35:*@kill@times=1")
        ledger = str(tmp_path / "count.jsonl")
        pooled = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        assert len(pooled.tables[0].rows) == GRID_CELLS
        completions = [
            r for r in RunLedger(ledger).records() if r.status == OK
        ]
        assert len(completions) == GRID_CELLS
        assert len({r.cell_key for r in completions}) == GRID_CELLS


class TestShmChaos:
    """Worker deaths while attached to shared-memory segments.

    The data plane's unlink guarantee: segments live only for the
    sweep, survive worker SIGKILL + pool rebuild (the parent owns
    them), and are gone from ``/dev/shm`` once the sweep returns —
    with the merged results still bit-identical to serial.
    """

    @staticmethod
    def _own_segments():
        # Scoped to segments this process published, so concurrent
        # runs on the same host cannot false-positive the leak check.
        return leaked_segments(prefix=f"{SEGMENT_PREFIX}{os.getpid()}-")

    def test_sigkill_while_attached_leaks_nothing(
        self, stub_characterize, tmp_path
    ):
        assert self._own_segments() == []
        serial = run_experiment("fig04", workers=1)
        # crf 35 is never a worker's first cell for that video, so the
        # killed worker already holds an attachment to the segment.
        plan = FaultPlan.parse("cell:svt-av1:game1:35:*@kill@times=1")
        ledger = str(tmp_path / "shm-kill.jsonl")
        pooled = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series
        assert _supervision(pooled)["worker_restarts"] >= 1
        assert RunLedger(ledger).unresolved_leases() == []
        assert self._own_segments() == []

    def test_poisoned_sweep_still_unlinks(
        self, stub_characterize, tmp_path
    ):
        plan = FaultPlan.parse("cell:svt-av1:game1:60:*@kill@times=*")
        result = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=str(tmp_path / "shm-poison.jsonl"), **FAST_HB,
        )
        assert len(result.tables[0].rows) == GRID_CELLS - 1
        assert self._own_segments() == []

    def test_aborted_sweep_still_unlinks(self, stub_characterize, tmp_path):
        plan = FaultPlan.parse("cell:svt-av1:game1:60:*@kill@times=*")
        with pytest.raises(ExperimentError, match="max-worker-restarts"):
            run_experiment(
                "fig04", workers=WORKERS, fault_plan=plan,
                ledger_path=str(tmp_path / "shm-abort.jsonl"),
                max_worker_restarts=1, **FAST_HB,
            )
        assert self._own_segments() == []


class TestPoisonCells:
    def test_always_crashing_cell_is_quarantined(
        self, stub_characterize, tmp_path
    ):
        plan = FaultPlan.parse("cell:svt-av1:game1:60:*@kill@times=*")
        ledger = str(tmp_path / "poison.jsonl")
        result = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        # The poison cell drops out; the surviving grid is intact.
        assert len(result.tables[0].rows) == GRID_CELLS - 1
        quarantined = result.provenance["quarantined"]
        assert len(quarantined) == 1
        assert "game1" in quarantined[0]["cell"]
        assert "crashed its worker" in quarantined[0]["error"]
        assert _supervision(result)["poison_cells"] == 1
        assert RunLedger(ledger).unresolved_leases() == []

    def test_slow_neighbour_of_a_poison_cell_is_not_blamed(
        self, stub_characterize, monkeypatch, tmp_path
    ):
        # game1:35 is still running whenever game1:60 kills its worker,
        # so it is lost on every break; only the dead worker's cell
        # may take the crash blame.
        fake = session_mod.characterize

        def slow_neighbour(codec, video, *args, crf=None, **kwargs):
            if getattr(video, "name", video) == "game1" and crf == 35:
                time.sleep(1.0)
            return fake(codec, video, *args, crf=crf, **kwargs)

        monkeypatch.setattr(session_mod, "characterize", slow_neighbour)
        plan = FaultPlan.parse("cell:svt-av1:game1:60:*@kill@times=*")
        ledger = str(tmp_path / "neighbour.jsonl")
        result = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=ledger, **FAST_HB,
        )
        quarantined = [q["cell"] for q in result.provenance["quarantined"]]
        assert len(quarantined) == 1
        assert ":game1:60:" in quarantined[0]
        assert len(result.tables[0].rows) == GRID_CELLS - 1
        assert ("game1", 35) in {row[:2] for row in result.tables[0].rows}
        assert _supervision(result)["poison_cells"] == 1
        assert RunLedger(ledger).unresolved_leases() == []

    def test_restart_budget_bounds_the_sweep(
        self, stub_characterize, tmp_path
    ):
        plan = FaultPlan.parse("cell:svt-av1:game1:60:*@kill@times=*")
        with pytest.raises(ExperimentError, match="max-worker-restarts"):
            run_experiment(
                "fig04", workers=WORKERS, fault_plan=plan,
                ledger_path=str(tmp_path / "budget.jsonl"),
                max_worker_restarts=1, **FAST_HB,
            )

    def test_priming_exhausts_crash_faults(self):
        plan = FaultPlan.parse("cell:x@kill@times=2")
        plan.prime("cell:x", 2)
        assert plan.check("cell:x") is None  # budget spent pre-crash

    def test_priming_ignores_in_process_faults(self):
        plan = FaultPlan.parse("cell:x@transient@times=1")
        plan.prime("cell:x", 5)
        with pytest.raises(ReproError):
            plan.check("cell:x")  # still fires: counters survived


class TestHeartbeatPrimitives:
    def test_writer_roundtrip(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        writer = HeartbeatWriter(path, "cell:x", interval=0.01)
        writer.start()
        time.sleep(0.06)
        writer.stop()
        beat = last_beat(path)
        assert beat["pid"] == os.getpid()
        assert beat["key"] == "cell:x"
        assert beat["seq"] >= 1  # first beat is synchronous, then ticks

    def test_last_beat_tolerates_torn_final_line(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"pid": 1, "key": "k", "seq": 3, "wall": 12.0}) + "\n")
            handle.write('{"pid": 1, "key": "k", "se')  # torn mid-write
        assert last_beat(path)["seq"] == 3

    def test_last_beat_missing_file(self, tmp_path):
        assert last_beat(str(tmp_path / "absent.jsonl")) is None

    def test_lease_stall_detection(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        lease = Lease(key=None, cell_key="cell:x", index=0, spec=None,
                      hb_path=path, granted_wall=100.0, seq=0)
        # Never started: the grant time anchors the deadline.
        assert not lease.stalled(100.5, deadline=1.0)
        assert lease.stalled(101.5, deadline=1.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"pid": 42, "key": "cell:x", "seq": 0, "wall": 103.0}
            ) + "\n")
        # A fresh beat resets the reference point.
        assert lease.started()
        assert not lease.stalled(103.5, deadline=1.0)
        assert lease.stalled(104.5, deadline=1.0)
        assert lease.beat_pid() == 42

    def test_supervision_config_validates(self):
        with pytest.raises(ExperimentError):
            SupervisionConfig(heartbeat_interval=0)
        with pytest.raises(ExperimentError):
            SupervisionConfig(max_worker_restarts=-1)
        config = SupervisionConfig(heartbeat_interval=0.5,
                                   heartbeat_misses=20)
        assert config.stall_deadline == pytest.approx(10.0)
        assert config.poll_interval <= 0.25

    def test_resolution_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "2.0")
        monkeypatch.setenv("REPRO_MAX_WORKER_RESTARTS", "3")
        assert resolve_supervision().heartbeat_interval == 2.0
        assert resolve_supervision().max_worker_restarts == 3
        ambient = ParallelConfig(heartbeat_interval=1.0,
                                 max_worker_restarts=7)
        with activate_parallel(ambient):
            assert resolve_supervision().heartbeat_interval == 1.0
            assert resolve_supervision().max_worker_restarts == 7
            explicit = resolve_supervision(0.25, 1)
            assert explicit.heartbeat_interval == 0.25
            assert explicit.max_worker_restarts == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "soon")
        with pytest.raises(ExperimentError, match="REPRO_HEARTBEAT_INTERVAL"):
            resolve_supervision()


class TestTornLedger:
    def _seed_ledger(self, path, torn_tail):
        records = [
            LedgerRecord(cell_key=f"cell:{i}", status=OK, payload={"i": i})
            for i in range(2)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(record.to_line() + "\n")
            handle.write(torn_tail)

    def test_torn_final_line_is_truncated(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        self._seed_ledger(path, '{"cell_key": "cell:2", "sta')
        ledger = RunLedger(path)
        assert len(ledger) == 2
        # The partial line is gone from disk, not just skipped: an
        # append now starts on a fresh line.
        ledger.append(
            LedgerRecord(cell_key="cell:2", status=OK, payload={"i": 2})
        )
        reloaded = RunLedger(path)
        assert len(reloaded) == 3
        assert sorted(reloaded.completed_payloads()) == [
            "cell:0", "cell:1", "cell:2",
        ]

    def test_torn_line_without_newline_guard(self, tmp_path):
        path = str(tmp_path / "torn2.jsonl")
        self._seed_ledger(path, "garbage-not-json")
        assert len(RunLedger(path)) == 2
        assert os.path.getsize(path) == sum(
            len(r.to_line().encode()) + 1 for r in RunLedger(path).records()
        )

    def test_midfile_corruption_still_raises(self, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        good = LedgerRecord(cell_key="cell:1", status=OK).to_line()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(good + "\n")
        with pytest.raises(CheckpointError):
            RunLedger(path)

    def test_resume_after_torn_line(self, stub_characterize, tmp_path):
        ledger_path = str(tmp_path / "resume.jsonl")
        run_experiment("fig04", ledger_path=ledger_path)
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"cell_key": "cell:svt')  # crash mid-append
        result = run_experiment(
            "fig04", resume=True, ledger_path=ledger_path
        )
        assert len(result.tables[0].rows) == GRID_CELLS
        assert result.provenance["resumed"] == GRID_CELLS


class TestCacheUnderDiskFaults:
    def test_put_enospc_fails_quietly(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        with install(FaultPlan.parse("cache:put:*@enospc@times=1")):
            assert cache.put("a" * 64, {"x": 1}) is False
            assert cache.get("a" * 64) is None  # nothing half-written
            assert cache.put("a" * 64, {"x": 1}) is True  # fault spent
        assert cache.get("a" * 64) == {"x": 1}

    def test_get_enospc_degrades_to_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.put("b" * 64, {"y": 2}) is True
        with install(FaultPlan.parse("cache:get:*@enospc@times=1")):
            assert cache.get("b" * 64) is None  # miss, not an exception
        # An unreadable entry is invalidated, per the get() contract:
        # the next lookup recomputes rather than trusting bad disk.
        assert cache.invalidations == 1
        assert cache.misses == 1

    def test_pooled_sweep_survives_cache_enospc(
        self, stub_characterize, tmp_path
    ):
        serial = run_experiment("fig04", workers=1)
        plan = FaultPlan.parse("cache:put:*@enospc@times=*")
        with install(plan):
            pooled = run_experiment(
                "fig04", workers=WORKERS,
                cache_dir=str(tmp_path / "cache"),
            )
        assert pooled.tables == serial.tables
        assert pooled.series == serial.series


class TestGracefulDrain:
    def test_serial_drain_flushes_and_resumes(self, monkeypatch, tmp_path):
        calls = []
        fired = []

        def fake(codec, video, machine=None, crf=None, preset=None,
                 num_frames=None):

            # the session resolves catalog clips to Video objects now

            video = getattr(video, "name", video)
            calls.append(video)
            if len(calls) == 3 and not fired:
                fired.append(True)
                request_drain("SIGTERM")
            return synthetic_report(codec, video, crf=crf, preset=preset)

        monkeypatch.setattr(session_mod, "characterize", fake)
        ledger_path = str(tmp_path / "drain.jsonl")
        with pytest.raises(SweepInterruptedError, match="SIGTERM"):
            run_experiment("fig04", ledger_path=ledger_path)
        # The in-flight cell finished and every completion was flushed.
        assert len(RunLedger(ledger_path)) == 3
        result = run_experiment(
            "fig04", resume=True, ledger_path=ledger_path
        )
        assert result.provenance["resumed"] == 3
        assert len(result.tables[0].rows) == GRID_CELLS
        assert len(RunLedger(ledger_path)) == GRID_CELLS

    def test_pooled_drain_finishes_inflight_and_resumes(
        self, stub_characterize, tmp_path
    ):
        ledger_path = str(tmp_path / "pdrain.jsonl")
        timer = threading.Timer(0.3, request_drain, args=("SIGINT",))
        slow = FaultPlan.parse("cell:*@stall@times=*@stall=0.4")
        timer.start()
        try:
            with pytest.raises(SweepInterruptedError, match="SIGINT"):
                with install(slow):
                    run_experiment(
                        "fig04", workers=WORKERS,
                        ledger_path=ledger_path, **FAST_HB,
                    )
        finally:
            timer.cancel()
        ledger = RunLedger(ledger_path)
        # Dispatched cells ran to completion; none left mid-air.
        assert ledger.unresolved_leases() == []
        done_before = len(ledger)
        assert 0 < done_before < GRID_CELLS
        result = run_experiment(
            "fig04", resume=True, ledger_path=ledger_path, workers=WORKERS,
        )
        assert result.provenance["resumed"] == done_before
        assert len(result.tables[0].rows) == GRID_CELLS
        assert len(RunLedger(ledger_path)) == GRID_CELLS

    def test_resume_replays_dangling_leases(
        self, stub_characterize, tmp_path
    ):
        # Simulate the parent dying while leases were outstanding by
        # truncating a pooled run's ledger right after its first two
        # lease grants.
        ledger_path = str(tmp_path / "dangling.jsonl")
        run_experiment(
            "fig04", workers=WORKERS, ledger_path=ledger_path, **FAST_HB,
        )
        kept, leases = [], 0
        with open(ledger_path, encoding="utf-8") as handle:
            for line in handle:
                kept.append(line)
                leases += json.loads(line)["status"] == LEASE
                if leases == 2:
                    break
        with open(ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(kept)
        assert RunLedger(ledger_path).unresolved_leases() != []
        result = run_experiment(
            "fig04", resume=True, ledger_path=ledger_path, workers=WORKERS,
        )
        assert len(result.tables[0].rows) == GRID_CELLS
        assert len(RunLedger(ledger_path)) == GRID_CELLS

    def test_guard_scopes_the_request(self):
        assert drain_requested() is None
        request_drain("SIGTERM")  # no guard: inert
        assert drain_requested() is None
        with drain_guard():
            assert drain_requested() is None
            request_drain("SIGTERM")
            assert drain_requested() == "SIGTERM"
            with drain_guard():  # nested guards share the state
                assert drain_requested() == "SIGTERM"
        assert drain_requested() is None


class TestErrorsAndCli:
    def test_worker_crash_error_message(self):
        err = WorkerCrashError("cell:x", 3, "worker process died")
        assert isinstance(err, ReproError)
        assert "cell:x" in str(err) and "3x" in str(err)

    def test_sweep_interrupted_error_message(self):
        err = SweepInterruptedError("SIGTERM", 4, 9)
        assert isinstance(err, ReproError)
        assert "4/9" in str(err) and "--resume" in str(err)

    def test_cli_exit_code_on_drain(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(*args, **kwargs):
            raise SweepInterruptedError("SIGINT", 2, 6)

        monkeypatch.setattr(cli, "run_experiment", interrupted)
        assert cli.main(["experiment", "fig04"]) == 130
        assert "interrupted" in capsys.readouterr().err

    def test_supervision_knobs_in_provenance(self, stub_characterize):
        result = run_experiment(
            "fig04", heartbeat_interval=0.2, max_worker_restarts=5,
        )
        parallel = result.provenance["parallel"]
        assert parallel["heartbeat_interval"] == 0.2
        assert parallel["max_worker_restarts"] == 5


class TestCrossProcessTrace:
    """Worker spans must land under the right parents after a crash."""

    def test_killed_worker_spans_reparent_in_merged_trace(
        self, stub_characterize, tmp_path
    ):
        from repro.obs.export import read_span_log

        span_log = str(tmp_path / "spans.jsonl")
        plan = FaultPlan.parse("cell:svt-av1:game1:35:*@kill@times=1")
        pooled = run_experiment(
            "fig04", workers=WORKERS, fault_plan=plan,
            ledger_path=str(tmp_path / "ledger.jsonl"),
            span_log=span_log, **FAST_HB,
        )
        assert _supervision(pooled)["worker_restarts"] >= 1
        spans, _ = read_span_log(span_log)
        by_id = {span.span_id: span for span in spans}

        def chain(span):
            names = []
            while span is not None:
                names.append(span.name)
                span = by_id.get(span.parent_id)
            return names

        # One coordinating sweep.cell per pooled dispatch (the serial
        # replay loops add worker-less sweep.cell spans of their own),
        # each rooted in the supervised pool's span tree — including
        # the killed cell's replacement dispatch.
        coordinators = [
            s for s in spans
            if s.name == "sweep.cell" and "worker" in s.attrs
        ]
        assert len(coordinators) == GRID_CELLS
        for coordinator in coordinators:
            assert "pool.supervise" in chain(coordinator)[1:]

        # Every worker-side cell span was grafted under a coordinator
        # (no orphans), and the worker that died mid-cell shipped each
        # of its *completed* cells exactly once: one cell span per
        # grid point, the killed attempt's spans died with the worker.
        cells = [
            s for s in spans
            if s.name == "cell" and "pool.supervise" in chain(s)[1:]
        ]
        assert len(cells) == GRID_CELLS
        keys = sorted(str(s.attrs.get("key")) for s in cells)
        assert len(set(keys)) == GRID_CELLS
        assert any("game1:35" in key for key in keys)
        for cell in cells:
            assert "sweep.cell" in chain(cell)[1:]

        # Coordinators carry the worker pid; the crash means at least
        # two distinct pids contributed to the merged timeline.
        pids = {s.attrs.get("worker") for s in coordinators}
        assert len(pids) >= 2
