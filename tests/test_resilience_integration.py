"""Integration tests: resilience threaded through the experiment stack.

These drive real ``run_experiment`` calls — registry, execution
context, session, sweeps, ledger — with the expensive characterization
call stubbed by a synthetic :class:`PerfReport` factory, so the full
policy machinery is exercised in milliseconds per cell.  The scenarios
mirror the subsystem's acceptance criteria:

- one injected transient fault per cell: retries absorb every fault
  and the full grid is present;
- a permanent fault in one cell: that cell is quarantined into the
  result's provenance, all other cells intact;
- a run "killed" mid-sweep (simulated by truncating the ledger):
  resuming re-executes only the missing cells.
"""

import os

import pytest

os.environ.setdefault("REPRO_FAST", "1")

import repro.core.session as session_mod  # noqa: E402
from repro.core import ExperimentResult, from_jsonable, to_jsonable  # noqa: E402
from repro.core.report import RESULT_SCHEMA_VERSION, Series, Table  # noqa: E402
from repro.errors import CheckpointError, ExperimentError  # noqa: E402
from repro.experiments import common, run_experiment  # noqa: E402
from repro.resilience import FaultPlan, RunLedger  # noqa: E402
from repro.uarch.perfcounters import BranchReport, PerfReport  # noqa: E402
from repro.uarch.pipeline import CoreModelResult, ResourceStalls  # noqa: E402
from repro.uarch.topdown import TopDown  # noqa: E402


def synthetic_report(codec, video, crf=0.0, preset=0):
    """A fully populated PerfReport without running an encode."""
    topdown = TopDown(retiring=0.5, bad_speculation=0.1, frontend=0.15,
                      backend=0.25)
    core = CoreModelResult(
        cycles=1e9, ipc=2.0, topdown=topdown,
        stalls=ResourceStalls(reservation_station=6.0, reorder_buffer=2.0,
                              load_buffer=1.0, store_buffer=0.5),
        cpi_base=0.25, cpi_backend_memory=0.1, cpi_backend_core=0.05,
        cpi_bad_speculation=0.05, cpi_frontend=0.05,
    )
    branch = BranchReport(
        total_branches=1e8, decision_branches=1e7, loop_branches=5e7,
        decision_miss_rate=0.05, miss_rate=0.02, mpki=3.0, taken_rate=0.6,
    )
    return PerfReport(
        video=video, codec=codec, crf=crf, preset=preset,
        proxy_instructions=1e9, instructions=2e9 - crf * 1e6, cycles=1e9,
        time_seconds=1.0 - crf * 0.001, ipc=2.0,
        mix_percent={"branch": 5.0, "load": 25.0},
        branch=branch, cache_mpki={"l1d": 20.0, "l2": 5.0, "llc": 1.0},
        topdown=topdown, core=core,
        bits=1e6, bitrate_kbps=1000.0, psnr_db=40.0,
    )


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
    # fig04 binds the grid helpers by name at import time, so patch its
    # module references (patching ``common`` alone would not reach it).
    from repro.experiments import fig04_crf_sweep

    for module in (common, fig04_crf_sweep):
        monkeypatch.setattr(module, "sweep_videos",
                            lambda: ("desktop", "game1"))
        monkeypatch.setattr(module, "sweep_crfs", lambda: (10, 35, 60))


GRID_CELLS = 6  # 2 videos x 3 CRFs


class TestFaultsAbsorbedByRetries:
    def test_one_transient_fault_per_cell_full_grid_survives(
        self, stub_characterize, tmp_path
    ):
        plan = FaultPlan.parse("cell:*@transient@times=1")
        result = run_experiment(
            "fig04", max_retries=2,
            ledger_path=str(tmp_path / "fig04.jsonl"), fault_plan=plan,
        )
        assert len(result.tables[0].rows) == GRID_CELLS
        assert len(stub_characterize) == GRID_CELLS
        assert result.provenance["quarantined"] == []
        assert result.provenance["retries"] == GRID_CELLS
        assert result.provenance["executed"] == GRID_CELLS

    def test_without_retries_every_cell_quarantined(self, stub_characterize):
        plan = FaultPlan.parse("cell:*@transient@times=1")
        result = run_experiment("fig04", max_retries=0, fault_plan=plan)
        assert result.tables[0].rows == ()
        assert len(result.provenance["quarantined"]) == GRID_CELLS


class TestPermanentFaultQuarantine:
    def test_one_cell_quarantined_rest_intact(self, stub_characterize):
        plan = FaultPlan.parse("cell:svt-av1:desktop:10:*@fatal@times=*")
        result = run_experiment("fig04", max_retries=1, fault_plan=plan)
        assert len(result.tables[0].rows) == GRID_CELLS - 1
        quarantined = result.provenance["quarantined"]
        assert len(quarantined) == 1
        assert quarantined[0]["cell"].startswith("cell:svt-av1:desktop:10")
        # The failed cell's series point is dropped, not faked.
        desktop = result.get_series("ipc:desktop")
        assert desktop.x == (35, 60)
        game1 = result.get_series("ipc:game1")
        assert game1.x == (10, 35, 60)


class TestResume:
    def test_resume_reexecutes_only_missing_cells(
        self, stub_characterize, tmp_path
    ):
        ledger_path = str(tmp_path / "fig04.jsonl")
        run_experiment("fig04", ledger_path=ledger_path)
        assert len(stub_characterize) == GRID_CELLS
        lines = open(ledger_path).read().splitlines()
        assert len(lines) == GRID_CELLS

        # Simulate a run killed after 4 cells: drop the ledger's tail.
        with open(ledger_path, "w") as handle:
            handle.write("\n".join(lines[:4]) + "\n")

        stub_characterize.clear()
        result = run_experiment("fig04", resume=True, ledger_path=ledger_path)
        assert len(stub_characterize) == GRID_CELLS - 4
        assert result.provenance["resumed"] == 4
        assert result.provenance["executed"] == GRID_CELLS - 4
        assert len(result.tables[0].rows) == GRID_CELLS
        # The ledger grew back to a full grid's worth of records.
        assert len(RunLedger(ledger_path)) == GRID_CELLS

    def test_resumed_payloads_rebuild_real_reports(
        self, stub_characterize, tmp_path
    ):
        ledger_path = str(tmp_path / "fig04.jsonl")
        first = run_experiment("fig04", ledger_path=ledger_path)
        stub_characterize.clear()
        second = run_experiment("fig04", resume=True, ledger_path=ledger_path)
        assert stub_characterize == []  # nothing re-executed
        assert second.tables[0].rows == first.tables[0].rows

    def test_default_ledger_location_under_cwd(
        self, stub_characterize, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        result = run_experiment("fig04", resume=True)
        ledger = os.path.join(".repro", "ledgers", "fig04.jsonl")
        assert result.provenance["ledger"] == ledger
        assert os.path.exists(tmp_path / ledger)


class TestEnvFaultPlan:
    def test_fault_plan_parsed_from_environment(
        self, stub_characterize, monkeypatch
    ):
        from repro.resilience import faults

        monkeypatch.setenv("REPRO_FAULT_PLAN", "cell:*@transient@times=1")
        faults.reload_from_env()
        try:
            result = run_experiment("fig04", max_retries=1)
            assert len(result.tables[0].rows) == GRID_CELLS
            assert result.provenance["retries"] == GRID_CELLS
        finally:
            monkeypatch.delenv("REPRO_FAULT_PLAN")
            faults.reload_from_env()


class TestBadKwargs:
    def test_unknown_kwarg_is_experiment_error(self):
        with pytest.raises(ExperimentError, match="bogus_option"):
            run_experiment("fig04", bogus_option=1)

    def test_unknown_kwarg_through_registry_lambda(self):
        # fig08 is registered via a **kw-forwarding lambda; the bad
        # name only explodes inside the wrapped runner.
        with pytest.raises(ExperimentError, match="bogus_option"):
            run_experiment("fig08", bogus_option=1)

    def test_valid_kwargs_still_flow(self, stub_characterize):
        result = run_experiment("fig04")
        assert result.experiment_id == "fig04"


class TestSerialization:
    def test_perf_report_round_trips(self):
        report = synthetic_report("svt-av1", "desktop", crf=35, preset=4)
        rebuilt = from_jsonable(to_jsonable(report))
        assert rebuilt == report

    def test_unregistered_type_rejected(self):
        class NotRegistered:
            pass

        with pytest.raises(CheckpointError):
            to_jsonable(NotRegistered())

    def test_experiment_result_round_trips(self):
        result = ExperimentResult(
            experiment_id="figX", title="demo",
            tables=[Table(title="t", headers=("a", "b"),
                          rows=((1, 2.5), ("x", 0.0)))],
            series=[Series(name="s", x=(1, 2), y=(3.0, 4.0))],
            notes=["a note"],
            provenance={"cells": 2, "quarantined": []},
        )
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt == result

    def test_schema_version_checked(self):
        result = ExperimentResult(experiment_id="figX", title="demo")
        text = result.to_json().replace(
            f'"schema_version": {RESULT_SCHEMA_VERSION}',
            '"schema_version": 999',
        )
        with pytest.raises(CheckpointError):
            ExperimentResult.from_json(text)

    def test_malformed_json_rejected(self):
        with pytest.raises(CheckpointError):
            ExperimentResult.from_json("{not json")
