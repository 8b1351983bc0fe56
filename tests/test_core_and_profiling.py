"""Tests for characterize/session/sweeps/report and profiling."""

import pytest

from repro.codecs import create_encoder
from repro.core import (
    ExperimentResult,
    Series,
    Session,
    Table,
    characterize,
    comparable_preset,
    format_result,
    format_table,
    scale_crf,
    workload_scales,
)
from repro.errors import ExperimentError
from repro.experiments import run_experiment
from repro.profiling import (
    flat_profile,
    format_flat_profile,
    format_perf_report,
    hottest_function,
)
from repro.validate.engine import SESSION_EXPERIMENTS
from repro.video.synthetic import ContentSpec, generate


@pytest.fixture(scope="module")
def session():
    return Session(num_frames=3)


@pytest.fixture(scope="module")
def report(session):
    return session.report("svt-av1", "game1", crf=50, preset=8)


class TestCharacterize:
    def test_report_fields(self, report):
        assert report.codec == "svt-av1"
        assert report.video == "game1"
        assert report.instructions > report.proxy_instructions
        assert report.time_seconds > 0
        assert 0.5 < report.ipc < 4.0
        assert sum(report.mix_percent.values()) == pytest.approx(100.0)

    def test_topdown_valid(self, report):
        td = report.topdown
        assert 0.3 < td.retiring < 0.75
        total = td.retiring + td.bad_speculation + td.frontend + td.backend
        assert total == pytest.approx(1.0)

    def test_cache_mpki_ordering(self, report):
        """LLC MPKI must be far below L1D (paper §4.3)."""
        assert report.cache_mpki["llc"] < report.cache_mpki["l1d"]

    def test_name_requires_crf_preset(self):
        with pytest.raises(ExperimentError):
            characterize("svt-av1", "game1")

    def test_accepts_encoder_and_video_objects(self):
        video = generate(
            ContentSpec(name="direct", width=64, height=48, fps=30,
                        num_frames=2, entropy=3.0)
        )
        encoder = create_encoder("x264", crf=30, preset=8)
        report = characterize(encoder, video)
        assert report.video == "direct"
        # Unknown clip: no native scaling applied.
        assert report.instructions == pytest.approx(report.proxy_instructions)

    def test_workload_scales_catalog(self):
        video = generate(
            ContentSpec(name="game1", width=128, height=72, fps=60,
                        num_frames=4, entropy=4.6, style="game")
        )
        sh, sw, pix, dur = workload_scales(video)
        assert sh == pytest.approx(1080 / 72)
        assert pix > 100
        assert dur == pytest.approx(60 * 5 / 4)

    def test_workload_scales_unknown(self):
        video = generate(
            ContentSpec(name="mystery", width=64, height=48, fps=30,
                        num_frames=2, entropy=3.0)
        )
        assert workload_scales(video) == (1.0, 1.0, 1.0, 1.0)


class TestSession:
    def test_caches_reports(self, session):
        before = len(session)
        session.report("svt-av1", "game1", crf=50, preset=8)
        mid = len(session)
        session.report("svt-av1", "game1", crf=50, preset=8)
        assert len(session) == mid
        assert mid >= before

    def test_distinct_configs_distinct_entries(self, session):
        before = len(session)
        session.report("x264", "desktop", crf=30, preset=8)
        session.report("x264", "desktop", crf=31, preset=8)
        assert len(session) == before + 2

    def test_clear(self):
        own = Session(num_frames=2)
        own.report("x264", "cat", crf=30, preset=8)
        own.clear()
        assert len(own) == 0


class _SessionUsed(Exception):
    """Raised by the stubbed session in place of an encode."""


class TestExperimentsUseGivenSession:
    """An experiment computes in the session it is given, even an empty
    one (``Session`` defines ``__len__``, so an empty one is falsy)."""

    @pytest.fixture()
    def used(self, monkeypatch):
        used = []

        def prefetch(self, specs, workers=None):
            used.append(self)
            return 0

        def compute(self, *args, **kwargs):
            used.append(self)
            raise _SessionUsed

        monkeypatch.setattr(Session, "prefetch", prefetch)
        monkeypatch.setattr(Session, "report", compute)
        monkeypatch.setattr(Session, "encode", compute)
        return used

    @pytest.mark.parametrize(
        "experiment_id",
        sorted(SESSION_EXPERIMENTS)
        + ["fig12", "fig13", "fig14", "fig15", "fig16"],
    )
    def test_empty_session_is_the_one_used(self, used, experiment_id):
        given = Session()
        assert not given
        with pytest.raises(_SessionUsed):
            run_experiment(experiment_id, session=given)
        assert used
        assert all(session is given for session in used)


class TestSweepHelpers:
    def test_scale_crf_families(self):
        assert scale_crf("svt-av1", 63) == 63
        assert scale_crf("x264", 63) == 51
        assert scale_crf("x264", 0) == 0

    def test_scale_crf_unknown(self):
        with pytest.raises(ExperimentError):
            scale_crf("theora", 30)

    def test_comparable_preset_direction(self):
        # Fast AV1 preset maps to a *low* (fast) x264 preset number.
        assert comparable_preset("svt-av1", 8) == 8
        assert comparable_preset("x264", 8) == 0
        assert comparable_preset("x264", 0) == 9


class TestReportContainers:
    def test_series_validates(self):
        with pytest.raises(ExperimentError):
            Series(name="s", x=(1, 2), y=(1,))

    def test_table_validates(self):
        with pytest.raises(ExperimentError):
            Table(title="t", headers=("a", "b"), rows=((1,),))

    def test_table_column(self):
        table = Table(title="t", headers=("a", "b"), rows=((1, 2), (3, 4)))
        assert table.column("b") == [2, 4]
        with pytest.raises(ExperimentError):
            table.column("c")

    def test_format_table(self):
        table = Table(title="T", headers=("x", "y"), rows=((1, 2.5),))
        text = format_table(table)
        assert "T" in text and "2.5" in text

    def test_experiment_result_lookup(self):
        result = ExperimentResult(
            experiment_id="e", title="t",
            tables=[Table(title="A", headers=("h",), rows=((1,),))],
            series=[Series(name="s", x=(1,), y=(2,))],
        )
        assert result.table("A").rows[0][0] == 1
        assert result.get_series("s").y == (2,)
        with pytest.raises(ExperimentError):
            result.table("B")
        with pytest.raises(ExperimentError):
            result.get_series("zz")
        assert "e" in format_result(result)


class TestProfiling:
    @pytest.fixture(scope="class")
    def encode(self):
        video = generate(
            ContentSpec(name="prof", width=64, height=48, fps=30,
                        num_frames=3, entropy=4.0, style="game")
        )
        return create_encoder("svt-av1", crf=45, preset=6).encode(video)

    def test_flat_profile_sums_to_100(self, encode):
        rows = flat_profile(encode.instrumenter)
        assert rows[-1].cumulative_percent == pytest.approx(100.0)
        assert rows[0].percent >= rows[-1].percent

    def test_hottest_function_is_search_related(self, encode):
        hot = hottest_function(encode.instrumenter)
        assert "decision" in hot or "search" in hot

    def test_format_flat_profile(self, encode):
        text = format_flat_profile(flat_profile(encode.instrumenter))
        assert "% time" in text

    def test_format_perf_report(self, report):
        text = format_perf_report(report)
        assert "insn per cycle" in text
        assert "top-down" in text
        assert "retiring" in text
