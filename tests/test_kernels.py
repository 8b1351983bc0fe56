"""Bit-parity tests for the vectorized kernel layer.

Every vectorized fast path must be bit-equal to the scalar reference
it replaces (DESIGN.md "Kernel architecture"): predictor replay
kernels reproduce the scalar predict/update loop's mispredict counts
*and* post-replay state; the batched encoder produces the same coded
bits, PSNR, and instruction mix; the kernel switch in
:mod:`repro.kernels` selects between the two paths.
"""

import numpy as np
import pytest

from repro import kernels
from repro.cbp.harness import run_championship
from repro.cbp.traces import capture_trace
from repro.codecs import create_encoder
from repro.uarch.branch import (
    PAPER_PREDICTORS,
    BimodalPredictor,
    PerceptronPredictor,
    TournamentPredictor,
    gshare_2kb,
    gshare_32kb,
    run_trace,
    tage_8kb,
    tage_64kb,
)
from repro.video.synthetic import ContentSpec, generate

#: Every predictor with a vectorized replay kernel, including both
#: storage budgets of the paper's gshare and TAGE configurations.
ALL_PREDICTORS = {
    "bimodal": BimodalPredictor,
    "gshare-2KB": gshare_2kb,
    "gshare-32KB": gshare_32kb,
    "tournament": TournamentPredictor,
    "perceptron": PerceptronPredictor,
    "tage-8KB": tage_8kb,
    "tage-64KB": tage_64kb,
}


def branch_columns(seed: int, count: int = 3000):
    """A seeded columnar branch stream with biased, clustered PCs."""
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, 1 << 16, size=24) << 2
    which = rng.integers(0, pcs.size, size=count)
    bias = rng.uniform(0.05, 0.95, size=pcs.size)
    taken = (rng.uniform(size=count) < bias[which]).astype(np.uint8)
    return pcs[which].astype(np.int64), taken


def scalar_mispredicts(predictor, pcs, taken) -> int:
    """The scalar reference loop the replay kernels must match."""
    mispredicts = 0
    for pc, t in zip(pcs.tolist(), taken.tolist()):
        outcome = t != 0
        if predictor.predict_update(pc, outcome) != outcome:
            mispredicts += 1
    return mispredicts


@pytest.fixture(scope="module")
def small_video():
    return generate(
        ContentSpec(name="kernel-test", width=64, height=48, fps=30,
                    num_frames=3, entropy=4.0, style="game")
    )


@pytest.fixture(scope="module")
def captured_trace(small_video):
    return capture_trace(small_video, crf=40, preset=8, max_events=8000)


class TestReplayParity:
    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_replay_matches_scalar_on_random_streams(self, name):
        factory = ALL_PREDICTORS[name]
        for seed in (11, 12, 13):
            pcs, taken = branch_columns(seed)
            fast, ref = factory(), factory()
            assert int(fast.replay(pcs, taken)) == scalar_mispredicts(
                ref, pcs, taken
            ), f"{name}: mispredict count diverged (seed {seed})"
            # Post-replay state: both instances must behave identically
            # on a fresh probe stream fed through the scalar loop.
            probe_pcs, probe_taken = branch_columns(seed + 1000, count=500)
            for pc, t in zip(probe_pcs.tolist(), probe_taken.tolist()):
                outcome = t != 0
                assert fast.predict_update(pc, outcome) == ref.predict_update(
                    pc, outcome
                ), f"{name}: post-replay state diverged (seed {seed})"

    @pytest.mark.parametrize("name", list(ALL_PREDICTORS))
    def test_replay_matches_scalar_on_captured_trace(
        self, captured_trace, name
    ):
        factory = ALL_PREDICTORS[name]
        pcs, taken = captured_trace.columns()
        fast, ref = factory(), factory()
        assert int(fast.replay(pcs, taken)) == scalar_mispredicts(
            ref, pcs, taken
        )

    def test_empty_stream(self):
        pcs = np.empty(0, dtype=np.int64)
        taken = np.empty(0, dtype=np.uint8)
        for factory in ALL_PREDICTORS.values():
            assert int(factory().replay(pcs, taken)) == 0


class TestKernelSwitch:
    def test_run_trace_routes_both_paths(self, captured_trace):
        rows = {}
        for mode, scope in (("scalar", kernels.scalar_kernels),
                            ("vectorized", kernels.vectorized_kernels)):
            with scope():
                rows[mode] = run_trace(gshare_2kb(), captured_trace)
        assert rows["scalar"] == rows["vectorized"]

    def test_championship_bit_identical(self, captured_trace):
        with kernels.scalar_kernels():
            ref = run_championship([captured_trace])
        with kernels.vectorized_kernels():
            vec = run_championship([captured_trace])
        assert ref.results == vec.results
        assert ref.mean_mpki() == vec.mean_mpki()

    def test_scoped_overrides_nest(self):
        assert kernels.vectorized_enabled()
        with kernels.scalar_kernels():
            assert not kernels.vectorized_enabled()
            with kernels.vectorized_kernels():
                assert kernels.vectorized_enabled()
            assert not kernels.vectorized_enabled()
        assert kernels.vectorized_enabled()


class TestEncoderBatchingEquivalence:
    @pytest.mark.parametrize("codec,crf,preset", [
        ("svt-av1", 30, 6),
        ("x264", 28, 8),
    ])
    def test_encode_bit_identical(self, small_video, codec, crf, preset):
        with kernels.scalar_kernels():
            ref = create_encoder(codec, crf=crf, preset=preset).encode(
                small_video
            )
        with kernels.vectorized_kernels():
            vec = create_encoder(codec, crf=crf, preset=preset).encode(
                small_video
            )
        assert ref.total_bits == vec.total_bits
        assert ref.psnr_db == vec.psnr_db
        assert ref.total_instructions == vec.total_instructions
        assert ref.instrumenter.counts.counts == vec.instrumenter.counts.counts
        for ref_plane, vec_plane in zip(
            ref.reconstructed.frames, vec.reconstructed.frames
        ):
            assert np.array_equal(ref_plane.y.data, vec_plane.y.data)


class TestStreamChunkEnv:
    """REPRO_REPLAY_CHUNK parsing: validate once, never crash a sweep."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        monkeypatch.setattr(kernels, "_chunk_env_cache", {})

    def test_unset_and_valid_values(self, monkeypatch):
        monkeypatch.delenv(kernels.CHUNK_ENV, raising=False)
        assert kernels.stream_chunk_events() == kernels.DEFAULT_STREAM_CHUNK
        monkeypatch.setenv(kernels.CHUNK_ENV, "4096")
        assert kernels.stream_chunk_events() == 4096
        # 0 stays the documented "disable chunking" spelling.
        monkeypatch.setenv(kernels.CHUNK_ENV, "0")
        assert kernels.stream_chunk_events() == 0

    def test_garbage_falls_back_and_warns_once(self, monkeypatch):
        from repro.obs import events as events_mod

        log = events_mod.EventLog()
        previous = events_mod.install_log(log)
        try:
            monkeypatch.setenv(kernels.CHUNK_ENV, "banana")
            for _ in range(3):
                assert (
                    kernels.stream_chunk_events()
                    == kernels.DEFAULT_STREAM_CHUNK
                )
        finally:
            events_mod.install_log(previous)
        # Memoised per raw value: one warning, not one per kernel call.
        warnings = log.by_kind("kernel.chunk.invalid")
        assert len(warnings) == 1
        assert warnings[0].fields["raw"] == "banana"

    def test_negative_no_longer_means_unbounded(self, monkeypatch):
        # The old parser clamped -1 to 0 == "disable chunking": a typo
        # silently removed the memory bound. Now it's default + warning.
        monkeypatch.setenv(kernels.CHUNK_ENV, "-1")
        assert kernels.stream_chunk_events() == kernels.DEFAULT_STREAM_CHUNK

    def test_scoped_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.CHUNK_ENV, "banana")
        with kernels.stream_chunk(64):
            assert kernels.stream_chunk_events() == 64
