"""Integration tests: the five encoder models end to end."""

import numpy as np
import pytest

from repro.codecs import (
    ENCODERS,
    SPECS,
    EncoderConfig,
    create_encoder,
    encoder_names,
)
from repro.errors import CodecError
from repro.video.synthetic import ContentSpec, generate


@pytest.fixture(scope="module")
def small_video():
    return generate(
        ContentSpec(name="enc-test", width=64, height=48, fps=30,
                    num_frames=3, entropy=4.0, style="game")
    )


@pytest.fixture(scope="module")
def all_results(small_video):
    """Encode the shared clip once per codec at a fast preset."""
    results = {}
    for name in encoder_names():
        spec = SPECS[name]
        preset = 8 if spec.preset_higher_is_faster else 1
        crf = round(0.6 * spec.crf_range)
        results[name] = create_encoder(name, crf=crf, preset=preset).encode(
            small_video
        )
    return results


class TestRegistry:
    def test_five_encoders(self):
        assert set(encoder_names()) == {
            "svt-av1", "libaom", "libvpx-vp9", "x264", "x265"
        }

    def test_unknown_encoder(self):
        with pytest.raises(CodecError):
            create_encoder("rav1e", crf=30, preset=4)

    def test_crf_range_enforced(self):
        with pytest.raises(CodecError):
            create_encoder("x264", crf=60, preset=4)  # x264 caps at 51
        create_encoder("svt-av1", crf=60, preset=4)  # AV1 allows 60

    def test_preset_range_enforced(self):
        with pytest.raises(CodecError):
            create_encoder("svt-av1", crf=30, preset=9)
        create_encoder("x264", crf=30, preset=9)  # x264 has 10 presets

    def test_config_validation(self):
        with pytest.raises(CodecError):
            EncoderConfig(crf=30, preset=4, threads=0)
        with pytest.raises(CodecError):
            EncoderConfig(crf=-1, preset=4)


class TestEncodeBasics:
    def test_all_encoders_produce_output(self, all_results, small_video):
        for name, result in all_results.items():
            assert result.total_bits > 0, name
            assert result.total_instructions > 0, name
            assert result.num_frames == small_video.num_frames
            assert result.reconstructed.num_frames == small_video.num_frames

    def test_reconstruction_resembles_source(self, all_results):
        for name, result in all_results.items():
            assert result.psnr_db > 15.0, name

    def test_frame_stats_complete(self, all_results):
        for name, result in all_results.items():
            assert len(result.frame_stats) == result.num_frames
            assert result.frame_stats[0].frame_type == "key"
            assert all(f.frame_type == "inter" for f in result.frame_stats[1:])

    def test_task_records_cover_frames(self, all_results):
        for name, result in all_results.items():
            frames = {t.frame for t in result.tasks}
            assert frames == set(range(result.num_frames)), name
            kinds = {t.kind for t in result.tasks}
            assert {"superblock", "entropy", "filter", "admin"} <= kinds

    def test_task_instructions_sum_close_to_total(self, all_results):
        for name, result in all_results.items():
            task_sum = sum(t.instructions for t in result.tasks)
            assert task_sum <= result.total_instructions * 1.001
            assert task_sum >= result.total_instructions * 0.5, name

    def test_deterministic(self, small_video):
        a = create_encoder("x264", crf=30, preset=5).encode(small_video)
        b = create_encoder("x264", crf=30, preset=5).encode(small_video)
        assert a.total_bits == b.total_bits
        assert a.total_instructions == b.total_instructions
        assert a.psnr_db == b.psnr_db


class TestPaperHeadlines:
    """The central claims of the paper must hold on the models."""

    def test_av1_needs_more_instructions(self, small_video):
        """Headline: AV1 encoders need far more instructions than x264
        at comparable operating points — not better/worse IPC."""
        svt = create_encoder("svt-av1", crf=40, preset=4).encode(small_video)
        x264 = create_encoder("x264", crf=32, preset=5).encode(small_video)
        assert svt.total_instructions > 2.5 * x264.total_instructions

    def test_instructions_fall_with_crf(self, small_video):
        low = create_encoder("svt-av1", crf=10, preset=4).encode(small_video)
        high = create_encoder("svt-av1", crf=60, preset=4).encode(small_video)
        assert high.total_instructions < low.total_instructions

    def test_quality_falls_with_crf(self, small_video):
        low = create_encoder("svt-av1", crf=10, preset=6).encode(small_video)
        high = create_encoder("svt-av1", crf=60, preset=6).encode(small_video)
        assert low.psnr_db > high.psnr_db
        assert low.total_bits > high.total_bits

    def test_faster_preset_fewer_instructions(self, small_video):
        slow = create_encoder("svt-av1", crf=50, preset=2).encode(small_video)
        fast = create_encoder("svt-av1", crf=50, preset=8).encode(small_video)
        assert fast.total_instructions < slow.total_instructions / 5

    def test_av1_better_compression(self, small_video):
        """AV1's extra search buys bitrate at similar quality."""
        svt = create_encoder("svt-av1", crf=40, preset=4).encode(small_video)
        x264 = create_encoder("x264", crf=32, preset=5).encode(small_video)
        assert abs(svt.psnr_db - x264.psnr_db) < 3.0
        assert svt.total_bits < x264.total_bits

    def test_decision_branches_recorded(self, small_video):
        result = create_encoder("svt-av1", crf=40, preset=6).encode(small_video)
        inst = result.instrumenter
        assert inst.decision_branches > 100
        assert len(inst.branch_arrays()[0]) == inst.decision_branches
        assert inst.loop_summaries

    def test_memory_touches_recorded(self, small_video):
        result = create_encoder("svt-av1", crf=40, preset=6).encode(small_video)
        inst = result.instrumenter
        assert inst.bytes_read > 0
        assert inst.bytes_written > 0
        assert len(inst.touch_arrays()[0]) > 10


class TestFootprintScale:
    def test_scaled_footprint_spreads_addresses(self, small_video):
        enc = create_encoder("svt-av1", crf=50, preset=8)
        small = enc.encode(small_video, footprint_scale=(1.0, 1.0))
        enc2 = create_encoder("svt-av1", crf=50, preset=8)
        big = enc2.encode(small_video, footprint_scale=(8.0, 8.0))
        assert big.instrumenter.bytes_read > 10 * small.instrumenter.bytes_read
