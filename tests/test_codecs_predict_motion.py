"""Tests for intra prediction and motion estimation."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codecs.motion import (
    ZERO_MV,
    MotionVector,
    block_sad,
    diamond_search,
    full_search,
    interpolate,
    mv_bits,
    subpel_refine,
)
from repro.codecs.predict import (
    AV1_MODES,
    H264_MODES,
    H265_MODES,
    VP9_MODES,
    IntraMode,
    extend_neighbours,
    predict,
)
from repro.errors import CodecError


class TestModeSets:
    def test_paper_size_ordering(self):
        """AV1 offers more intra modes than VP9 than HEVC than H.264."""
        assert len(H264_MODES) < len(H265_MODES) < len(AV1_MODES)
        assert len(VP9_MODES) < len(AV1_MODES)

    def test_vp9_subset_of_av1(self):
        assert set(VP9_MODES) <= set(AV1_MODES)


class TestPredict:
    def _neigh(self, w=8, h=8, above_val=100, left_val=50):
        above = np.full(w + h, above_val, dtype=np.float64)
        left = np.full(h + w, left_val, dtype=np.float64)
        return above, left

    def test_dc_is_average(self):
        above, left = self._neigh()
        pred = predict(IntraMode.DC, above, left, 8, 8)
        assert np.all(pred == 75)

    @staticmethod
    def _dc_reference(above, left, height, width):
        """DC as a full block of the rounded, clipped mean."""
        block = np.full(
            (height, width), (above[:width].mean() + left[:height].mean()) / 2.0
        )
        return np.clip(np.rint(block), 0, 255).astype(np.uint8)

    @pytest.mark.parametrize(
        "height,width", [(4, 4), (8, 16), (16, 8), (32, 32), (64, 64), (4, 64)]
    )
    def test_dc_matches_rounded_mean_block(self, height, width):
        rng = np.random.default_rng(height * 100 + width)
        for low, high in ((0, 256), (-60, 320)):  # and out-of-range means
            for _ in range(25):
                above = rng.uniform(low, high, width + height)
                left = rng.uniform(low, high, width + height)
                for values in ((above, left), (np.rint(above), np.rint(left))):
                    pred = predict(IntraMode.DC, *values, height, width)
                    expected = self._dc_reference(*values, height, width)
                    assert pred.dtype == np.uint8
                    assert np.array_equal(pred, expected)

    def test_dc_ties_round_half_to_even(self):
        for value in range(255):
            above, left = self._neigh(above_val=value, left_val=value + 1)
            pred = predict(IntraMode.DC, above, left, 8, 8)
            assert np.array_equal(pred, self._dc_reference(above, left, 8, 8))
            assert np.all(pred == value + value % 2)

    def test_integer_neighbours_predict_as_float(self):
        rng = np.random.default_rng(4)
        above = rng.integers(0, 256, 32).astype(np.uint8)
        left = rng.integers(0, 256, 32).astype(np.uint8)
        for mode in IntraMode:
            assert np.array_equal(
                predict(mode, above, left, 16, 16),
                predict(mode, above.astype(np.float64),
                        left.astype(np.float64), 16, 16),
            )

    def test_vertical_copies_above(self):
        above, left = self._neigh()
        above[:8] = np.arange(8) * 10
        pred = predict(IntraMode.V, above, left, 8, 8)
        for row in range(8):
            assert np.array_equal(pred[row], np.arange(8) * 10)

    def test_horizontal_copies_left(self):
        above, left = self._neigh()
        left[:8] = np.arange(8) * 10
        pred = predict(IntraMode.H, above, left, 8, 8)
        for col in range(8):
            assert np.array_equal(pred[:, col], np.arange(8) * 10)

    @pytest.mark.parametrize("mode", list(IntraMode))
    def test_all_modes_produce_valid_samples(self, mode):
        # crc32, not hash(): str hashes vary with PYTHONHASHSEED, so
        # the test data would differ from run to run.
        rng = np.random.default_rng(zlib.crc32(mode.value.encode()))
        above = rng.integers(0, 256, 32).astype(np.float64)
        left = rng.integers(0, 256, 32).astype(np.float64)
        pred = predict(mode, above, left, 16, 16)
        assert pred.shape == (16, 16)
        assert pred.dtype == np.uint8

    def test_rejects_short_neighbours(self):
        with pytest.raises(CodecError):
            predict(IntraMode.DC, np.zeros(4), np.zeros(4), 8, 8)

    def test_flat_content_predicts_exactly(self):
        """DC on flat content must be a perfect prediction."""
        above, left = self._neigh(above_val=77, left_val=77)
        pred = predict(IntraMode.DC, above, left, 8, 8)
        assert np.all(pred == 77)


class TestExtendNeighbours:
    def test_frame_corner_defaults(self):
        plane = np.zeros((16, 16), dtype=np.uint8)
        above, left = extend_neighbours(plane, 0, 0, 8, 8)
        assert np.all(above == 128)
        assert np.all(left == 128)

    def test_interior_reads_plane(self):
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        above, left = extend_neighbours(plane, 8, 8, 8, 8)
        assert above[0] == plane[7, 8]
        assert left[0] == plane[8, 7]

    def test_edge_replication_lengths(self):
        plane = np.zeros((16, 16), dtype=np.uint8)
        above, left = extend_neighbours(plane, 8, 8, 8, 8)
        assert len(above) == 16
        assert len(left) == 16

    def test_edge_replication_values(self):
        # An 8x4 block at the right edge: 12 neighbours each, of which
        # 4 above and 8 left lie inside the plane.
        plane = np.arange(256, dtype=np.uint8).reshape(16, 16)
        above, left = extend_neighbours(plane, 8, 12, 8, 4)
        assert above.tolist() == plane[7, 12:].tolist() + [plane[7, 15]] * 8
        assert left.tolist() == plane[8:, 11].tolist() + [plane[15, 11]] * 4
        assert above.dtype == left.dtype == np.float64


def _frame_with_shift(shift_r, shift_c, size=48, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 255, (size + 16, size + 16)).astype(np.uint8)
    ref = base[8 : 8 + size, 8 : 8 + size]
    cur = base[8 + shift_r : 8 + shift_r + size, 8 + shift_c : 8 + shift_c + size]
    return cur, ref


class TestMotionSearch:
    def test_full_search_finds_exact_shift(self):
        cur, ref = _frame_with_shift(3, -2)
        block = cur[16:32, 16:32]
        result = full_search(block, ref, 16, 16, search_range=8)
        assert (result.mv.row // 8, result.mv.col // 8) == (3, -2)
        assert result.sad == 0.0
        assert result.positions == 17 * 17

    def test_diamond_finds_small_shift(self):
        cur, ref = _frame_with_shift(1, 1)
        block = cur[16:32, 16:32]
        result = diamond_search(block, ref, 16, 16, search_range=8)
        assert (result.mv.row // 8, result.mv.col // 8) == (1, 1)
        assert result.sad == 0.0

    def test_diamond_cheaper_than_full(self):
        cur, ref = _frame_with_shift(2, 0)
        block = cur[16:32, 16:32]
        diamond = diamond_search(block, ref, 16, 16, search_range=8)
        full = full_search(block, ref, 16, 16, search_range=8)
        assert diamond.positions < full.positions

    def test_improvements_recorded(self):
        cur, ref = _frame_with_shift(2, 2)
        block = cur[16:32, 16:32]
        result = diamond_search(block, ref, 16, 16, search_range=8)
        assert len(result.improvements) == result.positions
        assert result.improvements[0] is True

    def test_rejects_bad_range(self):
        with pytest.raises(CodecError):
            full_search(np.zeros((8, 8), np.uint8), np.zeros((32, 32), np.uint8),
                        0, 0, search_range=0)

    def test_subpel_never_worse(self):
        cur, ref = _frame_with_shift(1, 0)
        block = cur[16:32, 16:32]
        start = diamond_search(block, ref, 16, 16, search_range=4)
        refined = subpel_refine(block, ref, 16, 16, start, depth=2)
        assert refined.sad <= start.sad

    def test_subpel_edge_block_no_crash(self):
        """Edge blocks with outward MVs must clamp, not crash."""
        rng = np.random.default_rng(1)
        ref = rng.integers(0, 255, (64, 96)).astype(np.uint8)
        block = rng.integers(0, 255, (8, 8)).astype(np.uint8)
        from repro.codecs.motion import SearchResult
        start = SearchResult(mv=MotionVector(8, -64), sad=1e9, positions=1)
        refined = subpel_refine(block, ref, 0, 88, start, depth=3)
        assert refined.sad <= 1e9


class TestInterpolate:
    def test_integer_mv_is_copy(self):
        rng = np.random.default_rng(4)
        ref = rng.integers(0, 255, (32, 32)).astype(np.uint8)
        pred = interpolate(ref, 8, 8, 8, 8, MotionVector(16, -8))
        assert np.array_equal(pred, ref[10:18, 7:15])

    def test_half_pel_blends(self):
        ref = np.zeros((16, 16), dtype=np.uint8)
        ref[:, 8:] = 100
        pred = interpolate(ref, 4, 7, 4, 1, MotionVector(0, 4))
        assert np.all(pred == 50)


class TestMvBits:
    def test_zero_diff_minimal(self):
        assert mv_bits(ZERO_MV, ZERO_MV) == pytest.approx(2.0)

    @given(st.integers(-512, 512), st.integers(-512, 512))
    @settings(max_examples=30)
    def test_monotone_in_magnitude(self, row, col):
        small = mv_bits(MotionVector(row, col), ZERO_MV)
        bigger = mv_bits(MotionVector(2 * row, 2 * col), ZERO_MV)
        assert bigger >= small

    def test_mv_addition(self):
        assert MotionVector(1, 2) + MotionVector(3, 4) == MotionVector(4, 6)
        assert MotionVector(3, 4).magnitude == pytest.approx(5.0)
