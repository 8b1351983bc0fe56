"""Tests for the cache hierarchy simulator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.errors import SimulationError
from repro.trace.instrument import Instrumenter
from repro.uarch.cache import (
    XEON_LLC,
    Cache,
    CacheConfig,
    CacheHierarchy,
    expand_touch_columns,
    expand_touches,
    simulate_encode_traffic,
)


def small_cache(size=1024, ways=2):
    return Cache(CacheConfig("t", size, ways))


class TestCacheConfig:
    def test_num_sets(self):
        assert CacheConfig("t", 32 * 1024, 8).num_sets == 64

    def test_rejects_bad_geometry(self):
        with pytest.raises(SimulationError):
            CacheConfig("t", 0, 8)
        with pytest.raises(SimulationError):
            CacheConfig("t", 1000, 3)


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(42) is False
        assert cache.access(42) is True
        assert cache.misses == 1
        assert cache.accesses == 2

    def test_lru_eviction(self):
        cache = small_cache(size=256, ways=2)  # 2 sets
        sets = cache.config.num_sets
        a, b, c = 0, sets, 2 * sets  # same set
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a is MRU
        cache.access(c)  # evicts b
        assert cache.access(a) is True
        assert cache.access(b) is False

    def test_capacity_streaming_misses(self):
        cache = small_cache(size=1024, ways=2)  # 16 lines total
        for line in range(64):
            cache.access(line)
        # Second pass over a working set 4x the capacity: all miss.
        misses_before = cache.misses
        for line in range(64):
            cache.access(line)
        assert cache.misses - misses_before == 64

    def test_small_working_set_all_hits(self):
        cache = small_cache(size=1024, ways=2)
        for _ in range(3):
            for line in range(8):
                cache.access(line)
        assert cache.misses == 8

    def test_reset_stats_keeps_contents(self):
        cache = small_cache()
        cache.access(1)
        cache.reset_stats()
        assert cache.misses == 0
        assert cache.access(1) is True

    def test_contents_mru_first(self):
        cache = small_cache(size=256, ways=2)  # 2 sets
        assert cache.contents() == [[], []]
        for line in (0, 1, 2, 0):
            cache.access(line)
        assert cache.contents() == [[0, 2], [1]]

    def test_batch_rejects_negative_lines(self):
        for scope in (kernels.vectorized_kernels, kernels.scalar_kernels):
            with scope(), pytest.raises(SimulationError):
                small_cache().access_batch(np.array([3, -1]))


class TestHierarchy:
    def test_miss_cascades(self):
        h = CacheHierarchy(
            CacheConfig("l1", 512, 2),
            CacheConfig("l2", 2048, 4),
            CacheConfig("llc", 16384, 4),
            sample_period=1,
        )
        h.access_line(7)
        assert h.l1d.misses == 1
        assert h.l2.misses == 1
        assert h.llc.misses == 1
        h.access_line(7)
        assert h.l1d.misses == 1  # now a hit

    def test_l2_catches_l1_evictions(self):
        h = CacheHierarchy(
            CacheConfig("l1", 512, 2),   # 8 lines
            CacheConfig("l2", 8192, 4),  # 128 lines
            CacheConfig("llc", 65536, 4),
            sample_period=1,
        )
        for line in range(64):
            h.access_line(line)
        llc_before = h.llc.misses
        for line in range(64):
            h.access_line(line)
        # Second pass: misses L1 (too small) but hits L2.
        assert h.llc.misses == llc_before

    def test_sample_period_scaling(self):
        h = CacheHierarchy(sample_period=8)
        h.access_line(0)
        stats = h.stats()
        assert stats.l1d_accesses == 8.0

    def test_rejects_bad_sample(self):
        with pytest.raises(SimulationError):
            CacheHierarchy(sample_period=3)

    def test_llc_power_of_two_set_count_kept(self):
        for size, ways, sets in ((8 << 20, 16, 8192), (32 << 10, 8, 64)):
            llc = CacheHierarchy(llc=CacheConfig("LLC", size, ways)).llc
            assert llc.config.num_sets == sets

    def test_llc_other_set_counts_round_down(self):
        assert XEON_LLC.num_sets == 24576
        assert CacheHierarchy().llc.config.num_sets == 16384
        llc = CacheHierarchy(llc=CacheConfig("LLC", 3 * 64 * 4, 4)).llc
        assert llc.config.num_sets == 2

    def test_mpki_validates(self):
        h = CacheHierarchy()
        with pytest.raises(SimulationError):
            h.stats().mpki(0)


class TestExpandTouches:
    def test_contiguous_touch_lines(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=256)
        inst.touch(plane, row=0, rows=2, col=0, cols=256)
        lines = expand_touches(inst, sample_period=1)
        # 2 rows x 256 bytes = 4 lines per row at 64B lines.
        assert len(lines) == 8
        assert len(np.unique(lines)) == 8

    def test_sampling_keeps_subset(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=1024)
        inst.touch(plane, 0, 4, 0, 1024)
        full = expand_touches(inst, sample_period=1)
        sampled = expand_touches(inst, sample_period=8)
        assert 0 < len(sampled) < len(full)
        assert np.all(sampled % 8 == 0)

    def test_repeats_duplicate_stream(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=256)
        inst.touch(plane, 0, 1, 0, 256, repeats=3)
        lines = expand_touches(inst, sample_period=1)
        assert len(lines) == 12  # 4 lines x 3 repeats

    def test_empty_instrumenter(self):
        assert len(expand_touches(Instrumenter())) == 0

    def test_empty_touch_stream_leaves_hierarchy_idle(self):
        hierarchy, _ = simulate_encode_traffic(Instrumenter())
        assert [
            level.accesses
            for level in (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
        ] == [0, 0, 0]

    def test_simulate_encode_traffic(self):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=512, scale_h=4, scale_w=4)
        for row in range(0, 64, 8):
            inst.touch(plane, row, 8, 0, 512)
        hierarchy, stats = simulate_encode_traffic(inst)
        assert stats.l1d_accesses > 0
        assert stats.l1d_misses > 0

    @given(st.integers(1, 64), st.integers(1, 512))
    @settings(max_examples=20, deadline=None)
    def test_line_count_matches_geometry(self, rows, cols):
        inst = Instrumenter()
        plane = inst.register_plane(proxy_width=1024)
        inst.touch(plane, 0, rows, 0, cols)
        lines = expand_touches(inst, sample_period=1)
        # Each row covers ceil-ish cols/64 lines (alignment-dependent
        # +-1); total within bounds.
        per_row_min = max(1, cols // 64)
        per_row_max = cols // 64 + 1
        assert rows * per_row_min <= len(lines) <= rows * per_row_max


def reference_expand(inst, sample_period=8, line_bytes=64):
    """The pre-vectorization scalar expansion, kept as the oracle."""
    bases, rows, row_bytes, pitches, _writes, repeats = inst.touch_arrays()
    out = []
    for touch in range(len(bases)):
        block = []
        for row in range(rows[touch]):
            start = bases[touch] + pitches[touch] * row
            first = start // line_bytes
            last = (start + max(row_bytes[touch] - 1, 0)) // line_bytes
            block.extend(
                line for line in range(first, last + 1)
                if line % sample_period == 0
            )
        for _ in range(repeats[touch]):
            out.extend(block)
    return np.asarray(out, dtype=np.int64)


def random_instrumenter(rng, touches):
    inst = Instrumenter()
    planes = [
        inst.register_plane(proxy_width=int(rng.integers(64, 2048)))
        for _ in range(3)
    ]
    for _ in range(touches):
        inst.touch(
            planes[int(rng.integers(3))],
            row=int(rng.integers(0, 32)),
            rows=int(rng.integers(1, 16)),
            col=int(rng.integers(0, 32)),
            cols=int(rng.integers(1, 512)),
            repeats=int(rng.integers(1, 4)),
        )
    return inst


class TestBatchScalarEquivalence:
    """The vectorized paths must be bit-equal to the scalar walk."""

    def test_access_batch_matches_scalar_stream(self):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 4096, size=2000, dtype=np.int64)

        scalar = small_cache(size=1024, ways=2)
        scalar_misses = [
            line for line in lines.tolist() if not scalar.access(line)
        ]
        batched = small_cache(size=1024, ways=2)
        missed = batched.access_batch(lines)

        assert missed.tolist() == scalar_misses
        assert batched.accesses == scalar.accesses
        assert batched.misses == scalar.misses
        assert batched.contents() == scalar.contents()  # identical LRU state

    def test_batch_preserves_stream_order(self):
        cache = small_cache(size=256, ways=2)
        stream = np.array([0, 2, 0, 4, 2, 6], dtype=np.int64)
        missed = cache.access_batch(stream)
        # 2-way set: the second 0 hits; 4 evicts 2, which then re-misses.
        assert missed.tolist() == [0, 2, 4, 2, 6]  # stream order, no sort

    @pytest.mark.parametrize("sample_period", [1, 8])
    def test_expand_touches_matches_reference(self, sample_period):
        rng = np.random.default_rng(11)
        inst = random_instrumenter(rng, touches=40)
        fast = expand_touches(inst, sample_period=sample_period)
        oracle = reference_expand(inst, sample_period=sample_period)
        assert np.array_equal(fast, oracle)

    def test_hierarchy_batch_matches_per_line_cascade(self):
        rng = np.random.default_rng(13)
        inst = random_instrumenter(rng, touches=30)
        lines = expand_touches(inst, sample_period=8)

        batched = CacheHierarchy()
        batched.access_lines(lines)
        scalar = CacheHierarchy()
        for line in lines.tolist():
            scalar.access_line(line)

        assert batched.stats() == scalar.stats()

    @given(st.integers(0, 2 ** 31), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_access_batch_single_element_matches_access(self, line, ways):
        batched = small_cache(size=64 * ways * 4, ways=ways)
        scalar = small_cache(size=64 * ways * 4, ways=ways)
        array = np.array([line], dtype=np.int64)
        assert (len(batched.access_batch(array)) == 0) == scalar.access(line)
        assert batched.misses == scalar.misses


def checkpoint(ways):
    """The classifier's checkpoint spacing for a ``ways``-way cache."""
    return 1 << (ways - 1).bit_length()


def cycle(distinct, length, base=100):
    """``length`` accesses cycling over ``distinct`` tags (no repeats)."""
    return [base + k % distinct for k in range(length)]


def reuse(before, window):
    """``before`` fill tags, tag 0, the window, then tag 0 again."""
    return [1000 + k for k in range(before)] + [0] + list(window) + [0]


def assert_matches_scalar(config, batches):
    """Each batch's miss traffic, then counters and contents, equal the
    scalar per-line walk of the same batches."""
    fast, oracle = Cache(config), Cache(config)
    for batch in batches:
        batch = np.asarray(batch)
        with kernels.vectorized_kernels():
            missed = fast.access_batch(batch)
        expected = [line for line in batch.tolist() if not oracle.access(line)]
        assert missed.tolist() == expected
    assert (fast.accesses, fast.misses) == (oracle.accesses, oracle.misses)
    assert fast.contents() == oracle.contents()


def one_set(ways):
    return CacheConfig("t", 64 * ways, ways)


class TestClassifierBoundaries:
    """Batch classification at the edges of its checkpoint arithmetic."""

    @pytest.mark.parametrize("ways", [3, 4, 5, 8, 20])
    def test_window_starting_at_a_checkpoint(self, ways):
        delta = checkpoint(ways)
        # Tag 0 sits just before the checkpoint `delta`; its reuse lands
        # in each position of the block after next, so the window starts
        # exactly at the reusing access's two-block anchor.
        for length in range(delta, 2 * delta):
            for distinct in (ways - 1, ways):
                stream = reuse(delta - 1, cycle(distinct, length))
                assert_matches_scalar(one_set(ways), [stream])
        # ... and reuses within the next block: the window starts
        # exactly at the reusing access's own block start.
        for length in range(ways, delta):
            for distinct in (ways - 1, ways):
                stream = reuse(delta - 1, cycle(distinct, length))
                assert_matches_scalar(one_set(ways), [stream])

    @pytest.mark.parametrize("ways", [2, 5, 8, 20])
    def test_reuse_from_the_first_block(self, ways):
        delta = checkpoint(ways)
        for length in range(ways, delta + ways + 1):
            for distinct in (ways - 1, ways):
                stream = reuse(0, cycle(max(distinct, 2), length))
                assert_matches_scalar(one_set(ways), [stream])
        # Warm tags lead the next batch's stream: reusing them at once
        # puts the previous access in the warm prefix.
        warm = list(range(ways))
        for length in range(1, 2 * delta):
            batch = cycle(2, length, base=500) + warm[::-1]
            assert_matches_scalar(one_set(ways), [warm, batch])

    @pytest.mark.parametrize("ways", [4, 20])
    def test_windows_longer_than_sixteen_checkpoints(self, ways):
        long = 16 * checkpoint(ways) + 7
        hit = reuse(3, cycle(ways - 1, long))
        # Distinct tags early in the window, then a long two-tag run: a
        # miss the checkpoint next to the reuse cannot prove.
        miss = reuse(3, [500 + k for k in range(ways)] + cycle(2, long))
        many = list(range(1, ways - 1))
        several = many + cycle(2, long) + many
        assert_matches_scalar(one_set(ways), [hit, miss, several])

    def test_tag_span_wider_than_sixteen_bits(self):
        rng = np.random.default_rng(5)
        # Tag bits above the set index spanning just past, and far
        # past, 16 bits: pairs 2**16 apart would share a 16-bit key.
        for high in (np.r_[0:20, 65536:65556], np.arange(40) * 70_001):
            for set_bits in (0, 4):
                config = CacheConfig("t", 64 * 4 << set_bits, 4)
                pool = (high << set_bits) + rng.integers(0, 1 << set_bits, 40)
                batches = [pool[rng.integers(0, 40, 600)] for _ in range(3)]
                assert_matches_scalar(config, batches)

    def test_lines_beyond_31_bits(self):
        rng = np.random.default_rng(6)
        near = 2**31 - 20 + np.arange(40)
        far = (np.arange(40) << 34) + 3
        config = CacheConfig("t", 64 * 4 * 8, 4)
        for pool in (near, far):
            assert_matches_scalar(
                config, [pool[rng.integers(0, 40, 500)] for _ in range(3)]
            )
        # A 32-bit batch into sets holding wide tags: the warm tags
        # must keep the classifier 64-bit.
        small = np.array([8], dtype=np.int32)
        assert_matches_scalar(one_set(4), [far[1:5], small, far[2:4]])

    @pytest.mark.parametrize(
        "config",
        [one_set(4), CacheConfig("t", 64 * 8, 1), one_set(1)],
        ids=["one-set", "one-way", "one-set-one-way"],
    )
    def test_degenerate_geometries(self, config):
        rng = np.random.default_rng(8)
        batches = [rng.integers(0, 24, 400) for _ in range(3)]
        assert_matches_scalar(config, batches)

    def test_warm_state_across_batches(self):
        rng = np.random.default_rng(9)
        config = CacheConfig("t", 64 * 3 * 4, 3)
        batches = [
            rng.integers(0, rng.integers(8, 64), rng.integers(1, 300))
            for _ in range(6)
        ]
        assert_matches_scalar(config, batches)

    def test_scalar_and_batch_paths_interleave(self):
        rng = np.random.default_rng(10)
        config = CacheConfig("t", 64 * 2 * 4, 2)
        mixed, oracle = Cache(config), Cache(config)
        for _ in range(4):
            batch = rng.integers(0, 32, 200)
            with kernels.vectorized_kernels():
                missed = mixed.access_batch(batch)
            assert missed.tolist() == [
                line for line in batch.tolist() if not oracle.access(line)
            ]
            for line in rng.integers(0, 32, 20).tolist():
                assert mixed.access(line) == oracle.access(line)
        assert mixed.contents() == oracle.contents()


def tiny_hierarchy(sample_period=1):
    return CacheHierarchy(
        l1d=CacheConfig("L1D", 2 * 1024, 2),
        l2=CacheConfig("L2", 8 * 1024, 4),
        llc=CacheConfig("LLC", 32 * 1024, 8),
        sample_period=sample_period,
    )


def level_state(hierarchy):
    return [
        (level.accesses, level.misses, level.contents())
        for level in (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
    ]


def record_windows(hierarchy):
    """Record the size of every batch the hierarchy's L1D classifies."""
    sizes = []
    classify = hierarchy.l1d.access_batch

    def recording(lines):
        sizes.append(int(lines.size))
        return classify(lines)

    hierarchy.l1d.access_batch = recording
    return sizes


def random_touch_columns(rng, touches, tall=2, far=False):
    """Columnar touches: some taller than a small window, some repeated,
    and optionally lines beyond 2**31."""
    rows = rng.integers(1, 40, size=touches)
    rows[rng.integers(0, touches, size=tall)] = rng.integers(100, 300, tall)
    bases = rng.integers(0, 1 << 20, size=touches)
    if far:
        bases[rng.integers(0, touches, size=touches // 2)] += 1 << 38
    return (
        bases,
        rows,
        rng.integers(1, 300, size=touches),
        rng.integers(1, 40, size=touches) * 64,
        rng.integers(1, 4, size=touches),
    )


def assert_grouped_matches_whole_stream(columns, sample_period=1, make=None):
    make = make or (lambda: tiny_hierarchy(sample_period))
    whole, grouped = make(), make()
    whole_windows, grouped_windows = record_windows(whole), record_windows(grouped)
    lines = expand_touch_columns(*columns, sample_period=whole.sample_period)
    whole.access_lines(lines)
    assert grouped.access_touches(*columns) == lines.size
    assert grouped_windows == whole_windows
    assert level_state(grouped) == level_state(whole)


class TestGroupedTouches:
    """``access_touches`` is the whole-stream cascade, window for window."""

    @pytest.mark.parametrize("window", [16, 57, 1000, 0])
    @pytest.mark.parametrize(
        "scope", [kernels.vectorized_kernels, kernels.scalar_kernels],
        ids=["vectorized", "scalar"],
    )
    def test_matches_whole_stream(self, scope, window):
        rng = np.random.default_rng(window + 17)
        for sample_period in (1, 8):
            columns = random_touch_columns(rng, touches=30)
            with scope(), kernels.stream_chunk(window):
                assert_grouped_matches_whole_stream(columns, sample_period)

    def test_lines_beyond_31_bits(self):
        rng = np.random.default_rng(21)
        columns = random_touch_columns(rng, touches=30, far=True)
        with kernels.stream_chunk(64):
            assert_grouped_matches_whole_stream(columns)

    def test_touch_taller_than_a_window_is_not_split(self):
        # One repeated touch of 500 rows under a 64-row window: its
        # block must still tile whole, as in the whole-stream expansion.
        columns = tuple(
            np.array(values) for values in
            ([0, 640_000, 64], [3, 500, 2], [256, 128, 64],
             [4096, 4096, 4096], [1, 3, 2])
        )
        with kernels.stream_chunk(64):
            assert_grouped_matches_whole_stream(columns)

    def test_empty_input(self):
        hierarchy = tiny_hierarchy()
        empty = np.empty(0, dtype=np.int64)
        assert hierarchy.access_touches(*(empty,) * 5) == 0
        assert level_state(hierarchy) == level_state(tiny_hierarchy())

    def test_captured_4k_stream(self):
        from repro.core.characterize import encode_workload

        result = encode_workload(
            "svt-av1", "chicken", crf=30, preset=8, num_frames=2
        )
        bases, rows, row_bytes, pitches, _writes, repeats = (
            result.instrumenter.touch_arrays()
        )
        assert max(rows) > 1000  # touches of half a 2160p frame or more
        assert_grouped_matches_whole_stream(
            (bases, rows, row_bytes, pitches, repeats), make=CacheHierarchy
        )

    def test_simulate_encode_traffic_holds_one_group(self):
        """Buffered simulation memory does not grow with the stream.

        Each touch covers 1,080 rows of a 3,840-byte plane; 128 such
        touches expand to about a million sampled lines, which held
        whole (with their per-row arrays) would take about 20 MiB.
        """

        def peak_kib(touches):
            inst = Instrumenter()
            plane = inst.register_plane(960, scale_h=2.0, scale_w=4.0)
            for index in range(touches):
                inst.touch(plane, row=index % 8, rows=540, col=0, cols=960)
            tracemalloc.start()
            try:
                hierarchy, _ = simulate_encode_traffic(inst)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert hierarchy.l1d.accesses == touches * 8100
            return peak / 1024

        base, doubled = peak_kib(128), peak_kib(256)
        assert doubled < 24 * 1024
        assert doubled < 1.1 * base
