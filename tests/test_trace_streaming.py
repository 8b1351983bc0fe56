"""Tests for streaming trace capture: sinks, reservoir, parity.

Chunk-boundary edge cases the ``capture-stream-parity`` invariant's
randomized sweep may or may not land on are pinned here explicitly:
chunks shorter than a predictor's history length, zero-event cells,
and the interaction of ``record_branches=False`` /
``record_touches=False`` with registered sinks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.instrument import Instrumenter, site_pc
from repro.trace.sampling import MidpointReservoir, extract_midpoint_window
from repro.uarch.branch.base import run_trace
from repro.uarch.branch.tage import tage_8kb
from repro.uarch.cache import (
    CacheConfig,
    CacheHierarchy,
    TouchStreamSink,
    expand_touches,
)
from repro.uarch.perfcounters import StreamingCapture, collect
from repro.core.characterize import characterize


def _tiny_hierarchy(sample_period=1):
    return CacheHierarchy(
        l1d=CacheConfig("L1D", 2 * 1024, 2),
        l2=CacheConfig("L2", 8 * 1024, 4),
        llc=CacheConfig("LLC", 32 * 1024, 8),
        sample_period=sample_period,
    )


def _drive(inst, branches=120, touches=30):
    plane = inst.register_plane(128, scale_h=2.0, scale_w=2.0)
    pc_a, pc_b = site_pc("mod.fn.a"), site_pc("mod.fn.b")
    for i in range(branches):
        inst.branch(pc_a if i % 3 else pc_b, i % 2 == 0)
        if i < touches:
            inst.touch(plane, i % 16, 2, i % 8, 24, write=i % 2 == 0)
    return plane


class TestSinkRegistration:
    def test_branch_sink_requires_recording(self):
        inst = Instrumenter(record_branches=False)
        with pytest.raises(TraceError):
            inst.register_branch_sink(lambda pcs, taken: None)

    def test_touch_sink_requires_recording(self):
        inst = Instrumenter(record_touches=False)
        with pytest.raises(TraceError):
            inst.register_touch_sink(lambda *cols: None)

    def test_record_flags_off_with_other_sink_registered(self):
        """record_touches=False still streams branches, and vice versa."""
        inst = Instrumenter(record_touches=False)
        chunks = []
        inst.register_branch_sink(lambda pcs, taken: chunks.append(pcs), window=8)
        plane = inst.register_plane(64)
        for i in range(20):
            inst.branch(0x4000, i % 2 == 0)
            inst.touch(plane, 0, 1, 0, 16)  # counted, not buffered
        inst.flush_stream()
        assert sum(c.size for c in chunks) == 20
        assert inst.bytes_read > 0
        assert len(inst.touch_arrays()[0]) == 0  # nothing buffered, allowed

    def test_register_after_flush_raises(self):
        inst = Instrumenter()
        inst.register_branch_sink(lambda pcs, taken: None, window=4)
        for i in range(6):
            inst.branch(0x1000, True)
        with pytest.raises(TraceError):
            inst.register_branch_sink(lambda pcs, taken: None)

    def test_accessors_raise_after_flush(self):
        inst = Instrumenter()
        inst.register_branch_sink(lambda pcs, taken: None, window=4)
        inst.register_touch_sink(lambda *cols: None, window=4)
        _drive(inst, branches=10, touches=6)
        with pytest.raises(TraceError):
            inst.branch_arrays()
        with pytest.raises(TraceError):
            inst.branch_events()
        with pytest.raises(TraceError):
            inst.touch_arrays()
        with pytest.raises(TraceError):
            inst.touches()

    def test_merge_refuses_streaming(self):
        streaming, plain = Instrumenter(), Instrumenter()
        streaming.register_branch_sink(lambda pcs, taken: None)
        with pytest.raises(TraceError):
            plain.merge(streaming)
        with pytest.raises(TraceError):
            streaming.merge(plain)

    def test_window_zero_flushes_only_at_finish(self):
        inst = Instrumenter()
        chunks = []
        inst.register_branch_sink(lambda pcs, taken: chunks.append(pcs), window=0)
        for i in range(50):
            inst.branch(0x2000, True)
        assert chunks == []
        inst.flush_stream()
        assert len(chunks) == 1 and chunks[0].size == 50


class TestFlushMemory:
    """A flush hands its buffers over instead of copying them: the
    tracemalloc peak across a flush stays within 1.2x of what the
    instrumenter held before it."""

    @staticmethod
    def _flush_peak_ratio(inst, fill):
        kept = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fill()
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            inst.flush_stream()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / held

    def test_branch_flush_does_not_copy(self):
        inst = Instrumenter()
        chunks = []
        inst.register_branch_sink(
            lambda pcs, taken: chunks.append((pcs, taken)), window=0
        )

        def fill():
            for i in range(1 << 18):
                inst.branch(0x4000 + (i & 0xFF), i & 1)

        assert self._flush_peak_ratio(inst, fill) < 1.2
        assert sum(pcs.size for pcs, _ in chunks) == 1 << 18

    def test_touch_flush_does_not_copy(self):
        inst = Instrumenter()
        chunks = []
        inst.register_touch_sink(lambda *cols: chunks.append(cols), window=0)
        plane = inst.register_plane(128)

        def fill():
            for i in range(1 << 15):
                inst.touch(plane, i & 63, 2, i & 31, 16, write=bool(i & 1))

        assert self._flush_peak_ratio(inst, fill) < 1.2
        assert sum(cols[0].size for cols in chunks) == 1 << 15


class TestZeroEventCells:
    def test_flush_with_no_events_is_noop(self):
        inst = Instrumenter()
        calls = []
        inst.register_branch_sink(lambda pcs, taken: calls.append(1))
        inst.register_touch_sink(lambda *cols: calls.append(1))
        inst.flush_stream()
        assert calls == []

    def test_empty_reservoir_extract_raises(self):
        reservoir = MidpointReservoir(100)
        with pytest.raises(TraceError):
            reservoir.extract(1000.0)

    def test_empty_touch_stream_leaves_hierarchy_idle(self):
        hier = _tiny_hierarchy()
        sink = TouchStreamSink(hier)
        inst = Instrumenter()
        inst.register_touch_sink(sink)
        inst.flush_stream()
        assert (hier.l1d.accesses, sink.chunks) == (0, 0)


class TestChunkBoundaries:
    def test_chunks_shorter_than_predictor_history(self):
        """Flush windows far below TAGE's 130-bit history: the reservoir
        window must still replay identically to the buffered cut."""
        buffered, streamed = Instrumenter(), Instrumenter()
        reservoir = MidpointReservoir(64)
        streamed.register_branch_sink(reservoir, window=5)
        rng = np.random.default_rng(7)
        pcs = (rng.integers(0, 1 << 14, size=8) << 2).tolist()
        for i in range(333):
            pc = pcs[i % len(pcs)]
            taken = bool((i * 7) % 3)
            buffered.branch(pc, taken)
            streamed.branch(pc, taken)
        streamed.flush_stream()
        fraction = min(1.0, 64 / 333)
        expect = extract_midpoint_window(buffered, fraction=fraction)
        got = reservoir.extract(0.0, fraction=fraction)
        assert np.array_equal(expect.columns()[0], got.columns()[0])
        assert np.array_equal(expect.columns()[1], got.columns()[1])
        a = run_trace(tage_8kb(), expect)
        b = run_trace(tage_8kb(), got)
        assert (a.mispredicts, a.branches) == (b.mispredicts, b.branches)

    def test_reservoir_discards_below_midpoint_bound(self):
        reservoir = MidpointReservoir(10)
        for start in range(0, 1000, 10):
            reservoir(
                np.arange(start, start + 10, dtype=np.int64),
                np.zeros(10, dtype=np.int8),
            )
        assert reservoir.total_events == 1000
        # Retained memory is ~(total - max_window)/2 behind the stream,
        # not the whole stream.
        assert reservoir.retained_events <= (1000 + 10) // 2 + 10
        trace = reservoir.extract(0.0, fraction=10 / 1000)
        pcs, _ = trace.columns()
        assert pcs.tolist() == list(range(495, 505))

    def test_window_wider_than_reservoir_raises(self):
        reservoir = MidpointReservoir(8)
        reservoir(np.arange(100, dtype=np.int64), np.ones(100, dtype=np.int8))
        with pytest.raises(TraceError):
            reservoir.extract(0.0, fraction=0.5)

    def test_touch_chunks_match_whole_stream(self):
        buffered, streamed = Instrumenter(), Instrumenter()
        hier_b, hier_s = _tiny_hierarchy(), _tiny_hierarchy()
        streamed.register_touch_sink(TouchStreamSink(hier_s), window=3)
        _drive(buffered, branches=40, touches=40)
        _drive(streamed, branches=40, touches=40)
        streamed.flush_stream()
        hier_b.access_lines(expand_touches(buffered, hier_b.sample_period))
        for name in ("l1d", "l2", "llc"):
            a, b = getattr(hier_b, name), getattr(hier_s, name)
            assert (a.accesses, a.misses) == (b.accesses, b.misses)
            assert a.contents() == b.contents()


class TestStreamingCollect:
    def test_characterize_streaming_parity(self):
        buffered = characterize("svt-av1", "game1", crf=35, preset=6, num_frames=2)
        streamed = characterize(
            "svt-av1", "game1", crf=35, preset=6, num_frames=2, streaming=True
        )
        assert streamed.proxy_instructions == buffered.proxy_instructions
        assert streamed.cache_mpki == buffered.cache_mpki
        assert streamed.branch == buffered.branch
        assert streamed.ipc == buffered.ipc
        assert streamed.cycles == buffered.cycles

    def test_collect_rejects_foreign_capture(self):
        from repro.core.characterize import encode_workload

        result = encode_workload("svt-av1", "game1", crf=35, preset=6, num_frames=2)
        capture = StreamingCapture()
        with pytest.raises(Exception):
            collect(result, capture=capture)

    def test_collect_rejects_mismatched_branch_window(self):
        capture = StreamingCapture(branch_window=1000)
        from repro.codecs import create_encoder
        from repro.video import vbench

        video = vbench.load("game1", num_frames=2)
        encoder = create_encoder("svt-av1", crf=35, preset=6)
        result = encoder.encode(video, instrumenter=capture.instrumenter)
        with pytest.raises(Exception):
            collect(result, capture=capture, branch_window=2000)
