"""Benchmark: the vectorized kernel layer against its scalar reference.

Times the in-cell hot paths the kernel layer vectorizes:

- **replay** — ``run_championship`` over the paper's four predictors
  on a captured branch trace (the Figs. 8-10 evaluation loop);
- **cell** — one cold fig04 cell (``characterize`` of svt-av1 on
  game1 at CRF 30, preset 4) end to end: instrumented encode plus the
  cache/branch/top-down measurement pass;
- **replay batch** — many small traces through one predictor config:
  ``run_trace_batch`` (one disjoint-index-space kernel call) against
  the per-trace ``run_trace`` loop;
- **capture stream** — the capture pipeline's peak memory
  (tracemalloc): buffered capture plus post-hoc simulation of the
  whole expanded line stream, against streaming sinks consuming the
  same events chunk by chunk and against buffered capture simulated
  through ``simulate_encode_traffic`` (touches expanded group by
  group), counters bit-identical;
- **cache cascade** — ``CacheHierarchy.access_lines`` on the sampled
  line stream of a 4K-footprint encode: the stack-distance classifier
  against the scalar per-set LRU walk, counters and final contents
  bit-identical;
- **entropy coder** — ``CoefficientCoder.code_block`` over every
  quantised block of a 4K-footprint encode, from fresh contexts and a
  fresh range coder: the fused coder against the scalar per-bin coder,
  stream bytes, per-block bits and symbols and every context's final
  probability identical.

Each timing path runs scalar and vectorized interleaved for
``ROUNDS`` rounds and scores the best-of-rounds ratio, which keeps
the measurement robust to background load.  Bit-parity is asserted on
the full result objects, not just the timings.  Timings are written
to ``BENCH_kernels.json`` at the repo root (fields documented in the
README's "Kernel performance" section) *before* the speedup floors
are asserted, so a regression still leaves the artifact behind; the
floors are the gate CI enforces.
"""

import dataclasses
import json
import os
import time
import tracemalloc
from unittest import mock

import numpy as np

from repro import kernels
from repro.cbp.harness import run_championship
from repro.cbp.traces import capture_trace
from repro.codecs.entropy import BoolEncoder, CoefficientCoder, ContextSet
from repro.core.characterize import characterize, encode_workload
from repro.trace.instrument import Instrumenter
from repro.trace.sampling import MidpointReservoir, extract_midpoint_window
from repro.uarch.branch.base import run_trace, run_trace_batch
from repro.uarch.branch.tournament import TournamentPredictor
from repro.uarch.cache import (
    CacheHierarchy,
    TouchStreamSink,
    expand_touches,
    simulate_encode_traffic,
)
from repro.uarch.machine import XEON_E5_2650_V4
from repro.video import vbench

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_kernels.json")

#: Regression floors (acceptance criteria of the kernel-layer PR).
REPLAY_SPEEDUP_FLOOR = 3.0
#: Re-baselined: the encode (kernel-mode-independent) dominates the
#: cold cell more on current hardware, compressing the end-to-end
#: ratio; the seed tree measures 1.15-1.45x here depending on load.
CELL_SPEEDUP_FLOOR = 1.1
#: Batched multi-trace replay vs the per-trace loop (same kernels).
REPLAY_BATCH_SPEEDUP_FLOOR = 1.5
#: Buffered-capture peak over streaming-capture peak (tracemalloc).
CAPTURE_STREAM_PEAK_FLOOR = 2.0
#: Buffered-capture peak, whole line stream over grouped expansion.
CAPTURE_GROUPED_PEAK_FLOOR = 3.0
#: Vectorized over scalar L1D->L2->LLC cascade on the 4K capture.
CACHE_CASCADE_SPEEDUP_FLOOR = 6.0
#: Fused over scalar coefficient coding of the 4K encode's blocks.
ENTROPY_CODER_SPEEDUP_FLOOR = 3.0

#: Interleaved scalar/vectorized rounds; best-of is scored.
ROUNDS = 2

#: The cold cell measured: a fig04 grid point at the paper's preset.
CELL = {"encoder": "svt-av1", "video": "game1", "crf": 30, "preset": 4}


#: Synthetic capture stream for the memory leg: large enough that the
#: buffered path's retained event columns and whole-stream line
#: expansion dominate its tracemalloc peak.
CAPTURE_BRANCHES = 600_000
CAPTURE_TOUCHES = 150_000
CAPTURE_WINDOW = 50_000
#: Flush threshold for the streaming measurement: the event buffers
#: are O(window), so the leg pins a window well below the stream length
#: (the ``REPRO_REPLAY_CHUNK`` default never flushes a 150k-touch
#: stream mid-capture, which would measure nothing).
CAPTURE_SINK_WINDOW = 16_384
#: The cache-cascade leg's capture: a fast-preset encode of the 2160p
#: clip, whose native footprint overflows the modelled LLC, so all
#: three levels classify most of the stream.
CASCADE_CELL = {
    "encoder": "svt-av1", "video": "chicken", "crf": 30, "preset": 8,
    "frames": 4,
}
#: The entropy-coder leg's encode: the cache-cascade cell, with enough
#: frames that the fused coder runs for at least about 0.2 s per pass.
ENTROPY_CELL = dict(CASCADE_CELL, frames=64)
#: Sub-traces for the batched-replay leg — many small streams is the
#: regime batching amortizes (per-call kernel setup dominates the
#: per-trace loop there).
BATCH_PARTS = 200


def _drive_capture(inst):
    """Pump a deterministic branch/touch stream into ``inst``.

    Events come from an inline LCG rather than pre-materialized
    arrays: the driver must not allocate O(stream) itself, or its own
    transient lists would flatten the buffered-vs-streaming peak
    ratio this leg exists to measure.
    """
    plane = inst.register_plane(512, scale_h=2.0, scale_w=2.0)
    branch, touch = inst.branch, inst.touch
    state = 20230911
    mask64 = (1 << 64) - 1
    stride = CAPTURE_BRANCHES // CAPTURE_TOUCHES
    ti = 0
    for i in range(CAPTURE_BRANCHES):
        state = (state * 6364136223846793005 + 1442695040888963407) & mask64
        branch(((state >> 24) & 0xFFFFF) << 2, bool((state >> 17) & 1))
        if i % stride == 0 and ti < CAPTURE_TOUCHES:
            touch(plane, (state >> 5) % 448, 4, (state >> 14) % 448, 64,
                  write=(ti & 1) == 0, repeats=2)
            ti += 1


def _capture_fingerprint(hierarchy, trace, sim):
    """Everything the capture parity check compares, hashable-free."""
    levels = tuple(
        (level.accesses, level.misses)
        for level in (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
    )
    pcs, taken = trace.columns()
    return levels, pcs.tolist(), taken.tolist(), sim


def _whole_stream_traffic(inst, hierarchy):
    """Cascade the whole expanded line stream at once."""
    hierarchy.access_lines(expand_touches(inst, hierarchy.sample_period))


def _measure_buffered_capture(simulate):
    """Tracemalloc peak of buffered capture + post-hoc measurement.

    ``simulate(inst, hierarchy)`` drives the captured touches through
    the hierarchy.
    """
    machine = XEON_E5_2650_V4
    tracemalloc.start()
    inst = Instrumenter()
    _drive_capture(inst)
    hierarchy = CacheHierarchy(
        machine.l1d, machine.l2, machine.llc, sample_period=8
    )
    simulate(inst, hierarchy)
    trace = extract_midpoint_window(
        inst, fraction=CAPTURE_WINDOW / CAPTURE_BRANCHES, name="bench"
    )
    sim = run_trace(machine.make_core_predictor(), trace)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, _capture_fingerprint(hierarchy, trace, sim)


def _measure_streaming_capture():
    """Tracemalloc peak with sinks consuming the capture in flight."""
    machine = XEON_E5_2650_V4
    tracemalloc.start()
    inst = Instrumenter()
    hierarchy = CacheHierarchy(
        machine.l1d, machine.l2, machine.llc, sample_period=8
    )
    inst.register_touch_sink(
        TouchStreamSink(hierarchy), window=CAPTURE_SINK_WINDOW
    )
    reservoir = MidpointReservoir(CAPTURE_WINDOW)
    inst.register_branch_sink(reservoir, window=CAPTURE_SINK_WINDOW)
    _drive_capture(inst)
    inst.flush_stream()
    trace = reservoir.extract(
        float(inst.total_instructions),
        fraction=CAPTURE_WINDOW / CAPTURE_BRANCHES,
        name="bench",
    )
    sim = run_trace(machine.make_core_predictor(), trace)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, _capture_fingerprint(hierarchy, trace, sim)


def _split_trace(trace, parts):
    """Cut one captured trace into ``parts`` contiguous sub-traces."""
    from repro.trace.branchtrace import BranchTrace

    pcs, taken = trace.columns()
    bounds = np.linspace(0, pcs.size, parts + 1).astype(int)
    return [
        BranchTrace.from_columns(
            pcs[a:b],
            taken[a:b],
            window_instructions=(
                trace.window_instructions * (b - a) / pcs.size
            ),
            name=f"{trace.name}#{i}",
        )
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]


def _cascade_stream():
    """Sampled line stream of the cache-cascade leg's encode."""
    result = encode_workload(
        CASCADE_CELL["encoder"], CASCADE_CELL["video"],
        crf=CASCADE_CELL["crf"], preset=CASCADE_CELL["preset"],
        num_frames=CASCADE_CELL["frames"],
    )
    return expand_touches(result.instrumenter, sample_period=8)


def _cascade(lines):
    """A fresh Xeon hierarchy after cascading ``lines`` through it."""
    hierarchy = CacheHierarchy()
    hierarchy.access_lines(lines)
    return hierarchy


def _cascade_fingerprint(hierarchy):
    """Every level's counters and final contents."""
    return [
        (level.accesses, level.misses, level.contents())
        for level in (hierarchy.l1d, hierarchy.l2, hierarchy.llc)
    ]


def _entropy_blocks():
    """Every ``(levels, ctx_prefix)`` the entropy-coder leg's encode codes."""
    blocks = []
    code_block = CoefficientCoder.code_block

    def record(coder, levels, ctx_prefix):
        blocks.append((levels.copy(), ctx_prefix))
        return code_block(coder, levels, ctx_prefix)

    with mock.patch.object(CoefficientCoder, "code_block", record):
        encode_workload(
            ENTROPY_CELL["encoder"], ENTROPY_CELL["video"],
            crf=ENTROPY_CELL["crf"], preset=ENTROPY_CELL["preset"],
            num_frames=ENTROPY_CELL["frames"],
        )
    return blocks


def _code_blocks(blocks):
    """Code ``blocks`` from fresh contexts and a fresh range coder.

    Returns everything the parity check compares: per-block
    ``(bits, symbols)``, the stream bytes and each context's final
    probability.
    """
    contexts = ContextSet()
    encoder = BoolEncoder()
    coder = CoefficientCoder(contexts, encoder)
    coded = [coder.code_block(levels, prefix) for levels, prefix in blocks]
    probs = {name: ctx.prob for name, ctx in contexts._contexts.items()}
    return coded, encoder.finish(), probs


def _interleaved_best(func):
    """Best-of-ROUNDS seconds per kernel mode, plus every result."""
    seconds = {"scalar": [], "vectorized": []}
    results = []
    for _ in range(ROUNDS):
        for mode, scope in (("vectorized", kernels.vectorized_kernels),
                            ("scalar", kernels.scalar_kernels)):
            with scope():
                start = time.perf_counter()
                result = func()
                seconds[mode].append(time.perf_counter() - start)
            results.append(result)
    return min(seconds["scalar"]), min(seconds["vectorized"]), results


def test_kernel_speedups():
    video = vbench.load("game1")
    # Fig. 10's capture configuration (preset 4, CRF 60), which fills
    # the full 60k-event window on this clip.
    trace = capture_trace(video, crf=60, preset=4)

    replay_scalar, replay_vec, champs = _interleaved_best(
        lambda: run_championship([trace])
    )
    replay_parity = all(c.results == champs[0].results for c in champs[1:])
    replay_speedup = replay_scalar / replay_vec

    cell_scalar, cell_vec, reports = _interleaved_best(
        lambda: characterize(
            CELL["encoder"], CELL["video"],
            crf=CELL["crf"], preset=CELL["preset"],
        )
    )
    dicts = [dataclasses.asdict(r) for r in reports]
    cell_parity = all(d == dicts[0] for d in dicts[1:])
    cell_speedup = cell_scalar / cell_vec

    # Batched multi-trace replay vs the per-trace loop (vectorized
    # kernels in both, so the ratio isolates the batching itself).
    parts = _split_trace(trace, BATCH_PARTS)
    batch_loop_seconds, batch_seconds = [], []
    batch_results = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        batched = run_trace_batch(TournamentPredictor, parts)
        batch_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        looped = [run_trace(TournamentPredictor(), p) for p in parts]
        batch_loop_seconds.append(time.perf_counter() - start)
        batch_results.append((batched, looped))
    replay_batch_parity = all(
        batched == looped for batched, looped in batch_results
    )
    replay_batch_speedup = min(batch_loop_seconds) / min(batch_seconds)

    # Capture-pipeline peak memory: buffered capture plus post-hoc
    # simulation of the whole line stream, vs streaming sinks and vs
    # grouped buffered simulation; same events, identical counters
    # (best-of-rounds is meaningless for peaks; one pass of each is
    # deterministic).
    buffered_peak, buffered_print = _measure_buffered_capture(
        _whole_stream_traffic
    )
    grouped_peak, grouped_print = _measure_buffered_capture(
        simulate_encode_traffic
    )
    streaming_peak, streaming_print = _measure_streaming_capture()
    capture_stream_parity = buffered_print == streaming_print
    capture_stream_peak_ratio = buffered_peak / streaming_peak
    capture_grouped_parity = buffered_print == grouped_print
    capture_grouped_peak_ratio = buffered_peak / grouped_peak

    cascade_lines = _cascade_stream()
    cascade_scalar, cascade_vec, hierarchies = _interleaved_best(
        lambda: _cascade(cascade_lines)
    )
    prints = [_cascade_fingerprint(h) for h in hierarchies]
    cache_cascade_parity = all(p == prints[0] for p in prints[1:])
    cache_cascade_speedup = cascade_scalar / cascade_vec

    entropy_blocks = _entropy_blocks()
    entropy_scalar, entropy_fused, coded = _interleaved_best(
        lambda: _code_blocks(entropy_blocks)
    )
    entropy_coder_parity = all(c == coded[0] for c in coded[1:])
    entropy_coder_speedup = entropy_scalar / entropy_fused

    payload = {
        "trace": trace.name,
        "trace_events": len(trace),
        "rounds": ROUNDS,
        "replay_scalar_seconds": round(replay_scalar, 3),
        "replay_vectorized_seconds": round(replay_vec, 3),
        "replay_speedup": round(replay_speedup, 2),
        "replay_speedup_floor": REPLAY_SPEEDUP_FLOOR,
        "replay_parity": replay_parity,
        "cell": CELL,
        "cell_scalar_seconds": round(cell_scalar, 3),
        "cell_vectorized_seconds": round(cell_vec, 3),
        "cell_speedup": round(cell_speedup, 2),
        "cell_speedup_floor": CELL_SPEEDUP_FLOOR,
        "cell_parity": cell_parity,
        "replay_batch_parts": BATCH_PARTS,
        "replay_batch_seconds": round(min(batch_seconds), 3),
        "replay_batch_loop_seconds": round(min(batch_loop_seconds), 3),
        "replay_batch_speedup": round(replay_batch_speedup, 2),
        "replay_batch_speedup_floor": REPLAY_BATCH_SPEEDUP_FLOOR,
        "replay_batch_parity": replay_batch_parity,
        "capture_branches": CAPTURE_BRANCHES,
        "capture_touches": CAPTURE_TOUCHES,
        "capture_sink_window": CAPTURE_SINK_WINDOW,
        "capture_buffered_peak_kib": round(buffered_peak / 1024, 1),
        "capture_streaming_peak_kib": round(streaming_peak / 1024, 1),
        "capture_stream_peak_ratio": round(capture_stream_peak_ratio, 2),
        "capture_stream_peak_ratio_floor": CAPTURE_STREAM_PEAK_FLOOR,
        "capture_stream_parity": capture_stream_parity,
        "capture_grouped_peak_kib": round(grouped_peak / 1024, 1),
        "capture_grouped_peak_ratio": round(capture_grouped_peak_ratio, 2),
        "capture_grouped_peak_ratio_floor": CAPTURE_GROUPED_PEAK_FLOOR,
        "capture_grouped_parity": capture_grouped_parity,
        "cache_cascade_cell": CASCADE_CELL,
        "cache_cascade_lines": int(cascade_lines.size),
        "cache_cascade_scalar_seconds": round(cascade_scalar, 3),
        "cache_cascade_vectorized_seconds": round(cascade_vec, 3),
        "cache_cascade_speedup": round(cache_cascade_speedup, 2),
        "cache_cascade_speedup_floor": CACHE_CASCADE_SPEEDUP_FLOOR,
        "cache_cascade_parity": cache_cascade_parity,
        "entropy_coder_cell": ENTROPY_CELL,
        "entropy_coder_blocks": len(entropy_blocks),
        "entropy_coder_symbols": sum(symbols for _, symbols in coded[0][0]),
        "entropy_coder_scalar_seconds": round(entropy_scalar, 3),
        "entropy_coder_fused_seconds": round(entropy_fused, 3),
        "entropy_coder_speedup": round(entropy_coder_speedup, 2),
        "entropy_coder_speedup_floor": ENTROPY_CODER_SPEEDUP_FLOOR,
        "entropy_coder_parity": entropy_coder_parity,
    }
    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    assert replay_parity, (
        "scalar and vectorized championship results diverged"
    )
    assert cell_parity, (
        "scalar and vectorized cell reports diverged"
    )
    assert replay_speedup >= REPLAY_SPEEDUP_FLOOR, (
        f"replay only {replay_speedup:.2f}x faster "
        f"({replay_vec:.2f}s vs {replay_scalar:.2f}s scalar); "
        f"floor is {REPLAY_SPEEDUP_FLOOR}x"
    )
    assert cell_speedup >= CELL_SPEEDUP_FLOOR, (
        f"cold cell only {cell_speedup:.2f}x faster "
        f"({cell_vec:.2f}s vs {cell_scalar:.2f}s scalar); "
        f"floor is {CELL_SPEEDUP_FLOOR}x"
    )
    assert replay_batch_parity, (
        "run_trace_batch diverged from the per-trace run_trace loop"
    )
    assert replay_batch_speedup >= REPLAY_BATCH_SPEEDUP_FLOOR, (
        f"batched replay only {replay_batch_speedup:.2f}x faster "
        f"({min(batch_seconds):.3f}s vs {min(batch_loop_seconds):.3f}s "
        f"looped); floor is {REPLAY_BATCH_SPEEDUP_FLOOR}x"
    )
    assert capture_stream_parity, (
        "streaming capture diverged from the buffered pipeline"
    )
    assert capture_stream_peak_ratio >= CAPTURE_STREAM_PEAK_FLOOR, (
        f"streaming capture only cut peak memory "
        f"{capture_stream_peak_ratio:.2f}x "
        f"({streaming_peak / 1024:.0f}KiB vs "
        f"{buffered_peak / 1024:.0f}KiB buffered); "
        f"floor is {CAPTURE_STREAM_PEAK_FLOOR}x"
    )
    assert capture_grouped_parity, (
        "grouped touch expansion diverged from the whole-stream cascade"
    )
    assert capture_grouped_peak_ratio >= CAPTURE_GROUPED_PEAK_FLOOR, (
        f"grouped expansion only cut buffered peak memory "
        f"{capture_grouped_peak_ratio:.2f}x "
        f"({grouped_peak / 1024:.0f}KiB vs "
        f"{buffered_peak / 1024:.0f}KiB whole-stream); "
        f"floor is {CAPTURE_GROUPED_PEAK_FLOOR}x"
    )
    assert cache_cascade_parity, (
        "vectorized cache cascade diverged from the scalar walk"
    )
    assert cache_cascade_speedup >= CACHE_CASCADE_SPEEDUP_FLOOR, (
        f"cache cascade only {cache_cascade_speedup:.2f}x faster "
        f"({cascade_vec:.3f}s vs {cascade_scalar:.3f}s scalar); "
        f"floor is {CACHE_CASCADE_SPEEDUP_FLOOR}x"
    )
    assert entropy_coder_parity, (
        "fused coefficient coder diverged from the scalar coder"
    )
    assert entropy_coder_speedup >= ENTROPY_CODER_SPEEDUP_FLOOR, (
        f"fused entropy coder only {entropy_coder_speedup:.2f}x faster "
        f"({entropy_fused:.3f}s vs {entropy_scalar:.3f}s scalar); "
        f"floor is {ENTROPY_CODER_SPEEDUP_FLOOR}x"
    )
