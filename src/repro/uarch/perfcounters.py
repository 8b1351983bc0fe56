"""The perf substitute: turn an instrumented encode into PMU-style
counters, top-down shares, and execution time.

:func:`collect` is the analogue of running ``perf stat`` plus the
top-down methodology over one encoder invocation.  It:

1. replays the encode's memory touches through the cache hierarchy
   simulator (L1D/L2/LLC MPKI);
2. replays a window of the decision-branch stream through the machine's
   core-predictor model, combines it with the analytic loop-branch
   model, and derives whole-program branch miss rate / MPKI;
3. feeds the resulting event rates to the interval-analysis core model
   (IPC, top-down shares, resource stalls);
4. scales proxy instruction counts to native-equivalent counts and
   derives execution time at the machine's clock.

Scaling conventions (DESIGN.md §2): ``pixel_scale`` converts proxy-
resolution work to the original clip's resolution (applies to both
instruction counts and the denominators of data-side MPKI, since the
memory touches already carry native-footprint addresses);
``duration_scale`` converts the proxy's frame count to the clip's full
length (applies to totals only, never to rates).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..codecs.base import EncodeResult
from ..errors import SimulationError
from ..resilience.faults import fault_point
from ..trace.instruction import InstrClass
from ..trace.instrument import Instrumenter
from ..trace.sampling import MidpointReservoir
from .branch.base import run_trace
from .branch.loopmodel import model_loops
from .cache import CacheHierarchy, TouchStreamSink, simulate_encode_traffic
from .machine import XEON_E5_2650_V4, MachineConfig
from .pipeline import CoreModelInput, CoreModelResult, run_core_model
from .topdown import TopDown

#: Assumed miss rate of bookkeeping branches not captured as decision
#: events or loop summaries (highly biased, near-perfectly predicted).
_OTHER_BRANCH_MISS_RATE = 0.012


@dataclass(frozen=True)
class BranchReport:
    """Whole-program branch behaviour under the core predictor."""

    total_branches: float
    decision_branches: float
    loop_branches: float
    decision_miss_rate: float
    miss_rate: float
    mpki: float
    taken_rate: float


@dataclass(frozen=True)
class PerfReport:
    """Everything the paper's per-encode measurement pass produces."""

    video: str
    codec: str
    crf: float
    preset: int
    proxy_instructions: float
    instructions: float           # native-equivalent
    cycles: float
    time_seconds: float
    ipc: float
    mix_percent: dict[str, float]
    branch: BranchReport
    cache_mpki: dict[str, float]
    topdown: TopDown
    core: CoreModelResult
    bits: float
    bitrate_kbps: float
    psnr_db: float

    @property
    def stalls_per_ki(self) -> dict[str, float]:
        """Resource-stall cycles per kilo-instruction (Fig. 6e-h)."""
        stalls = self.core.stalls
        return {
            "reservation_station": stalls.reservation_station,
            "reorder_buffer": stalls.reorder_buffer,
            "load_buffer": stalls.load_buffer,
            "store_buffer": stalls.store_buffer,
        }


class StreamingCapture:
    """Consumers wired to an instrumenter for an in-flight measurement.

    Bundles what the buffered measurement pass builds *after* the
    encode — the cache hierarchy and the predictor's midpoint branch
    window — as streaming sinks that consume the capture *during* the
    encode: memory touches cascade through the hierarchy chunk by
    chunk, and a :class:`~repro.trace.sampling.MidpointReservoir`
    retains only the branch events the centred window can still need.
    Event buffers hold at most one flush window of events, counted in
    touches, not lines: each chunk's cache simulation holds one touch
    group's rows plus one cascade window of lines (see
    :meth:`~repro.uarch.cache.CacheHierarchy.access_touches`).  Every
    counter the report derives is bit-identical to the buffered path
    (the ``capture-stream-parity`` invariant pins this).

    Use: construct, pass :attr:`instrumenter` to the encoder, then hand
    the capture to :func:`collect` via its ``capture`` parameter.

    Parameters mirror :func:`collect`'s measurement knobs; ``window``
    is the flush threshold in events (default
    :func:`repro.kernels.stream_chunk_events`).
    """

    def __init__(
        self,
        machine: MachineConfig = XEON_E5_2650_V4,
        cache_sample_period: int = 8,
        branch_window: int = 50_000,
        window: int | None = None,
    ) -> None:
        self.machine = machine
        self.branch_window = branch_window
        self.instrumenter = Instrumenter()
        self.hierarchy = CacheHierarchy(
            machine.l1d, machine.l2, machine.llc,
            sample_period=cache_sample_period,
        )
        self.touch_sink = TouchStreamSink(self.hierarchy)
        self.reservoir = MidpointReservoir(branch_window)
        self.instrumenter.register_touch_sink(self.touch_sink, window=window)
        self.instrumenter.register_branch_sink(self.reservoir, window=window)

    def finish(self) -> None:
        """Flush the tail chunks (idempotent; :func:`collect` calls it)."""
        self.instrumenter.flush_stream()

    @property
    def peak_retained_events(self) -> int:
        """Branch events currently held by the reservoir."""
        return self.reservoir.retained_events


def _branch_report(
    result: EncodeResult,
    machine: MachineConfig,
    window: int,
    capture: StreamingCapture | None = None,
) -> BranchReport:
    inst = result.instrumenter
    total_branches = inst.counts.counts[InstrClass.BRANCH]
    decision = float(inst.decision_branches)
    if decision <= 0:
        raise SimulationError("encode recorded no decision branches")

    # Simulate the core predictor over a bounded decision window.
    from ..trace.sampling import extract_midpoint_window

    fraction = min(1.0, window / decision)
    if capture is not None:
        trace = capture.reservoir.extract(
            inst.total_instructions,
            fraction=fraction,
            name=f"{result.video_name}-core",
        )
    else:
        trace = extract_midpoint_window(
            inst, fraction=fraction, name=f"{result.video_name}-core"
        )
    predictor = machine.make_core_predictor()
    sim = run_trace(predictor, trace)
    decision_miss_rate = sim.miss_rate

    # Analytic loop-branch model.
    loops = model_loops(
        inst.loop_summaries, usable_history=predictor.history_bits
    )

    other = max(0.0, total_branches - decision - loops.branches)
    misses = (
        decision_miss_rate * decision
        + loops.mispredicts
        + _OTHER_BRANCH_MISS_RATE * other
    )
    miss_rate = misses / total_branches if total_branches else 0.0
    mpki = misses / (inst.total_instructions / 1000.0)
    taken_rate = (
        inst.decision_taken / decision if decision else 0.0
    )
    return BranchReport(
        total_branches=total_branches,
        decision_branches=decision,
        loop_branches=float(loops.branches),
        decision_miss_rate=decision_miss_rate,
        miss_rate=miss_rate,
        mpki=mpki,
        taken_rate=taken_rate,
    )


def collect(
    result: EncodeResult,
    machine: MachineConfig = XEON_E5_2650_V4,
    pixel_scale: float = 1.0,
    duration_scale: float = 1.0,
    bitrate_scale: float = 1.0,
    cache_sample_period: int = 8,
    branch_window: int = 50_000,
    hierarchy: CacheHierarchy | None = None,
    capture: StreamingCapture | None = None,
) -> PerfReport:
    """Measure one encode the way the paper measures a run.

    Parameters
    ----------
    result:
        The instrumented encode.
    machine:
        Core/memory description (defaults to the paper's Xeon).
    pixel_scale:
        Proxy-to-native pixel ratio of the workload.
    duration_scale:
        Proxy-to-native frame-count ratio.
    bitrate_scale:
        Multiplier taking proxy bits to native bits (usually equal to
        ``pixel_scale``).
    cache_sample_period:
        Set-sampling period for the cache simulation.
    branch_window:
        Decision branches simulated through the core predictor.
    hierarchy:
        Optional pre-built hierarchy (for warm-cache experiments).
    capture:
        A :class:`StreamingCapture` whose instrumenter ran the encode.
        The cache traffic was then simulated *during* the encode and
        the branch window retained by the reservoir, so this pass only
        finishes the tail flush and reads the results — bit-identical
        to the buffered path.  Mutually exclusive with ``hierarchy``;
        ``branch_window`` must match the capture's.
    """
    if pixel_scale <= 0 or duration_scale <= 0:
        raise SimulationError("scales must be positive")
    fault_point(f"sim:collect:{result.codec}:{result.video_name}")
    inst = result.instrumenter
    if capture is not None:
        if capture.instrumenter is not inst:
            raise SimulationError(
                "capture.instrumenter did not run this encode; the "
                "streamed traffic belongs to a different result"
            )
        if hierarchy is not None:
            raise SimulationError(
                "capture and hierarchy are mutually exclusive: the "
                "capture already owns a (fed) hierarchy"
            )
        if branch_window != capture.branch_window:
            raise SimulationError(
                f"branch_window={branch_window} != the capture's "
                f"{capture.branch_window}; the reservoir was sized to "
                "the latter"
            )
        capture.finish()
    proxy_instructions = inst.total_instructions
    native_instructions = proxy_instructions * pixel_scale * duration_scale

    if capture is not None:
        cache_stats = capture.hierarchy.stats()
    else:
        if hierarchy is None:
            hierarchy = CacheHierarchy(
                machine.l1d, machine.l2, machine.llc,
                sample_period=cache_sample_period,
            )
        _, cache_stats = simulate_encode_traffic(inst, hierarchy)
    data_ki = proxy_instructions * pixel_scale / 1000.0
    cache_mpki = cache_stats.mpki(data_ki)

    branch = _branch_report(result, machine, branch_window, capture=capture)

    mix = inst.counts
    core_input = CoreModelInput(
        instructions=native_instructions,
        branch_fraction=mix.fraction(InstrClass.BRANCH),
        taken_fraction=max(branch.taken_rate, 0.3),
        mispredicts_per_ki=branch.mpki,
        l1d_mpki=cache_mpki["l1d"],
        l2_mpki=cache_mpki["l2"],
        llc_mpki=cache_mpki["llc"],
        load_fraction=mix.fraction(InstrClass.LOAD),
        store_fraction=mix.fraction(InstrClass.STORE),
        avx_fraction=mix.fraction(InstrClass.AVX),
    )
    core = run_core_model(core_input, machine)
    time_seconds = core.cycles / machine.frequency_hz

    return PerfReport(
        video=result.video_name,
        codec=result.codec,
        crf=result.config.crf,
        preset=result.config.preset,
        proxy_instructions=proxy_instructions,
        instructions=native_instructions,
        cycles=core.cycles,
        time_seconds=time_seconds,
        ipc=core.ipc,
        mix_percent=mix.mix_percent(),
        branch=branch,
        cache_mpki=cache_mpki,
        topdown=core.topdown,
        core=core,
        bits=result.total_bits * bitrate_scale,
        bitrate_kbps=result.bitrate_kbps * bitrate_scale,
        psnr_db=result.psnr_db,
    )
