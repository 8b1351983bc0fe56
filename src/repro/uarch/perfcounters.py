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

It runs once the encode has returned, over the whole capture the
instrumenter buffered: the paper's method of capturing a run and then
replaying it offline (§4.4).

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
from .branch.base import run_trace
from .branch.loopmodel import model_loops
from .cache import CacheHierarchy, simulate_encode_traffic
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


def _branch_report(
    result: EncodeResult, machine: MachineConfig, window: int
) -> BranchReport:
    inst = result.instrumenter
    total_branches = inst.counts.counts[InstrClass.BRANCH]
    decision = float(inst.decision_branches)
    if decision <= 0:
        raise SimulationError("encode recorded no decision branches")

    # Simulate the core predictor over a bounded decision window.
    from ..trace.sampling import extract_midpoint_window

    fraction = min(1.0, window / decision)
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
    """
    if pixel_scale <= 0 or duration_scale <= 0:
        raise SimulationError("scales must be positive")
    fault_point(f"sim:collect:{result.codec}:{result.video_name}")
    inst = result.instrumenter
    proxy_instructions = inst.total_instructions
    native_instructions = proxy_instructions * pixel_scale * duration_scale

    if hierarchy is None:
        hierarchy = CacheHierarchy(
            machine.l1d, machine.l2, machine.llc,
            sample_period=cache_sample_period,
        )
    _, cache_stats = simulate_encode_traffic(inst, hierarchy)
    data_ki = proxy_instructions * pixel_scale / 1000.0
    cache_mpki = cache_stats.mpki(data_ki)

    branch = _branch_report(result, machine, branch_window)

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
