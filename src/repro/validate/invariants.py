"""Seeded randomized harness for the simulator's structural invariants.

The claims in :mod:`repro.validate.claims` compare *trends*; they are
only meaningful if the layers beneath them keep their accounting
identities.  This harness asserts those identities over randomized
inputs:

- **topdown-decomposition** — top-down slot shares sum to 1 and each
  decomposition re-sums to its parent, both as classified from cycle
  costs and after thread-contention adjustment.
- **cache-level-cascade** — each cache level's access count equals
  the previous level's miss count, exactly, and the sampled stats
  scale coherently.
- **cache-batch-scalar-parity** — the vectorized batch classifier and
  the scalar per-line walk produce bit-identical hit/miss statistics,
  miss traffic, and final cache contents, on short local streams, long
  streams cascading in many windows, tags spanning more than 16 bits,
  and reuse distances near the way count.
- **replay-scalar-parity** — every predictor's columnar
  :meth:`~repro.uarch.branch.base.BranchPredictor.replay` kernel
  matches the scalar predict/update loop: same mispredict count and
  indistinguishable post-replay state.
- **replay-chunk-parity** — streaming replay over bounded-window
  chunks with carried predictor state is bit-equal to whole-trace
  replay, both as raw chunk calls and through ``run_trace`` under a
  forced ``stream_chunk`` window.
- **replay-batch-parity** — the batched multi-stream
  :meth:`~repro.uarch.branch.base.BranchPredictor.replay_batch` kernel
  matches per-stream replays from the same starting state and leaves
  the predictor itself untouched, for all seven predictor
  configurations the paper and its ablations evaluate.
- **capture-stream-parity** — a capture's touches cascaded through the
  production path (``simulate_encode_traffic``, which expands them a
  bounded group at a time) leave every cache level with the counters
  and contents of a cascade of the whole expanded line stream, under a
  drawn ``stream_chunk`` window.
- **predictor-replay-determinism** — replaying one branch stream on
  two fresh instances of any predictor yields identical predictions.
- **tage-fold-reference** — TAGE's incrementally folded history
  registers match a from-scratch reference fold of the zero-padded
  outcome window, including during warm-up.

Everything derives from one root seed via ``numpy`` ``SeedSequence``
spawning, so a failure replays deterministically: the reported case
seed reproduces the exact counterexample.  No new dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .. import kernels
from ..errors import SimulationError, ValidationError
from ..obs.context import current_obs
from ..obs.span import trace_span
from ..trace.branchtrace import BranchTrace
from ..trace.instrument import Instrumenter
from ..uarch.branch.base import run_trace
from ..uarch.branch.bimodal import BimodalPredictor
from ..uarch.branch.gshare import gshare_2kb, gshare_32kb
from ..uarch.branch.perceptron import PerceptronPredictor
from ..uarch.branch.tage import TagePredictor, tage_8kb, tage_64kb
from ..uarch.branch.tournament import TournamentPredictor
from ..uarch.cache import (
    Cache,
    CacheConfig,
    CacheHierarchy,
    expand_touches,
    simulate_encode_traffic,
)
from ..uarch.topdown import classify_slots
from ..parallel.scaling import topdown_with_threads

#: Root seed of the default harness run; any other seed is equally
#: valid — the point is that every case seed derives from it.
DEFAULT_SEED = 20230911

#: Shares must re-sum within float accumulation error, nothing more.
_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class InvariantOutcome:
    """One invariant's verdict over its randomized cases."""

    name: str
    description: str
    passed: bool
    cases: int
    failures: tuple[str, ...]
    seed: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "passed": self.passed,
            "cases": self.cases,
            "failures": list(self.failures),
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# Invariant bodies.  Each takes a per-case Generator plus its case
# index (for failure messages) and returns a list of failure strings.


def _check_shares(label: str, td, failures: list[str]) -> None:
    total = td.retiring + td.bad_speculation + td.frontend + td.backend
    if abs(total - 1.0) > 1e-3:
        failures.append(f"{label}: shares sum to {total!r}")
    if abs(td.backend_memory + td.backend_core - td.backend) > _SUM_TOLERANCE:
        failures.append(
            f"{label}: backend decomposition "
            f"{td.backend_memory!r}+{td.backend_core!r} != {td.backend!r}"
        )
    if (
        abs(td.frontend_latency + td.frontend_bandwidth - td.frontend)
        > _SUM_TOLERANCE
    ):
        failures.append(
            f"{label}: frontend decomposition "
            f"{td.frontend_latency!r}+{td.frontend_bandwidth!r} "
            f"!= {td.frontend!r}"
        )


def _topdown_decomposition(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    retire, bad, fe, be_mem, be_core = rng.uniform(0.01, 10.0, size=5)
    latency_share = float(rng.uniform(0.0, 1.0))
    try:
        td = classify_slots(
            retire_cycles=float(retire),
            bad_spec_cycles=float(bad),
            frontend_cycles=float(fe),
            backend_memory_cycles=float(be_mem),
            backend_core_cycles=float(be_core),
            frontend_latency_share=latency_share,
        )
    except SimulationError as exc:
        return [f"case {case}: classify_slots rejected valid cycles: {exc}"]
    _check_shares(f"case {case}: classify_slots", td, failures)
    codec = ("x264", "x265", "libaom", "svt-av1")[int(rng.integers(0, 4))]
    threads = int(rng.integers(1, 33))
    util = float(rng.uniform(0.2, 1.0))
    try:
        contended = topdown_with_threads(td, codec, threads, utilisation=util)
    except SimulationError as exc:
        return failures + [
            f"case {case}: topdown_with_threads({codec}, {threads}) "
            f"raised {exc}"
        ]
    _check_shares(
        f"case {case}: topdown_with_threads({codec}, t={threads})",
        contended, failures,
    )
    return failures


def _small_hierarchy(sample_period: int = 1) -> CacheHierarchy:
    """A miniature hierarchy: same code paths, far fewer sets."""
    return CacheHierarchy(
        l1d=CacheConfig("L1D", 2 * 1024, 2),
        l2=CacheConfig("L2", 8 * 1024, 4),
        llc=CacheConfig("LLC", 32 * 1024, 8),
        sample_period=sample_period,
    )


def _random_lines(rng: np.random.Generator) -> np.ndarray:
    """A line-address stream with enough locality to hit sometimes."""
    count = int(rng.integers(64, 512))
    span = int(rng.integers(32, 4096))
    lines = rng.integers(0, span, size=count)
    return lines.astype(np.int64)


def _wide_lines(rng: np.random.Generator) -> np.ndarray:
    """Reuse over lines up to 2**40 apart: tag bits above any set index
    span more than 16 bits, and most lines need 64 bits."""
    pool = rng.integers(0, 1 << 40, size=int(rng.integers(8, 64)))
    return pool[rng.integers(0, pool.size, size=int(rng.integers(64, 512)))]


def _near_ways_lines(
    rng: np.random.Generator, config: CacheConfig
) -> np.ndarray:
    """Random reuse over about ``ways`` tags in each of a few sets, so
    reuse distances straddle the way count and the classifier must
    count most reuse windows exactly."""
    sets = rng.integers(0, config.num_sets, size=int(rng.integers(1, 5)))
    tags = max(1, config.ways + int(rng.integers(-2, 3)))
    count = int(rng.integers(256, 2048))
    chosen = sets[rng.integers(0, sets.size, size=count)]
    return chosen + config.num_sets * rng.integers(0, tags, size=count)


def _cache_level_cascade(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    hierarchy = _small_hierarchy()
    lines = _random_lines(rng)
    hierarchy.access_lines(lines)
    l1d, l2, llc = hierarchy.l1d, hierarchy.l2, hierarchy.llc
    if l1d.accesses != lines.size:
        failures.append(
            f"case {case}: L1D saw {l1d.accesses} of {lines.size} accesses"
        )
    if l2.accesses != l1d.misses:
        failures.append(
            f"case {case}: L2 accesses {l2.accesses} != L1D misses "
            f"{l1d.misses}"
        )
    if llc.accesses != l2.misses:
        failures.append(
            f"case {case}: LLC accesses {llc.accesses} != L2 misses "
            f"{l2.misses}"
        )
    stats = hierarchy.stats()
    if stats.l2_accesses != stats.l1d_misses:
        failures.append(f"case {case}: scaled stats break the cascade")
    if not (
        stats.l1d_misses >= stats.l2_misses >= stats.llc_misses >= 0
    ):
        failures.append(f"case {case}: miss counts not monotone by level")
    return failures


def _cache_batch_scalar_parity(
    rng: np.random.Generator, case: int
) -> list[str]:
    failures: list[str] = []
    llc = _small_hierarchy().llc.config
    # Each draw reaches a different part of the classifier: a short
    # local stream; a long one cascading in many windows; tags spanning
    # more than 16 bits (the full-tag sort, 64-bit lines); and reuse
    # distances near the LLC's way count (the exact pass).
    long_lines = np.concatenate(
        [_random_lines(rng) for _ in range(int(rng.integers(8, 17)))]
    )
    draws = (
        ("short", _random_lines(rng), 0),
        ("long", long_lines, int(rng.integers(64, 1024))),
        ("wide", _wide_lines(rng), 0),
        ("near-ways", _near_ways_lines(rng, llc), 0),
    )
    for label, lines, window in draws:
        batched = _small_hierarchy()
        scalar = _small_hierarchy()
        with kernels.vectorized_kernels(), kernels.stream_chunk(window):
            batched.access_lines(lines)
        with kernels.scalar_kernels():
            for line in lines.tolist():
                scalar.access_line(line)
        for name in ("l1d", "l2", "llc"):
            a, b = getattr(batched, name), getattr(scalar, name)
            if (a.accesses, a.misses) != (b.accesses, b.misses):
                failures.append(
                    f"case {case} ({label}): {name} batch "
                    f"({a.accesses}, {a.misses}) != scalar "
                    f"({b.accesses}, {b.misses})"
                )
            if a.contents() != b.contents():
                failures.append(
                    f"case {case} ({label}): {name} final contents "
                    "diverge between batch and scalar paths"
                )
    # One level, multiple batches: the classifier's stream-ordered miss
    # traffic and carried warm state must match the scalar walk.
    ways = int(rng.integers(1, 5))
    nsets = 1 << int(rng.integers(0, 5))
    config = CacheConfig("parity", nsets * ways * 64, ways)
    vec_cache, ref_cache = Cache(config), Cache(config)
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            batch = _random_lines(rng)
        elif kind == 1:
            batch = _wide_lines(rng)
        else:
            batch = _near_ways_lines(rng, config)
        with kernels.vectorized_kernels():
            vec_miss = vec_cache.access_batch(batch)
        with kernels.scalar_kernels():
            ref_miss = ref_cache.access_batch(batch)
        if not np.array_equal(vec_miss, ref_miss):
            failures.append(
                f"case {case}: classifier miss traffic diverges from the "
                "scalar walk"
            )
            break
    if vec_cache.contents() != ref_cache.contents():
        failures.append(
            f"case {case}: classifier final contents diverge from the "
            "scalar walk"
        )
    return failures


#: Predictor factories the replay-determinism invariant covers.
PREDICTOR_FACTORIES: tuple[Callable[[], Any], ...] = (
    BimodalPredictor,
    gshare_2kb,
    TournamentPredictor,
    tage_8kb,
)


def _random_branch_stream(
    rng: np.random.Generator, count: int = 400
) -> list[tuple[int, bool]]:
    """Branches with a small PC working set and biased directions."""
    pcs = rng.integers(0, 1 << 16, size=16) << 2
    choices = rng.integers(0, len(pcs), size=count)
    bias = rng.uniform(0.1, 0.9, size=len(pcs))
    outcomes = rng.uniform(0.0, 1.0, size=count)
    return [
        (int(pcs[which]), bool(outcomes[at] < bias[which]))
        for at, which in enumerate(choices.tolist())
    ]


#: Predictor factories the replay/scalar parity invariant covers (one
#: of each vectorized replay kernel family).
REPLAY_PARITY_FACTORIES: tuple[Callable[[], Any], ...] = (
    BimodalPredictor,
    gshare_2kb,
    TournamentPredictor,
    PerceptronPredictor,
    tage_8kb,
)

#: All seven predictor configurations the paper and its ablations
#: evaluate — the batch-parity invariant covers every one, because
#: every one now has (or inherits) a ``replay_batch`` used by the CBP
#: harness's ``run_trace_batch`` routing.
BATCH_PARITY_FACTORIES: tuple[Callable[[], Any], ...] = (
    BimodalPredictor,
    gshare_2kb,
    gshare_32kb,
    TournamentPredictor,
    PerceptronPredictor,
    tage_8kb,
    tage_64kb,
)


def _replay_scalar_parity(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    stream = _random_branch_stream(rng)
    pcs = np.array([pc for pc, _ in stream], dtype=np.int64)
    taken = np.array([t for _, t in stream], dtype=np.uint8)
    probe = _random_branch_stream(rng, count=100)
    for factory in REPLAY_PARITY_FACTORIES:
        fast, ref = factory(), factory()
        mispredicts = 0
        for pc, outcome in stream:
            if ref.predict_update(pc, outcome) != outcome:
                mispredicts += 1
        if int(fast.replay(pcs, taken)) != mispredicts:
            failures.append(
                f"case {case}: {fast.name} replay mispredicts != scalar"
            )
            continue
        # Post-replay state: a shared probe stream must be predicted
        # identically by the replayed and the scalar-trained instance.
        for pc, outcome in probe:
            if fast.predict_update(pc, outcome) != ref.predict_update(
                pc, outcome
            ):
                failures.append(
                    f"case {case}: {fast.name} post-replay state diverged"
                )
                break
    return failures


def _replay_chunk_parity(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    stream = _random_branch_stream(rng)
    pcs = np.array([pc for pc, _ in stream], dtype=np.int64)
    taken = np.array([t for _, t in stream], dtype=np.uint8)
    trace = BranchTrace.from_columns(
        pcs, taken, window_instructions=float(len(stream)) * 5.0
    )
    # Windows small enough that every trace spans several chunks, and
    # randomized so chunk boundaries land mid-history.
    window = int(rng.integers(16, 128))
    probe = _random_branch_stream(rng, count=100)
    for factory in REPLAY_PARITY_FACTORIES:
        whole, chunked = factory(), factory()
        expect = int(whole.replay(pcs, taken))
        total = sum(
            int(chunked.replay(c_pcs, c_taken))
            for c_pcs, c_taken in trace.iter_chunks(window)
        )
        if total != expect:
            failures.append(
                f"case {case}: {whole.name} chunked mispredicts {total} "
                f"!= whole-trace {expect} (window {window})"
            )
            continue
        with kernels.stream_chunk(window):
            streamed = run_trace(factory(), trace)
        if streamed.mispredicts != expect:
            failures.append(
                f"case {case}: {whole.name} run_trace under stream_chunk "
                f"({window}) counted {streamed.mispredicts} != {expect}"
            )
            continue
        # Carried state: after the last chunk the predictor must be
        # indistinguishable from the whole-trace-replayed one.
        for pc, outcome in probe:
            if whole.predict_update(pc, outcome) != chunked.predict_update(
                pc, outcome
            ):
                failures.append(
                    f"case {case}: {whole.name} post-chunk state diverged "
                    f"(window {window})"
                )
                break
    return failures


def _replay_batch_parity(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    streams = []
    for _ in range(3):
        events = _random_branch_stream(
            rng, count=int(rng.integers(50, 300))
        )
        streams.append(
            (
                np.array([pc for pc, _ in events], dtype=np.int64),
                np.array([t for _, t in events], dtype=np.uint8),
            )
        )
    warmup = _random_branch_stream(rng, count=60)
    probe = _random_branch_stream(rng, count=100)
    for factory in BATCH_PARITY_FACTORIES:
        # Warmed state: every stream must replay from the *same*
        # starting point, and batching must not train that state.
        batcher, witness = factory(), factory()
        for pc, outcome in warmup:
            batcher.predict_update(pc, outcome)
            witness.predict_update(pc, outcome)
        expected = []
        for pcs, taken in streams:
            clone = factory()
            for pc, outcome in warmup:
                clone.predict_update(pc, outcome)
            expected.append(int(clone.replay(pcs, taken)))
        got = [int(n) for n in batcher.replay_batch(streams)]
        if got != expected:
            failures.append(
                f"case {case}: {batcher.name} replay_batch {got} "
                f"!= per-stream {expected}"
            )
            continue
        for pc, outcome in probe:
            if batcher.predict_update(pc, outcome) != witness.predict_update(
                pc, outcome
            ):
                failures.append(
                    f"case {case}: {batcher.name} replay_batch mutated "
                    "the predictor it ran on"
                )
                break
    return failures


def _drive_capture(
    instrumenter: Instrumenter, events: list[tuple]
) -> None:
    """Replay one pre-drawn synthetic workload into an instrumenter."""
    plane = instrumenter.register_plane(256, scale_h=2.0, scale_w=2.0)
    for kind, payload in events:
        if kind == "branch":
            pc, taken = payload
            instrumenter.branch(pc, taken)
        else:
            row, nrows, col, ncols, write, repeats = payload
            instrumenter.touch(
                plane, row, nrows, col, ncols, write=write, repeats=repeats
            )


def _random_capture_events(rng: np.random.Generator) -> list[tuple]:
    """A shuffled mix of branch events and rectangular touches."""
    events: list[tuple] = []
    for pc, taken in _random_branch_stream(rng, count=int(rng.integers(80, 400))):
        events.append(("branch", (pc, taken)))
    for _ in range(int(rng.integers(20, 120))):
        events.append(
            (
                "touch",
                (
                    int(rng.integers(0, 128)),
                    int(rng.integers(1, 8)),
                    int(rng.integers(0, 192)),
                    int(rng.integers(1, 64)),
                    bool(rng.integers(0, 2)),
                    int(rng.integers(1, 3)),
                ),
            )
        )
    rng.shuffle(events)
    return events


def _capture_stream_parity(rng: np.random.Generator, case: int) -> list[str]:
    """Buffered capture simulates like the whole expanded line stream.

    One synthetic workload is captured, and its touches go through
    :func:`simulate_encode_traffic` and, separately, through one cascade
    of the whole expanded line stream.  The case runs under a small
    ``stream_chunk`` window, so touch groups and cascade windows end
    mid-stream.  Every level's counters and final contents must match.
    """
    failures: list[str] = []
    events = _random_capture_events(rng)
    sample_period = int(2 ** rng.integers(0, 3))
    chunk = int(rng.integers(8, 64))

    captured = Instrumenter()
    _drive_capture(captured, events)
    hier_whole = _small_hierarchy(sample_period)
    with kernels.stream_chunk(chunk):
        hier_whole.access_lines(expand_touches(captured, sample_period))
        hier_buf, _ = simulate_encode_traffic(
            captured, _small_hierarchy(sample_period)
        )
    for name in ("l1d", "l2", "llc"):
        a, b = getattr(hier_whole, name), getattr(hier_buf, name)
        if (a.accesses, a.misses) != (b.accesses, b.misses):
            failures.append(
                f"case {case}: {name} whole-stream "
                f"({a.accesses}, {a.misses}) != buffered "
                f"({b.accesses}, {b.misses})"
            )
        if a.contents() != b.contents():
            failures.append(
                f"case {case}: {name} final contents diverge between "
                "the whole stream and buffered capture"
            )
    return failures


def _predictor_replay(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    stream = _random_branch_stream(rng)
    for factory in PREDICTOR_FACTORIES:
        first, second = factory(), factory()
        for pc, taken in stream:
            if first.predict(pc) != second.predict(pc):
                failures.append(
                    f"case {case}: {first.name} diverged between replays"
                )
                break
            first.update(pc, taken)
            second.update(pc, taken)
    return failures


def reference_fold(history: Sequence[int], length: int, width: int) -> int:
    """Fold the last ``length`` outcomes into ``width`` bits, naively.

    The zero-padded window (oldest first) is pushed bit-by-bit through
    the circular-shift-register recurrence — the defining computation
    TAGE's incremental registers must stay equal to.
    """
    if width <= 0:
        return 0
    window = list(history[-length:]) if length else []
    window = [0] * (length - len(window)) + window
    value = 0
    mask = (1 << width) - 1
    for bit in window:
        value = (value << 1) | bit
        value ^= value >> width
        value &= mask
    return value


def _tage_fold_reference(rng: np.random.Generator, case: int) -> list[str]:
    failures: list[str] = []
    predictor: TagePredictor = tage_8kb()
    outcomes: list[int] = []
    stream = _random_branch_stream(rng, count=300)
    for at, (pc, taken) in enumerate(stream):
        predictor.predict(pc)
        predictor.update(pc, taken)
        outcomes.append(int(taken))
        for table in predictor.fold_snapshot():
            length = table["history_length"]
            for kind in ("index", "tag0", "tag1"):
                expect = reference_fold(
                    outcomes, length, table[f"{kind}_width"]
                )
                if table[f"{kind}_fold"] != expect:
                    failures.append(
                        f"case {case}: branch {at}, history length "
                        f"{length}: {kind} fold "
                        f"{table[f'{kind}_fold']:#x} != reference "
                        f"{expect:#x}"
                    )
                    return failures
    return failures


#: Registry: name -> (description, body).
INVARIANTS: dict[str, tuple[str, Callable[[np.random.Generator, int], list[str]]]] = {
    "topdown-decomposition": (
        "Top-down slot shares and their decompositions sum correctly, "
        "before and after thread-contention adjustment.",
        _topdown_decomposition,
    ),
    "cache-level-cascade": (
        "Each cache level's accesses are exactly the previous level's "
        "misses.",
        _cache_level_cascade,
    ),
    "cache-batch-scalar-parity": (
        "Batch and scalar cache-simulation paths stay bit-identical: "
        "counters, miss traffic, and final contents.",
        _cache_batch_scalar_parity,
    ),
    "replay-scalar-parity": (
        "Vectorized predictor replay kernels match the scalar "
        "predict/update loop, counts and state.",
        _replay_scalar_parity,
    ),
    "replay-chunk-parity": (
        "Chunked streaming replay with carried state is bit-equal to "
        "whole-trace replay, counts and state.",
        _replay_chunk_parity,
    ),
    "replay-batch-parity": (
        "Batched multi-stream replay matches per-stream replays from "
        "the same state and leaves the predictor untouched, for all "
        "seven predictor configurations.",
        _replay_batch_parity,
    ),
    "capture-stream-parity": (
        "Buffered capture through simulate_encode_traffic leaves every "
        "cache level with the counters and contents of the whole "
        "expanded line stream.",
        _capture_stream_parity,
    ),
    "predictor-replay-determinism": (
        "Every branch predictor is deterministic under trace replay.",
        _predictor_replay,
    ),
    "tage-fold-reference": (
        "TAGE folded-history registers match a from-scratch reference "
        "fold, including during warm-up.",
        _tage_fold_reference,
    ),
}


def run_invariant(
    name: str, *, seed: int = DEFAULT_SEED, cases: int = 25
) -> InvariantOutcome:
    """Run one invariant over ``cases`` seeded randomized cases."""
    try:
        description, body = INVARIANTS[name]
    except KeyError:
        raise ValidationError(
            f"unknown invariant {name!r}; known: {', '.join(INVARIANTS)}"
        ) from None
    if cases < 1:
        raise ValidationError("invariant cases must be >= 1")
    failures: list[str] = []
    # One spawned child per case: a failure message names the case
    # seed, and re-running with seed=<root> replays it exactly.
    children = np.random.SeedSequence(seed).spawn(cases)
    with trace_span("invariant", invariant=name, cases=cases):
        for index, child in enumerate(children):
            case_rng = np.random.default_rng(child)
            failures.extend(body(case_rng, index))
    outcome = InvariantOutcome(
        name=name,
        description=description,
        passed=not failures,
        cases=cases,
        failures=tuple(failures[:10]),
        seed=seed,
    )
    obs = current_obs()
    if obs is not None:
        status = "pass" if outcome.passed else "fail"
        obs.metrics.counter(f"invariants.{status}").inc()
    return outcome


def run_invariants(
    *, seed: int = DEFAULT_SEED, cases: int = 25
) -> list[InvariantOutcome]:
    """Run every registered invariant; never raises on failures."""
    return [
        run_invariant(name, seed=seed, cases=cases) for name in INVARIANTS
    ]
