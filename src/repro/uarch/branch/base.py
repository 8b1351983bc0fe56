"""Branch predictor interface and evaluation loop.

All predictors implement the CBP-2016 contract: ``predict(pc)`` then
``update(pc, taken)`` for every conditional branch in trace order.
``storage_bits`` reports the predictor's state budget, which the
championship rules bound (the paper compares 2 KB/32 KB Gshare with
8 KB/64 KB TAGE configurations).

Two replay paths exist (DESIGN.md "Kernel architecture"):

- the **scalar reference** — the per-event ``predict_update`` loop,
  selected by :func:`repro.kernels.scalar_kernels`;
- the **vectorized fast path** — :meth:`BranchPredictor.replay` over
  the trace's columnar form, overridden per predictor with NumPy
  kernels that are bit-equal to the scalar walk (mispredict count
  *and* post-replay predictor state), which parity tests and the
  ``replay-scalar-parity`` invariant assert.

The fast path **streams**: because every vectorized replay writes back
its full post-replay state, :func:`run_trace` can feed it the trace in
bounded windows (:meth:`~repro.trace.branchtrace.BranchTrace.
iter_chunks` at :func:`repro.kernels.stream_chunk_events` events per
chunk) with carried state, bit-equal to whole-trace replay — the
``replay-chunk-parity`` invariant asserts exactly this — while peak
kernel memory stays O(window) instead of O(events).

It also **batches across cells**: :func:`run_trace_batch` replays many
independent traces through one predictor configuration in a single
kernel call (:meth:`BranchPredictor.replay_batch`), amortising the
per-call sort/scan setup that dominates small traces.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ... import kernels
from ...errors import SimulationError
from ...trace.branchtrace import BranchTrace


class BranchPredictor(abc.ABC):
    """One conditional-branch direction predictor."""

    name: str = "predictor"

    @abc.abstractmethod
    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""

    @abc.abstractmethod
    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome."""

    @property
    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Total predictor state in bits."""

    @property
    def storage_kib(self) -> float:
        """Storage in KiB (CBP reporting convention)."""
        return self.storage_bits / 8192.0

    def predict_update(self, pc: int, taken: bool) -> bool:
        """Predict and train in one call; returns the prediction.

        The default composes :meth:`predict` and :meth:`update`.
        Table-indexed predictors override it to compute their index
        once instead of twice (gshare previously recomputed the
        history-XOR index in both halves of every event).
        """
        prediction = self.predict(pc)
        self.update(pc, taken)
        return prediction

    def replay(self, pcs: np.ndarray, taken: np.ndarray) -> int:
        """Replay a columnar branch stream; returns the mispredict count.

        ``pcs`` is int64 and ``taken`` uint8/bool, in program order
        (see :meth:`repro.trace.branchtrace.BranchTrace.columns`).
        The base implementation is the scalar loop; subclasses override
        it with vectorized equivalents under the bit-parity contract:
        identical mispredict count and identical post-replay predictor
        state (a subsequent scalar event stream behaves the same).
        """
        mispredicts = 0
        predict_update = self.predict_update
        for pc, t in zip(pcs.tolist(), taken.tolist()):
            outcome = t != 0
            if predict_update(pc, outcome) != outcome:
                mispredicts += 1
        return mispredicts

    def replay_batch(
        self, streams: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> list[int]:
        """Replay independent columnar streams; one mispredict count each.

        Every stream starts from this predictor's *current* state and
        trains only its own copy — the streams are different sweep
        cells, not one concatenated trace — and ``self`` is left
        untouched.  The base implementation replays a deep copy per
        stream; table predictors override it to stack all streams into
        one kernel call over disjoint index spaces, which is exact for
        the same reason separate calls are: events of different
        streams never share a counter.
        """
        counts: list[int] = []
        for pcs, taken in streams:
            clone = copy.deepcopy(self)
            counts.append(int(clone.replay(pcs, taken)))
        return counts


@dataclass(frozen=True)
class PredictorResult:
    """Outcome of replaying one trace through one predictor."""

    predictor: str
    trace: str
    branches: int
    mispredicts: int
    window_instructions: float

    @property
    def miss_rate(self) -> float:
        """Mispredictions per branch."""
        return self.mispredicts / self.branches if self.branches else 0.0

    @property
    def mpki(self) -> float:
        """Mispredictions per kilo-instruction of the traced window."""
        return self.mispredicts / (self.window_instructions / 1000.0)


def run_trace(
    predictor: BranchPredictor, trace: BranchTrace
) -> PredictorResult:
    """Replay ``trace`` through ``predictor`` (predict-then-update).

    Routes through the predictor's columnar :meth:`replay` kernel on
    the vectorized fast path; the scalar reference walks the stream
    event-by-event via :meth:`predict_update`.  Both paths produce
    bit-identical :class:`PredictorResult` rows.
    """
    pcs, taken = trace.columns()
    if pcs.size == 0:
        raise SimulationError(f"trace {trace.name!r} is empty")
    if kernels.vectorized_enabled():
        # Stream in bounded windows with carried predictor state.
        # Exact because every vectorized replay writes its full
        # post-replay state back (the `replay-scalar-parity` probe
        # pins that; `replay-chunk-parity` pins this equivalence).
        window = kernels.stream_chunk_events()
        if window and pcs.size > window:
            mispredicts = 0
            for chunk_pcs, chunk_taken in trace.iter_chunks(window):
                mispredicts += int(predictor.replay(chunk_pcs, chunk_taken))
        else:
            mispredicts = int(predictor.replay(pcs, taken))
    else:
        mispredicts = 0
        predict_update = predictor.predict_update
        for pc, t in zip(pcs.tolist(), taken.tolist()):
            outcome = t != 0
            if predict_update(pc, outcome) != outcome:
                mispredicts += 1
    return PredictorResult(
        predictor=predictor.name,
        trace=trace.name,
        branches=int(pcs.size),
        mispredicts=mispredicts,
        window_instructions=trace.window_instructions,
    )


def run_trace_batch(
    factory: Callable[[], BranchPredictor],
    traces: Iterable[BranchTrace],
    name: str | None = None,
) -> list[PredictorResult]:
    """Replay many traces through one predictor config, batched.

    Semantically identical to ``[run_trace(factory(), t) for t in
    traces]`` — each trace gets a fresh predictor, exactly the
    championship harness contract — but on the vectorized path all
    streams go through one :meth:`BranchPredictor.replay_batch` call,
    amortising kernel setup across cells.  ``name`` overrides the
    predictor's reported name (the CBP harness labels configurations).
    """
    trace_list = list(traces)
    for trace in trace_list:
        if len(trace) == 0:
            raise SimulationError(f"trace {trace.name!r} is empty")

    def fresh() -> BranchPredictor:
        predictor = factory()
        if name is not None and predictor.name != name:
            predictor.name = name
        return predictor

    if not kernels.vectorized_enabled() or len(trace_list) <= 1:
        return [run_trace(fresh(), trace) for trace in trace_list]
    predictor = fresh()
    counts = predictor.replay_batch(
        [trace.columns() for trace in trace_list]
    )
    return [
        PredictorResult(
            predictor=predictor.name,
            trace=trace.name,
            branches=len(trace),
            mispredicts=int(count),
            window_instructions=trace.window_instructions,
        )
        for trace, count in zip(trace_list, counts)
    ]
