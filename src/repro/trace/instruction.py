"""Instruction classes and trace records.

The paper's Table 2 and Fig. 3 break dynamic instructions into six
classes — branch, load, store, AVX, SSE and "other" — as reported by a
Pin instruction-mix tool.  This module defines that classification plus
the event records the instrumentation layer emits for the downstream
branch-prediction and cache simulators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class InstrClass(enum.Enum):
    """Dynamic-instruction classes used by the paper's mix analysis."""

    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"
    AVX = "avx"
    SSE = "sse"
    OTHER = "other"


#: Fixed ordering used by reports (matches Table 2 column order).
MIX_ORDER: tuple[InstrClass, ...] = (
    InstrClass.BRANCH,
    InstrClass.LOAD,
    InstrClass.STORE,
    InstrClass.AVX,
    InstrClass.SSE,
    InstrClass.OTHER,
)


#: Stable index of each class into the counts vector.
CLASS_INDEX: dict[InstrClass, int] = {
    cls: index for index, cls in enumerate(InstrClass)
}


class InstructionCounts:
    """Accumulated dynamic-instruction counts by class.

    Backed by a dense float vector (indexed by :data:`CLASS_INDEX`) so
    the hot charging path in the instrumenter is a single vectorised
    add.
    """

    __slots__ = ("vec",)

    def __init__(self) -> None:
        self.vec = np.zeros(len(InstrClass), dtype=np.float64)

    @property
    def counts(self) -> dict[InstrClass, float]:
        """Counts as a class-keyed dictionary (reporting convenience)."""
        return {cls: float(self.vec[i]) for cls, i in CLASS_INDEX.items()}

    def add(self, cls: InstrClass, amount: float) -> None:
        """Charge ``amount`` dynamic instructions of class ``cls``."""
        self.vec[CLASS_INDEX[cls]] += amount

    def merge(self, other: "InstructionCounts") -> None:
        """Accumulate another counter set into this one."""
        self.vec += other.vec

    @property
    def total(self) -> float:
        """Total dynamic instructions across all classes."""
        return float(self.vec.sum())

    def fraction(self, cls: InstrClass) -> float:
        """Share of ``cls`` in the total mix (0 when empty)."""
        total = self.total
        return float(self.vec[CLASS_INDEX[cls]]) / total if total else 0.0

    def mix_percent(self) -> dict[str, float]:
        """Mix as percentages keyed by class name, in Table-2 order."""
        return {cls.value: 100.0 * self.fraction(cls) for cls in MIX_ORDER}

    def scaled(self, factor: float) -> "InstructionCounts":
        """Return a copy with every class count multiplied by ``factor``."""
        out = InstructionCounts()
        out.vec = self.vec * factor
        return out


@dataclass(frozen=True)
class BranchEvent:
    """One conditional-branch execution, as Pin would record it.

    Parameters
    ----------
    pc:
        Static branch site address (synthetic but stable per site).
    taken:
        Dynamic outcome.
    target:
        Branch target address (used by BTB models; optional).
    """

    pc: int
    taken: bool
    target: int = 0


@dataclass(frozen=True)
class LoopSummary:
    """Compressed record of a counted-loop branch.

    Vectorised kernels execute counted loops whose backward branch is
    taken ``trip_count - 1`` times and then falls through, once per
    invocation.  Recording each iteration individually is infeasible at
    the instruction volumes the paper measures (1e11+), so the
    instrumenter stores one summary per (site, trip-count) pair and the
    predictor models consume it analytically (see
    :mod:`repro.uarch.branch.loopmodel`).
    """

    pc: int
    trip_count: int
    invocations: int

    @property
    def dynamic_branches(self) -> int:
        """Total dynamic branch instructions the summary represents."""
        return self.trip_count * self.invocations

