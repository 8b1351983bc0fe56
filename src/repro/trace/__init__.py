"""Instrumentation and trace artifacts (the Pin substitute).

See :mod:`repro.trace.instrument` for the architecture of the layer and
DESIGN.md §2 for how it substitutes for Intel Pin in the paper's
toolchain.
"""

from .branchtrace import BranchTrace
from .costmodel import KERNEL_COSTS, KernelCost, kernel_cost
from .instruction import (
    MIX_ORDER,
    BranchEvent,
    InstrClass,
    InstructionCounts,
    LoopSummary,
)
from .instrument import (
    LINE_BYTES,
    FunctionProfile,
    Instrumenter,
    PlaneHandle,
    site_pc,
)
from .sampling import extract_midpoint_window

__all__ = [
    "BranchEvent",
    "BranchTrace",
    "FunctionProfile",
    "InstrClass",
    "InstructionCounts",
    "Instrumenter",
    "KERNEL_COSTS",
    "KernelCost",
    "LINE_BYTES",
    "LoopSummary",
    "MIX_ORDER",
    "PlaneHandle",
    "extract_midpoint_window",
    "kernel_cost",
    "site_pc",
]
