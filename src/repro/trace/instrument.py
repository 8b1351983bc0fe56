"""The instrumentation layer: this reproduction's stand-in for Intel Pin.

A single :class:`Instrumenter` object is threaded through an encode.
Every codec kernel reports its work here, and the instrumenter builds
the three artifacts the paper's toolchain extracts from a real binary:

1. **Dynamic instruction counts by class** (Pin's instruction-mix tool
   → Table 2 / Fig. 3), charged via the kernel cost model.
2. **Branch activity** (Pin's trace tool → CBP figures): conditional
   *decision* branches are recorded event-by-event with stable synthetic
   PCs; *counted-loop* branches inside vectorised kernels are recorded
   as compressed :class:`~repro.trace.instruction.LoopSummary` entries
   (recording 1e11 individual iterations is as infeasible for us as it
   was for the paper's authors, who also traced a bounded interval).
3. **Memory touches** (→ cache simulation): rectangular plane regions,
   expanded to cache-line streams by the cache driver.

Branches and touches are held as whole columnar streams until the
encode returns, then measured offline (the paper's §4.4 method: Pin
captures the run, and a window from its middle is replayed).

Addresses are *native-footprint scaled*: the synthetic proxy videos are
smaller than the vbench originals, so registered planes advertise the
original pitch/height and proxy coordinates are scaled up when touches
are emitted.  The cache hierarchy therefore sees the data footprint of
the real workload (e.g. a 1080p reference frame does not fit in L2 but
does in a 30 MB LLC), which is what drives the paper's Fig. 6 trends.

The instrumenter also keeps a per-function flat profile (calls and
instructions), which :mod:`repro.profiling.gprof` formats — the role
GNU gprof plays in the paper.
"""

from __future__ import annotations

import hashlib
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import TraceError
from .costmodel import kernel_cost
from .instruction import CLASS_INDEX, InstrClass, InstructionCounts, LoopSummary

#: Cache-line size assumed by address generation.
LINE_BYTES = 64

#: Process-wide kernel-cost lookup cache (costs are immutable).
_KERNEL_CACHE: dict = {}

_BRANCH_INDEX = CLASS_INDEX[InstrClass.BRANCH]
_OTHER_INDEX = CLASS_INDEX[InstrClass.OTHER]


def site_pc(name: str) -> int:
    """Map a stable site name to a synthetic 48-bit code address.

    Real branch PCs cluster within functions; we mimic that by hashing
    the site's function prefix (up to the last dot) to a 4 KB-aligned
    "function base" and the full name to a small offset within it.
    Predictor index/tag behaviour then sees realistic locality.
    """
    prefix, _, _ = name.rpartition(".")
    base = int.from_bytes(
        hashlib.blake2b(prefix.encode(), digest_size=6).digest(), "little"
    ) & ~0xFFF
    offset = (zlib.crc32(name.encode()) & 0x3FF) << 2
    return base | offset


@dataclass
class FunctionProfile:
    """Flat-profile row: call count and instructions attributed."""

    calls: int = 0
    instructions: float = 0.0


class PlaneHandle:
    """Address-space registration of one pixel plane.

    Parameters
    ----------
    base:
        Base virtual address (line-aligned).
    pitch:
        Native row stride in bytes.
    scale_h, scale_w:
        Proxy-to-native coordinate scale factors.
    """

    __slots__ = ("base", "pitch", "scale_h", "scale_w")

    def __init__(self, base: int, pitch: int, scale_h: float, scale_w: float) -> None:
        self.base = base
        self.pitch = pitch
        self.scale_h = scale_h
        self.scale_w = scale_w


class Instrumenter:
    """Collects instruction, branch, memory and profile data for one run."""

    def __init__(self) -> None:
        self._counts = InstructionCounts()

        # Pending (lazily folded) kernel charges.  Per-kernel unit
        # totals are sums of dyadic rationals (pixel counts and
        # quarter/half multiples thereof), so every partial sum is
        # exact and the fold order cannot change the result; the dense
        # class-vector update then happens once per distinct kernel at
        # the next counts read instead of once per charge.
        self._pending_kernels: dict[str, float] = {}
        self._pending_fn: dict[str, dict[str, float]] = {}
        self._fn_pending_top: dict[str, float] | None = None
        self._counted_decisions = 0

        # Branch event stream (columnar for memory efficiency).
        self._branch_pcs = array("q")
        self._branch_taken = array("b")
        self.decision_branches = 0
        self.decision_taken = 0

        # Compressed loop-branch summaries keyed by (pc, trip_count),
        # and their object view, rebuilt only after the loops change.
        self._loops: dict[tuple[int, int], int] = {}
        self._loop_summaries_cache: list[LoopSummary] | None = None

        # Memory touch stream (columnar).
        self._touch_base = array("q")
        self._touch_rows = array("q")
        self._touch_rowbytes = array("q")
        self._touch_pitch = array("q")
        self._touch_write = array("b")
        self._touch_repeats = array("q")
        self.bytes_read = 0
        self.bytes_written = 0

        # Flat profile.
        self._functions: dict[str, FunctionProfile] = {}
        self._stack: list[str] = []

        # Address space.
        self._next_base = 0x10_0000  # skip a guard region
        self._site_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Address space
    # ------------------------------------------------------------------
    def register_plane(
        self,
        proxy_width: int,
        scale_h: float = 1.0,
        scale_w: float = 1.0,
    ) -> PlaneHandle:
        """Allocate address space for a plane and return its handle.

        ``proxy_width`` is the proxy plane's width in samples; the
        native pitch is ``proxy_width * scale_w`` rounded up to a whole
        number of cache lines.
        """
        if proxy_width <= 0:
            raise TraceError(f"plane width must be positive, got {proxy_width}")
        pitch = int(proxy_width * scale_w + LINE_BYTES - 1) // LINE_BYTES * LINE_BYTES
        handle = PlaneHandle(self._next_base, pitch, scale_h, scale_w)
        # Reserve generous native-height space; proxy heights stay <256.
        self._next_base += pitch * max(1, int(256 * scale_h) + 8)
        return handle

    # ------------------------------------------------------------------
    # Instruction charging
    # ------------------------------------------------------------------
    def kernel(self, name: str, units: float) -> None:
        """Charge ``units`` of work on kernel ``name``.

        Charges are accumulated as per-kernel unit totals and folded
        into the class vector lazily (see :meth:`_flush_counts`); the
        hot path is two dictionary accumulations.
        """
        if units < 0:
            raise TraceError(f"negative work units for kernel {name!r}")
        pend = self._pending_kernels
        if name in pend:
            pend[name] += units
        else:
            if name not in _KERNEL_CACHE:
                _KERNEL_CACHE[name] = kernel_cost(name)
            pend[name] = units
        fpend = self._fn_pending_top
        if fpend is not None:
            if name in fpend:
                fpend[name] += units
            else:
                fpend[name] = units

    def _flush_counts(self) -> None:
        """Fold pending kernel and branch charges into the class vector."""
        vec = self._counts.vec
        pend = self._pending_kernels
        if pend:
            for name, units in pend.items():
                vec += _KERNEL_CACHE[name].vector * units
            pend.clear()
        delta = self.decision_branches - self._counted_decisions
        if delta:
            vec[_BRANCH_INDEX] += delta
            vec[_OTHER_INDEX] += delta  # the compares feeding the branches
            self._counted_decisions = self.decision_branches

    def _flush_functions(self) -> None:
        """Fold pending per-function kernel units into the flat profile."""
        for fn, fpend in self._pending_fn.items():
            if fpend:
                self._functions[fn].instructions += sum(
                    _KERNEL_CACHE[name].per_unit_total * units
                    for name, units in fpend.items()
                )
                fpend.clear()

    @property
    def counts(self) -> InstructionCounts:
        """Dynamic-instruction counts by class (flushes pending charges)."""
        self._flush_counts()
        return self._counts

    @property
    def functions(self) -> dict[str, FunctionProfile]:
        """Flat profile by function name (flushes pending attribution)."""
        self._flush_functions()
        return self._functions

    @contextmanager
    def function(self, name: str) -> Iterator[None]:
        """Attribute kernel charges inside the block to ``name``."""
        profile = self._functions.setdefault(name, FunctionProfile())
        profile.calls += 1
        self._stack.append(name)
        parent_pending = self._fn_pending_top
        self._fn_pending_top = self._pending_fn.setdefault(name, {})
        try:
            yield
        finally:
            self._stack.pop()
            self._fn_pending_top = parent_pending

    # ------------------------------------------------------------------
    # Branch events
    # ------------------------------------------------------------------
    def site(self, name: str) -> int:
        """Intern a branch-site name, returning its synthetic PC."""
        pc = self._site_cache.get(name)
        if pc is None:
            pc = site_pc(name)
            self._site_cache[name] = pc
        return pc

    def branch(self, pc: int, taken: bool) -> None:
        """Record one decision-branch execution.

        Charges one branch instruction in addition to any kernel mix,
        since decision branches are the data-dependent ones on top of
        the bulk kernel code.  The class-vector update is deferred: the
        integer decision counter is folded in at the next counts read
        (integer adds are exact, so deferral cannot change the totals).
        """
        self.decision_branches += 1
        if taken:
            self.decision_taken += 1
        self._branch_pcs.append(pc)
        self._branch_taken.append(1 if taken else 0)

    def loop(self, pc: int, trip_count: int, invocations: int = 1) -> None:
        """Record a counted loop's backward branch in compressed form."""
        if trip_count < 1 or invocations < 1:
            raise TraceError("loop trip count and invocations must be >= 1")
        key = (pc, trip_count)
        self._loops[key] = self._loops.get(key, 0) + invocations
        self._loop_summaries_cache = None

    @property
    def loop_summaries(self) -> list[LoopSummary]:
        """All compressed loop-branch records (cached between loops).

        The view is rebuilt only after :meth:`loop` or :meth:`merge`
        invalidates it — repeated reads (the perf-counter pass reads it
        per collect) return the same list instead of rebuilding one
        object per record every time.
        """
        cache = self._loop_summaries_cache
        if cache is None:
            cache = [
                LoopSummary(pc=pc, trip_count=trip, invocations=n)
                for (pc, trip), n in self._loops.items()
            ]
            self._loop_summaries_cache = cache
        return cache

    @property
    def loop_branch_instructions(self) -> int:
        """Dynamic branch instructions represented by loop summaries.

        These are already included in kernel mixes as the kernels'
        branch share; the summaries exist for predictor modelling, so
        this count is informational.
        """
        return sum(
            trip * n for (_, trip), n in self._loops.items()
        )

    def branch_arrays(self) -> tuple[array, array]:
        """Raw columnar branch buffers ``(pcs, taken)`` (zero-copy)."""
        return self._branch_pcs, self._branch_taken

    # ------------------------------------------------------------------
    # Memory touches
    # ------------------------------------------------------------------
    def touch(
        self,
        plane: PlaneHandle,
        row: int,
        rows: int,
        col: int,
        cols: int,
        write: bool = False,
        repeats: int = 1,
    ) -> None:
        """Record a kernel's access to a rectangular plane region.

        Proxy coordinates are scaled to the native footprint here, so
        the cache simulator sees original-resolution addresses.
        """
        if rows <= 0 or cols <= 0:
            raise TraceError("touch extent must be positive")
        native_row = int(row * plane.scale_h)
        native_col = int(col * plane.scale_w)
        native_rows = max(1, int(rows * plane.scale_h))
        native_cols = max(1, int(cols * plane.scale_w))
        base = plane.base + native_row * plane.pitch + native_col
        nbytes = native_rows * native_cols * repeats
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes
        self._touch_base.append(base)
        self._touch_rows.append(native_rows)
        self._touch_rowbytes.append(native_cols)
        self._touch_pitch.append(plane.pitch)
        self._touch_write.append(1 if write else 0)
        self._touch_repeats.append(repeats)

    def touch_arrays(self) -> tuple[array, array, array, array, array, array]:
        """Raw columnar touch buffers (zero-copy)."""
        return (
            self._touch_base,
            self._touch_rows,
            self._touch_rowbytes,
            self._touch_pitch,
            self._touch_write,
            self._touch_repeats,
        )

    # ------------------------------------------------------------------
    # Summary properties
    # ------------------------------------------------------------------
    @property
    def total_instructions(self) -> float:
        """Total dynamic instructions charged so far."""
        self._flush_counts()
        return self._counts.total

    def merge(self, other: "Instrumenter") -> None:
        """Fold another instrumenter's data into this one.

        Used by the thread-scalability model, where per-task
        instrumenters are merged into a whole-encode view.
        """
        self._loop_summaries_cache = None
        self.counts.merge(other.counts)
        self.decision_branches += other.decision_branches
        self.decision_taken += other.decision_taken
        self._branch_pcs.extend(other._branch_pcs)
        self._branch_taken.extend(other._branch_taken)
        for key, n in other._loops.items():
            self._loops[key] = self._loops.get(key, 0) + n
        self._touch_base.extend(other._touch_base)
        self._touch_rows.extend(other._touch_rows)
        self._touch_rowbytes.extend(other._touch_rowbytes)
        self._touch_pitch.extend(other._touch_pitch)
        self._touch_write.extend(other._touch_write)
        self._touch_repeats.extend(other._touch_repeats)
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self._flush_functions()
        for name, prof in other.functions.items():
            mine = self._functions.setdefault(name, FunctionProfile())
            mine.calls += prof.calls
            mine.instructions += prof.instructions
