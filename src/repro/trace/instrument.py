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
from typing import Callable, Iterator

import numpy as np

from .. import kernels
from ..errors import TraceError
from .costmodel import kernel_cost
from .instruction import (
    CLASS_INDEX,
    BranchEvent,
    InstrClass,
    InstructionCounts,
    LoopSummary,
    MemoryTouch,
)

#: Cache-line size assumed by address generation.
LINE_BYTES = 64

#: A branch-stream consumer: receives one flushed chunk as columnar
#: ``(pcs int64, taken int8)`` arrays in program order.
BranchSink = Callable[[np.ndarray, np.ndarray], None]

#: A touch-stream consumer: receives one flushed chunk as the six
#: columnar touch arrays ``(base, rows, row_bytes, pitch, write,
#: repeats)`` in program order.
TouchSink = Callable[
    [np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    None,
]

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
    """Collects instruction, branch, memory and profile data for one run.

    Parameters
    ----------
    record_branches:
        When false, decision-branch events are counted but not buffered
        (cheaper; used by bulk sweeps that only need counts).
    record_touches:
        When false, memory touches are aggregated into byte counters
        only.
    """

    def __init__(
        self,
        record_branches: bool = True,
        record_touches: bool = True,
    ) -> None:
        self._counts = InstructionCounts()
        self.record_branches = record_branches
        self.record_touches = record_touches

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

        # Streaming sink mode: registered consumers receive bounded
        # chunks and the buffers are surrendered at each flush, so the
        # event buffers hold O(window) events instead of O(events);
        # what a sink allocates per chunk is its own bound.  Once any
        # events have been flushed the whole-stream accessors raise —
        # the instrumenter no longer holds the complete stream.
        self._branch_sinks: list[BranchSink] = []
        self._touch_sinks: list[TouchSink] = []
        self._branch_window = 0
        self._touch_window = 0
        self._branches_flushed = 0
        self._touches_flushed = 0

        # Cached object views (satellite of the columnar design: the
        # deprecated per-event accessors used to rebuild full Python
        # object lists on every read).
        self._branch_events_cache: list[BranchEvent] | None = None
        self._touches_cache: list[MemoryTouch] | None = None
        self._loop_summaries_cache: list[LoopSummary] | None = None

        # Compressed loop-branch summaries keyed by (pc, trip_count).
        self._loops: dict[tuple[int, int], int] = {}

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
    # Streaming sinks
    # ------------------------------------------------------------------
    def register_branch_sink(
        self, sink: BranchSink, window: int | None = None
    ) -> None:
        """Stream branch chunks to ``sink(pcs, taken)`` as they fill.

        ``window`` is the flush threshold in events; ``None`` resolves
        :func:`repro.kernels.stream_chunk_events` (``REPRO_REPLAY_CHUNK``)
        at registration time, and ``0`` flushes only at
        :meth:`flush_stream`.  Registering a sink switches the branch
        stream to streaming mode: buffers are surrendered at each
        flush, so :meth:`branch_events` / :meth:`branch_arrays` raise
        once anything has been flushed.
        """
        if not self.record_branches:
            raise TraceError(
                "cannot register a branch sink with record_branches=False: "
                "no branch events are buffered to stream"
            )
        if self._branches_flushed:
            raise TraceError(
                "cannot register a branch sink after events were flushed; "
                "earlier chunks would be missing from the new consumer"
            )
        self._branch_sinks.append(sink)
        self._branch_window = (
            kernels.stream_chunk_events() if window is None else max(int(window), 0)
        )

    def register_touch_sink(
        self, sink: TouchSink, window: int | None = None
    ) -> None:
        """Stream touch chunks to ``sink(*columns)`` as they fill.

        Same contract as :meth:`register_branch_sink`, over the six
        columnar touch arrays.
        """
        if not self.record_touches:
            raise TraceError(
                "cannot register a touch sink with record_touches=False: "
                "no memory touches are buffered to stream"
            )
        if self._touches_flushed:
            raise TraceError(
                "cannot register a touch sink after touches were flushed; "
                "earlier chunks would be missing from the new consumer"
            )
        self._touch_sinks.append(sink)
        self._touch_window = (
            kernels.stream_chunk_events() if window is None else max(int(window), 0)
        )

    @property
    def streaming(self) -> bool:
        """True when any streaming sink is registered."""
        return bool(self._branch_sinks or self._touch_sinks)

    def _flush_branch_chunk(self) -> None:
        count = len(self._branch_pcs)
        if not count:
            return
        # Views, not copies: the buffers are replaced right below, so
        # the sinks get the only remaining reference to them.
        pcs = np.frombuffer(self._branch_pcs, dtype=np.int64)
        taken = np.frombuffer(self._branch_taken, dtype=np.int8)
        self._branch_pcs = array("q")
        self._branch_taken = array("b")
        self._branches_flushed += count
        self._branch_events_cache = None
        for sink in self._branch_sinks:
            sink(pcs, taken)

    def _flush_touch_chunk(self) -> None:
        count = len(self._touch_base)
        if not count:
            return
        columns = (  # views, as in _flush_branch_chunk
            np.frombuffer(self._touch_base, dtype=np.int64),
            np.frombuffer(self._touch_rows, dtype=np.int64),
            np.frombuffer(self._touch_rowbytes, dtype=np.int64),
            np.frombuffer(self._touch_pitch, dtype=np.int64),
            np.frombuffer(self._touch_write, dtype=np.int8),
            np.frombuffer(self._touch_repeats, dtype=np.int64),
        )
        self._touch_base = array("q")
        self._touch_rows = array("q")
        self._touch_rowbytes = array("q")
        self._touch_pitch = array("q")
        self._touch_write = array("b")
        self._touch_repeats = array("q")
        self._touches_flushed += count
        self._touches_cache = None
        for sink in self._touch_sinks:
            sink(*columns)

    def flush_stream(self) -> None:
        """Flush any buffered partial chunks to the registered sinks.

        Call once at end of capture; flushing with no sinks registered
        is a no-op, so callers need not track the mode themselves.
        """
        if self._branch_sinks:
            self._flush_branch_chunk()
        if self._touch_sinks:
            self._flush_touch_chunk()

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
        if self.record_branches:
            self._branch_pcs.append(pc)
            self._branch_taken.append(1 if taken else 0)
            if (
                self._branch_window
                and len(self._branch_pcs) >= self._branch_window
            ):
                self._flush_branch_chunk()

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

    def _require_whole_branch_stream(self) -> None:
        if self._branches_flushed:
            raise TraceError(
                "branch stream was flushed to registered sinks; the "
                "instrumenter no longer holds the whole stream — consume "
                "it through a branch sink instead"
            )

    def branch_events(self) -> list[BranchEvent]:
        """Decision-branch events in program order.

        .. deprecated:: prefer :meth:`branch_arrays` (or a registered
           branch sink) — the columnar form is what every replay kernel
           consumes.  This per-event object view is kept for existing
           callers and built at most once per stream state.
        """
        self._require_whole_branch_stream()
        cache = self._branch_events_cache
        if cache is None or len(cache) != len(self._branch_pcs):
            cache = [
                BranchEvent(pc=pc, taken=bool(taken))
                for pc, taken in zip(self._branch_pcs, self._branch_taken)
            ]
            self._branch_events_cache = cache
        return cache

    def branch_arrays(self) -> tuple[array, array]:
        """Raw columnar branch buffers ``(pcs, taken)`` (zero-copy)."""
        self._require_whole_branch_stream()
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
        if not self.record_touches:
            return
        self._touch_base.append(base)
        self._touch_rows.append(native_rows)
        self._touch_rowbytes.append(native_cols)
        self._touch_pitch.append(plane.pitch)
        self._touch_write.append(1 if write else 0)
        self._touch_repeats.append(repeats)
        if self._touch_window and len(self._touch_base) >= self._touch_window:
            self._flush_touch_chunk()

    def _require_whole_touch_stream(self) -> None:
        if self._touches_flushed:
            raise TraceError(
                "touch stream was flushed to registered sinks; the "
                "instrumenter no longer holds the whole stream — consume "
                "it through a touch sink instead"
            )

    def touches(self) -> list[MemoryTouch]:
        """Memory touches in program order.

        .. deprecated:: prefer :meth:`touch_arrays` (or a registered
           touch sink) — the cache driver consumes the columns
           directly.  This per-event object view is kept for existing
           callers and built at most once per stream state.
        """
        self._require_whole_touch_stream()
        cache = self._touches_cache
        if cache is not None and len(cache) == len(self._touch_base):
            return cache
        cache = [
            MemoryTouch(
                base_addr=base,
                rows=rows,
                row_bytes=row_bytes,
                pitch=pitch,
                is_write=bool(write),
                repeats=repeats,
            )
            for base, rows, row_bytes, pitch, write, repeats in zip(
                self._touch_base,
                self._touch_rows,
                self._touch_rowbytes,
                self._touch_pitch,
                self._touch_write,
                self._touch_repeats,
            )
        ]
        self._touches_cache = cache
        return cache

    def touch_arrays(self) -> tuple[array, array, array, array, array, array]:
        """Raw columnar touch buffers (zero-copy)."""
        self._require_whole_touch_stream()
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
        if self.streaming or other.streaming:
            raise TraceError(
                "cannot merge streaming instrumenters: flushed chunks "
                "are owned by their sinks, not the instrumenter"
            )
        self._branch_events_cache = None
        self._touches_cache = None
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
