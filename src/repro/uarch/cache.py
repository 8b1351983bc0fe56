"""Set-associative cache hierarchy simulator.

Models the Xeon E5-2650 v4 data-side hierarchy the paper profiles:
32 KB 8-way L1D, 256 KB 8-way L2, and a 30 MB 20-way shared LLC
(§3.1), with true LRU replacement and 64-byte lines.

The simulator is trace-driven from the instrumentation layer's memory
touches.  Two standard techniques keep simulation tractable at the
traffic volumes an encode generates:

- **Touches, not loads**: kernels declare the rectangular plane regions
  they stream over; the driver expands these to cache-line addresses
  (one access per line per touch), which is exactly the line-granular
  traffic an LRU cache observes from a streaming kernel.
- **Set sampling**: only lines mapping to a deterministic 1-in-N subset
  of sets are simulated, and miss counts are scaled by N.  Set sampling
  is the classic approach for long traces (used by e.g. Intel's CMPSim
  and many papers); sampled sets behave statistically like the whole
  cache.  ``sample_period=1`` disables it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import kernels
from ..errors import SimulationError
from ..trace.instrument import LINE_BYTES, Instrumenter


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise SimulationError(f"{self.name}: invalid cache geometry")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise SimulationError(
                f"{self.name}: size must be a multiple of ways*line"
            )

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.ways * self.line_bytes)


#: Element visits per step of the classifier's exact pass, at most: a
#: step scans up to ``_EXACT_STEP // active`` positions (at least one)
#: of every active reuse window, so a few long windows cost a few
#: Python iterations, not one per position.
_EXACT_STEP = 1 << 16


def _resolve_residuals(
    prev: np.ndarray,
    link_src: np.ndarray,
    link_dst: np.ndarray,
    unresolved: np.ndarray,
    capacity: int,
    hit: np.ndarray,
) -> None:
    """Classify the accesses a reuse gap alone cannot; mark the hits.

    Access ``i`` hits iff fewer than ``capacity`` distinct tags occur
    in its window ``[lo, i)``, ``lo = prev[i] + 1``.  For any anchor
    ``lo <= a <= i`` that count is the tail's, ``[a, i)``, plus the
    head positions ``j`` in ``[lo, a)`` whose next same-tag access is
    at or after ``i`` (head tags the tail does not repeat).

    With checkpoints every ``delta`` positions (the smallest power of
    two ``>= capacity``), a tail anchored at ``i``'s block start, or
    one block earlier, has as many distinct tags as positions ``j`` in
    it with ``prev[j] < a`` — and ``a`` is ``j``'s own block start, or
    one block before it, for every ``j`` — so two prefix sums over
    block-aligned indicators count every such tail.  Each access takes
    the earliest anchor its window reaches, and a tail of ``capacity``
    or more distinct tags proves a miss outright.

    The remaining heads are scanned exactly, longest first: the heads
    still scanning are a prefix that shrinks as heads end, each step
    scans as many positions as the shortest of them has left (within
    :data:`_EXACT_STEP` visits), and an access drops out as a proven
    miss once its count reaches ``capacity``.
    """
    n = prev.size
    delta = 1 << (capacity - 1).bit_length()
    blockstart = np.arange(n, dtype=prev.dtype) & -delta
    own = np.zeros(n + 1, dtype=prev.dtype)
    np.cumsum(prev < blockstart, out=own[1:])
    blockstart -= delta
    far = prev < blockstart  # the window covers the previous block
    prior = np.zeros(n + 1, dtype=prev.dtype)
    np.cumsum(far, out=prior[1:])
    # Distinct tags in [start - delta, i) for every i in a block: a
    # per-block constant plus prior[i].
    marks = own[:n:delta]
    per_block = marks - prior[:n:delta]
    per_block[1:] -= marks[:-1]
    two_block = np.repeat(per_block, delta)[:n]
    two_block += prior[:n]
    unresolved &= ~(far & (two_block >= capacity))
    residual = np.flatnonzero(unresolved)
    if not residual.size:
        return
    lo = prev[residual] + 1
    start = residual & -delta
    anchor = np.where(lo <= start, start, residual)
    tail = own[residual] - own[anchor]
    wide = far[residual]
    anchor[wide] -= delta
    tail[wide] = two_block[residual[wide]]
    pending = tail < capacity
    active, anchor = residual[pending], anchor[pending]
    count, span = tail[pending], anchor - lo[pending]
    order = np.argsort(span)[::-1]
    active, anchor, span, count = (
        active[order], anchor[order], span[order], count[order]
    )
    following = np.full(n, n, dtype=prev.dtype)
    following[link_src] = link_dst
    # Every active head has been scanned `scanned` positions back from
    # its anchor; `cursor` is the last position read.
    cursor = anchor
    scanned = 0
    while active.size:
        alive = active.size - int(np.searchsorted(span[::-1], scanned + 1))
        if alive < active.size:
            hit[active[alive:]] = True  # whole head seen, < capacity
            active, cursor = active[:alive], cursor[:alive]
            span, count = span[:alive], count[:alive]
            if not alive:
                break
        width = min(int(span[-1]) - scanned, max(1, _EXACT_STEP // alive))
        steps = np.arange(1, width + 1, dtype=cursor.dtype)[:, None]
        count += np.count_nonzero(following[cursor - steps] >= active, axis=0)
        cursor -= width
        scanned += width
        missed = count >= capacity
        if missed.any():
            keep = ~missed
            active, cursor = active[keep], cursor[keep]
            span, count = span[keep], count[keep]


class Cache:
    """One set-associative LRU cache level.

    Accesses take *line indices* (byte address / line size, so never
    negative).  Returns hit/miss; the hierarchy wires levels together.

    The recency state is held in whichever layout the last path used:
    per-set MRU-first lists for the scalar walks (:meth:`access`, the
    reference :meth:`access_batch`), or one dense ``(num_sets, ways)``
    table, MRU first with ``-1`` in empty ways, for the vectorized
    classifier.  Switching paths converts once; :meth:`contents` reads
    either.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        if config.num_sets & (config.num_sets - 1):
            raise SimulationError(
                f"{config.name}: set count must be a power of two"
            )
        self._set_mask = config.num_sets - 1
        self._set_bits = config.num_sets.bit_length() - 1
        # Exactly one of the two layouts is live (neither while empty).
        self._sets: list[list[int]] | None = None
        self._table: np.ndarray | None = None
        self.accesses = 0
        self.misses = 0

    def contents(self) -> list[list[int]]:
        """Each set's resident tags, most recently used first."""
        if self._table is not None:
            return [
                [tag for tag in row if tag >= 0]
                for row in self._table.tolist()
            ]
        if self._sets is None:
            return [[] for _ in range(self.config.num_sets)]
        return [list(tags) for tags in self._sets]

    def _list_state(self) -> list[list[int]]:
        """The per-set lists, converted from the table on a path switch."""
        if self._sets is None:
            self._sets = self.contents()
            self._table = None
        return self._sets

    def _table_state(self) -> np.ndarray:
        """The dense table, converted from the lists on a path switch."""
        if self._table is None:
            table = np.full(
                (self.config.num_sets, self.config.ways), -1, dtype=np.int64
            )
            for index, tags in enumerate(self._sets or ()):
                table[index, : len(tags)] = tags
            self._table = table
            self._sets = None
        return self._table

    def access(self, line: int) -> bool:
        """Access one line; returns True on hit.  Allocates on miss."""
        self.accesses += 1
        sets = self._sets
        if sets is None:
            sets = self._list_state()
        tag = line  # the full line index uniquely identifies the block
        ways = sets[line & self._set_mask]
        try:
            pos = ways.index(tag)
        except ValueError:
            self.misses += 1
            ways.insert(0, tag)
            if len(ways) > self.config.ways:
                ways.pop()
            return False
        if pos:
            ways.pop(pos)
            ways.insert(0, tag)
        return True

    def access_batch(self, lines: np.ndarray) -> np.ndarray:
        """Access ``lines`` in stream order; returns the miss subset.

        Equivalent to calling :meth:`access` per element.  The
        returned misses preserve stream order, which is what lets the
        hierarchy cascade a batch level-by-level with identical stats.

        The scalar reference walks the per-set lists with the set
        indices precomputed in one vector op and the batch converted
        to native ints up front.  On the vectorized-kernels path the
        stack-distance classifier (:meth:`_access_batch_fast`) replaces
        the walk; hits, misses and final contents are identical
        (DESIGN.md "Kernel architecture").
        """
        if kernels.vectorized_enabled():
            return self._access_batch_fast(lines)
        count = int(lines.size)
        self.accesses += count
        if not count:
            return lines
        if int(lines.min()) < 0:
            raise SimulationError(f"{self.config.name}: negative line index")
        indices = (lines & self._set_mask).tolist()
        tags = lines.tolist()
        sets = self._list_state()
        capacity = self.config.ways
        miss_positions: list[int] = []
        record_miss = miss_positions.append
        for position in range(count):
            ways = sets[indices[position]]
            tag = tags[position]
            try:
                pos = ways.index(tag)
            except ValueError:
                record_miss(position)
                ways.insert(0, tag)
                if len(ways) > capacity:
                    ways.pop()
                continue
            if pos:
                ways.pop(pos)
                ways.insert(0, tag)
        self.misses += len(miss_positions)
        return lines[miss_positions]

    def _access_batch_fast(self, lines: np.ndarray) -> np.ndarray:
        """Stack-distance LRU classification: no sequential walk at all.

        Under true LRU an access hits iff fewer than ``ways`` distinct
        tags touched its set since the tag's previous access (its stack
        distance), and the final contents of a set are exactly the
        ``ways`` most recently used distinct tags — so both outcomes
        and state are pure functions of the access history and every
        access can be classified independently, in vector form:

        1. gather the contents of every set the batch touches from the
           dense table and place them, LRU first, ahead of that set's
           accesses: one stable argsort of uint16 set keys (a radix
           sort) over the warm prefix followed by the batch, so warm
           state participates in distances;
        2. link each access to its previous same-tag occurrence.  The
           stream is now set-major, so one stable argsort of the tag
           bits above the set index puts equal tags side by side in
           stream order; it is a uint16 radix sort when their span
           fits in 16 bits, and a full-tag sort otherwise;
        3. classify: a reuse gap ``<= ways`` is a guaranteed hit;
           :func:`_resolve_residuals` settles every other reuse, proving
           most misses from checkpoint prefix sums and counting the
           rest exactly, each scan sized to its own reuse window;
        4. write each touched set's ``ways`` most recent distinct tags
           back to the table with one scatter.

        Hits, misses, stream-ordered miss traffic and final contents
        are bit-identical to the scalar walk (DESIGN.md "Kernel
        architecture"); a randomized invariant pins this.
        """
        count = int(lines.size)
        self.accesses += count
        if not count:
            return lines
        capacity = self.config.ways
        set_bits = self._set_bits
        low, high = int(lines.min()), int(lines.max())
        if low < 0:
            raise SimulationError(f"{self.config.name}: negative line index")
        table = self._table_state()
        idx = lines & self._set_mask
        touched = np.zeros(self.config.num_sets, dtype=bool)
        touched[idx] = True
        live = np.flatnonzero(touched)
        # Warm prefix: each touched set's resident tags, LRU first.
        rows = table[live, ::-1]
        resident = rows >= 0
        warm = rows[resident]
        n_warm = int(warm.size)
        if n_warm:
            low = min(low, int(warm.min()))
            high = max(high, int(warm.max()))
        # 32-bit tags and positions when everything fits: every
        # elementwise op after this moves half the memory.
        narrow = high < 2**31 and count + n_warm < 2**31
        posdtype = np.int32 if narrow else np.int64
        tags = np.concatenate((warm, lines), dtype=posdtype)
        set_keys = np.concatenate(
            (np.repeat(live, resident.sum(axis=1)), idx),
            dtype=np.uint16 if self._set_mask < 2**16 else np.int64,
            casting="unsafe",
        )
        order = np.argsort(set_keys, kind="stable")
        st = tags[order]
        # Run collapse: an access repeating the immediately preceding
        # access to the same set (or its set's MRU tag) is a guaranteed
        # hit with no state effect and no downstream traffic —
        # droppable exactly (a tag determines its set, so equal
        # adjacent tags are the same set, and warm tags are distinct).
        keep = np.empty(st.size, dtype=bool)
        keep[0] = True
        np.not_equal(st[1:], st[:-1], out=keep[1:])
        if not keep.all():
            st = st[keep]
            order = order[keep]
        n = int(st.size)
        # Previous same-tag occurrence (or -1).
        key_base = low >> set_bits
        if (high >> set_bits) - key_base < 2**16:
            # Subtracting modulo 2**16 is exact: the span fits.
            tag_keys = np.subtract(
                st >> set_bits, key_base & 0xFFFF,
                dtype=np.uint16, casting="unsafe",
            )
            to = np.argsort(tag_keys, kind="stable")
        else:
            to = np.argsort(st, kind="stable")
        t_sorted = st[to]
        same = t_sorted[1:] == t_sorted[:-1]
        link_src = to[:-1][same]
        link_dst = to[1:][same]
        prev = np.full(n, -1, dtype=posdtype)
        prev[link_dst] = link_src
        gap = np.arange(n, dtype=posdtype)
        gap -= prev
        seen = prev >= 0
        hit = gap <= capacity
        hit &= seen
        unresolved = seen & ~hit
        if unresolved.any():
            _resolve_residuals(
                prev, link_src, link_dst, unresolved, capacity, hit
            )
        # Misses of real accesses, restored to stream order by scatter.
        source = order[~hit]
        source = source[source >= n_warm]
        source -= n_warm
        miss_flags = np.zeros(count, dtype=bool)
        miss_flags[source] = True
        miss_positions = np.flatnonzero(miss_flags)
        self.misses += int(miss_positions.size)
        # Final contents: per set, the `capacity` most recently used
        # distinct tags, MRU first — each tag's last occurrence, ranked
        # from the end of its set's run.
        last = np.ones(n, dtype=bool)
        last[link_src] = False
        last_pos = np.flatnonzero(last)
        last_tags = st[last_pos]
        last_sets = last_tags & self._set_mask
        run_end = np.empty(last_pos.size, dtype=bool)
        run_end[-1] = True
        np.not_equal(last_sets[1:], last_sets[:-1], out=run_end[:-1])
        ends = np.flatnonzero(run_end)
        rank = np.repeat(ends, np.diff(ends, prepend=-1))
        rank -= np.arange(last_pos.size)
        newest = rank < capacity
        slot = last_sets * capacity + rank  # flat index into the table
        np.put(table, slot[newest], last_tags[newest])
        return lines[miss_positions]

    @property
    def miss_rate(self) -> float:
        """Misses per access (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        """Zero the counters without flushing contents."""
        self.accesses = 0
        self.misses = 0


#: The paper's Xeon E5-2650 v4 data-side hierarchy (§3.1).
XEON_L1D = CacheConfig("L1D", 32 * 1024, 8)
XEON_L2 = CacheConfig("L2", 256 * 1024, 8)
XEON_LLC = CacheConfig("LLC", 30 * 1024 * 1024, 20)


def _round_llc(config: CacheConfig) -> CacheConfig:
    """LLC set counts aren't powers of two on real parts; round ours down."""
    sets = config.num_sets
    rounded = sets if sets & (sets - 1) == 0 else 1 << sets.bit_length() - 1
    return CacheConfig(
        config.name,
        rounded * config.ways * config.line_bytes,
        config.ways,
        config.line_bytes,
    )


#: Lines per step of :meth:`CacheHierarchy.access_lines`.  On captured
#: 4K-footprint streams on a 2-vCPU Xeon host, 64k-line steps ran the
#: three-level cascade 10-15 % faster than 256k-line ones (the
#: classifier's temporaries stay cache-resident); 32k-line steps, and
#: batching the LLC's input coarser than the upper levels', were slower.
CASCADE_WINDOW = 1 << 16


def _cascade_window() -> int:
    """Lines per cascade step, capped by the streaming window if set."""
    bound = kernels.stream_chunk_events()
    return min(bound, CASCADE_WINDOW) if bound else CASCADE_WINDOW


@dataclass
class HierarchyStats:
    """Per-level access/miss counts (scaled back up when sampling)."""

    l1d_accesses: float = 0.0
    l1d_misses: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    llc_accesses: float = 0.0
    llc_misses: float = 0.0

    def mpki(self, kilo_instructions: float) -> dict[str, float]:
        """Misses per kilo-instruction for each level."""
        if kilo_instructions <= 0:
            raise SimulationError("kilo_instructions must be positive")
        return {
            "l1d": self.l1d_misses / kilo_instructions,
            "l2": self.l2_misses / kilo_instructions,
            "llc": self.llc_misses / kilo_instructions,
        }


class CacheHierarchy:
    """Three-level data hierarchy with miss cascading.

    Parameters
    ----------
    l1d, l2, llc:
        Level geometries; defaults are the paper's Xeon.
    sample_period:
        Simulate only sets whose low index bits are zero modulo this
        power of two, scaling counts back up.
    """

    def __init__(
        self,
        l1d: CacheConfig = XEON_L1D,
        l2: CacheConfig = XEON_L2,
        llc: CacheConfig = XEON_LLC,
        sample_period: int = 8,
    ) -> None:
        if sample_period < 1 or sample_period & (sample_period - 1):
            raise SimulationError("sample_period must be a power of two")
        self.sample_period = sample_period
        self.l1d = Cache(l1d)
        self.l2 = Cache(l2)
        self.llc = Cache(_round_llc(llc))

    def access_line(self, line: int) -> None:
        """Send one line access down the hierarchy."""
        if not self.l1d.access(line):
            if not self.l2.access(line):
                self.llc.access(line)

    def access_lines(self, lines: np.ndarray) -> None:
        """Send a batch of sampled line addresses down the hierarchy.

        Cascades whole levels instead of whole lines: L1D filters the
        stream, only its (order-preserved) misses reach L2, and only
        L2's misses reach the LLC.  Each level therefore observes
        exactly the access subsequence it would have seen under the
        per-line cascade of :meth:`access_line`, so every hit/miss
        decision — and thus :meth:`stats` — is identical.

        The stream cascades in windows of at most
        :data:`CASCADE_WINDOW` lines, further bounded by
        :func:`repro.kernels.stream_chunk_events` when that is set, so
        the classifier's temporaries stay O(window) at production frame
        counts.  Exact by construction: :meth:`Cache.access_batch`
        carries the warm per-set state between successive batches, so
        N windows are the same computation as one.
        """
        stream = np.ascontiguousarray(lines)
        if stream.dtype != np.int32:
            stream = stream.astype(np.int64, copy=False)
        window = _cascade_window()
        for start in range(0, int(stream.size), window):
            self._cascade(stream[start : start + window])

    def access_touches(
        self,
        bases: np.ndarray,
        rows: np.ndarray,
        row_bytes: np.ndarray,
        pitches: np.ndarray,
        repeats: np.ndarray,
    ) -> int:
        """Expand columnar touches and cascade their sampled lines.

        The same computation as ``access_lines(expand_touch_columns(...))``
        with this hierarchy's sample period, cascade windows included,
        without ever holding the whole line stream.  Touches expand in
        consecutive groups of whole touches whose rows total at most one
        cascade window (a taller touch is a group of its own; a touch
        is never split, so ``repeats`` still tiles its whole block).
        Each group's lines feed the cascade in full windows, and the
        partial tail is carried into the next group's first window, so
        windows fall at the positions :meth:`access_lines` would cut.
        Expansion temporaries are therefore bounded by one group's rows
        and its lines, plus a carried tail of under one window.

        Returns the number of sampled lines cascaded.
        """
        window = _cascade_window()
        columns = [
            np.asarray(column, dtype=np.int64)
            for column in (bases, rows, row_bytes, pitches, repeats)
        ]
        row_ends = np.cumsum(columns[1])
        count = int(row_ends.size)
        total = 0
        tail = np.empty(0, dtype=np.int32)  # fewer than `window` lines
        start = 0
        while start < count:
            done = int(row_ends[start - 1]) if start else 0
            stop = int(np.searchsorted(row_ends, done + window, side="right"))
            stop = max(stop, start + 1)
            lines = expand_touch_columns(
                *(column[start:stop] for column in columns),
                sample_period=self.sample_period,
            )
            start = stop
            total += int(lines.size)
            if tail.size:
                fill = window - int(tail.size)
                head = np.concatenate((tail, lines[:fill]))
                lines = lines[fill:]
                if head.size < window:
                    tail = head
                    continue
                self._cascade(head)
            full = int(lines.size) - int(lines.size) % window
            for offset in range(0, full, window):
                self._cascade(lines[offset : offset + window])
            tail = lines[full:].copy()
        if tail.size:
            self._cascade(tail)
        return total

    def _cascade(self, lines: np.ndarray) -> None:
        """One window through L1D; its misses through L2, then the LLC."""
        self.llc.access_batch(self.l2.access_batch(self.l1d.access_batch(lines)))

    def stats(self) -> HierarchyStats:
        """Sampled-and-rescaled access/miss counts."""
        scale = float(self.sample_period)
        return HierarchyStats(
            l1d_accesses=self.l1d.accesses * scale,
            l1d_misses=self.l1d.misses * scale,
            l2_accesses=self.l2.accesses * scale,
            l2_misses=self.l2.misses * scale,
            llc_accesses=self.llc.accesses * scale,
            llc_misses=self.llc.misses * scale,
        )


def expand_touch_columns(
    bases: np.ndarray,
    rows: np.ndarray,
    row_bytes: np.ndarray,
    pitches: np.ndarray,
    repeats: np.ndarray,
    sample_period: int = 8,
    line_bytes: int = LINE_BYTES,
) -> np.ndarray:
    """Expand columnar touches into a sampled line-address stream.

    For each rectangular touch, every cache line it covers is accessed
    once (streaming kernels touch each line once per pass; ``repeats``
    re-appends the region's lines).  Only lines whose index is 0 modulo
    ``sample_period`` are kept, matching
    :class:`CacheHierarchy`'s set sampling.

    Every stage is per-touch independent and order-preserving, so the
    expansion is **concatenation-safe**: expanding a touch stream chunk
    by chunk yields exactly the concatenation of the chunks' line
    streams.  That property is what lets a streaming capture feed the
    hierarchy while the encode runs (see :class:`TouchStreamSink`).

    Lines are int32 when every line index fits in 31 bits, else int64.
    """
    touches = len(bases)
    if touches == 0:
        return np.empty(0, dtype=np.int64)
    bases = np.asarray(bases, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    row_bytes = np.asarray(row_bytes, dtype=np.int64)
    pitches = np.asarray(pitches, dtype=np.int64)
    repeats = np.asarray(repeats, dtype=np.int64)

    # Stage 1 — expand touches to rows.  ``arange - offsets[group]``
    # is the standard grouped-arange trick: arange over the total,
    # minus each group's start offset, gives 0..len-1 within every
    # group.
    total_rows = int(rows.sum())
    if total_rows == 0:
        return np.empty(0, dtype=np.int64)
    row_touch = np.repeat(np.arange(touches, dtype=np.int64), rows)
    row_offsets = np.concatenate(([0], np.cumsum(rows)[:-1]))
    row_local = (
        np.arange(total_rows, dtype=np.int64) - row_offsets[row_touch]
    )
    row_starts = bases[row_touch] + pitches[row_touch] * row_local
    first_line = row_starts // line_bytes
    last_line = (
        row_starts + np.maximum(row_bytes[row_touch] - 1, 0)
    ) // line_bytes

    # Stage 2 — emit each row's *sampled* lines directly.  A row
    # covers lines ``[first_line, last_line]``; the survivors of
    # 1-in-``sample_period`` sampling are the multiples of the period
    # inside that range, an arithmetic sequence whose start and count
    # close-form from the endpoints.  Materializing only those (rather
    # than all lines followed by a mask) keeps every temporary at the
    # sampled size.  The stream itself comes from one cumulative sum
    # over per-element steps: ``sample_period`` inside a row, and a
    # rebased jump at each row boundary — identical ordering to the
    # scalar walk (rows in touch order, lines ascending within a row).
    first_sampled = (first_line + sample_period - 1) // sample_period
    sampled_in_row = np.maximum(last_line // sample_period - first_sampled + 1, 0)
    first_sampled *= sample_period
    total_sampled = int(sampled_in_row.sum())
    if total_sampled == 0:
        return np.empty(0, dtype=np.int64)
    keep = sampled_in_row > 0
    kept_first = first_sampled[keep]
    kept_count = sampled_in_row[keep]
    kept_starts = np.concatenate(([0], np.cumsum(kept_count)[:-1]))
    kept_last = kept_first + sample_period * (kept_count - 1)
    # 32-bit lines when they fit: every cache level then classifies
    # the stream without narrowing it again.
    narrow = 0 <= int(kept_first.min()) and int(kept_last.max()) < 2**31
    line_dtype = np.int32 if narrow else np.int64
    steps = np.full(total_sampled, sample_period, dtype=line_dtype)
    steps[0] = kept_first[0]
    steps[kept_starts[1:]] = kept_first[1:] - kept_last[:-1]
    blocks = np.cumsum(steps, dtype=line_dtype)

    # Stage 3 — apply ``repeats`` as whole-block tiling: each touch's
    # sampled block appears ``repeats`` times *consecutively* (the
    # stream order of the original per-touch append loop), which plain
    # ``np.repeat`` on elements would not preserve.  Streaming kernels
    # overwhelmingly record single-pass touches, so the no-op tiling
    # case returns the stream as built.
    if np.all(repeats == 1):
        return blocks
    block_len = np.bincount(
        row_touch[keep], weights=sampled_in_row[keep], minlength=touches
    ).astype(np.int64)
    out_len = block_len * repeats
    total_out = int(out_len.sum())
    if total_out == 0:
        return np.empty(0, dtype=np.int64)
    out_touch = np.repeat(np.arange(touches, dtype=np.int64), out_len)
    out_offsets = np.concatenate(([0], np.cumsum(out_len)[:-1]))
    out_local = (
        np.arange(total_out, dtype=np.int64) - out_offsets[out_touch]
    )
    block_starts = np.concatenate(([0], np.cumsum(block_len)[:-1]))
    source = (
        block_starts[out_touch]
        + out_local % np.maximum(block_len[out_touch], 1)
    )
    return blocks[source]


def expand_touches(
    instrumenter: Instrumenter,
    sample_period: int = 8,
    line_bytes: int = LINE_BYTES,
) -> np.ndarray:
    """Expand an instrumenter's buffered touches into sampled lines.

    Whole-stream wrapper over :func:`expand_touch_columns`; raises if
    the instrumenter streamed its touches to sinks (the whole stream is
    no longer held).
    """
    bases, rows, row_bytes, pitches, _writes, repeats = (
        instrumenter.touch_arrays()
    )
    return expand_touch_columns(
        bases, rows, row_bytes, pitches, repeats,
        sample_period=sample_period, line_bytes=line_bytes,
    )


class TouchStreamSink:
    """Touch sink cascading each flushed chunk through a hierarchy.

    Register on an :class:`~repro.trace.instrument.Instrumenter` to
    simulate cache traffic *while the encode runs*: each chunk goes
    through :meth:`CacheHierarchy.access_touches`, and the hierarchy's
    per-set warm state carries across chunks (the expansion is
    concatenation-safe, see :func:`expand_touch_columns`) — so final
    counters and contents are bit-identical to a whole-stream replay.
    The chunk's touch columns are held until it is consumed, but its
    lines never are: expansion temporaries are bounded by one touch
    group's rows plus one cascade window, whatever the chunk's length
    in touches.
    """

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self.chunks = 0
        self.lines = 0

    def __call__(
        self,
        base: np.ndarray,
        rows: np.ndarray,
        row_bytes: np.ndarray,
        pitch: np.ndarray,
        write: np.ndarray,
        repeats: np.ndarray,
    ) -> None:
        self.chunks += 1
        self.lines += self.hierarchy.access_touches(
            base, rows, row_bytes, pitch, repeats
        )


def simulate_encode_traffic(
    instrumenter: Instrumenter,
    hierarchy: CacheHierarchy | None = None,
) -> tuple[CacheHierarchy, HierarchyStats]:
    """Drive an encode's buffered memory touches through a hierarchy.

    The touches go through :meth:`CacheHierarchy.access_touches`, so
    the whole line stream is never held.  Returns the (possibly freshly
    created) hierarchy and its scaled statistics.
    """
    if hierarchy is None:
        hierarchy = CacheHierarchy()
    bases, rows, row_bytes, pitches, _writes, repeats = (
        instrumenter.touch_arrays()
    )
    hierarchy.access_touches(bases, rows, row_bytes, pitches, repeats)
    return hierarchy, hierarchy.stats()
