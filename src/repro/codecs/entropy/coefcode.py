"""Transform-coefficient coding and rate estimation.

Two paths, matching real encoder structure:

- :func:`fast_rate_estimate` — the context-free table-style rate model
  used inside the RD search loop, where candidates are far too numerous
  to arithmetic-code.  :func:`fast_rate_estimate_batch` and
  :func:`fast_rate_estimate_groups` evaluate it over tile stacks in
  integers, exactly equal to the per-tile function;
- :class:`CoefficientCoder` — the real adaptive-context bool-coded
  path, run once per *chosen* block to emit actual bitstream bytes.
  Its scalar path codes bin by bin through :class:`AdaptiveBit` and
  :meth:`BoolEncoder.encode` and is the executable spec; the default
  path is one fused loop that keeps the range coder's state in locals
  and matches it in bytes, bits, symbols and context state.

Coefficients are scanned in zigzag order; syntax per coefficient is a
significance flag, an escalating magnitude code (unary-then-literal,
an exp-Golomb shape), a sign bit and a last-coefficient flag — the
common skeleton of the H.264 CAVLC/CABAC, VP9 and AV1 coefficient
coders.
"""

from __future__ import annotations

import functools

import numpy as np

from ... import kernels
from ...errors import CodecError
from .arithmetic import _TOP, BoolEncoder, shift_low
from .cdf import COST_ONE_BITS, COST_ZERO_BITS, AdaptiveBit, ContextSet


@functools.lru_cache(maxsize=None)
def zigzag_order(size: int) -> np.ndarray:
    """Flat indices of the zigzag scan of a ``size x size`` block."""
    if size < 1:
        raise CodecError(f"invalid scan size {size}")
    order = sorted(
        ((r, c) for r in range(size) for c in range(size)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 else rc[0]),
    )
    return np.array([r * size + c for r, c in order], dtype=np.int64)


def scan_levels(levels: np.ndarray) -> np.ndarray:
    """Zigzag-scan a square level block into a 1-D array."""
    size = levels.shape[0]
    if levels.shape != (size, size):
        raise CodecError(f"level blocks must be square, got {levels.shape}")
    return levels.reshape(-1)[zigzag_order(size)]


def fast_rate_estimate(levels: np.ndarray) -> float:
    """Estimated bits to code a level block (vectorised, context-free).

    Model: one bit per coefficient position up to the last nonzero
    (significance), plus a signed-exp-Golomb magnitude cost and a sign
    bit for each nonzero.  This is the estimate RD search uses; the
    adaptive coder usually does a little better, which only shifts the
    RD constant.
    """
    scanned = scan_levels(levels)
    nonzero = np.nonzero(scanned)[0]
    if nonzero.size == 0:
        return 1.0  # coded-block flag
    eob = int(nonzero[-1]) + 1
    mags = np.abs(scanned[:eob][scanned[:eob] != 0]).astype(np.float64)
    magnitude_bits = (2.0 * np.ceil(np.log2(mags + 1.0)) + 1.0).sum()
    sign_bits = float(mags.size)
    significance_bits = float(eob)
    return 1.0 + significance_bits + magnitude_bits + sign_bits


@functools.lru_cache(maxsize=None)
def _scan_rank(size: int) -> np.ndarray:
    """1 + each raster position's index in the zigzag scan of a block."""
    rank = np.empty(size * size, dtype=np.int64)
    rank[zigzag_order(size)] = np.arange(1, size * size + 1)
    return rank


def fast_rate_estimate_batch(levels: np.ndarray) -> float:
    """Vectorised :func:`fast_rate_estimate` over an ``(n, s, s)`` stack.

    Returns the summed estimate for all tiles, which equals the sum of
    per-tile :func:`fast_rate_estimate` values exactly (a regression
    test pins this).
    """
    if levels.ndim != 3 or levels.shape[1] != levels.shape[2]:
        raise CodecError(f"expected (n, s, s) level stack, got {levels.shape}")
    return fast_rate_estimate_groups(levels[None])[0]


def fast_rate_estimate_groups(levels: np.ndarray) -> list[float]:
    """:func:`fast_rate_estimate_batch` of every ``(n, s, s)`` group in
    a ``(g, n, s, s)`` stack, in one vectorised pass.

    Computed in integers from the integer levels: for a magnitude
    ``m >= 1``, ``2*ceil(log2(m + 1)) + 1 == 2*bit_length(m) + 1``.  A
    tile then costs ``1 + eob + 2 * sum(bit_length + 1)`` over its
    nonzeros (an empty tile the 1-bit coded-block flag), and every
    total is a small integer, exact in any summation order.
    """
    if levels.ndim != 4 or levels.shape[2] != levels.shape[3]:
        raise CodecError(f"expected (g, n, s, s) level stack, got {levels.shape}")
    g, n, size, _ = levels.shape
    if g == 0 or n == 0:
        return [0.0] * g
    flat = levels.reshape(g, n, size * size)
    # A tile's end of block is its largest nonzero scan rank (0 if none).
    eobs = np.where(flat, _scan_rank(size), 0).max(axis=2).sum(axis=1)
    # frexp's exponent of 2v is bit_length(|v|) + 1, and 0 for v == 0.
    coded = np.frexp(flat * 2.0)[1].sum(axis=(1, 2))
    return [
        float(n + eob + 2 * lengths)
        for eob, lengths in zip(eobs.tolist(), coded.tolist())
    ]


@functools.lru_cache(maxsize=None)
def _context_names(ctx_prefix: str) -> tuple:
    """The context names of one block class, built once per prefix.

    The scalar coder names contexts with per-bit f-strings; the fused
    loop looks up these interned names instead.
    """
    cbf = f"{ctx_prefix}.cbf"
    sig = tuple(f"{ctx_prefix}.sig{band}" for band in range(6))
    last = tuple(f"{ctx_prefix}.last{band}" for band in range(6))
    mag = tuple(
        tuple(f"{ctx_prefix}.mag{band}.gt{level}" for level in range(1, 4))
        for band in range(6)
    )
    return cbf, sig, last, mag


@functools.lru_cache(maxsize=None)
def _next_probs(rate: int) -> tuple[list[int], list[int]]:
    """Each probability's successor after coding a 0, and after a 1.

    Built on first use per adaptation rate by running
    :meth:`AdaptiveBit.update` itself, clamp included, so stepping a
    probability through these lists is exact.  Index 0 is never read:
    a context's probability stays in ``[1, 255]``.
    """
    after: tuple[list[int], list[int]] = ([0] * 256, [0] * 256)
    for bit, table in enumerate(after):
        for prob in range(1, 256):
            ctx = AdaptiveBit(prob, rate)
            ctx.update(bit)
            table[prob] = ctx.prob
    return after


def _enter_context(
    ctxmap: dict[str, AdaptiveBit], name: str, initial: int, rate: int
) -> AdaptiveBit:
    """Context ``name`` as the fused loop takes it up.

    Created on first use as :meth:`ContextSet.get` does; an existing
    context's probability is checked here, once, instead of per bin.
    """
    ctx = ctxmap.get(name)
    if ctx is None:
        ctx = ctxmap[name] = AdaptiveBit(initial, rate)
    elif not 1 <= ctx.prob <= 255:
        raise CodecError(f"probability {ctx.prob} outside [1, 255]")
    return ctx


class CoefficientCoder:
    """Adaptive-context coefficient coder over a shared bool encoder.

    Parameters
    ----------
    contexts:
        Adaptive context set (shared across blocks for adaptation).
    encoder:
        Destination bool encoder; when ``None`` the coder only
        accumulates exact model costs (used by tests and by bit
        accounting without materialising a stream).
    """

    def __init__(self, contexts: ContextSet, encoder: BoolEncoder | None) -> None:
        self._contexts = contexts
        self._encoder = encoder

    def _code_bit(self, name: str, bit: int, initial: int = 128) -> float:
        ctx = self._contexts.get(name, initial)
        bits = ctx.cost(bit)
        if self._encoder is not None:
            self._encoder.encode(bit, ctx.prob)
        ctx.update(bit)
        return bits

    def _code_magnitude(self, prefix: str, magnitude: int) -> tuple[float, int]:
        """Unary-then-literal magnitude code; returns (bits, symbols)."""
        bits = 0.0
        symbols = 0
        # Unary prefix over the first 3 magnitude classes.
        for level in range(1, 4):
            more = 1 if magnitude > level else 0
            bits += self._code_bit(f"{prefix}.gt{level}", more, initial=96)
            symbols += 1
            if not more:
                return bits, symbols
        # Escape: the remainder's width less one in 4 raw bits, then
        # the remainder itself.
        remainder = magnitude - 4
        nbits = max(1, remainder.bit_length())
        if self._encoder is not None:
            self._encoder.encode_literal(nbits - 1, 4)
            self._encoder.encode_literal(remainder, nbits)
        bits += 4 + nbits
        symbols += 4 + nbits
        return bits, symbols

    def code_block(self, levels: np.ndarray, ctx_prefix: str) -> tuple[float, int]:
        """Code one quantised block; returns ``(bits, symbols)``.

        ``ctx_prefix`` namespaces the contexts (e.g. ``"y.inter.tx8"``)
        so differently-behaved block classes adapt independently, as in
        real codecs.
        """
        if kernels.vectorized_enabled():
            return self._code_block_fast(levels, ctx_prefix)
        return self._code_block_scalar(levels, ctx_prefix)

    def _code_block_scalar(
        self, levels: np.ndarray, ctx_prefix: str
    ) -> tuple[float, int]:
        scanned = scan_levels(levels)
        nonzero = np.nonzero(scanned)[0]
        coded = 1 if nonzero.size else 0
        bits = self._code_bit(f"{ctx_prefix}.cbf", coded, initial=140)
        symbols = 1
        if not coded:
            return bits, symbols
        eob = int(nonzero[-1]) + 1
        for pos in range(eob):
            level = int(scanned[pos])
            band = min(pos // 4, 5)
            sig = 1 if level else 0
            bits += self._code_bit(f"{ctx_prefix}.sig{band}", sig, initial=110)
            symbols += 1
            if not sig:
                continue
            mag_bits, mag_syms = self._code_magnitude(
                f"{ctx_prefix}.mag{band}", abs(level)
            )
            bits += mag_bits
            symbols += mag_syms
            sign = 1 if level < 0 else 0
            if self._encoder is not None:
                self._encoder.encode(sign, 128)
            bits += 1.0
            symbols += 1
            # Code whether this was the last significant coefficient.
            last = 1 if pos == eob - 1 else 0
            bits += self._code_bit(f"{ctx_prefix}.last{band}", last, initial=128)
            symbols += 1
        return bits, symbols

    def _code_block_fast(
        self, levels: np.ndarray, ctx_prefix: str
    ) -> tuple[float, int]:
        """``code_block`` as one fused loop, exactly equal to the scalar path.

        The range coder's ``low``/``range``/carry state stays in locals
        for the whole block and every bin renormalises through
        :func:`.arithmetic.shift_low`.  A context enters the loop once
        per band, where :func:`_enter_context` checks its probability;
        each bin then steps that probability through the lists of
        :func:`_next_probs`.  Bins are coded, costs summed and contexts
        created in the scalar path's order, so the bytes, the ``bits``
        float, ``symbols`` and every context's final probability equal
        the scalar path's.
        """
        stream = self._encoder
        encoder = stream if stream is not None else BoolEncoder()
        if encoder._finished:
            raise CodecError("encoder already finished")
        scanned = scan_levels(levels)
        nonzero = np.flatnonzero(scanned)
        eob = int(nonzero[-1]) + 1 if nonzero.size else 0
        values = scanned[:eob].tolist()
        final = eob - 1

        cbf_name, sig_names, last_names, mag_names = _context_names(ctx_prefix)
        ctxmap = self._contexts._contexts
        rate = self._contexts._rate
        after0, after1 = _next_probs(rate)
        cost0, cost1 = COST_ZERO_BITS, COST_ONE_BITS
        top = _TOP
        low, rng = encoder._low, encoder._range
        cache, pending, out = encoder._cache, encoder._cache_size, encoder._buffer

        ctx = _enter_context(ctxmap, cbf_name, 140, rate)
        prob = ctx.prob
        split = (rng >> 8) * prob
        if eob:
            bits = cost1[prob]
            low += split
            rng -= split
            ctx.prob = after1[prob]
        else:
            bits = cost0[prob]
            rng = split
            ctx.prob = after0[prob]
        if rng < top:
            rng <<= 8
            low, cache, pending = shift_low(low, cache, pending, out)
        symbols = 1 + eob

        # One pass per band (4 positions each, band 5 open-ended); none
        # when the block is empty, as then ``final >> 2`` is -1.
        for band in range(min(final >> 2, 5) + 1):
            start = band << 2
            stop = eob if band == 5 else min(start + 4, eob)
            sig = _enter_context(ctxmap, sig_names[band], 110, rate)
            gt_names = mag_names[band]
            gt1 = gt2 = gt3 = last = None
            for pos in range(start, stop):
                level = values[pos]
                prob = sig.prob
                split = (rng >> 8) * prob
                if level:
                    bits += cost1[prob]
                    low += split
                    rng -= split
                    sig.prob = after1[prob]
                else:
                    bits += cost0[prob]
                    rng = split
                    sig.prob = after0[prob]
                if rng < top:
                    rng <<= 8
                    low, cache, pending = shift_low(low, cache, pending, out)
                if not level:
                    continue

                # Magnitude: unary gt1..gt3, then the escape literal.
                # Its costs sum into mag_bits before joining ``bits``,
                # as the scalar path's do.
                magnitude = -level if level < 0 else level
                if gt1 is None:
                    gt1 = _enter_context(ctxmap, gt_names[0], 96, rate)
                prob = gt1.prob
                split = (rng >> 8) * prob
                if magnitude > 1:
                    mag_bits = cost1[prob]
                    low += split
                    rng -= split
                    gt1.prob = after1[prob]
                else:
                    mag_bits = cost0[prob]
                    rng = split
                    gt1.prob = after0[prob]
                if rng < top:
                    rng <<= 8
                    low, cache, pending = shift_low(low, cache, pending, out)
                symbols += 3  # gt1, sign and last
                if magnitude > 1:
                    if gt2 is None:
                        gt2 = _enter_context(ctxmap, gt_names[1], 96, rate)
                    prob = gt2.prob
                    split = (rng >> 8) * prob
                    if magnitude > 2:
                        mag_bits += cost1[prob]
                        low += split
                        rng -= split
                        gt2.prob = after1[prob]
                    else:
                        mag_bits += cost0[prob]
                        rng = split
                        gt2.prob = after0[prob]
                    if rng < top:
                        rng <<= 8
                        low, cache, pending = shift_low(low, cache, pending, out)
                    symbols += 1
                if magnitude > 2:
                    if gt3 is None:
                        gt3 = _enter_context(ctxmap, gt_names[2], 96, rate)
                    prob = gt3.prob
                    split = (rng >> 8) * prob
                    if magnitude > 3:
                        mag_bits += cost1[prob]
                        low += split
                        rng -= split
                        gt3.prob = after1[prob]
                    else:
                        mag_bits += cost0[prob]
                        rng = split
                        gt3.prob = after0[prob]
                    if rng < top:
                        rng <<= 8
                        low, cache, pending = shift_low(low, cache, pending, out)
                    symbols += 1
                if magnitude > 3:
                    # Escape: the remainder's width in 4 raw bits, then
                    # the remainder itself, as one MSB-first literal.
                    # Only a stream rejects a width over 16 bits; bit
                    # accounting counts it, as the scalar path does.
                    remainder = magnitude - 4
                    nbits = remainder.bit_length() or 1
                    if nbits > 16 and stream is not None:
                        raise CodecError(
                            f"literal {nbits - 1} does not fit in 4 bits"
                        )
                    literal = (nbits - 1) << nbits | remainder
                    for shift in range(nbits + 3, -1, -1):
                        half = (rng >> 8) << 7
                        if literal >> shift & 1:
                            low += half
                            rng -= half
                        else:
                            rng = half
                        if rng < top:
                            rng <<= 8
                            low, cache, pending = shift_low(
                                low, cache, pending, out
                            )
                    mag_bits += 4 + nbits
                    symbols += 4 + nbits
                bits += mag_bits

                half = (rng >> 8) << 7  # the sign, at p = 1/2
                if level < 0:
                    low += half
                    rng -= half
                else:
                    rng = half
                if rng < top:
                    rng <<= 8
                    low, cache, pending = shift_low(low, cache, pending, out)
                bits += 1.0

                if last is None:
                    last = _enter_context(ctxmap, last_names[band], 128, rate)
                prob = last.prob
                split = (rng >> 8) * prob
                if pos == final:
                    bits += cost1[prob]
                    low += split
                    rng -= split
                    last.prob = after1[prob]
                else:
                    bits += cost0[prob]
                    rng = split
                    last.prob = after0[prob]
                if rng < top:
                    rng <<= 8
                    low, cache, pending = shift_low(low, cache, pending, out)

        encoder._low, encoder._range = low, rng
        encoder._cache, encoder._cache_size = cache, pending
        return bits, symbols
