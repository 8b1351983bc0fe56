"""Binary range (arithmetic) coder.

A carry-handling binary range coder in the LZMA/VP8-bool-coder family:
32-bit range, byte-at-a-time renormalisation, 8-bit probabilities.  The
encoder produces the actual bitstream bytes of our codec models, so the
bitrates the experiments report come from real entropy-coded output
rather than an analytic estimate; the decoder exists to prove streams
are self-consistent (round-trip tests) and to support the decode path.

Probabilities are expressed as ``P(bit == 0)`` in ``[1, 255]`` out of
256.

Every byte leaves the encoder through :func:`shift_low`, the one carry
implementation: :class:`BoolEncoder` calls it, and so does the fused
coefficient loop in :mod:`.coefcode`, which keeps an encoder's state in
locals for the length of a block.  Either side of a bin's split is at
least ``range >> 8`` (``prob`` is in ``[1, 255]``), so a range kept at
``2**24`` or more is restored by one byte shift after any bin.
"""

from __future__ import annotations

from ...errors import CodecError

_TOP = 1 << 24
_MASK32 = 0xFFFFFFFF


def _check_prob(prob: int) -> None:
    if not 1 <= prob <= 255:
        raise CodecError(f"probability {prob} outside [1, 255]")


def shift_low(
    low: int, cache: int, pending: int, out: bytearray
) -> tuple[int, int, int]:
    """Shift the top byte out of ``low``, resolving carries (LZMA's ShiftLow).

    ``cache`` is the last byte not yet written and ``pending`` counts it
    plus the ``0xFF`` bytes behind it that a carry could still bump.
    Returns the new ``(low, cache, pending)``.
    """
    if low < 0xFF000000 or low > _MASK32:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        if pending > 1:
            out.extend(bytes(((0xFF + carry) & 0xFF,)) * (pending - 1))
        cache = (low >> 24) & 0xFF
        pending = 1
    else:
        pending += 1
    return (low << 8) & _MASK32, cache, pending


class BoolEncoder:
    """Binary range encoder with LZMA-style carry propagation."""

    def __init__(self) -> None:
        self._low = 0
        self._range = _MASK32
        self._cache = 0
        self._cache_size = 1
        self._buffer = bytearray()
        self._finished = False

    def encode(self, bit: int, prob: int = 128) -> None:
        """Encode one bit with ``P(bit == 0) = prob / 256``."""
        if self._finished:
            raise CodecError("encoder already finished")
        _check_prob(prob)
        bound = (self._range >> 8) * prob
        if bit:
            self._low += bound
            self._range -= bound
        else:
            self._range = bound
        if self._range < _TOP:
            self._range <<= 8
            self._low, self._cache, self._cache_size = shift_low(
                self._low, self._cache, self._cache_size, self._buffer
            )

    def encode_literal(self, value: int, bits: int) -> None:
        """Encode ``bits`` raw bits of ``value`` MSB-first at p = 1/2."""
        if bits < 0 or value < 0 or value >= 1 << bits:
            raise CodecError(f"literal {value} does not fit in {bits} bits")
        for shift in range(bits - 1, -1, -1):
            self.encode((value >> shift) & 1, 128)

    def finish(self) -> bytes:
        """Flush and return the complete bitstream."""
        if not self._finished:
            for _ in range(5):
                self._low, self._cache, self._cache_size = shift_low(
                    self._low, self._cache, self._cache_size, self._buffer
                )
            self._finished = True
        return bytes(self._buffer)

    @property
    def bytes_emitted(self) -> int:
        """Bytes emitted so far (grows as encoding renormalises)."""
        return len(self._buffer)


class BoolDecoder:
    """Decoder matching :class:`BoolEncoder`."""

    def __init__(self, data: bytes) -> None:
        if len(data) < 5:
            raise CodecError("range-coded stream must be at least 5 bytes")
        self._data = data
        self._pos = 1  # first byte is always zero padding from the encoder
        self._range = _MASK32
        self._code = 0
        for _ in range(4):
            self._code = (self._code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        byte = self._data[self._pos] if self._pos < len(self._data) else 0
        self._pos += 1
        return byte

    def decode(self, prob: int = 128) -> int:
        """Decode one bit coded with ``P(bit == 0) = prob / 256``."""
        _check_prob(prob)
        bound = (self._range >> 8) * prob
        if self._code < bound:
            bit = 0
            self._range = bound
        else:
            bit = 1
            self._code -= bound
            self._range -= bound
        while self._range < _TOP:
            self._range = (self._range << 8) & _MASK32
            self._code = ((self._code << 8) | self._next_byte()) & _MASK32
        return bit

    def decode_literal(self, bits: int) -> int:
        """Decode ``bits`` raw bits MSB-first."""
        value = 0
        for _ in range(bits):
            value = (value << 1) | self.decode(128)
        return value
