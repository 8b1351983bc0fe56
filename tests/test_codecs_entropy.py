"""Tests for the range coder, adaptive contexts and coefficient coding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.codecs.entropy.arithmetic import BoolDecoder, BoolEncoder
from repro.codecs.entropy.cdf import (
    AdaptiveBit,
    ContextSet,
    bit_cost,
    exp_golomb_bits,
    signed_exp_golomb_bits,
)
from repro.codecs.entropy.coefcode import (
    CoefficientCoder,
    fast_rate_estimate,
    fast_rate_estimate_batch,
    fast_rate_estimate_groups,
    scan_levels,
    zigzag_order,
)
from repro.errors import CodecError


class TestRangeCoder:
    def test_roundtrip_fixed_prob(self):
        bits = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0] * 50
        enc = BoolEncoder()
        for b in bits:
            enc.encode(b, 128)
        data = enc.finish()
        dec = BoolDecoder(data)
        assert [dec.decode(128) for _ in bits] == bits

    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 255)),
                    min_size=1, max_size=500))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, pairs):
        enc = BoolEncoder()
        for bit, prob in pairs:
            enc.encode(int(bit), prob)
        dec = BoolDecoder(enc.finish())
        for bit, prob in pairs:
            assert dec.decode(prob) == int(bit)

    def test_long_roundtrip_carries_through_pending_bytes(self):
        # Long enough that carries ripple through runs of 0xFF bytes
        # still held back (a carry dropped there breaks this seed).
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 20000).tolist()
        probs = rng.integers(1, 256, 20000).tolist()
        enc = BoolEncoder()
        for bit, prob in zip(bits, probs):
            enc.encode(bit, prob)
        dec = BoolDecoder(enc.finish())
        assert [dec.decode(prob) for prob in probs] == bits

    def test_skewed_probs_compress(self):
        """Coding likely symbols at the right probability beats p=1/2."""
        bits = [0] * 2000
        skewed = BoolEncoder()
        for b in bits:
            skewed.encode(b, 250)
        flat = BoolEncoder()
        for b in bits:
            flat.encode(b, 128)
        assert len(skewed.finish()) < len(flat.finish())

    def test_literal_roundtrip(self):
        enc = BoolEncoder()
        enc.encode_literal(0xAB, 8)
        enc.encode_literal(5, 3)
        dec = BoolDecoder(enc.finish())
        assert dec.decode_literal(8) == 0xAB
        assert dec.decode_literal(3) == 5

    def test_rejects_bad_prob(self):
        with pytest.raises(CodecError):
            BoolEncoder().encode(1, 0)
        with pytest.raises(CodecError):
            BoolEncoder().encode(1, 256)

    def test_rejects_oversized_literal(self):
        with pytest.raises(CodecError):
            BoolEncoder().encode_literal(8, 3)
        # Zero bits hold only the value 0; 1 would be dropped silently.
        with pytest.raises(CodecError):
            BoolEncoder().encode_literal(1, 0)

    def test_encode_after_finish_rejected(self):
        enc = BoolEncoder()
        enc.finish()
        with pytest.raises(CodecError):
            enc.encode(1)

    def test_decoder_needs_five_bytes(self):
        with pytest.raises(CodecError):
            BoolDecoder(b"abc")


class TestAdaptiveBit:
    def test_adapts_toward_zero(self):
        ctx = AdaptiveBit(initial=128)
        for _ in range(50):
            ctx.update(0)
        assert ctx.prob > 200

    def test_adapts_toward_one(self):
        ctx = AdaptiveBit(initial=128)
        for _ in range(50):
            ctx.update(1)
        assert ctx.prob < 50

    def test_cost_decreases_as_context_learns(self):
        ctx = AdaptiveBit(initial=128)
        before = ctx.cost(0)
        for _ in range(30):
            ctx.update(0)
        assert ctx.cost(0) < before

    def test_bounds_validated(self):
        with pytest.raises(CodecError):
            AdaptiveBit(initial=0)
        with pytest.raises(CodecError):
            AdaptiveBit(initial=128, rate=0)

    def test_bit_cost_at_half(self):
        assert bit_cost(0, 128) == pytest.approx(1.0)
        assert bit_cost(1, 128) == pytest.approx(1.0)

    def test_bit_cost_validates(self):
        with pytest.raises(CodecError):
            bit_cost(0, 0)


class TestContextSet:
    def test_contexts_created_on_demand(self):
        ctxs = ContextSet()
        a = ctxs.get("a")
        assert ctxs.get("a") is a
        assert len(ctxs) == 1

    def test_reset(self):
        ctxs = ContextSet()
        ctxs.get("x").update(0)
        ctxs.reset()
        assert len(ctxs) == 0


class TestExpGolomb:
    @pytest.mark.parametrize("value,bits", [(0, 1), (1, 3), (2, 3), (3, 5),
                                            (6, 5), (7, 7)])
    def test_known_lengths(self, value, bits):
        assert exp_golomb_bits(value) == bits

    def test_signed_symmetry(self):
        # v > 0 maps to 2v - 1 and v <= 0 to -2v, so 0, 1, -1, 2, -2, 3,
        # -3 code as 0..6 and each +-v pair shares a length.
        lengths = [signed_exp_golomb_bits(v) for v in (0, 1, -1, 2, -2, 3, -3)]
        assert lengths == [1, 3, 3, 5, 5, 5, 5]

    def test_rejects_negative(self):
        with pytest.raises(CodecError):
            exp_golomb_bits(-1)


class TestZigzag:
    def test_order_is_permutation(self):
        order = zigzag_order(8)
        assert sorted(order) == list(range(64))

    def test_starts_at_dc(self):
        assert zigzag_order(8)[0] == 0

    def test_scan_levels_shape(self):
        block = np.arange(16).reshape(4, 4)
        assert scan_levels(block).shape == (16,)

    def test_scan_rejects_rect(self):
        with pytest.raises(CodecError):
            scan_levels(np.zeros((4, 8)))


class TestRateEstimate:
    def test_empty_block_one_bit(self):
        assert fast_rate_estimate(np.zeros((8, 8), dtype=np.int32)) == 1.0

    def test_grows_with_levels(self):
        one = np.zeros((8, 8), dtype=np.int32)
        one[0, 0] = 1
        many = np.full((8, 8), 3, dtype=np.int32)
        assert fast_rate_estimate(many) > fast_rate_estimate(one)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_batch_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(-5, 6, (4, 8, 8)).astype(np.int32)
        total = sum(fast_rate_estimate(stack[i]) for i in range(4))
        assert fast_rate_estimate_batch(stack) == total

    def test_batch_empty_stack(self):
        assert fast_rate_estimate_batch(np.zeros((0, 8, 8), np.int32)) == 0.0

    def test_batch_rejects_bad_shape(self):
        with pytest.raises(CodecError):
            fast_rate_estimate_batch(np.zeros((4, 8), np.int32))

    @pytest.mark.parametrize("seed", range(6))
    def test_groups_match_batch_and_scalar(self, seed):
        rng = np.random.default_rng(seed)
        g, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        size = int(rng.choice([4, 8, 16, 32]))
        stack = rng.integers(-4000, 4001, (g, n, size, size)).astype(np.int32)
        stack[rng.random(stack.shape) < 0.85] = 0
        stack[0, 0] = 0  # an empty tile
        groups = fast_rate_estimate_groups(stack)
        assert len(groups) == g
        for group, value in zip(stack, groups):
            assert value == fast_rate_estimate_batch(group)
            assert value == sum(fast_rate_estimate(tile) for tile in group)
            assert type(value) is float

    def test_groups_of_empty_stacks(self):
        assert fast_rate_estimate_groups(np.zeros((0, 2, 8, 8), np.int32)) == []
        assert fast_rate_estimate_groups(np.zeros((3, 0, 8, 8), np.int32)) == [
            0.0, 0.0, 0.0
        ]

    def test_groups_reject_bad_shape(self):
        with pytest.raises(CodecError):
            fast_rate_estimate_groups(np.zeros((2, 4, 8), np.int32))


class TestCoefficientCoder:
    def _code(self, levels, encoder=True):
        ctxs = ContextSet()
        enc = BoolEncoder() if encoder else None
        coder = CoefficientCoder(ctxs, enc)
        bits, symbols = coder.code_block(levels, "t")
        return bits, symbols, enc

    def test_empty_block_cheap(self):
        bits, symbols, _ = self._code(np.zeros((8, 8), dtype=np.int32))
        assert symbols == 1
        assert bits < 2.0

    def test_dense_block_expensive(self):
        rng = np.random.default_rng(0)
        dense = rng.integers(-9, 10, (8, 8)).astype(np.int32)
        bits_dense, symbols_dense, _ = self._code(dense)
        sparse = np.zeros((8, 8), dtype=np.int32)
        sparse[0, 0] = 2
        bits_sparse, symbols_sparse, _ = self._code(sparse)
        assert bits_dense > bits_sparse
        assert symbols_dense > symbols_sparse

    def test_adaptation_reduces_bits(self):
        """Coding many empty blocks must get cheaper as contexts adapt."""
        ctxs = ContextSet()
        coder = CoefficientCoder(ctxs, BoolEncoder())
        empty = np.zeros((8, 8), dtype=np.int32)
        first, _ = coder.code_block(empty, "t")
        for _ in range(30):
            coder.code_block(empty, "t")
        last, _ = coder.code_block(empty, "t")
        assert last < first

    def test_works_without_encoder(self):
        bits, symbols, enc = self._code(
            np.eye(8, dtype=np.int32) * 3, encoder=False
        )
        assert bits > 0
        assert enc is None

    def test_large_magnitudes_escape(self):
        big = np.zeros((8, 8), dtype=np.int32)
        big[0, 1] = 500
        bits, _, _ = self._code(big)
        assert bits > 10


def _parity_blocks(seed: int) -> list[tuple[np.ndarray, str]]:
    """A seeded block sequence covering every branch of the coder.

    Tile sizes 4 to 32, all-zero blocks, sparse and dense blocks with
    negative levels, and escapes whose remainders are wider than 8 bits,
    spread over block classes that share and do not share contexts.
    """
    rng = np.random.default_rng(seed)
    blocks = []
    for index in range(48):
        size = (4, 8, 16, 32)[index % 4]
        kind = index % 6
        if kind == 0:
            levels = np.zeros((size, size), np.int32)
        elif kind in (1, 2):
            levels = rng.integers(-3, 4, (size, size)).astype(np.int32)
            levels[rng.random((size, size)) < (0.8 if kind == 1 else 0.2)] = 0
        elif kind in (3, 4):
            levels = rng.integers(-40, 41, (size, size)).astype(np.int32)
            levels[rng.random((size, size)) < 0.6] = 0
        else:
            levels = np.zeros((size, size), np.int32)
            count = int(rng.integers(1, size))
            flat = levels.reshape(-1)
            flat[rng.choice(size * size, count, replace=False)] = rng.integers(
                260, 70000, count
            ) * rng.choice([-1, 1], count)
        prefix = ("y.tx", "p.tx", "c.u")[index % 3] + str(size)
        blocks.append((levels, prefix))
    return blocks


def _code_all(blocks, rate: int, with_encoder: bool, fast: bool):
    """Code ``blocks`` through one shared context set and encoder."""
    contexts = ContextSet(rate=rate)
    encoder = BoolEncoder() if with_encoder else None
    coder = CoefficientCoder(contexts, encoder)
    scope = kernels.vectorized_kernels if fast else kernels.scalar_kernels
    with scope():
        coded = [coder.code_block(levels, prefix) for levels, prefix in blocks]
    data = encoder.finish() if encoder is not None else None
    probs = {name: ctx.prob for name, ctx in contexts._contexts.items()}
    return coded, data, probs


class TestFusedCoderParity:
    """The fused loop against the scalar coder, the executable spec."""

    @pytest.mark.parametrize("rate", [1, 5, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("with_encoder", [True, False])
    def test_matches_scalar_exactly(self, seed, rate, with_encoder):
        blocks = _parity_blocks(seed)
        # Remainders over 16 bits cannot be coded into a stream.
        if with_encoder:
            blocks = [
                (np.clip(levels, -65000, 65000), prefix)
                for levels, prefix in blocks
            ]
        assert max(int(np.abs(lv).max()) for lv, _ in blocks) - 4 >= 1 << 8
        scalar = _code_all(blocks, rate, with_encoder, fast=False)
        fused = _code_all(blocks, rate, with_encoder, fast=True)
        assert fused[0] == scalar[0]  # per-block (bits, symbols), float ==
        assert fused[1] == scalar[1]  # the finished stream's bytes
        assert fused[2] == scalar[2]  # every context and its final prob

    def test_stream_decodes(self):
        """The fused stream reads back through the bool decoder."""
        levels = np.zeros((4, 4), np.int32)
        levels[0, 0], levels[0, 1], levels[1, 0] = 5, -1, 300
        contexts = ContextSet()
        encoder = BoolEncoder()
        with kernels.vectorized_kernels():
            CoefficientCoder(contexts, encoder).code_block(levels, "t")
        dec = BoolDecoder(encoder.finish())
        assert dec.decode(140) == 1  # coded-block flag
        assert dec.decode(110) == 1  # position 0 significant
        assert [dec.decode(96) for _ in range(3)] == [1, 1, 1]  # gt1..gt3
        assert dec.decode_literal(4) == 0  # remainder 1 is 1 bit wide
        assert dec.decode_literal(1) == 1
        assert dec.decode(128) == 0  # positive sign

    @pytest.mark.parametrize("fast", [True, False])
    def test_wide_escape_needs_no_stream(self, fast):
        levels = np.zeros((4, 4), np.int32)
        levels[0, 0] = 4 + (1 << 16)
        with pytest.raises(CodecError):
            _code_all([(levels, "t")], 5, with_encoder=True, fast=fast)
        bits, symbols = _code_all([(levels, "t")], 5, False, fast)[0][0]
        assert symbols == 1 + 1 + 3 + 4 + 17 + 1 + 1

    @pytest.mark.parametrize("fast", [True, False])
    def test_rejects_finished_encoder(self, fast):
        encoder = BoolEncoder()
        encoder.finish()
        coder = CoefficientCoder(ContextSet(), encoder)
        scope = kernels.vectorized_kernels if fast else kernels.scalar_kernels
        with scope(), pytest.raises(CodecError, match="finished"):
            coder.code_block(np.eye(4, dtype=np.int32), "t")

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("name,prob", [("t.cbf", 0), ("t.sig0", 256),
                                           ("t.mag0.gt1", -3),
                                           ("t.last0", 300)])
    def test_rejects_context_prob_out_of_range(self, fast, name, prob):
        contexts = ContextSet()
        contexts.get(name).prob = prob
        coder = CoefficientCoder(contexts, BoolEncoder())
        scope = kernels.vectorized_kernels if fast else kernels.scalar_kernels
        with scope(), pytest.raises(CodecError, match="probability"):
            coder.code_block(np.eye(4, dtype=np.int32), "t")
