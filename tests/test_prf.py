import hashlib

import numpy as np
import pytest

from qsgames.bits import BitString
from qsgames.prf import IdealPrf, Permutation, _hash_bits, _keyed_hash, make_prf, sample_ideal_qprp
from qsgames.rng import Rand


def keyed_constructor_eval(key: BitString, in_bits: int, out_bits: int, x: BitString) -> int:
    """The PRF as one keyed blake2b constructor call per 512-bit block."""
    key_bytes = key.value.to_bytes((key.width + 7) // 8, "big")
    payload = b"prf" + x.value.to_bytes((in_bits + 7) // 8, "big")
    val, produced, block = 0, 0, 0
    while produced < out_bits:
        h = hashlib.blake2b(payload + block.to_bytes(4, "big"), key=key_bytes[:64]).digest()
        val = (val << 512) | int.from_bytes(h, "big")
        produced += 512
        block += 1
    return val >> (produced - out_bits)


class TestIdealPrf:
    @pytest.mark.parametrize("key_bits,in_bits,out_bits", [
        (16, 8, 8), (40, 32, 9), (512, 12, 512), (600, 12, 513), (1030, 70, 1500),
    ])
    def test_matches_keyed_constructor(self, key_bits, in_bits, out_bits):
        # keys over 512 bits are cut to their first 64 bytes; outputs
        # over 512 bits take several counter blocks
        rand = Rand(key_bits + out_bits)
        for _ in range(4):
            key, x = rand.bits(key_bits), rand.bits(in_bits)
            prf = make_prf(key, in_bits, out_bits)
            for _ in range(2):
                got = prf.eval(x)
                assert got.width == out_bits
                assert got.value == keyed_constructor_eval(key, in_bits, out_bits, x)

    @pytest.mark.parametrize("out_bits", [1, 13, 512, 513, 1024])
    def test_eval_matches_hash_bits_on_the_prefixed_payload(self, out_bits):
        # eval hashes on a key state that has already absorbed b"prf";
        # outputs above 512 bits take more than one block
        rand = Rand(out_bits)
        key = rand.bits(40)
        prf = make_prf(key, 20, out_bits)
        for _ in range(4):
            x = rand.bits(20)
            assert prf.eval(x) == _hash_bits(_keyed_hash(key), b"prf" + x.value.to_bytes(3, "big"), out_bits)

    @pytest.mark.parametrize("in_bits,out_bits", [(0, 8), (8, 0), (-1, 8), (8, -3)])
    def test_rejects_widths_below_one(self, in_bits, out_bits):
        with pytest.raises(ValueError, match="widths must be positive"):
            IdealPrf(BitString(1, 8), in_bits, out_bits)
        with pytest.raises(ValueError, match="widths must be positive"):
            make_prf(BitString(1, 8), in_bits, out_bits)

    def test_deterministic(self):
        prf = IdealPrf(BitString(0x1234, 16), 8, 8)
        x = BitString(0x5A, 8)
        assert prf.eval(x) == prf.eval(x)

    def test_order_independent(self):
        key = BitString(0x1234, 16)
        a = IdealPrf(key, 8, 8)
        b = IdealPrf(key, 8, 8)
        xs = [BitString(v, 8) for v in (3, 250, 17)]
        assert [a.eval(x) for x in xs] == [b.eval(x) for x in reversed(xs)][::-1]

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            IdealPrf(BitString(1, 8), 8, 8).eval(BitString(1, 9))

    def test_output_bias_within_three_sigma(self):
        # Monte-Carlo oracle: fresh key, all 2^12 inputs, per-bit frequency
        prf = IdealPrf(Rand(7).bits(32), 12, 8)
        counts = np.zeros(8)
        n = 1 << 12
        for v in range(n):
            y = prf.eval(BitString(v, 12))
            for j in range(8):
                counts[j] += y.bit(j)
        sigma = 0.5 / np.sqrt(n)
        assert np.all(np.abs(counts / n - 0.5) <= 3 * sigma)

    def test_distinct_keys_distinct_functions(self):
        x = BitString(0, 8)
        outs = {IdealPrf(BitString(k, 16), 8, 8).eval(x).value for k in range(16)}
        assert len(outs) > 1


class TestIdealQprp:
    def test_same_key_same_tables(self):
        a = sample_ideal_qprp(BitString(7, 8), 6)
        b = sample_ideal_qprp(BitString(7, 8), 6)
        assert np.array_equal(a.forward, b.forward)

    def test_forward_inverse_composition(self):
        perm = sample_ideal_qprp(BitString(9, 8), 6)
        z = np.arange(64)
        assert np.array_equal(perm.forward[perm.inverse], z)
        assert np.array_equal(perm.inverse[perm.forward], z)

    def test_cap(self):
        with pytest.raises(ValueError):
            sample_ideal_qprp(BitString(1, 8), 15)

    def test_fixed_points_poisson(self):
        # mean fixed-point count of a uniform permutation is 1
        counts = [
            int((sample_ideal_qprp(BitString(k, 16), 8).forward == np.arange(256)).sum())
            for k in range(100)
        ]
        mean = np.mean(counts)
        assert abs(mean - 1.0) <= 3 / np.sqrt(100)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation(2, np.array([0, 0, 1, 2]))

    def test_xor_mask_and_identity(self):
        assert Permutation.identity(3).apply(5) == 5
        p = Permutation.xor_mask(0b101, 3)
        assert p.apply(0b010) == 0b111
        assert p.invert(0b111) == 0b010

    def test_equality_is_identity(self):
        # the tables are arrays, so == must not compare them elementwise
        p = Permutation.identity(2)
        assert (p == Permutation.identity(2)) is False
        assert (p == p) is True
        assert (p != p) is False

    def test_inverted(self):
        p = Permutation.from_fn(lambda x: (x + 1) % 8, 3)
        assert p.inverted().apply(p.apply(3)) == 3
