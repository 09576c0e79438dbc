import math

import pytest

from qsgames.bits import BitString
from qsgames.prf import Permutation, make_prf, sample_ideal_qprp
from qsgames.quantum import StateVector
from qsgames.rng import Rand
from qsgames import experiments, schemes
from qsgames.games import OracleSet, enc_table
from qsgames.schemes import (
    BOT,
    Cca1SepScheme,
    Ciphertext,
    GoldreichScheme,
    InversionError,
    OtpScheme,
    OwpHandle,
    PkesOwtpScheme,
    PrpScheme,
    goldreich_levin_prng,
    owtp_eval,
    owtp_gen,
    owtp_invert,
)


class TestOtp:
    def test_examples(self):
        assert schemes.otp_enc(BitString(0, 4), BitString(0b0110, 4)).value == 0b0110
        assert schemes.otp_enc(BitString(0b0110, 4), BitString(0b0110, 4)).value == 0
        assert schemes.otp_enc(BitString(0b1010, 4), BitString(0b0110, 4)).value == 0b1100

    def test_roundtrip(self):
        scheme = OtpScheme(8)
        r = Rand(0)
        for _ in range(50):
            k, m = scheme.key_gen(r), r.bits(8)
            assert scheme.dec(k, scheme.enc(k, m)) == m


class TestGoldreich:
    def test_roundtrip_random(self):
        scheme = GoldreichScheme(8)
        r = Rand(1)
        for _ in range(100):
            k, m = scheme.key_gen(r), r.bits(8)
            assert scheme.dec(k, scheme.enc(k, m, rand=r)) == m

    def test_pinned_r_matches_prf(self):
        scheme = GoldreichScheme(8)
        r = Rand(2)
        k, m, rr = scheme.key_gen(r), r.bits(8), r.bits(8)
        c = scheme.enc(k, m, r=rr)
        pad = scheme._prf(k).eval(rr)
        assert c.body ^ m == pad

    def test_fresh_r_checks_a_pinned_r_or_draws_fresh_bits(self):
        pinned = BitString(0b101, 3)
        assert schemes.fresh_r(3, Rand(0), pinned) is pinned
        assert schemes.fresh_r(5, Rand(3), None) == Rand(3).bits(5)
        with pytest.raises(ValueError, match="randomness width 3 != 4"):
            schemes.fresh_r(4, Rand(0), pinned)
        for scheme in (GoldreichScheme(4), PrpScheme(4, 2)):
            with pytest.raises(ValueError, match="randomness width"):
                scheme.enc(scheme.key_gen(Rand(1)), BitString(0, 4), r=BitString(0, 5))

    def test_randomized(self):
        scheme = GoldreichScheme(16)
        r = Rand(3)
        k, m = scheme.key_gen(r), r.bits(16)
        assert scheme.enc(k, m, rand=r).r != scheme.enc(k, m, rand=r).r

    def test_flip_property(self):
        # decrypting the flipped core recovers the flipped plaintext
        scheme = GoldreichScheme(8)
        r = Rand(4)
        k, m = scheme.key_gen(r), r.bits(8)
        c = scheme.enc(k, m, rand=r)
        flipped = Ciphertext(c.scheme, c.body ^ BitString.ones(8), r=c.r)
        assert scheme.dec(k, flipped) == m ^ BitString.ones(8)

    def test_width_checks(self):
        scheme = GoldreichScheme(8)
        k = scheme.key_gen(Rand(5))
        with pytest.raises(ValueError):
            scheme.enc(k, BitString(0, 9), rand=Rand(6))
        with pytest.raises(ValueError):
            scheme.enc(k, BitString(0, 8), r=BitString(0, 9))

    @pytest.mark.parametrize("msg_bits,r_bits,key_bits", [(8, 8, 8), (9, 32, 40)])
    def test_alternating_keys_match_fresh_prf(self, msg_bits, r_bits, key_bits):
        # the scheme keeps the PRF of the last key; alternating keys,
        # including one equal in value but not in width, must never
        # reuse the wrong one
        scheme = GoldreichScheme(msg_bits, r_bits=r_bits, key_bits=key_bits)
        rand = Rand(8)
        k1 = scheme.key_gen(rand)
        keys = [k1, scheme.key_gen(rand), BitString(k1.value, key_bits + 8), BitString(k1.value, key_bits)]
        for i in range(12):
            key = keys[i % len(keys)]
            m, r = rand.bits(msg_bits), rand.bits(r_bits)
            pad = make_prf(key, r_bits, msg_bits).eval(r)
            c = scheme.enc(key, m, r=r)
            assert c.body == m ^ pad
            assert scheme.dec(key, Ciphertext(c.scheme, m, r=r)) == m ^ pad
            perm, bits = scheme.enc_perm(key, r)
            assert bits == msg_bits and perm.apply(m.value) == (m ^ pad).value


class TestPrpScheme:
    @pytest.mark.parametrize("msg_bits,r_bits,key_bits", [(3, 3, 16), (8, 4, 9)])
    def test_alternating_keys_match_fresh_prp(self, msg_bits, r_bits, key_bits):
        # the scheme keeps the permutation of the last key; alternating
        # keys, including one equal in value but not in width, must never
        # reuse the wrong one
        scheme = PrpScheme(msg_bits, r_bits, key_bits=key_bits)
        cipher_bits = scheme.cipher_bits
        rand = Rand(8)
        k1 = scheme.key_gen(rand)
        keys = [k1, scheme.key_gen(rand), BitString(k1.value, key_bits + 8), BitString(k1.value, key_bits)]
        for i in range(12):
            key = keys[i % len(keys)]
            perm = sample_ideal_qprp(key, cipher_bits)
            m, r, y = rand.bits(msg_bits), rand.bits(r_bits), rand.bits(cipher_bits)
            assert scheme.enc(key, m, r=r).body.value == perm.apply(m.concat(r).value)
            plain = BitString(perm.invert(y.value), cipher_bits).take(msg_bits)
            assert scheme.dec(key, Ciphertext(scheme.name, y)) == plain
            got, bits = scheme.enc_perm(key, r)
            assert bits == msg_bits
            assert got.forward.tolist() == [perm.apply(z ^ r.value) for z in range(1 << cipher_bits)]

    def test_one_permutation_per_trial(self, monkeypatch):
        # the memo binds sample_ideal_qprp when the scheme is built, so
        # the counter goes in first; a trial encrypts and decrypts under
        # one key
        calls = []

        def counting(key, domain_bits):
            calls.append(key)
            return sample_ideal_qprp(key, domain_bits)

        monkeypatch.setattr(schemes, "sample_ideal_qprp", counting)
        experiments.get("cca2-flip-null").run(trials=1, seed=3, overrides={})
        assert len(calls) == 1

    def test_roundtrip_exhaustive(self):
        scheme = PrpScheme(3, 3)
        rngs = Rand(7).split(5)
        for r in rngs:
            k = scheme.key_gen(r)
            for v in range(8):
                m = BitString(v, 3)
                assert scheme.dec(k, scheme.enc(k, m, rand=r)) == m

    def test_identity_permutation_pins_shape(self):
        scheme = PrpScheme(3, 2)
        scheme._perm = lambda key: Permutation.identity(5)
        k = scheme.key_gen(Rand(8))
        c = scheme.enc(k, BitString(0b101, 3), r=BitString(0, 2))
        assert c.body == BitString(0b10100, 5)


class TestCca1Sep:
    def test_roundtrip_and_pairing(self):
        scheme = Cca1SepScheme(msg_bits=8)
        r = Rand(10)
        key = scheme.key_gen(r)
        m = BitString(0x42, 8)
        c = scheme.enc(key, m, rand=r)
        assert scheme.dec(key, c) == m
        assert isinstance(c.aux, Ciphertext)

    def test_swapped_halves_reveal_hidden(self):
        scheme = Cca1SepScheme(msg_bits=8)
        r = Rand(11)
        key = scheme.key_gen(r)
        c = scheme.enc(key, BitString(0x42, 8), rand=r)
        swapped = Cca1SepScheme.swap_halves(c)
        assert scheme.dec(key, swapped) == key.hidden

    def test_hidden_message_leaks_key(self):
        scheme = Cca1SepScheme(msg_bits=8)
        r = Rand(12)
        key = scheme.key_gen(r)
        c = scheme.enc(key, key.hidden, rand=r)
        assert c.aux == key.base_key

    def test_pinned_r_pins_the_first_half(self):
        scheme = Cca1SepScheme(msg_bits=8)
        r = Rand(13)
        key = scheme.key_gen(r)
        m = BitString(0x42, 8)
        c = scheme.enc(key, m, rand=r, r=BitString(0x5A, 8))
        assert c.r == BitString(0x5A, 8) and scheme.dec(key, c) == m
        with pytest.raises(ValueError, match="randomness width"):
            scheme.enc(key, m, rand=r, r=BitString(0, 9))


class TestCca2Oracle:
    def _setup(self):
        scheme = GoldreichScheme(8)
        r = Rand(13)
        key = scheme.key_gen(r)
        m = r.bits(8)
        c = scheme.enc(key, m, rand=r)
        return scheme, key, m, c, r

    @staticmethod
    def _restricted_dec(scheme, key, forbidden):
        """The phase-2 decryption oracle of a game whose challenge ciphertext is `forbidden`."""
        oracles = OracleSet(scheme, key, None, frozenset({"dec2"}))
        oracles.phase = 2
        oracles.challenge_ct = forbidden
        return oracles.dec

    def test_forbidden_returns_bot(self):
        scheme, key, _, c, _ = self._setup()
        assert self._restricted_dec(scheme, key, c)(c) is BOT and repr(BOT) == "BOT"

    def test_one_bit_difference_decrypts(self):
        scheme, key, m, c, _ = self._setup()
        tweaked = Ciphertext(c.scheme, c.body ^ BitString(1, 8), r=c.r)
        assert self._restricted_dec(scheme, key, c)(tweaked) == m ^ BitString(1, 8)

    def test_behaves_as_dec_when_not_forbidden(self):
        scheme, key, _, c, r = self._setup()
        dec = self._restricted_dec(scheme, key, c)
        for _ in range(20):
            m2 = r.bits(8)
            c2 = scheme.enc(key, m2, rand=r)
            assert dec(c2) == scheme.dec(key, c2)


class TestOwtp:
    def test_toy_rsa_example(self):
        assert owtp_eval((33, 3), 2) == 8
        assert owtp_invert((33, 3), 7, 8) == 2

    def test_identity_over_full_domain(self):
        for x in range(1, 33):
            if math.gcd(x, 33) != 1:
                continue
            assert owtp_invert((33, 3), 7, owtp_eval((33, 3), x)) == x

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            owtp_eval((33, 3), 3)  # shares a factor with the modulus
        with pytest.raises(ValueError):
            owtp_eval((33, 3), 0)

    def test_wrong_trapdoor_flagged(self):
        flagged = 0
        for x in range(2, 22):
            if math.gcd(x, 33) != 1:
                continue
            y = owtp_eval((33, 3), x)
            try:
                got = owtp_invert((33, 3), 11, y)  # 11 is not the inverse of 3 mod 20
                flagged += got != x
            except InversionError:
                flagged += 1
        assert flagged >= 1

    def test_gen_produces_valid_pairs(self):
        r = Rand(15)
        pair = owtp_gen(r, bits=16)
        x = 2
        while math.gcd(x, pair.modulus) != 1:
            x += 1
        assert owtp_invert(pair.index, pair.trapdoor, owtp_eval(pair.index, x)) == x

    def test_gen_keeps_the_modulus_below_two_to_the_bits(self):
        # next_prime of a half-width draw can pass 2**(bits // 2)
        for bits in range(4, 33):
            for seed in range(300):
                pair = owtp_gen(Rand(seed), bits)
                assert pair.modulus < 1 << bits, (bits, seed, pair.modulus)


class TestGoldreichLevin:
    def test_identity_fixed_point(self):
        owp = OwpHandle.identity(4, predicate=lambda x: (x >> 3) & 1)
        out = goldreich_levin_prng(BitString(0b1111, 4), owp)
        assert out == BitString.ones(4)

    def test_matches_iteration_oracle(self):
        r = Rand(16)
        pair = owtp_gen(r, bits=12)
        owp = OwpHandle.from_owtp(pair.index, r.bits(pair.modulus.bit_length()).value)
        seed = 2
        while not owp.contains(seed):
            seed += 1
        out = goldreich_levin_prng(BitString(seed, owp.domain_bits), owp, 16)
        # brute-force loop-and-predicate oracle
        x, expect = seed, []
        for _ in range(16):
            x = owtp_eval(pair.index, x)
            expect.append(owp.hc(x))
        assert [out.bit(i) for i in range(16)] == expect

    def test_distinct_seeds_differ_somewhere(self):
        r = Rand(17)
        pair = owtp_gen(r, bits=12)
        owp = OwpHandle.from_owtp(pair.index, r.bits(pair.modulus.bit_length()).value)

        def sample():
            while True:
                s = r.integer(1, pair.modulus)
                if owp.contains(s):
                    return s

        differs = 0
        for _ in range(10):
            s1, s2 = sample(), sample()
            if s1 == s2:
                continue
            a = goldreich_levin_prng(BitString(s1, owp.domain_bits), owp, 16)
            b = goldreich_levin_prng(BitString(s2, owp.domain_bits), owp, 16)
            differs += a != b
        assert differs >= 1


class TestPkes:
    def test_roundtrip(self):
        scheme = PkesOwtpScheme(8, modulus_bits=14)
        rngs = Rand(18).split(50)
        for r in rngs:
            pk, sk = scheme.key_gen(r)
            m = r.bits(8)
            assert scheme.dec(sk, scheme.enc(pk, m, rand=r)) == m

    def test_pinned_r_pad_identity(self):
        scheme = PkesOwtpScheme(8, modulus_bits=14)
        r = Rand(19)
        pk, sk = scheme.key_gen(r)
        rr = scheme.sample_domain(pk, r)
        m = r.bits(8)
        c = scheme.enc(pk, m, r=rr)
        index, mask = pk
        handle = OwpHandle.from_owtp(index, mask)
        pad = goldreich_levin_prng(BitString(rr, handle.domain_bits), handle, 8)
        assert c.body ^ m == pad
        # transmitted image recomputes from the pinned seed
        assert c.aux.value == owtp_eval(index, rr)

    def test_message_width_checked(self):
        scheme = PkesOwtpScheme(8, modulus_bits=14)
        r = Rand(21)
        pk, _sk = scheme.key_gen(r)
        with pytest.raises(ValueError, match="message width 9 != 8"):
            scheme.enc(pk, BitString(0, 9), rand=r)

    def test_bad_image_rejected(self):
        scheme = PkesOwtpScheme(8, modulus_bits=14)
        r = Rand(20)
        pk, sk = scheme.key_gen(r)
        c = scheme.enc(pk, r.bits(8), rand=r)
        n = pk[0][0]
        bad = next(z for z in range(2, n) if math.gcd(z, n) != 1)
        broken = Ciphertext(c.scheme, c.body, aux=BitString(bad, c.aux.width))
        with pytest.raises(ValueError):
            scheme.dec(sk, broken)


def assert_table_matches_enc(scheme, rand):
    """The superposition oracle's table equals enc's body on every plaintext."""
    key = scheme.key_gen(rand)
    for _ in range(3):
        rr = rand.bits(scheme.r_bits) if scheme.r_bits else None
        table = enc_table(scheme, key, rr)
        for x in range(1 << scheme.msg_bits):
            assert table[x] == scheme.enc(key, BitString(x, scheme.msg_bits), r=rr).body.value


class TestCoreSplit:
    """Pinned-randomness encryption as a permutation (the enc_perm hook)."""

    def test_goldreich_is_quasi_length_preserving(self):
        r = Rand(21)
        for scheme in (GoldreichScheme(4), GoldreichScheme(4, r_bits=3), GoldreichScheme(4, r_bits=6)):
            assert scheme.perm_bits == scheme.msg_bits
            assert_table_matches_enc(scheme, r)

    def test_prp_scheme_expands(self):
        scheme = PrpScheme(4, 2)
        assert scheme.perm_bits > scheme.msg_bits
        assert_table_matches_enc(scheme, Rand(22))

    def test_otp_flag_true(self):
        scheme = OtpScheme(4)
        assert scheme.perm_bits == scheme.msg_bits and scheme.r_bits == 0
        assert_table_matches_enc(scheme, Rand(23))

    def test_superposition_query_checks_a_pinned_r(self):
        scheme = GoldreichScheme(2)
        oracle = OracleSet(scheme, scheme.key_gen(Rand(24)), Rand(25), frozenset({"qenc"}))
        with pytest.raises(ValueError, match="randomness width 3 != 2"):
            oracle.query(StateVector.zero(4), [0, 1], [2, 3], r=BitString(0, 3))

    def test_undeclared_scheme_rejected(self):
        for scheme in (Cca1SepScheme(msg_bits=4), object()):
            with pytest.raises(ValueError, match="no pinned-randomness permutation form"):
                OracleSet(scheme, None, Rand(0), frozenset({"qenc"}))


def test_every_scheme_roundtrips_exhaustively_at_small_width():
    r = Rand(24)
    for scheme in (OtpScheme(4), GoldreichScheme(4), PrpScheme(4, 2)):
        key = scheme.key_gen(r)
        for v in range(16):
            m = BitString(v, 4)
            assert scheme.dec(key, scheme.enc(key, m, rand=r)) == m


def test_wider_widths_roundtrip_on_large_random_sample():
    r = Rand(26)
    for scheme in (OtpScheme(16), GoldreichScheme(16), PrpScheme(10, 4)):
        key = scheme.key_gen(r)
        for _ in range(1000):
            m = r.bits(scheme.msg_bits)
            assert scheme.dec(key, scheme.enc(key, m, rand=r)) == m


def test_randomness_collisions_match_birthday_expectation():
    # pairs of encryptions of one plaintext share r with probability 2^-|r|
    scheme = GoldreichScheme(8, r_bits=8)
    r = Rand(27)
    key = scheme.key_gen(r)
    m = r.bits(8)
    trials = 1000
    collisions = sum(
        scheme.enc(key, m, rand=r).r == scheme.enc(key, m, rand=r).r
        for _ in range(trials)
    )
    p = 2.0**-8
    sigma = (trials * p * (1 - p)) ** 0.5
    assert abs(collisions - trials * p) <= 3 * sigma
