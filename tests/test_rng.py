import pytest

from qsgames.rng import (
    BlumMicaliPrng,
    CounterPrfPrng,
    Rand,
    bm_recover_state,
    bm_stream_bits,
    dlog_bruteforce,
)


def oracle_bm_bits(p, g, s, count):
    # independent reference: direct modular exponentiation loop
    bits = []
    for _ in range(count):
        s = pow(g, s, p)
        bits.append(1 if s < (p - 1) // 2 else 0)
    return bits, s


class TestRand:
    def test_deterministic(self):
        assert Rand(5).bits(64) == Rand(5).bits(64)

    def test_split_children_differ(self):
        a, b = Rand(5).split(2)
        assert a.bits(64) != b.bits(64)

    def test_split_deterministic(self):
        a1, _ = Rand(5).split(2)
        a2, _ = Rand(5).split(2)
        assert a1.bits(64) == a2.bits(64)

    def test_integer_range(self):
        r = Rand(1)
        vals = {r.integer(3, 7) for _ in range(100)}
        assert vals <= {3, 4, 5, 6} and len(vals) == 4


class TestBlumMicali:
    def test_step_examples(self):
        _, s = bm_stream_bits(23, 5, 3, 1)
        assert s == 10
        _, s = bm_stream_bits(23, 5, s, 1)
        assert s == 9
        prng = BlumMicaliPrng(23, 5, 3)
        prng.next_value(1)
        assert prng.state().params["s"] == 10
        prng.next_value(1)
        assert prng.state().params["s"] == 9 and prng.state().emitted == 2

    def test_degenerate_generator_rejected(self):
        with pytest.raises(ValueError):
            BlumMicaliPrng(23, 1, 1)
        with pytest.raises(ValueError):
            BlumMicaliPrng(24, 5, 3)  # composite modulus
        with pytest.raises(ValueError):
            BlumMicaliPrng(23, 2, 3)  # order 11, not a generator

    def test_stream_matches_independent_oracle(self):
        expect_bits, expect_state = oracle_bm_bits(23, 5, 3, 40)
        got_bits, got_state = bm_stream_bits(23, 5, 3, 40)
        assert list(got_bits) == expect_bits
        assert got_state == expect_state

    def test_prng_values_deterministic_in_seed(self):
        a = BlumMicaliPrng(65537, 3, 999)
        b = BlumMicaliPrng(65537, 3, 999)
        assert [a.next_value(5) for _ in range(8)] == [b.next_value(5) for _ in range(8)]

    def test_state_snapshot(self):
        prng = BlumMicaliPrng(23, 5, 3)
        prng.next_value(4)
        assert prng.state().emitted == 4


class TestRecovery:
    def test_recovers_seed_from_truncated_outputs(self):
        p, g, seed = 12289, 11, 4242
        n_tag, n_tree = 5, 3
        bits, _ = oracle_bm_bits(p, g, seed, 8 * n_tag)
        outputs = []
        for j in range(8):
            chunk = bits[j * n_tag:(j + 1) * n_tag]
            val = 0
            for b in chunk:
                val = (val << 1) | b
            outputs.append(val & ((1 << n_tree) - 1))
        positions = list(range(6))
        found, prediction = bm_recover_state(p, g, n_tag, n_tree, positions, outputs[:6], 7)
        assert found == seed
        assert prediction == outputs[7]

    def test_inconsistent_observations_yield_no_seed(self):
        # 8 observations of 3 bits vastly overconstrain a 13-bit state
        found, prediction = bm_recover_state(12289, 11, 5, 3, list(range(8)), [1, 2, 3, 4, 5, 6, 7, 0], 9)
        assert (found, prediction) == (-1, -1)


class TestDlog:
    def test_examples(self):
        assert dlog_bruteforce(23, 5, 10) == 3
        assert dlog_bruteforce(23, 5, 1) == 0

    def test_outside_subgroup(self):
        # 5 generates all of Z_23*, so pick an element outside a smaller group
        with pytest.raises(ValueError):
            dlog_bruteforce(23, 2, 5)  # ord(2) = 11; 5 = 2^? has no solution

    def test_matches_pow(self):
        for x in (1, 7, 100, 4095):
            assert dlog_bruteforce(12289, 11, pow(11, x, 12289)) == x


def test_counter_prng_advances():
    prng = CounterPrfPrng(Rand(3))
    vals = [prng.next_value(6).value for _ in range(64)]
    assert len(set(vals)) > 1
    assert prng.state().params["counter"] == 64
