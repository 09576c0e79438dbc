import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsgames import rng
from qsgames.rng import (
    BlumMicaliPrng,
    CounterPrfPrng,
    Rand,
    TableCache,
    _prime_factors,
    bm_recover_state,
    bm_stream_bits,
    dlog_bruteforce,
    is_prime,
    next_prime,
)

PSI_12 = 318_665_857_834_031_151_167_461


def oracle_bm_bits(p, g, s, count):
    # independent reference: direct modular exponentiation loop
    bits = []
    for _ in range(count):
        s = pow(g, s, p)
        bits.append(1 if s < (p - 1) // 2 else 0)
    return bits, s


def lockstep_recover(p, g, n_tag, n_tree, positions, expected, predict_pos):
    """Reference search: every seed advances in lockstep through a power
    table and drops out at its first disagreeing truncated output."""
    if not positions:
        return -1, -1
    table = np.array([pow(g, x, p) for x in range(p)], dtype=np.int64)
    half = (p - 1) // 2
    tree_mask = (1 << n_tree) - 1
    seeds = np.arange(1, p, dtype=np.int64)
    states = seeds.copy()
    alive = np.ones(seeds.shape[0], dtype=bool)
    predictions = np.full(seeds.shape[0], -1, dtype=np.int64)
    obs = dict(zip(positions, expected))
    for pos in range(max(max(positions), predict_pos) + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        vals = np.zeros(idx.size, dtype=np.int64)
        st_ = states[idx]
        for _ in range(n_tag):
            st_ = table[st_]
            vals = (vals << 1) | (st_ < half)
        states[idx] = st_
        vals &= tree_mask
        if pos in obs:
            alive[idx] = vals == obs[pos]
        if pos == predict_pos:
            predictions[idx] = vals
    idx = np.flatnonzero(alive)
    if idx.size == 0:
        return -1, -1
    return int(seeds[idx[0]]), int(predictions[idx[0]])


def truncated_outputs(p, g, seed, n_tag, n_tree, count):
    bits, _ = oracle_bm_bits(p, g, seed, count * n_tag)
    outputs = []
    for j in range(count):
        val = 0
        for b in bits[j * n_tag:(j + 1) * n_tag]:
            val = (val << 1) | b
        outputs.append(val & ((1 << n_tree) - 1))
    return outputs


def sieve(limit):
    """Primality of every n < limit, by the sieve of Eratosthenes."""
    flags = np.ones(limit, dtype=bool)
    flags[:2] = False
    for q in range(2, int(limit ** 0.5) + 1):
        if flags[q]:
            flags[q * q::q] = False
    return flags


def dlog_reference(p, g):
    """Smallest exponent of every element of <g>, by walking the powers."""
    first = {}
    x = 1
    for e in range(p - 1):
        first.setdefault(x, e)
        x = x * g % p
    return first


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

    def test_integer_wide_range(self):
        # a range wider than 2^62 is drawn by rejection on raw bits
        lo, hi = 5, 5 + 3 * (1 << 62)
        r, again = Rand(3), Rand(3)
        vals = [r.integer(lo, hi) for _ in range(50)]
        assert vals == [again.integer(lo, hi) for _ in range(50)]
        assert all(lo <= v < hi for v in vals) and max(vals) - lo > 2 << 62  # reaches the top third


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
        with pytest.raises(ValueError, match="p=24 is not prime"):
            BlumMicaliPrng(24, 5, 3)  # composite modulus
        with pytest.raises(ValueError, match="g=2 is not a generator mod 23"):
            BlumMicaliPrng(23, 2, 3)  # order 11, not a generator

    def test_modulus_cap(self):
        # 7 is a primitive root of the prime 2**31 - 1; the cap that
        # bounds the searches also bounds the factoring of p - 1
        with pytest.raises(ValueError, match="exceeds brute-force cap 2\\*\\*24"):
            BlumMicaliPrng(2**31 - 1, 7, 5)
        assert BlumMicaliPrng(8388617, 3, 5).p == 8388617

    def test_group_check_remembers_only_passes(self):
        rng._check_group.cache_clear()
        for seed in (1, 2, 3):
            BlumMicaliPrng(65537, 3, seed)
            with pytest.raises(ValueError, match="not a generator"):
                BlumMicaliPrng(65537, 2, seed)
        info = rng._check_group.cache_info()
        assert (info.hits, info.currsize) == (2, 1)

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
        outputs = truncated_outputs(p, g, seed, n_tag, n_tree, 8)
        positions = list(range(6))
        found, prediction = bm_recover_state(p, g, n_tag, n_tree, positions, outputs[:6], 7)
        assert found == seed
        assert prediction == outputs[7]

    def test_inconsistent_observations_yield_no_seed(self):
        # 8 observations of 3 bits vastly overconstrain a 13-bit state
        found, prediction = bm_recover_state(12289, 11, 5, 3, list(range(8)), [1, 2, 3, 4, 5, 6, 7, 0], 9)
        assert (found, prediction) == (-1, -1)

    @pytest.mark.parametrize("branch", ["table", "lockstep"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        group=st.sampled_from([(23, 5), (1019, 2), (12289, 11)]),
        widths=st.sampled_from([(5, 4), (5, 3), (3, 3), (4, 9)]),
        positions=st.lists(st.integers(2, 12), min_size=1, max_size=7),
        mode=st.sampled_from(["true", "last-wins", "random", "out-of-range"]),
        predict_pos=st.integers(0, 16),  # before, inside and after the positions
    )
    def test_matches_lockstep_reference(self, branch, data, group, widths, positions, mode, predict_pos):
        (p, g), (n_tag, n_tree) = group, widths
        seed = data.draw(st.integers(1, p - 1))
        truth = truncated_outputs(p, g, seed, n_tag, n_tree, 13)
        expected = [truth[pos] for pos in positions]
        if mode == "last-wins":
            # wrong values on every earlier copy of a repeated position
            for j, pos in enumerate(positions):
                if pos in positions[j + 1:]:
                    expected[j] = (truth[pos] + 1) % (1 << n_tree)
        elif mode == "random":
            expected = [data.draw(st.integers(0, (1 << n_tree) - 1)) for _ in positions]
        elif mode == "out-of-range":
            expected[data.draw(st.integers(0, len(positions) - 1))] = data.draw(st.sampled_from([-1, 1 << n_tree]))
        expected = expected[:len(expected) - data.draw(st.integers(0, len(expected)))]

        cache = TableCache(rng._TABLES.budget)
        if branch == "lockstep":
            # too small for the table: blocks of 1 to p-2 seeds
            block = data.draw(st.integers(1 if p < 100 else (p - 1) // 8, p - 2))
            seed_bytes = np.min_scalar_type((1 << n_tree) - 1).itemsize * (max(positions + [predict_pos]) + 1)
            cache = TableCache(block * seed_bytes)
        seeds_per_call = []
        lockstep_outputs = rng._lockstep_outputs

        def spy(powers, n_tag, n_tree, first, stop, horizon):
            seeds_per_call.append(stop - first)
            return lockstep_outputs(powers, n_tag, n_tree, first, stop, horizon)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "_TABLES", cache)
            mp.setattr(rng, "_lockstep_outputs", spy)
            got = bm_recover_state(p, g, n_tag, n_tree, positions, expected, predict_pos)
        assert got == lockstep_recover(p, g, n_tag, n_tree, positions, expected, predict_pos)
        # the lockstep branch may keep the power table, never an output table
        assert any(key[0] is rng._output_table for key in cache.tables) == (branch == "table")
        # building the table computes all p - 1 seeds in one call; the
        # lockstep branch computes blocks of fewer seeds, and at least one
        blocks = [n for n in seeds_per_call if n < p - 1]
        if branch == "table":
            assert seeds_per_call == [p - 1] and len(blocks) == 0
        else:
            assert len(blocks) >= 1 and blocks == seeds_per_call
        if mode == "true" or (mode == "last-wins" and len(expected) == len(positions)):
            assert got[0] > 0

    def test_cached_tables_stay_within_budget(self, monkeypatch):
        # power tables count against the budget beside the output tables:
        # 12289's power table (96 KiB) is built for its query and not kept
        budget = 16 << 10
        cache = TableCache(budget)
        monkeypatch.setattr(rng, "_TABLES", cache)
        groups = [(23, 5), (1019, 2), (12289, 11), (1019, 2), (12289, 11), (23, 5)]
        for j, (p, g) in enumerate(groups):
            for n_tag, n_tree in ((5, 3), (4, 9)):
                seed = 1 + (j * 7919 + n_tree) % (p - 1)
                truth = truncated_outputs(p, g, seed, n_tag, n_tree, 6)
                positions = [1, 3, 4]
                expected = [truth[pos] for pos in positions]
                got = bm_recover_state(p, g, n_tag, n_tree, positions, expected, 5)
                assert got == lockstep_recover(p, g, n_tag, n_tree, positions, expected, 5)
                assert sum(t.nbytes for t in cache.tables.values()) <= budget
        outputs = [t for key, t in cache.tables.items() if key[0] is rng._output_table]
        assert outputs
        for table in outputs:
            with pytest.raises(ValueError):
                table[0, 0] = 1

    @pytest.mark.parametrize("positions,expected,predict_pos", [
        ([], [], 4), ([], [1], 4), ([-1], [3], -2), ([-2, 3], [0, 5], 4), ([2], [1], -1),
    ])
    def test_degenerate_queries_match_reference(self, positions, expected, predict_pos):
        # no positions, or negative ones: a negative position constrains
        # nothing and a negative predict_pos predicts nothing
        want = lockstep_recover(23, 5, 5, 3, positions, expected, predict_pos)
        assert bm_recover_state(23, 5, 5, 3, positions, expected, predict_pos) == want
        # a modulus below 2 leaves no seed to return
        assert bm_recover_state(1, 5, 5, 3, positions, expected, predict_pos) == (-1, -1)

    def test_modulus_cap(self):
        with pytest.raises(ValueError):
            bm_recover_state((1 << 24) + 43, 2, 5, 3, [0], [1], 1)


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

    @pytest.mark.parametrize("p,g", [(23, 5), (23, 2), (12289, 11), (12289, pow(11, 768, 12289))])
    def test_every_element_matches_reference(self, p, g):
        # g=2 mod 23 has order 11 and 11**768 mod 12289 order 16: the
        # smallest exponent must come back, and everything outside <g>
        # (0 included) must raise
        first = dlog_reference(p, g)
        for h in range(p + 2):
            if h % p in first:
                assert dlog_bruteforce(p, g, h) == first[h % p]
            else:
                with pytest.raises(ValueError):
                    dlog_bruteforce(p, g, h)

    def test_modulus_cap(self):
        with pytest.raises(ValueError):
            dlog_bruteforce((1 << 24) + 43, 2, 5)


class TestPrimes:
    def test_is_prime_matches_sieve(self):
        flags = sieve(1 << 20)
        assert [n for n in range(1 << 20) if is_prime(n)] == np.flatnonzero(flags).tolist()
        assert not any(is_prime(n) for n in range(-5, 0))

    @pytest.mark.parametrize("n", [
        3_215_031_751,  # 151 * 751 * 28351: strong pseudoprime to bases 2, 3, 5 and 7
        3_825_123_056_546_413_051,  # strong pseudoprime to every prime base up to 31; only 37 rejects it
        561, 1729, 294_409,  # Carmichael numbers
        56_052_361, 118_901_521,  # Carmichael numbers with no factor below 200
    ])
    def test_rejects_pseudoprimes(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 2**61 - 1, 2**64 - 59, 8389163, 4194581])
    def test_accepts_large_primes(self, n):
        assert is_prime(n)

    def test_raises_at_bound(self, monkeypatch):
        for n in (PSI_12, PSI_12 + 1, 1 << 80):
            with pytest.raises(ValueError, match="exact only below"):
                is_prime(n)
        # psi_12 = 399165290221 * 798330580441 passes all 12 bases, so
        # the test without its bound would call it prime
        monkeypatch.setattr(rng, "_MR_EXACT_BELOW", 1 << 80)
        assert is_prime(PSI_12)

    def test_next_prime_matches_sieve(self):
        primes = np.flatnonzero(sieve((1 << 20) + 100))
        inputs = np.random.default_rng(7).integers(0, 1 << 20, size=2000).tolist()
        for n in inputs + [-3, 0, 1, 2, 3, 4, 7, 8, (1 << 20) - 1]:
            want = int(primes[np.searchsorted(primes, n, side="right")])
            assert next_prime(n) == want, n

    def test_prime_factors_multiply_back(self):
        inputs = np.random.default_rng(8).integers(1, 1 << 24, size=500).tolist()
        for n in inputs + [1, 2, 4, 65536, 65537 - 1, 8389163 - 1, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23]:
            factors = _prime_factors(n)
            assert factors == sorted(set(factors)) and all(is_prime(q) for q in factors)
            rest = n
            for q in factors:
                assert rest % q == 0
                while rest % q == 0:
                    rest //= q
            assert rest == 1, n


def test_counter_prng_advances():
    prng = CounterPrfPrng(Rand(3))
    vals = [prng.next_value(6).value for _ in range(64)]
    assert len(set(vals)) > 1
    assert prng.state().params["counter"] == 64
