import numpy as np
import pytest

from qsgames.fiatshamir import (
    SIGN_GROUP,
    TOY_GROUP,
    FsSigScheme,
    HardInstance,
    RandomOracleTable,
    SchnorrGroup,
    SigmaTranscript,
    fs_lambda_sign,
    fs_lambda_verify,
    fs_sign,
    fs_verify,
    hvzk_simulate,
    inst_gen,
    lambda_commit,
    lambda_round,
    lambda_smplrnd,
    run_honest,
    schnorr_commit,
    schnorr_respond,
    schnorr_verify,
    semi_constant_oracle,
    special_soundness_extract,
)
from qsgames.rng import Rand


class TestGroupAndInstances:
    def test_bad_groups_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup(23, 12, 2)  # composite order
        with pytest.raises(ValueError):
            SchnorrGroup(24, 11, 2)  # composite modulus
        with pytest.raises(ValueError):
            SchnorrGroup(23, 11, 5)  # order-22 element, not in the subgroup

    def test_instance_example(self):
        inst = HardInstance(TOY_GROUP, pow(2, 3, 23), 3)
        assert inst.x == 8

    def test_zero_witness(self):
        assert pow(TOY_GROUP.g, 0, TOY_GROUP.p) == 1

    def test_generated_instances_satisfy_relation(self):
        r = Rand(0)
        for _ in range(50):
            inst = inst_gen(TOY_GROUP, r)
            assert pow(TOY_GROUP.g, inst.w, TOY_GROUP.p) == inst.x


class TestSchnorr:
    def test_toy_transcript_example(self):
        inst = HardInstance(TOY_GROUP, 8, 3)
        com = schnorr_commit(TOY_GROUP, 5)
        assert com == 9
        resp = schnorr_respond(inst, 5, 2)
        assert resp == 0
        assert schnorr_verify(TOY_GROUP, 8, SigmaTranscript(9, 2, 0))

    def test_zero_challenge_reduces_to_commitment_check(self):
        inst = HardInstance(TOY_GROUP, 8, 3)
        a = 7
        resp = schnorr_respond(inst, a, 0)
        assert resp == a
        assert schnorr_verify(TOY_GROUP, 8, SigmaTranscript(schnorr_commit(TOY_GROUP, a), 0, resp))

    def test_tampered_response_rejected(self):
        r = Rand(1)
        for _ in range(50):
            inst = inst_gen(TOY_GROUP, r)
            t = run_honest(inst, r)
            bad = SigmaTranscript(t.com, t.ch, (t.resp + 1) % TOY_GROUP.q)
            assert not schnorr_verify(TOY_GROUP, inst.x, bad)

    def test_completeness(self):
        r = Rand(2)
        for _ in range(200):
            inst = inst_gen(SIGN_GROUP, r)
            assert schnorr_verify(SIGN_GROUP, inst.x, run_honest(inst, r))


class TestSpecialSoundness:
    def test_example_pair(self):
        w = special_soundness_extract(TOY_GROUP, 8, SigmaTranscript(9, 2, 0), SigmaTranscript(9, 5, 9))
        assert w == 3

    def test_forked_pairs_recover_witness(self):
        r = Rand(3)
        for _ in range(100):
            inst = inst_gen(TOY_GROUP, r)
            a = r.integer(0, TOY_GROUP.q)
            com = schnorr_commit(TOY_GROUP, a)
            ch1, ch2 = 0, 0
            while ch1 == ch2:
                ch1, ch2 = r.integer(0, TOY_GROUP.q), r.integer(0, TOY_GROUP.q)
            t1 = SigmaTranscript(com, ch1, schnorr_respond(inst, a, ch1))
            t2 = SigmaTranscript(com, ch2, schnorr_respond(inst, a, ch2))
            w = special_soundness_extract(TOY_GROUP, inst.x, t1, t2)
            assert pow(TOY_GROUP.g, w, TOY_GROUP.p) == inst.x

    def test_equal_challenges_rejected(self):
        t = SigmaTranscript(9, 2, 0)
        with pytest.raises(ValueError):
            special_soundness_extract(TOY_GROUP, 8, t, t)


class TestHvzk:
    def test_simulated_transcripts_verify(self):
        r = Rand(4)
        inst = inst_gen(TOY_GROUP, r)
        for _ in range(1000):
            assert schnorr_verify(TOY_GROUP, inst.x, hvzk_simulate(TOY_GROUP, inst.x, r))

    def test_simulated_challenge_marginal_uniform(self):
        r = Rand(5)
        inst = inst_gen(TOY_GROUP, r)
        counts = np.zeros(TOY_GROUP.q)
        n = 11000
        for _ in range(n):
            counts[hvzk_simulate(TOY_GROUP, inst.x, r).ch] += 1
        expected = n / TOY_GROUP.q
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 29.59  # 0.999 quantile, 10 degrees of freedom

    def test_exhaustive_distribution_equality(self):
        # honest transcripts over uniform (a, ch) and simulated ones over
        # uniform (ch, resp) induce the same multiset of transcripts
        inst = HardInstance(TOY_GROUP, 8, 3)
        q, g, p, x = TOY_GROUP.q, TOY_GROUP.g, TOY_GROUP.p, 8
        honest = sorted(
            (schnorr_commit(TOY_GROUP, a), ch, schnorr_respond(inst, a, ch))
            for a in range(q)
            for ch in range(q)
        )
        x_inv = pow(x, -1, p)
        simulated = sorted(
            ((pow(g, resp, p) * pow(x_inv, ch, p)) % p, ch, resp)
            for ch in range(q)
            for resp in range(q)
        )
        assert honest == simulated


class TestRandomOracle:
    def test_consistency(self):
        oracle = RandomOracleTable(11, Rand(6))
        assert oracle.query("a", 1, 2) == oracle.query("a", 1, 2)

    def test_encoding_is_injective(self):
        oracle = RandomOracleTable(1 << 30, Rand(7))
        # length prefixes keep ("ab", "c") and ("a", "bc") distinct
        assert oracle.query("ab", "c") != oracle.query("a", "bc") or oracle.fresh_queries == 2

    def test_semi_constant_delta_one_constant(self):
        oracle = semi_constant_oracle(1.0, 5, seed=8, q=11)
        assert all(oracle.query("x", i) == 5 for i in range(50))

    def test_semi_constant_delta_zero_uniform(self):
        oracle = semi_constant_oracle(0.0, 5, seed=9, q=11)
        vals = {oracle.query("x", i) for i in range(200)}
        assert len(vals) == 11  # lazily sampled uniform table covers Z_q

    def test_semi_constant_fraction(self):
        n = 10000
        delta = 0.25
        oracle = semi_constant_oracle(delta, 3, seed=10, q=1 << 16)
        hits = sum(oracle.query("x", i) == 3 for i in range(n))
        sigma = (delta * (1 - delta) / n) ** 0.5
        assert abs(hits / n - delta) <= 3 * sigma

    def test_delta_outside_unit_interval_rejected(self):
        for delta in (-0.1, 1.5):
            with pytest.raises(ValueError, match="delta must lie in"):
                semi_constant_oracle(delta, 2, seed=13, q=11)
            with pytest.raises(ValueError, match="delta must lie in"):
                RandomOracleTable(11, Rand(13), delta=delta)

    def test_consistent_across_modes(self):
        for oracle in (RandomOracleTable(11, Rand(11)), semi_constant_oracle(0.5, 2, 12, 11)):
            first = [oracle.query("m", i) for i in range(30)]
            again = [oracle.query("m", i) for i in range(30)]
            assert first == again


class TestFsSignatures:
    def test_sign_verify_roundtrip(self):
        r = Rand(15)
        oracle = RandomOracleTable(SIGN_GROUP.q, r.child())
        inst = inst_gen(SIGN_GROUP, r)
        for i in range(100):
            m = f"message-{i}"
            sig = fs_sign(inst, m, oracle, r)
            assert fs_verify(SIGN_GROUP, inst.x, m, sig, oracle)

    def test_wrong_public_key_rejected(self):
        r = Rand(16)
        oracle = RandomOracleTable(SIGN_GROUP.q, r.child())
        rejected = 0
        for i in range(50):
            inst, other = inst_gen(SIGN_GROUP, r), inst_gen(SIGN_GROUP, r)
            sig = fs_sign(inst, "m", oracle, r)
            rejected += not fs_verify(SIGN_GROUP, other.x, "m", sig, oracle)
        assert rejected >= 49

    def test_deterministic_given_oracle_and_coins(self):
        inst = inst_gen(SIGN_GROUP, Rand(17))
        o1 = RandomOracleTable(SIGN_GROUP.q, Rand(18))
        o2 = RandomOracleTable(SIGN_GROUP.q, Rand(18))
        assert fs_sign(inst, "m", o1, Rand(19)) == fs_sign(inst, "m", o2, Rand(19))


class TestLambda:
    def test_commit_examples(self):
        assert lambda_commit(TOY_GROUP, 8, 0) == 1
        # exhaustive coin recovery at q = 11
        for rr in range(TOY_GROUP.q):
            assert lambda_smplrnd(TOY_GROUP, 8, lambda_commit(TOY_GROUP, 8, rr)) == rr

    def test_commitment_marginal_uniform(self):
        coms = {lambda_commit(TOY_GROUP, 8, rr) for rr in range(TOY_GROUP.q)}
        assert len(coms) == TOY_GROUP.q

    def test_oblivious_commitment_distributions_match(self):
        # verifier-generated (r, com, ch, resp) and prover-generated
        # transcripts with recovered coins induce identical multisets
        inst = HardInstance(TOY_GROUP, 8, 3)
        q = TOY_GROUP.q
        oblivious = sorted(
            (rr, lambda_commit(TOY_GROUP, 8, rr), ch, schnorr_respond(inst, rr, ch))
            for rr in range(q)
            for ch in range(q)
        )
        honest = sorted(
            (lambda_smplrnd(TOY_GROUP, 8, schnorr_commit(TOY_GROUP, a)),
             schnorr_commit(TOY_GROUP, a), ch, schnorr_respond(inst, a, ch))
            for a in range(q)
            for ch in range(q)
        )
        assert oblivious == honest

    def test_lambda_round_verifies(self):
        r = Rand(20)
        inst = inst_gen(TOY_GROUP, r)
        for _ in range(20):
            _, t = lambda_round(inst, r)
            assert schnorr_verify(TOY_GROUP, inst.x, t)

    def test_lambda_sign_verify_roundtrip(self):
        r = Rand(21)
        oracle = RandomOracleTable(SIGN_GROUP.q, r.child())
        inst = inst_gen(SIGN_GROUP, r)
        for i in range(100):
            m = f"message-{i}"
            sig = fs_lambda_sign(inst, m, oracle, r)
            assert fs_lambda_verify(SIGN_GROUP, inst.x, m, sig, oracle)

    def test_tampered_randomness_rejected(self):
        r = Rand(22)
        oracle = RandomOracleTable(SIGN_GROUP.q, r.child())
        inst = inst_gen(SIGN_GROUP, r)
        rejected = 0
        for i in range(100):
            sig = fs_lambda_sign(inst, f"m{i}", oracle, r)
            from qsgames.fiatshamir import FsSignature

            bad = FsSignature("lambda", (sig.first + 1) % SIGN_GROUP.q, sig.resp)
            rejected += not fs_lambda_verify(SIGN_GROUP, inst.x, f"m{i}", bad, oracle)
        assert rejected >= 99  # fails except when the fresh challenge happens to fit

    def test_challenge_recomputable(self):
        # the challenge is derived from (pk, m, r), so verifying twice
        # against the same oracle agrees without it being transmitted
        r = Rand(23)
        oracle = RandomOracleTable(SIGN_GROUP.q, r.child())
        inst = inst_gen(SIGN_GROUP, r)
        sig = fs_lambda_sign(inst, "m", oracle, r)
        assert fs_lambda_verify(SIGN_GROUP, inst.x, "m", sig, oracle)
        assert fs_lambda_verify(SIGN_GROUP, inst.x, "m", sig, oracle)


def test_sig_scheme_adapter_forms():
    for form in ("sigma", "lambda"):
        scheme = FsSigScheme(form=form)
        r = Rand(24)
        pk, sk = scheme.key_gen(r)
        oracle = scheme.fresh_oracle(r.child())
        sig = scheme.sign(sk, "hello", oracle, r)
        assert scheme.verify(pk, "hello", sig, oracle)
        assert sig.form == form
    with pytest.raises(ValueError):
        FsSigScheme(form="other")
