import json

import numpy as np
import pytest

from qsgames import attacks, games, qscheme, schemes
from qsgames.bits import BitString
from qsgames.fiatshamir import FsSigScheme
from qsgames.games import (
    GameProtocolError,
    QindChallenge,
    RandomForger,
    RandomGuessAdversary,
    ReplayForger,
    estimate_advantage,
    game_euf_cma,
    game_ind,
    game_qind,
    three_sigma,
)
from qsgames.quantum import DensityMatrix, StateVector
from qsgames.rng import Rand


class TestEstimateAdvantage:
    def test_always_win(self):
        res = estimate_advantage(lambda r: 1, 100, seed=0)
        assert res.advantage == 0.5 and res.ci95 == 0.0

    def test_fair_coin_within_band(self):
        res = estimate_advantage(lambda r: r.coin(), 10000, seed=1)
        assert abs(res.advantage) <= three_sigma(10000)

    def test_same_seed_identical(self):
        a = estimate_advantage(lambda r: r.coin(), 500, seed=2)
        b = estimate_advantage(lambda r: r.coin(), 500, seed=2)
        assert (a.successes, a.advantage) == (b.successes, b.advantage)

    def test_json_schema(self):
        res = estimate_advantage(lambda r: 1, 10, seed=3)
        obj = json.loads(res.to_json())
        assert set(obj) == {"game", "params", "trials", "successes", "advantage",
                            "ci95", "seed", "runtime_ms"}

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            estimate_advantage(lambda r: 1, 0, seed=4)


class TestOracleDiscipline:
    class DecInPhase2:
        def choose(self, oracles, rand):
            return BitString.zeros(8), BitString.ones(8), None

        def guess(self, ct, state, oracles, rand):
            oracles.dec(ct)
            return 0

    class DecInPhase1:
        def choose(self, oracles, rand):
            c = oracles.enc(BitString.zeros(8))
            oracles.dec(c)
            return BitString.zeros(8), BitString.ones(8), None

        def guess(self, ct, state, oracles, rand):
            return 0

    def test_plain_game_has_no_oracles(self):
        scheme = schemes.GoldreichScheme(8)
        with pytest.raises(GameProtocolError):
            game_ind(scheme, self.DecInPhase1(), Rand(0), variant="plain")

    def test_cpa_denies_decryption(self):
        scheme = schemes.GoldreichScheme(8)
        with pytest.raises(GameProtocolError):
            game_ind(scheme, self.DecInPhase1(), Rand(1), variant="cpa")

    def test_cca1_denies_post_challenge_decryption(self):
        scheme = schemes.GoldreichScheme(8)
        with pytest.raises(GameProtocolError):
            game_ind(scheme, self.DecInPhase2(), Rand(2), variant="cca1")

    def test_cca2_returns_bot_on_challenge(self):
        scheme = schemes.GoldreichScheme(8)

        class QueryChallenge:
            def choose(self, oracles, rand):
                return BitString.zeros(8), BitString.ones(8), None

            def guess(self, ct, state, oracles, rand):
                assert oracles.dec(ct) is schemes.BOT
                tweaked = schemes.Ciphertext(ct.scheme, ct.body ^ BitString(1, 8), r=ct.r)
                assert isinstance(oracles.dec(tweaked), BitString)
                return 0

        game_ind(scheme, QueryChallenge(), Rand(3), variant="cca2")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            game_ind(schemes.OtpScheme(4), RandomGuessAdversary(4), Rand(4), variant="x")

    class CallsOnce:
        """Makes one oracle call in the given phase, then guesses 0."""

        def __init__(self, phase, call):
            self.phase, self.call = phase, call

        def choose(self, oracles, rand):
            if self.phase == 1:
                self.call(oracles)
            return BitString.zeros(8), BitString.ones(8), None

        def guess(self, ct, state, oracles, rand):
            if self.phase == 2:
                self.call(oracles)
            return 0

    def test_qcpa_grants_only_superposition_queries(self):
        scheme = schemes.GoldreichScheme(8)
        enc = lambda oracles: oracles.enc(BitString.zeros(8))
        dec = lambda oracles: oracles.dec(schemes.Ciphertext(scheme.name, BitString.zeros(8), r=BitString.zeros(8)))
        for phase, call, message in [
            (1, enc, "encryption oracle not granted in this game"),
            (2, enc, "encryption oracle not granted in this game"),
            (1, dec, "decryption oracle not granted before the challenge"),
            (2, dec, "decryption oracle not granted after the challenge"),
        ]:
            with pytest.raises(GameProtocolError, match=message):
                game_ind(scheme, self.CallsOnce(phase, call), Rand(6), variant="qcpa")

    def test_cpa_denies_superposition_queries(self):
        scheme = schemes.GoldreichScheme(8)
        query = lambda oracles: oracles.query(StateVector.zero(2), [0], [1])
        for phase in (1, 2):
            with pytest.raises(GameProtocolError, match="superposition encryption oracle not granted"):
                game_ind(scheme, self.CallsOnce(phase, query), Rand(7), variant="cpa")

    def test_qind_without_cpa_grant_denies_encryption(self):
        lift = qscheme.Type2LiftScheme(schemes.GoldreichScheme(2))

        class EncryptsFirst:
            def challenge(self, rand, oracle):
                oracle.enc(DensityMatrix.basis(2, 0))

        with pytest.raises(GameProtocolError, match="encryption oracle not granted in this game"):
            game_qind(lift, EncryptsFirst(), Rand(8))

    def test_qind_unknown_challenge_form(self):
        lift = qscheme.Type2LiftScheme(schemes.OtpScheme(2))
        with pytest.raises(ValueError, match="unknown challenge form 'circuits'"):
            game_qind(lift, attacks.HadamardDistinguisher(2), Rand(9), challenge_form="circuits")

    def test_signing_budget_enforced(self):
        scheme = FsSigScheme()

        class Greedy:
            def forge(self, pk, sign_oracle, ro, rand):
                for i in range(5):
                    sign_oracle(f"m{i}")
                return "x", None

        with pytest.raises(GameProtocolError):
            game_euf_cma(scheme, Greedy(), Rand(5), q_s=3)


class TestBaselines:
    def test_random_guess_null(self):
        scheme = schemes.OtpScheme(8)
        res = estimate_advantage(
            lambda r: game_ind(scheme, RandomGuessAdversary(8), r), 2000, seed=6
        )
        assert abs(res.advantage) <= three_sigma(2000)

    def test_forgers(self):
        scheme = FsSigScheme()
        assert estimate_advantage(
            lambda r: game_euf_cma(scheme, ReplayForger(), r), 200, seed=7
        ).successes == 0
        assert estimate_advantage(
            lambda r: game_euf_cma(scheme, RandomForger(scheme), r), 200, seed=8
        ).successes == 0

    def test_key_forger_sanity(self):
        scheme = FsSigScheme()

        def one(rand):
            pk, sk = scheme.key_gen(rand)
            oracle = scheme.fresh_oracle(rand.child())
            # given the secret key out of band, forging is free
            m = "never queried"
            sig = scheme.sign(sk, m, oracle, rand)
            return int(scheme.verify(pk, m, sig, oracle))

        assert estimate_advantage(one, 50, seed=9).successes == 50


class TestQcpaGame:
    def test_basis_embedding_matches_classical(self):
        scheme = schemes.GoldreichScheme(4)
        reuse = attacks.OtpReuseAttack(4)

        class BasisEmbed:
            def _wrap(self, qoracle):
                outer = self

                class Wrapped:
                    def enc(self, m):
                        mbits = scheme.msg_bits
                        state = StateVector.basis(2 * mbits, m.value << mbits)
                        out, r = qoracle.query(state, list(range(mbits)),
                                               list(range(mbits, 2 * mbits)))
                        idx = int(np.argmax(np.abs(out.amps)))
                        return schemes.Ciphertext(scheme.name,
                                                  BitString(idx & ((1 << mbits) - 1), mbits), r=r)

                return Wrapped()

            def choose(self, qoracle, rand):
                return reuse.choose(self._wrap(qoracle), rand)

            def guess(self, ct, state, qoracle, rand):
                return reuse.guess(ct, state, self._wrap(qoracle), rand)

        for seed in range(30):
            assert game_ind(scheme, reuse, Rand(seed), variant="cpa") == \
                game_ind(scheme, BasisEmbed(), Rand(seed), variant="qcpa")

    def test_query_unquery_preserves_state(self):
        scheme = schemes.GoldreichScheme(3)
        key = scheme.key_gen(Rand(10))
        oracle = games.OracleSet(scheme, key, Rand(11), frozenset({"qenc"}))
        st = StateVector.random(6, Rand(12))
        rr = BitString(0b101, 3)
        once, _ = oracle.query(st, [0, 1, 2], [3, 4, 5], r=rr)
        twice, _ = oracle.query(once, [0, 1, 2], [3, 4, 5], r=rr)
        assert twice.overlap(st) > 1 - 1e-10


class TestQindGame:
    def test_product_and_entangled_paths_agree_for_product_inputs(self):
        lift = qscheme.Type2LiftScheme(schemes.GoldreichScheme(2))
        adv = attacks.HadamardDistinguisher(2)

        class EntangledForm:
            def challenge(self, rand, oracle=None):
                ch = adv.challenge(rand, oracle)
                return QindChallenge.entangled(ch.arm0.tensor(ch.arm1), 0, 2)

            distinguish = staticmethod(adv.distinguish)

        for seed in range(10):
            assert game_qind(lift, adv, Rand(seed)) == game_qind(lift, EntangledForm(), Rand(seed))

    def test_descriptions_form(self):
        from qsgames.quantum import CircuitDescription

        lift = qscheme.Type2LiftScheme(schemes.OtpScheme(2))
        adv = attacks.HadamardDistinguisher(2)

        class DescForm:
            def challenge(self, rand, oracle=None):
                d0 = CircuitDescription(2, [{"g": "H", "t": [0]}, {"g": "H", "t": [1]}])
                d1 = CircuitDescription(2, [{"g": "X", "t": [0]}, {"g": "X", "t": [1]},
                                            {"g": "H", "t": [0]}, {"g": "H", "t": [1]}])
                return d0, d1

            distinguish = staticmethod(adv.distinguish)

        wins = sum(
            game_qind(lift, DescForm(), r, challenge_form="descriptions")
            for r in Rand(13).split(50)
        )
        assert wins == 50

    def test_cpa_grant_provides_oracle(self):
        lift = qscheme.Type2LiftScheme(schemes.GoldreichScheme(2))

        class UsesOracle:
            def challenge(self, rand, oracle=None):
                assert oracle is not None
                qc = oracle.enc(DensityMatrix.basis(2, 0))
                assert qc.payload.n_qubits == 2
                a = attacks.HadamardDistinguisher(2).challenge(rand)
                return a

            def distinguish(self, state, env, classical, rand, oracle=None):
                assert oracle is not None
                return attacks.HadamardDistinguisher(2).distinguish(state, env, classical, rand)

        wins = sum(games.game_qind(lift, UsesOracle(), r, grant_cpa=True) for r in Rand(14).split(20))
        assert wins == 20

    def test_mismatched_arm_dimensions_rejected(self):
        with pytest.raises(ValueError):
            QindChallenge.product(DensityMatrix.basis(1, 0), DensityMatrix.basis(2, 0))

    def test_challenge_argument_guards(self):
        # [env | arm 0 | arm 1] with one env qubit and 1-qubit arms is 3 qubits
        with pytest.raises(ValueError, match="joint state has 2 qubits, expected 3"):
            QindChallenge.entangled(DensityMatrix.basis(2, 0), 1, 1)
        with pytest.raises(ValueError, match="either both arms or a joint state"):
            QindChallenge(1, arm0=DensityMatrix.basis(1, 0))


class TestApGameBudgets:
    def test_learning_budget_enforced(self):
        from qsgames.oram import DataRequest, OramParams, oram_init

        class Chatty:
            def begin(self, rand, params):
                self.params = params

            def phase1_request(self, view):
                return DataRequest("read", 1)

            def challenge(self):
                return DataRequest("read", 1), DataRequest("read", 2)

            def phase2_request(self, view):
                return None

            def output(self):
                return 0

        factory = lambda r: oram_init(OramParams(n_db=4, n_dat=4), r)
        with pytest.raises(GameProtocolError):
            games.game_ap_ind_cqa(factory, Chatty(), Rand(15), q1_max=5)

    def test_invalid_challenge_id_rejected(self):
        from qsgames.oram import DataRequest, OramParams, oram_init

        class BadChallenge:
            def begin(self, rand, params):
                pass

            def phase1_request(self, view):
                return None

            def challenge(self):
                return DataRequest("read", 1), DataRequest("read", 99)

        factory = lambda r: oram_init(OramParams(n_db=4, n_dat=4), r)
        with pytest.raises(GameProtocolError):
            games.game_ap_ind_cqa(factory, BadChallenge(), Rand(16))

    def test_quantum_invalid_challenge_id_rejected(self):
        from qsgames.oram import OramParams
        from qsgames.qoram import QuantumDataRequest, qoram_init

        class BadChallenge:
            def begin(self, rand, params):
                pass

            def phase1_request(self, view):
                return None

            def challenge(self):
                return QuantumDataRequest("read", 1), QuantumDataRequest("read", 9)

            def phase2_request(self, view):
                return None

            def output(self):
                return 0

        factory = lambda r: qoram_init(OramParams(n_db=2, n_dat=1), r)
        with pytest.raises(GameProtocolError):
            games.game_qap_ind_cqa(factory, BadChallenge(), Rand(16), forced_b=0)

    def test_identical_challenge_requests_have_exactly_zero_advantage(self):
        from qsgames.oram import DataRequest, OramParams, oram_init

        class SameRequests:
            def begin(self, rand, params):
                self._rand = rand
                self.seen = None

            def phase1_request(self, view):
                return None

            def challenge(self):
                return DataRequest("read", 1), DataRequest("read", 1)

            def phase2_request(self, view):
                if self.seen is None:
                    self.seen = view.transcript.leaf
                return None

            def output(self):
                return self.seen & 1  # any function of the view

        factory = lambda r: oram_init(OramParams(n_db=4, n_dat=4), r)
        wins = 0
        for i in range(40):
            # fresh sequence objects with identical entropy replay exactly
            wins += games.game_ap_ind_cqa(
                factory, SameRequests(), Rand(np.random.SeedSequence((17, i))), forced_b=0
            )
            wins += games.game_ap_ind_cqa(
                factory, SameRequests(), Rand(np.random.SeedSequence((17, i))), forced_b=1
            )
        assert wins == 40  # identical arms: exactly half of the paired runs
