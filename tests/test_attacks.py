import pytest

from qsgames import attacks, games, qscheme, schemes
from qsgames.bits import BitString
from qsgames.oram import OramParams, oram_access, oram_init
from qsgames.rng import BlumMicaliPrng, Rand


BM_P, BM_G = 65537, 3


def bm_factory(n_db=16):
    def factory(rand):
        params = OramParams(n_db=n_db, n_dat=8)
        return oram_init(params, rand, prng=BlumMicaliPrng(BM_P, BM_G, rand.integer(1, BM_P)))

    return factory


def secure_factory(n_db=16):
    def factory(rand):
        return oram_init(OramParams(n_db=n_db, n_dat=8), rand)

    return factory


class TestOtpReuse:
    def test_wins_against_pad(self):
        scheme = schemes.OtpScheme(8)
        adv = attacks.OtpReuseAttack(8)
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cpa"), 200, 0)
        assert res.successes == 200

    def test_null_against_randomized_scheme(self):
        scheme = schemes.GoldreichScheme(8)
        adv = attacks.OtpReuseAttack(8)
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cpa"), 600, 1)
        assert abs(res.advantage) <= games.three_sigma(600)

    def test_deterministic_given_seed(self):
        scheme = schemes.OtpScheme(8)
        adv = attacks.OtpReuseAttack(8)
        assert [games.game_ind(scheme, adv, Rand(s), variant="cpa") for s in range(10)] == \
            [games.game_ind(scheme, adv, Rand(s), variant="cpa") for s in range(10)]


class TestCca1Attack:
    def test_wins_against_paired_scheme(self):
        scheme = schemes.Cca1SepScheme(msg_bits=8)
        adv = attacks.Cca1CounterexampleAttack(scheme)
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cca1"), 200, 2)
        assert res.successes == 200

    def test_cpa_grant_triggers_discipline_error(self):
        scheme = schemes.Cca1SepScheme(msg_bits=8)
        adv = attacks.Cca1CounterexampleAttack(scheme)
        with pytest.raises(games.GameProtocolError):
            games.game_ind(scheme, adv, Rand(3), variant="cpa")

    def test_null_against_plain_scheme(self):
        scheme = schemes.GoldreichScheme(8)
        adv = attacks.Cca1CounterexampleAttack(schemes.Cca1SepScheme(msg_bits=8))
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cca1"), 600, 4)
        assert abs(res.advantage) <= games.three_sigma(600)

    def test_probing_the_hidden_message_reads_the_key_without_decrypting(self):
        class ZeroHidden(schemes.Cca1SepScheme):
            """The hidden message is the attack's all-zero probe."""

            def key_gen(self, rand):
                return schemes.Cca1Key(self.base.key_gen(rand), BitString.zeros(self.msg_bits))

        scheme = ZeroHidden(msg_bits=8)
        adv = attacks.Cca1CounterexampleAttack(scheme)
        # the cpa grant denies decryption, so every win read the key off the probe
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cpa"), 50, 12)
        assert res.successes == 50

    def test_unrecognised_plaintext_falls_back_to_a_coin(self):
        scheme = schemes.Cca1SepScheme(msg_bits=8)
        adv = attacks.Cca1CounterexampleAttack(scheme)
        key = scheme.key_gen(Rand(13))
        challenge = scheme.enc(key, BitString(0x5A, 8), rand=Rand(14))
        state = (key.base_key, BitString.zeros(8), BitString.ones(8))
        guesses = [adv.guess(challenge, state, None, Rand(s)) for s in range(20)]
        assert guesses == [Rand(s).coin() for s in range(20)] and set(guesses) == {0, 1}


class TestCca2Attack:
    def test_wins_against_xor_core(self):
        scheme = schemes.GoldreichScheme(8)
        adv = attacks.Cca2FlipAttack(8)
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cca2"), 200, 5)
        assert res.successes == 200

    def test_flipped_query_is_accepted_and_challenge_rejected(self):
        scheme = schemes.GoldreichScheme(8)
        r = Rand(6)
        key = scheme.key_gen(r)
        oracles = games.OracleSet(scheme, key, r, frozenset({"enc", "dec1", "dec2"}))
        challenge = scheme.enc(key, BitString(0, 8), rand=r)
        oracles.phase = 2
        oracles.challenge_ct = challenge
        assert oracles.dec(challenge) is schemes.BOT
        flipped = schemes.Ciphertext(challenge.scheme, challenge.body ^ BitString.ones(8),
                                     r=challenge.r)
        assert isinstance(oracles.dec(flipped), BitString)

    def test_null_against_permutation_scheme(self):
        scheme = schemes.PrpScheme(8, 4)
        adv = attacks.Cca2FlipAttack(8)
        res = games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r, variant="cca2"), 600, 7)
        assert abs(res.advantage) <= games.three_sigma(600)

    def test_rejected_related_ciphertext_falls_back_to_a_coin(self):
        scheme = schemes.GoldreichScheme(8)
        adv = attacks.Cca2FlipAttack(8)
        key = scheme.key_gen(Rand(15))
        challenge = scheme.enc(key, BitString.zeros(8), rand=Rand(16))
        related = schemes.Ciphertext(challenge.scheme, challenge.body ^ BitString.ones(8), r=challenge.r)
        oracles = games.OracleSet(scheme, key, None, frozenset({"dec2"}))
        # an oracle whose forbidden ciphertext is the flipped one answers the attack's query with BOT
        oracles.phase, oracles.challenge_ct = 2, related
        guesses = [adv.guess(challenge, None, oracles, Rand(s)) for s in range(20)]
        assert guesses == [Rand(s).coin() for s in range(20)] and set(guesses) == {0, 1}


class TestHadamard:
    def test_win_bit_depends_only_on_challenge_bit(self):
        for inner in (schemes.OtpScheme(3), schemes.GoldreichScheme(3)):
            lift = qscheme.Type2LiftScheme(inner)
            adv = attacks.HadamardDistinguisher(3)
            for seed in range(10):
                assert games.game_qind(lift, adv, Rand(seed), forced_b=0) == 1
                assert games.game_qind(lift, adv, Rand(seed), forced_b=1) == 1

    def test_bounded_against_expanding_scheme(self):
        lift = qscheme.Type2LiftScheme(schemes.PrpScheme(2, 4))
        adv = attacks.HadamardDistinguisher(2)
        res = games.estimate_advantage(lambda r: games.game_qind(lift, adv, r), 400, 8)
        assert abs(res.advantage) <= 4 / 16 + games.three_sigma(400)


class TestBmOramAttack:
    def test_beats_predictable_generator(self):
        adv = attacks.bm_oram_attack(16, BM_P, BM_G)
        res = games.estimate_advantage(
            lambda r: games.game_ap_ind_cqa(bm_factory(), adv, r, q1_max=18), 60, 9
        )
        assert res.successes >= 55

    def test_null_against_secure_generator(self):
        adv = attacks.bm_oram_attack(16, BM_P, BM_G)
        res = games.estimate_advantage(
            lambda r: games.game_ap_ind_cqa(secure_factory(), adv, r, q1_max=18), 300, 10
        )
        assert abs(res.advantage) <= games.three_sigma(300)

    def test_no_history_degrades_to_guessing(self):
        adv = attacks.bm_oram_attack(0, BM_P, BM_G)
        res = games.estimate_advantage(
            lambda r: games.game_ap_ind_cqa(bm_factory(), adv, r, q1_max=4), 400, 11
        )
        assert abs(res.advantage) <= games.three_sigma(400)

    def test_answered_attack_asks_nothing_more(self):
        # once it has answered, phase 2 asks for nothing and keeps the
        # answer, whatever view it is shown
        adv = attacks.bm_oram_attack(0, BM_P, BM_G)
        adv.begin(Rand(14), OramParams(n_db=16, n_dat=8))
        assert adv.phase2_request(None) is None  # no history: it answers with a coin
        answer = adv.answer
        assert answer in (0, 1) and adv.phase2_request(None) is None and adv.answer == answer

    def test_leaf_history_matches_client_log(self):
        # white-box: the leaves the attack scrapes off transcripts are
        # exactly the truncated generator outputs the client consumed
        params = OramParams(n_db=16, n_dat=8)
        rand = Rand(12)
        client, server = oram_init(params, rand, prng=BlumMicaliPrng(BM_P, BM_G, 777))
        adv = attacks.bm_oram_attack(8, BM_P, BM_G, target_id=3)
        adv.begin(rand.child(), params)
        view = None
        while True:
            dr = adv.phase1_request(view)
            if dr is None:
                break
            _, _, view = oram_access(client, server, dr)
        adv.phase1_request(view)  # deliver the last view
        expected = [client.leaf_log[3 - 1]] + [
            client.leaf_log[params.n_db + t - 1] for t in range(1, 8)
        ]
        assert adv.leaves == expected

    def test_prediction_matches_actual_remap(self):
        params = OramParams(n_db=16, n_dat=8)
        rand = Rand(13)
        client, server = oram_init(params, rand, prng=BlumMicaliPrng(BM_P, BM_G, 31337))
        adv = attacks.bm_oram_attack(8, BM_P, BM_G)
        adv.begin(rand.child(), params)
        view = None
        while True:
            dr = adv.phase1_request(view)
            if dr is None:
                break
            _, _, view = oram_access(client, server, dr)
        adv.phase1_request(view)
        adv.challenge()
        assert adv.prediction == client.position_map[1]


class TestQapDistinguishers:
    def test_tag_only_null(self):
        from qsgames.qoram import qoram_init

        factory = lambda r: qoram_init(OramParams(n_db=2, n_dat=1), r)
        adv = attacks.TagOnlyQapDistinguisher(k_queries=3)
        res = games.estimate_advantage(
            lambda r: games.game_qap_ind_cqa(factory, adv, r), 200, 14
        )
        assert abs(res.advantage) <= games.three_sigma(200)

    def test_payload_only_null(self):
        from qsgames.qoram import qoram_init

        factory = lambda r: qoram_init(OramParams(n_db=2, n_dat=1), r)
        adv = attacks.PayloadOnlyQapDistinguisher()
        res = games.estimate_advantage(
            lambda r: games.game_qap_ind_cqa(factory, adv, r), 200, 15
        )
        assert abs(res.advantage) <= games.three_sigma(200)

