"""Named experiment registry for the batch runner.

Every entry pairs a game with a concrete adversary, carries documented
parameter defaults, and knows its own acceptance predicate (certainty
for the break experiments, a 3-sigma null band for the hardened
targets, stated bounds for the channel experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import attacks, games, qscheme, schemes
from . import fiatshamir as fs
from .bits import BitString
from .oram import OramParams, oram_init
from .qoram import qoram_init
from .rng import BlumMicaliPrng, Rand

DEFAULT_SEED = 7
DEFAULT_BM_P = 65537
DEFAULT_BM_G = 3


@dataclass
class ExperimentDef:
    name: str
    description: str
    claim: str
    defaults: dict
    runner: object
    passes: object
    pass_rule: str = ""

    def run(self, trials: int | None = None, seed: int | None = None,
            overrides: dict | None = None) -> tuple[games.ExperimentResult, bool]:
        overrides = overrides or {}
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise ValueError(f"unknown parameter(s) {', '.join(unknown)}; "
                             f"{self.name} takes {', '.join(sorted(self.defaults))}")
        params = {**self.defaults, **overrides}
        trials = int(params.pop("trials")) if trials is None else trials
        seed = int(params.pop("seed")) if seed is None else seed
        params.pop("trials", None)
        params.pop("seed", None)
        result = self.runner(trials, seed, params)
        result.game = self.name
        result.params = {**params, "trials": trials}
        return result, bool(self.passes(result, params))


REGISTRY: dict[str, ExperimentDef] = {}


def register(name, description, claim, defaults, runner, passes, pass_rule=""):
    REGISTRY[name] = ExperimentDef(name, description, claim, defaults, runner, passes, pass_rule)


def list_experiments() -> list[dict]:
    return [
        {
            "name": e.name,
            "description": e.description,
            "claim": e.claim,
            "defaults": dict(e.defaults),
            "pass_rule": e.pass_rule,
        }
        for e in sorted(REGISTRY.values(), key=lambda e: e.name)
    ]


def get(name: str) -> ExperimentDef:
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; see the catalog")
    return REGISTRY[name]


# ---------------------------------------------------------------------------
# pass predicates
# ---------------------------------------------------------------------------


def _all_wins(result, params) -> bool:
    return result.successes == result.trials


def _null_band(result, params) -> bool:
    return abs(result.advantage) <= games.three_sigma(result.trials)


def _rate_at_least(threshold: float):
    def check(result, params):
        return result.successes / result.trials >= threshold

    return check


# ---------------------------------------------------------------------------
# classical indistinguishability experiments
# ---------------------------------------------------------------------------


def _run_fair_coin(trials, seed, p):
    scheme = schemes.OtpScheme(p["msg_bits"])
    adv = games.RandomGuessAdversary(p["msg_bits"])
    return games.estimate_advantage(lambda r: games.game_ind(scheme, adv, r), trials, seed)


register(
    "fair-coin-calibration",
    "random-guess adversary against the pad, sanity for the null band",
    "a guessing adversary has advantage 0",
    {"msg_bits": 8, "trials": 10000, "seed": DEFAULT_SEED},
    _run_fair_coin,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _run_otp_reuse(trials, seed, p):
    scheme = schemes.OtpScheme(p["msg_bits"])
    adv = attacks.otp_reuse_attack(p["msg_bits"])
    return games.estimate_advantage(lambda r: games.game_ind_cpa(scheme, adv, r), trials, seed)


register(
    "otp-reuse-break",
    "ciphertext-comparison attack against the deterministic pad under chosen plaintexts",
    "plain indistinguishability does not survive an encryption oracle",
    {"msg_bits": 8, "trials": 200, "seed": DEFAULT_SEED},
    _run_otp_reuse,
    _all_wins,
    "wins every trial",
)


def _run_otp_reuse_null(trials, seed, p):
    scheme = schemes.GoldreichScheme(p["msg_bits"])
    adv = attacks.otp_reuse_attack(p["msg_bits"])
    return games.estimate_advantage(lambda r: games.game_ind_cpa(scheme, adv, r), trials, seed)


register(
    "otp-reuse-null",
    "the same comparison attack against the randomized PRF scheme",
    "fresh encryption randomness defeats ciphertext comparison",
    {"msg_bits": 8, "trials": 1000, "seed": DEFAULT_SEED},
    _run_otp_reuse_null,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _run_cca1_break(trials, seed, p):
    scheme = schemes.Cca1SepScheme(msg_bits=p["msg_bits"])
    adv = attacks.cca1_counterexample_attack(scheme)
    return games.estimate_advantage(lambda r: games.game_ind_cca1(scheme, adv, r), trials, seed)


register(
    "cca1-counterexample-break",
    "swap-and-decrypt key recovery against the paired-ciphertext scheme",
    "chosen-plaintext security does not survive pre-challenge decryption queries",
    {"msg_bits": 8, "trials": 200, "seed": DEFAULT_SEED},
    _run_cca1_break,
    _all_wins,
    "wins every trial",
)


def _run_cca1_null(trials, seed, p):
    scheme = schemes.GoldreichScheme(p["msg_bits"])
    base = schemes.Cca1SepScheme(msg_bits=p["msg_bits"])
    adv = attacks.cca1_counterexample_attack(base)
    return games.estimate_advantage(lambda r: games.game_ind_cca1(scheme, adv, r), trials, seed)


register(
    "cca1-counterexample-null",
    "the same attack against the unpaired PRF scheme",
    "without the leaking second half the attack degrades to guessing",
    {"msg_bits": 8, "trials": 1000, "seed": DEFAULT_SEED},
    _run_cca1_null,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _run_cca2_break(trials, seed, p):
    scheme = schemes.GoldreichScheme(p["msg_bits"])
    adv = attacks.cca2_flip_attack(p["msg_bits"])
    return games.estimate_advantage(lambda r: games.game_ind_cca2(scheme, adv, r), trials, seed)


register(
    "cca2-flip-break",
    "related-ciphertext decryption against the malleable XOR core",
    "pre-challenge-only decryption security does not survive the rejecting oracle game",
    {"msg_bits": 8, "trials": 200, "seed": DEFAULT_SEED},
    _run_cca2_break,
    _all_wins,
    "wins every trial",
)


def _run_cca2_null(trials, seed, p):
    scheme = schemes.PrpScheme(p["msg_bits"], p["r_bits"])
    adv = attacks.cca2_flip_attack(p["msg_bits"])
    return games.estimate_advantage(lambda r: games.game_ind_cca2(scheme, adv, r), trials, seed)


register(
    "cca2-flip-null",
    "the same bit-flip attack against the permutation-based scheme",
    "a non-malleable ciphertext space defeats the flip-and-decrypt query",
    {"msg_bits": 8, "r_bits": 4, "trials": 1000, "seed": DEFAULT_SEED},
    _run_cca2_null,
    _null_band,
    "|advantage| <= 3 sigma",
)


# ---------------------------------------------------------------------------
# quantum-challenge experiments
# ---------------------------------------------------------------------------

_LIFT_TARGETS = {
    "otp": lambda m: schemes.OtpScheme(m),
    "goldreich": lambda m: schemes.GoldreichScheme(m),
}


def _run_hadamard(trials, seed, p):
    inner = _LIFT_TARGETS[p["scheme"]](p["m"])
    lift = qscheme.Type2LiftScheme(inner)
    adv = attacks.hadamard_distinguisher(p["m"])
    return games.estimate_advantage(lambda r: games.game_qind(lift, adv, r), trials, seed)


register(
    "hadamard-impossibility",
    "uniform-superposition distinguisher against an in-place lift of a "
    "quasi-length-preserving scheme",
    "no scheme whose core preserves message length hides quantum challenge states",
    {"m": 4, "scheme": "otp", "trials": 100, "seed": DEFAULT_SEED},
    _run_hadamard,
    _all_wins,
    "wins every trial",
)


def _run_hadamard_prp(trials, seed, p):
    prp = schemes.PrpScheme(p["m"], p["r_bits"])
    lift = qscheme.Type2LiftScheme(prp)
    adv = attacks.hadamard_distinguisher(p["m"])
    return games.estimate_advantage(lambda r: games.game_qind(lift, adv, r), trials, seed)


def _prp_bound(result, params):
    bound = 4 / (1 << params["r_bits"])
    return abs(result.advantage) <= bound + games.three_sigma(result.trials)


register(
    "hadamard-prp-bound",
    "the same distinguisher against the expanding permutation scheme",
    "advantage bounded by 4/2^r for r randomness bits per block",
    {"m": 2, "r_bits": 4, "trials": 1000, "seed": DEFAULT_SEED},
    _run_hadamard_prp,
    _prp_bound,
    "|advantage| <= 4/2^r + 3 sigma",
)


def _run_qcpa_null(trials, seed, p):
    scheme = schemes.GoldreichScheme(p["m"])

    class HadamardQuery:
        def choose(self, oracle, rand):
            from .quantum import StateVector, apply_gate, measure_computational

            m = p["m"]
            st = StateVector.zero(2 * m)
            for j in range(m):
                st = apply_gate(st, "H", [j])
            st, _ = oracle.query(st, list(range(m)), list(range(m, 2 * m)))
            out, _ = measure_computational(st, list(range(2 * m)), rand)
            return BitString.zeros(m), BitString.ones(m), out.value & 1

        def guess(self, ct, held, oracle, rand):
            return held

    return games.estimate_advantage(
        lambda r: games.game_ind_qcpa(scheme, HadamardQuery(), r), trials, seed
    )


register(
    "ind-qcpa-hadamard-null",
    "superposition encryption queries against the PRF scheme with a "
    "classical challenge",
    "superposition learning alone does not break the classical challenge",
    {"m": 4, "trials": 1000, "seed": DEFAULT_SEED},
    _run_qcpa_null,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _run_qind_identical(trials, seed, p):
    if trials < 2:
        raise ValueError("qind-identical-arms needs at least 2 trials to pair the challenge bits")
    lift = qscheme.Type2LiftScheme(schemes.GoldreichScheme(p["m"]))
    adv = attacks.hadamard_distinguisher(p["m"])

    class SameArms:
        def challenge(self, rand, oracle=None):
            from .quantum import DensityMatrix

            arm = DensityMatrix.random_pure(p["m"], rand)
            return games.QindChallenge.product(arm, arm)

        distinguish = staticmethod(adv.distinguish)

    import numpy as np

    import time

    t0 = time.perf_counter()
    wins = 0
    half = trials // 2
    # fresh sequence objects with identical entropy replay the stream
    # exactly, giving both challenge bits the same randomness
    for i in range(half):
        wins += games.game_qind(lift, SameArms(), Rand(np.random.SeedSequence((seed, i))), forced_b=0)
        wins += games.game_qind(lift, SameArms(), Rand(np.random.SeedSequence((seed, i))), forced_b=1)
    result = games.ExperimentResult(
        game="qind-identical-arms",
        params=dict(p),
        trials=2 * half,
        successes=wins,
        advantage=wins / (2 * half) - 0.5,
        ci95=0.0,
        seed=seed,
        runtime_ms=(time.perf_counter() - t0) * 1000,
    )
    return result


register(
    "qind-identical-arms",
    "any distinguisher against a challenge whose two arms are the same state",
    "identical challenge arms give every adversary advantage exactly 0",
    {"m": 2, "trials": 200, "seed": DEFAULT_SEED},
    _run_qind_identical,
    lambda result, params: result.advantage == 0.0,
    "advantage exactly 0 over paired challenge bits",
)


# ---------------------------------------------------------------------------
# access-pattern experiments
# ---------------------------------------------------------------------------


def _bm_factory(p):
    def factory(rand: Rand):
        params = OramParams(n_db=p["n_db"], n_dat=p["n_dat"])
        prng = BlumMicaliPrng(p["p"], p["g"], rand.integer(1, p["p"]))
        return oram_init(params, rand, prng=prng)

    return factory


def _secure_factory(p):
    def factory(rand: Rand):
        return oram_init(OramParams(n_db=p["n_db"], n_dat=p["n_dat"]), rand)

    return factory


def _run_bm_separation(trials, seed, p):
    adv = attacks.bm_oram_attack(p["k"], p["p"], p["g"])
    return games.estimate_advantage(
        lambda r: games.game_ap_ind_cqa(_bm_factory(p), adv, r, q1_max=p["k"] + 2),
        trials, seed,
    )


register(
    "bm-oram-separation",
    "generator-state recovery against the tree ORAM with the modular-"
    "exponentiation position map",
    "a predictable position-map generator breaks access-pattern privacy",
    {"p": DEFAULT_BM_P, "g": DEFAULT_BM_G, "k": 16, "n_db": 16, "n_dat": 8,
     "trials": 200, "seed": DEFAULT_SEED},
    _run_bm_separation,
    _rate_at_least(0.95),
    "wins at least 95% of trials",
)


def _run_bm_null(trials, seed, p):
    adv = attacks.bm_oram_attack(p["k"], p["p"], p["g"])
    return games.estimate_advantage(
        lambda r: games.game_ap_ind_cqa(_secure_factory(p), adv, r, q1_max=p["k"] + 2),
        trials, seed,
    )


register(
    "bm-oram-null",
    "the same attack against the ORAM with an unstructured position map",
    "hardening the generator restores access-pattern privacy",
    {"p": DEFAULT_BM_P, "g": DEFAULT_BM_G, "k": 16, "n_db": 16, "n_dat": 8,
     "trials": 1000, "seed": DEFAULT_SEED},
    _run_bm_null,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _run_leaf_frequency_null(trials, seed, p):
    adv = attacks.LeafFrequencyDistinguisher(k_queries=p["k"])
    return games.estimate_advantage(
        lambda r: games.game_ap_ind_cqa(_secure_factory(p), adv, r, q1_max=p["k"] + 2),
        trials, seed,
    )


register(
    "leaf-frequency-null",
    "leaf-matching distinguisher against the hardened ORAM",
    "announced leaves are fresh uniform values, so matching them is guessing",
    {"k": 8, "n_db": 16, "n_dat": 8, "trials": 1000, "seed": DEFAULT_SEED},
    _run_leaf_frequency_null,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _qoram_factory(p):
    def factory(rand: Rand):
        return qoram_init(OramParams(n_db=p["n_db"], n_dat=p["n_dat"]), rand)

    return factory


def _run_qap_tag(trials, seed, p):
    adv = attacks.TagOnlyQapDistinguisher(k_queries=p["k"])
    return games.estimate_advantage(
        lambda r: games.game_qap_ind_cqa(_qoram_factory(p), adv, r), trials, seed
    )


register(
    "qap-tag-null",
    "different ids, equal payloads, against the quantum tree ORAM",
    "which id an access touches stays hidden",
    {"n_db": 2, "n_dat": 1, "k": 4, "trials": 500, "seed": DEFAULT_SEED},
    _run_qap_tag,
    _null_band,
    "|advantage| <= 3 sigma",
)


def _run_qap_payload(trials, seed, p):
    adv = attacks.PayloadOnlyQapDistinguisher()
    return games.estimate_advantage(
        lambda r: games.game_qap_ind_cqa(_qoram_factory(p), adv, r), trials, seed
    )


register(
    "qap-payload-null",
    "same id, orthogonal payload states, against the quantum tree ORAM",
    "fresh pads make ciphertext registers carry no payload signal",
    {"n_db": 2, "n_dat": 1, "trials": 500, "seed": DEFAULT_SEED},
    _run_qap_payload,
    _null_band,
    "|advantage| <= 3 sigma",
)


# ---------------------------------------------------------------------------
# forgery experiments
# ---------------------------------------------------------------------------


def _run_forger(trials, seed, p, forger_kind):
    scheme = fs.FsSigScheme(form=p["form"])
    if forger_kind == "replay":
        forger = games.ReplayForger()
    else:
        forger = games.RandomForger(scheme)
    return games.estimate_advantage(
        lambda r: games.game_euf_cma(scheme, forger, r), trials, seed
    )


register(
    "euf-replay-null",
    "honest re-signer handing back a queried signature",
    "freshness is enforced: replays never count as forgeries",
    {"form": "sigma", "trials": 1000, "seed": DEFAULT_SEED},
    lambda t, s, p: _run_forger(t, s, p, "replay"),
    lambda result, params: result.successes == 0,
    "zero wins",
)

register(
    "euf-random-null",
    "uniformly random signature components on a fresh message",
    "blind forgeries hit the verification equation with probability 1/q",
    {"form": "sigma", "trials": 1000, "seed": DEFAULT_SEED},
    lambda t, s, p: _run_forger(t, s, p, "random"),
    lambda result, params: result.successes == 0,
    "zero wins",
)


def _run_fs_roundtrip(trials, seed, p):
    scheme = fs.FsSigScheme(form=p["form"])

    def one(rand: Rand) -> int:
        pk, sk = scheme.key_gen(rand)
        oracle = scheme.fresh_oracle(rand.child())
        m = f"msg-{rand.integer(0, 1 << 30)}"
        sig = scheme.sign(sk, m, oracle, rand)
        return int(scheme.verify(pk, m, sig, oracle))

    return games.estimate_advantage(one, trials, seed)


register(
    "fs-roundtrip",
    "honest sign/verify cycle for the hash-transform signatures",
    "completeness: honest signatures always verify",
    {"form": "sigma", "trials": 1000, "seed": DEFAULT_SEED},
    _run_fs_roundtrip,
    _all_wins,
    "verifies every trial",
)
