"""Named experiment registry for the batch runner.

The catalog is one table, `CATALOG`: every row pairs a game with a
concrete adversary, carries documented parameter defaults, and knows
its own acceptance predicate (certainty for the break experiments, a
3-sigma null band for the hardened targets, stated bounds for the
channel experiments).

A row's `trial(params)` is called once per run.  It builds the scheme
and the adversary and returns the one-trial function `rand -> win bit`
that `ExperimentDef.run` hands to the trial loop.  Rows name games as
`games.<name>` inside that call, never at import, so wrappers installed
on the games module before a run (the benchmark's tracer) see every
trial.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from . import attacks, games, qscheme, schemes
from . import fiatshamir as fs
from .bits import BitString
from .oram import OramParams, oram_init
from .qoram import qoram_init
from .quantum import StateVector, apply_gate, measure_computational
from .rng import BlumMicaliPrng, Rand

DEFAULT_SEED = 7
DEFAULT_BM_P = 65537
DEFAULT_BM_G = 3


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    description: str
    claim: str
    defaults: dict
    trial: Callable  # params -> one-trial function
    passes: Callable  # (result, params) -> bool
    pass_rule: str
    # trial loop (one_trial, trials, seed) -> ExperimentResult for a row
    # whose trials are not independent; by default the games module's
    loop: Callable | None = None

    def run(self, trials: int | None = None, seed: int | None = None,
            overrides: dict | None = None) -> tuple[games.ExperimentResult, bool]:
        overrides = overrides or {}
        unknown = sorted(set(overrides) - set(self.defaults))
        if unknown:
            raise ValueError(f"unknown parameter(s) {', '.join(unknown)}; "
                             f"{self.name} takes {', '.join(sorted(self.defaults))}")
        for key, value in overrides.items():  # exact types: a bool is not an int
            if type(value) is not type(self.defaults[key]):
                raise ValueError(f"{key}={value!r} has type {type(value).__name__}, but its default "
                                 f"{self.defaults[key]!r} has type {type(self.defaults[key]).__name__}")
        params = {**self.defaults, **overrides}
        default_trials, default_seed = params.pop("trials"), params.pop("seed")
        trials = int(default_trials) if trials is None else trials
        seed = int(default_seed) if seed is None else seed
        loop = self.loop or games.estimate_advantage
        result = loop(self.trial(params), trials, seed)
        result.game = self.name
        result.params = {**params, "trials": trials}
        return result, bool(self.passes(result, params))


# ---------------------------------------------------------------------------
# pass predicates
# ---------------------------------------------------------------------------


def _all_wins(result, params) -> bool:
    return result.successes == result.trials


def _no_wins(result, params) -> bool:
    return result.successes == 0


def _null_band(result, params) -> bool:
    return abs(result.advantage) <= games.three_sigma(result.trials)


def _prp_bound(result, params) -> bool:
    bound = 4 / (1 << params["r_bits"])
    return abs(result.advantage) <= bound + games.three_sigma(result.trials)


# ---------------------------------------------------------------------------
# trial builders and adversaries that the rows share
# ---------------------------------------------------------------------------


def _cca1_break(p):
    scheme = schemes.Cca1SepScheme(msg_bits=p["msg_bits"])
    # the attack wraps the very scheme instance the game encrypts under
    return partial(games.game_ind, scheme, attacks.Cca1CounterexampleAttack(scheme), variant="cca1")


_LIFT_TARGETS = {"otp": schemes.OtpScheme, "goldreich": schemes.GoldreichScheme}


def _lift_target(p):
    if p["scheme"] not in _LIFT_TARGETS:
        raise ValueError(f"scheme must be one of {', '.join(sorted(_LIFT_TARGETS))}, "
                         f"got {p['scheme']!r}")
    return qscheme.Type2LiftScheme(_LIFT_TARGETS[p["scheme"]](p["m"]))


class _HadamardQuery:
    """One superposition encryption query on the uniform superposition;
    the challenge guess is a bit of the measured query output."""

    def __init__(self, m: int):
        self.m = m

    def choose(self, oracle, rand):
        m = self.m
        st = StateVector.zero(2 * m)
        for j in range(m):
            st = apply_gate(st, "H", [j])
        st, _ = oracle.query(st, list(range(m)), list(range(m, 2 * m)))
        out, _ = measure_computational(st, list(range(2 * m)), rand)
        return BitString.zeros(m), BitString.ones(m), out.value & 1

    def guess(self, ct, held, oracle, rand):
        return held


class _SameArms:
    """A challenge whose two arms are one random pure state, judged by
    the given distinguisher."""

    def __init__(self, m: int, distinguisher):
        self.m = m
        self.distinguish = distinguisher.distinguish

    def challenge(self, rand, oracle=None):
        arm = StateVector.random(self.m, rand)
        return games.QindChallenge.product(arm, arm)


def _paired_trials(one_trial, trials: int, seed: int) -> games.ExperimentResult:
    """Trial loop that plays pair i under both challenge bits.

    Each bit's half is the games module's trial loop at the same seed,
    so trial i of both halves draws the same randomness and pair i sees
    it under both bits; `ci95` is 0 because the pairing, not sampling,
    fixes the outcome.
    """
    if trials < 2:
        raise ValueError("needs at least 2 trials to pair the challenge bits")
    half = trials // 2
    runs = [games.estimate_advantage(partial(one_trial, forced_b=b), half, seed) for b in (0, 1)]
    wins = sum(run.successes for run in runs)
    return games.ExperimentResult(
        game="paired", params={}, trials=2 * half, successes=wins,
        advantage=wins / (2 * half) - 0.5, ci95=0.0, seed=seed,
        runtime_ms=sum(run.runtime_ms for run in runs),
    )


def _two_ids(p):
    """The row's parameters, once n_db holds ids 1 and 2, which the two
    challenge arms of the access-pattern adversaries touch."""
    if p["n_db"] < 2:
        raise ValueError(f"n_db must be at least 2 (the challenge touches ids 1 and 2), got {p['n_db']}")
    return p


def _oram_factory(p, init, prng=None):
    """Per-trial set-up of an ORAM of the row's size: `init(params, rand,
    prng=...)`, where `prng(p, rand)`, if given, draws the position-map
    generator from the trial's randomness first."""
    def factory(rand: Rand):
        params = OramParams(n_db=p["n_db"], n_dat=p["n_dat"])
        return init(params, rand, prng=prng(p, rand) if prng else None)

    return factory


def _bm_prng(p, rand: Rand) -> BlumMicaliPrng:
    return BlumMicaliPrng(p["p"], p["g"], rand.integer(1, p["p"]))


def _random_forgery(p):
    scheme = fs.FsSigScheme(form=p["form"])
    return partial(games.game_euf_cma, scheme, games.RandomForger(scheme))


def _sign_and_verify(scheme, rand: Rand) -> int:
    pk, sk = scheme.key_gen(rand)
    oracle = scheme.fresh_oracle(rand.child())
    m = f"msg-{rand.integer(0, 1 << 30)}"
    sig = scheme.sign(sk, m, oracle, rand)
    return int(scheme.verify(pk, m, sig, oracle))


# ---------------------------------------------------------------------------
# the catalog: name, description, claim, defaults, trial, predicate, rule
# ---------------------------------------------------------------------------

_NULL = "|advantage| <= 3 sigma"

CATALOG = (
    # classical indistinguishability
    ExperimentDef(
        "fair-coin-calibration",
        "random-guess adversary against the pad, sanity for the null band",
        "a guessing adversary has advantage 0",
        {"msg_bits": 8, "trials": 10000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.OtpScheme(p["msg_bits"]),
                          games.RandomGuessAdversary(p["msg_bits"])),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "otp-reuse-break",
        "ciphertext-comparison attack against the deterministic pad under chosen plaintexts",
        "plain indistinguishability does not survive an encryption oracle",
        {"msg_bits": 8, "trials": 200, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.OtpScheme(p["msg_bits"]),
                          attacks.OtpReuseAttack(p["msg_bits"]), variant="cpa"),
        _all_wins, "wins every trial",
    ),
    ExperimentDef(
        "otp-reuse-null",
        "the same comparison attack against the randomized PRF scheme",
        "fresh encryption randomness defeats ciphertext comparison",
        {"msg_bits": 8, "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.GoldreichScheme(p["msg_bits"]),
                          attacks.OtpReuseAttack(p["msg_bits"]), variant="cpa"),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "cca1-counterexample-break",
        "swap-and-decrypt key recovery against the paired-ciphertext scheme",
        "chosen-plaintext security does not survive pre-challenge decryption queries",
        {"msg_bits": 8, "trials": 200, "seed": DEFAULT_SEED},
        _cca1_break,
        _all_wins, "wins every trial",
    ),
    ExperimentDef(
        "cca1-counterexample-null",
        "the same attack against the unpaired PRF scheme",
        "without the leaking second half the attack degrades to guessing",
        {"msg_bits": 8, "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.GoldreichScheme(p["msg_bits"]),
                          attacks.Cca1CounterexampleAttack(
                              schemes.Cca1SepScheme(msg_bits=p["msg_bits"])), variant="cca1"),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "cca2-flip-break",
        "related-ciphertext decryption against the malleable XOR core",
        "pre-challenge-only decryption security does not survive the rejecting oracle game",
        {"msg_bits": 8, "trials": 200, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.GoldreichScheme(p["msg_bits"]),
                          attacks.Cca2FlipAttack(p["msg_bits"]), variant="cca2"),
        _all_wins, "wins every trial",
    ),
    ExperimentDef(
        "cca2-flip-null",
        "the same bit-flip attack against the permutation-based scheme",
        "a non-malleable ciphertext space defeats the flip-and-decrypt query",
        {"msg_bits": 8, "r_bits": 4, "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.PrpScheme(p["msg_bits"], p["r_bits"]),
                          attacks.Cca2FlipAttack(p["msg_bits"]), variant="cca2"),
        _null_band, _NULL,
    ),
    # quantum challenges
    ExperimentDef(
        "hadamard-impossibility",
        "uniform-superposition distinguisher against an in-place lift of a "
        "quasi-length-preserving scheme",
        "no scheme whose core preserves message length hides quantum challenge states",
        {"m": 4, "scheme": "otp", "trials": 100, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_qind, _lift_target(p), attacks.HadamardDistinguisher(p["m"])),
        _all_wins, "wins every trial",
    ),
    ExperimentDef(
        "hadamard-prp-bound",
        "the same distinguisher against the expanding permutation scheme",
        "advantage bounded by 4/2^r for r randomness bits per block",
        {"m": 2, "r_bits": 4, "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_qind,
                          qscheme.Type2LiftScheme(schemes.PrpScheme(p["m"], p["r_bits"])),
                          attacks.HadamardDistinguisher(p["m"])),
        _prp_bound, "|advantage| <= 4/2^r + 3 sigma",
    ),
    ExperimentDef(
        "ind-qcpa-hadamard-null",
        "superposition encryption queries against the PRF scheme with a "
        "classical challenge",
        "superposition learning alone does not break the classical challenge",
        {"m": 4, "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ind, schemes.GoldreichScheme(p["m"]),
                          _HadamardQuery(p["m"]), variant="qcpa"),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "qind-identical-arms",
        "any distinguisher against a challenge whose two arms are the same state",
        "identical challenge arms give every adversary advantage exactly 0",
        {"m": 2, "trials": 200, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_qind,
                          qscheme.Type2LiftScheme(schemes.GoldreichScheme(p["m"])),
                          _SameArms(p["m"], attacks.HadamardDistinguisher(p["m"]))),
        lambda result, params: result.advantage == 0.0,
        "advantage exactly 0 over paired challenge bits",
        loop=_paired_trials,
    ),
    # access patterns
    ExperimentDef(
        "bm-oram-separation",
        "generator-state recovery against the tree ORAM with the modular-"
        "exponentiation position map",
        "a predictable position-map generator breaks access-pattern privacy",
        {"p": DEFAULT_BM_P, "g": DEFAULT_BM_G, "k": 16, "n_db": 16, "n_dat": 8,
         "trials": 200, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ap_ind_cqa, _oram_factory(_two_ids(p), oram_init, _bm_prng),
                          attacks.bm_oram_attack(p["k"], p["p"], p["g"]), q1_max=p["k"] + 2),
        lambda result, params: result.successes / result.trials >= 0.95,
        "wins at least 95% of trials",
    ),
    ExperimentDef(
        "bm-oram-null",
        "the same attack against the ORAM with an unstructured position map",
        "hardening the generator restores access-pattern privacy",
        {"p": DEFAULT_BM_P, "g": DEFAULT_BM_G, "k": 16, "n_db": 16, "n_dat": 8,
         "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ap_ind_cqa, _oram_factory(_two_ids(p), oram_init),
                          attacks.bm_oram_attack(p["k"], p["p"], p["g"]), q1_max=p["k"] + 2),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "leaf-frequency-null",
        "leaf-matching distinguisher against the hardened ORAM",
        "announced leaves are fresh uniform values, so matching them is guessing",
        {"k": 8, "n_db": 16, "n_dat": 8, "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_ap_ind_cqa, _oram_factory(_two_ids(p), oram_init),
                          attacks.LeafFrequencyDistinguisher(k_queries=p["k"]), q1_max=p["k"] + 2),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "qap-tag-null",
        "different ids, equal payloads, against the quantum tree ORAM",
        "which id an access touches stays hidden",
        {"n_db": 2, "n_dat": 1, "k": 4, "trials": 500, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_qap_ind_cqa, _oram_factory(_two_ids(p), qoram_init),
                          attacks.TagOnlyQapDistinguisher(k_queries=p["k"]), q1_max=p["k"] + 2),
        _null_band, _NULL,
    ),
    ExperimentDef(
        "qap-payload-null",
        "same id, orthogonal payload states, against the quantum tree ORAM",
        "fresh pads make ciphertext registers carry no payload signal",
        {"n_db": 2, "n_dat": 1, "trials": 500, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_qap_ind_cqa, _oram_factory(p, qoram_init),
                          attacks.PayloadOnlyQapDistinguisher()),
        _null_band, _NULL,
    ),
    # forgeries
    ExperimentDef(
        "euf-replay-null",
        "honest re-signer handing back a queried signature",
        "freshness is enforced: replays never count as forgeries",
        {"form": "sigma", "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(games.game_euf_cma, fs.FsSigScheme(form=p["form"]), games.ReplayForger()),
        _no_wins, "zero wins",
    ),
    ExperimentDef(
        "euf-random-null",
        "uniformly random signature components on a fresh message",
        "blind forgeries hit the verification equation with probability 1/q",
        {"form": "sigma", "trials": 1000, "seed": DEFAULT_SEED},
        _random_forgery,
        _no_wins, "zero wins",
    ),
    ExperimentDef(
        "fs-roundtrip",
        "honest sign/verify cycle for the hash-transform signatures",
        "completeness: honest signatures always verify",
        {"form": "sigma", "trials": 1000, "seed": DEFAULT_SEED},
        lambda p: partial(_sign_and_verify, fs.FsSigScheme(form=p["form"])),
        _all_wins, "verifies every trial",
    ),
)

REGISTRY: dict[str, ExperimentDef] = {e.name: e for e in CATALOG}


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
