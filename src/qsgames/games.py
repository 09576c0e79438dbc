"""Security-game harnesses with enforced oracle discipline.

Each game_* function plays one trial and returns the win bit (guess
equals the challenge bit).  estimate_advantage runs seeded independent
trials and reports successes/trials - 1/2 with a normal-approximation
confidence interval.

Both indistinguishability games, game_ind and game_qind, hand the
adversary one oracle type, OracleSet, whose grants name the oracles
the game allows: classical or quantum-plaintext encryption ("enc"),
superposition encryption queries ("qenc", IND-qCPA) and decryption
before and after the challenge ("dec1", "dec2").  A call outside the
grant, or a signing-budget overrun, raises GameProtocolError; the
post-challenge decryption oracle answers the challenge ciphertext
itself with the value BOT, not an error.

Both access-pattern games hand the adversary the AccessPattern of
each access: the server's views before and after it, and its leaf and
down/up views.

These harnesses certify concrete adversaries and statistical null
results at fixed sizes; they never certify universal security.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .bits import BitString
from .oram import oram_access
from .qoram import qoram_access
from .quantum import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    build_from_description,
    partial_trace,
    type1_oracle,
)
from .rng import Rand
from .schemes import BOT, Ciphertext, fresh_r, require_enc_perm


class GameProtocolError(Exception):
    """An adversary stepped outside its oracle grant."""


@dataclass
class ExperimentResult:
    game: str
    params: dict
    trials: int
    successes: int
    advantage: float
    ci95: float
    seed: int
    runtime_ms: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _ci95(successes: int, trials: int) -> float:
    # normal approximation; the guard keeps the implied interval inside
    # the achievable proportion range (and degenerate outcomes report 0)
    p = successes / trials
    half = 1.96 * (p * (1 - p) / trials) ** 0.5
    return min(half, p, 1 - p) if 0 < p < 1 else 0.0


def estimate_advantage(game_fn, trials: int, seed: int) -> ExperimentResult:
    """Run seeded independent trials of game_fn(rand) -> {0, 1}."""
    if trials < 1:
        raise ValueError("need at least one trial")
    t0 = time.perf_counter()
    # trial i's generator is Rand(seed).split(trials)[i], built when the trial runs
    successes = sum(game_fn(Rand(np.random.SeedSequence(seed, spawn_key=(i,)))) for i in range(trials))
    dt = (time.perf_counter() - t0) * 1000
    return ExperimentResult(
        game="game",
        params={},
        trials=trials,
        successes=successes,
        advantage=successes / trials - 0.5,
        ci95=_ci95(successes, trials),
        seed=seed,
        runtime_ms=dt,
    )


def three_sigma(trials: int) -> float:
    """3-sigma band for the advantage of a fair coin over `trials` runs."""
    return 3.0 * 0.5 / trials**0.5


# ---------------------------------------------------------------------------
# indistinguishability games with a classical challenge
# ---------------------------------------------------------------------------

_VARIANT_GRANTS = {
    "plain": frozenset(),
    "cpa": frozenset({"enc"}),
    "qcpa": frozenset({"qenc"}),
    "cca1": frozenset({"enc", "dec1"}),
    "cca2": frozenset({"enc", "dec1", "dec2"}),
}


def enc_table(scheme, key, r: BitString | None) -> np.ndarray:
    """enc(key, x, r=r).body for every plaintext x, in order."""
    perm, m = scheme.enc_perm(key, r)
    # plaintext x sits in the honest slice x || 0...0 of the permutation
    return perm.forward[np.arange(1 << m) << (perm.domain_bits - m)]


class OracleSet:
    """Phase-aware oracles for one game instance, each behind its grant.

    enc encrypts a classical or a quantum plaintext under fresh
    randomness.  query serves encryption in superposition: it pins
    randomness, applies |x, y> -> |x, y xor enc(x, r)> to the requested
    wires of the adversary's state, and hands back r, the rest of the
    ciphertext.  dec decrypts, and after the challenge answers the
    challenge ciphertext itself with BOT.
    """

    def __init__(self, scheme, key, rand: Rand, grants: frozenset):
        if "qenc" in grants:
            require_enc_perm(scheme)
        self._scheme = scheme
        self._key = key
        self._rand = rand
        self._grants = grants
        self.phase = 1
        self.challenge_ct: Ciphertext | None = None

    def enc(self, m: BitString | StateVector | DensityMatrix):
        if "enc" not in self._grants:
            raise GameProtocolError("encryption oracle not granted in this game")
        return self._scheme.enc(self._key, m, rand=self._rand)

    def query(self, state: StateVector, x_targets: list[int], y_targets: list[int],
              r: BitString | None = None):
        if "qenc" not in self._grants:
            raise GameProtocolError("superposition encryption oracle not granted in this game")
        if self._scheme.r_bits:
            r = fresh_r(self._scheme.r_bits, self._rand, r)
        op = type1_oracle(enc_table(self._scheme, self._key, r), self._scheme.msg_bits, len(y_targets))
        return apply_unitary(state, op, list(x_targets) + list(y_targets)), r

    def dec(self, c: Ciphertext):
        if self.phase == 1:
            if "dec1" not in self._grants:
                raise GameProtocolError("decryption oracle not granted before the challenge")
        elif "dec2" not in self._grants:
            raise GameProtocolError("decryption oracle not granted after the challenge")
        elif c == self.challenge_ct:
            return BOT
        return self._scheme.dec(self._key, c)


def game_ind(scheme, adversary, rand: Rand, variant: str = "plain", forced_b: int | None = None) -> int:
    """One round of the indistinguishability experiment.

    variant selects the oracle grant: "plain" (none), "cpa"
    (encryption in both phases), "qcpa" (superposition encryption
    queries in both phases), "cca1" (encryption, plus decryption before
    the challenge only), "cca2" (plus the rejecting decryption oracle
    after).
    """
    if variant not in _VARIANT_GRANTS:
        raise ValueError(f"unknown variant {variant!r}")
    key = scheme.key_gen(rand)
    oracles = OracleSet(scheme, key, rand, _VARIANT_GRANTS[variant])
    m0, m1, state = adversary.choose(oracles, rand)
    b = rand.coin() if forced_b is None else forced_b
    challenge = scheme.enc(key, m1 if b else m0, rand=rand)
    oracles.phase = 2
    oracles.challenge_ct = challenge
    guess = adversary.guess(challenge, state, oracles, rand)
    return int(guess == b)


# ---------------------------------------------------------------------------
# quantum-challenge indistinguishability
# ---------------------------------------------------------------------------


@dataclass
class QindChallenge:
    """Challenge plaintext pair: independent arms, or one joint state on
    [environment | arm 0 | arm 1] when the arms are entangled with a
    held register (or with each other)."""

    msg_qubits: int
    env_qubits: int = 0
    arm0: StateVector | DensityMatrix | None = None
    arm1: StateVector | DensityMatrix | None = None
    joint: StateVector | DensityMatrix | None = None

    def __post_init__(self):
        if self.joint is not None:
            expected = self.env_qubits + 2 * self.msg_qubits
            if self.joint.n_qubits != expected:
                raise ValueError(f"joint state has {self.joint.n_qubits} qubits, expected {expected}")
        elif self.arm0 is None or self.arm1 is None:
            raise ValueError("provide either both arms or a joint state")

    @classmethod
    def product(cls, arm0: StateVector | DensityMatrix, arm1: StateVector | DensityMatrix) -> "QindChallenge":
        if arm0.n_qubits != arm1.n_qubits:
            raise ValueError("challenge plaintext dimensions differ")
        return cls(arm0.n_qubits, 0, arm0=arm0, arm1=arm1)

    @classmethod
    def entangled(cls, joint: StateVector | DensityMatrix, env_qubits: int, msg_qubits: int) -> "QindChallenge":
        return cls(msg_qubits, env_qubits, joint=joint)


def game_qind(scheme, adversary, rand: Rand, challenge_form: str = "states",
              grant_cpa: bool = False, forced_b: int | None = None) -> int:
    """Quantum challenge plaintexts against a quantum encryption scheme.

    The challenger encrypts the chosen arm in place and traces out the
    other; the distinguisher receives environment plus ciphertext
    registers and any classical ciphertext components.  With grant_cpa
    the adversary's oracle set encrypts its quantum plaintexts; without
    it, every oracle call raises GameProtocolError.
    """
    key = scheme.key_gen(rand)
    oracle = OracleSet(scheme, key, rand, _VARIANT_GRANTS["cpa" if grant_cpa else "plain"])
    b = rand.coin() if forced_b is None else forced_b
    if challenge_form == "states":
        ch = adversary.challenge(rand, oracle)
        env, m = ch.env_qubits, ch.msg_qubits
        if ch.joint is None:
            # unentangled arms: encrypt the chosen one, drop the other
            qc = scheme.enc(key, ch.arm1 if b else ch.arm0, rand=rand)
            state, env, r = qc.payload, 0, qc.r
        else:
            arm = [env + b * m + j for j in range(m)]
            other = [env + (1 - b) * m + j for j in range(m)]
            joint, cipher_reg, r = scheme.enc_on(key, ch.joint, arm, rand=rand)
            keep = [q for q in range(joint.n_qubits) if q not in other]
            state = partial_trace(joint, keep)
    elif challenge_form == "descriptions":
        desc0, desc1 = adversary.challenge(rand, oracle)
        qc = scheme.enc(key, build_from_description(desc1 if b else desc0), rand=rand)
        state, env, r = qc.payload, 0, qc.r
    else:
        raise ValueError(f"unknown challenge form {challenge_form!r}")
    guess = adversary.distinguish(state, env, {"r": r}, rand, oracle)
    return int(guess == b)


# ---------------------------------------------------------------------------
# access-pattern games
# ---------------------------------------------------------------------------


Q2_MAX = 8  # requests the second learning phase of both access-pattern games may make


def _access_pattern_game(factory, access, adversary, rand: Rand, q1_max: int, forced_b: int | None) -> int:
    """Two learning phases of adversarial requests around one challenge
    access; `access(client, server, request)` performs a request, and
    the AccessPattern it returns third is the adversary's view of it."""
    client, server = factory(rand)
    adversary.begin(rand, client.params)

    def learn(next_request, budget: int, view, which: str) -> None:
        for _ in range(budget):
            request = next_request(view)
            if request is None:
                return
            view = access(client, server, request)[2]
        if next_request(view) is not None:
            raise GameProtocolError(f"{which} learning phase exceeded its budget")

    learn(adversary.phase1_request, q1_max, None, "first")
    r0, r1 = adversary.challenge()
    for request in (r0, r1):
        if not 1 <= request.id <= client.params.n_db:
            raise GameProtocolError("challenge request uses an invalid id")
    b = rand.coin() if forced_b is None else forced_b
    view = access(client, server, r1 if b else r0)[2]
    learn(adversary.phase2_request, Q2_MAX, view, "second")
    return int(adversary.output() == b)


def game_ap_ind_cqa(oram_factory, adversary, rand: Rand, q1_max: int = 64,
                    forced_b: int | None = None) -> int:
    """Adaptive access-pattern indistinguishability for an ORAM.

    The adversary drives two learning phases of chosen data requests
    around one challenge access; views are full access patterns.
    """
    return _access_pattern_game(oram_factory, oram_access, adversary, rand, q1_max, forced_b)


def game_qap_ind_cqa(qoram_factory, adversary, rand: Rand, q1_max: int = 32,
                     forced_b: int | None = None) -> int:
    """Quantum access-pattern game; views are the quantum ORAM's access
    patterns, with block digests for ciphertexts, and the unchosen
    challenge payload is discarded."""
    return _access_pattern_game(qoram_factory, qoram_access, adversary, rand, q1_max, forced_b)


# ---------------------------------------------------------------------------
# forgery game
# ---------------------------------------------------------------------------


def game_euf_cma(sig_scheme, forger, rand: Rand, q_s: int = 16) -> int:
    """Existential forgery under a bounded signing oracle: the forger
    wins when its output verifies on a message it never queried."""
    pk, sk = sig_scheme.key_gen(rand)
    oracle = sig_scheme.fresh_oracle(rand.child())
    queried = []

    def sign_oracle(m):
        if len(queried) >= q_s:
            raise GameProtocolError("signing budget exceeded")
        queried.append(m)
        return sig_scheme.sign(sk, m, oracle, rand)

    m, sig = forger.forge(pk, sign_oracle, oracle, rand)
    if m in queried:
        return 0
    return int(sig_scheme.verify(pk, m, sig, oracle))


# ---------------------------------------------------------------------------
# baseline adversaries (calibration and harness sanity)
# ---------------------------------------------------------------------------


class RandomGuessAdversary:
    """Ignores everything and flips a coin; calibrates the null band."""

    def __init__(self, msg_bits: int):
        self.m0 = BitString.zeros(msg_bits)
        self.m1 = BitString.ones(msg_bits)

    def choose(self, oracles, rand: Rand):
        return self.m0, self.m1, None

    def guess(self, challenge, state, oracles, rand: Rand) -> int:
        return rand.coin()


class ReplayForger:
    """Asks for one signature and hands it straight back; always loses
    the freshness check."""

    def forge(self, pk, sign_oracle, ro, rand: Rand):
        m = "replayed message"
        return m, sign_oracle(m)


class RandomForger:
    """Outputs uniformly random signature components on a fresh message."""

    def __init__(self, sig_scheme):
        self._scheme = sig_scheme

    def forge(self, pk, sign_oracle, ro, rand: Rand):
        from .fiatshamir import FsSignature

        q = self._scheme.group.q
        p = self._scheme.group.p
        first = rand.integer(1, p) if self._scheme.form == "sigma" else rand.integer(0, q)
        return "fresh message", FsSignature(self._scheme.form, first, rand.integer(0, q))
