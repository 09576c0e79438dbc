"""Concrete adversaries for the separation experiments.

Each class is an adversary matching the interface of the game it
plays.  experiments.CATALOG pairs it with its targets and states the
expected outcome: certainty against the broken target, a statistical
null against the hardened one.
"""

from __future__ import annotations

from .bits import BitString
from .games import QindChallenge
from .oram import DataRequest
from .quantum import DensityMatrix, StateVector, apply_gate, measure_computational
from .rng import Rand, _check_group, bm_recover_state
from .schemes import BOT, Cca1SepScheme, Ciphertext


# ---------------------------------------------------------------------------
# classical separations
# ---------------------------------------------------------------------------


class OtpReuseAttack:
    """Encrypt both candidate messages through the oracle and compare
    with the challenge; breaks any deterministic scheme."""

    def __init__(self, msg_bits: int):
        self.m0 = BitString.zeros(msg_bits)
        self.m1 = BitString.ones(msg_bits)

    def choose(self, oracles, rand: Rand):
        c0 = oracles.enc(self.m0)
        c1 = oracles.enc(self.m1)
        return self.m0, self.m1, (c0, c1)

    def guess(self, challenge: Ciphertext, state, oracles, rand: Rand) -> int:
        c0, c1 = state
        if challenge.body == c0.body and challenge.r == c0.r:
            return 0
        if challenge.body == c1.body and challenge.r == c1.r:
            return 1
        return rand.coin()


class Cca1CounterexampleAttack:
    """Three-query key recovery against the paired-ciphertext scheme:
    encrypt anything, decrypt the swapped halves to learn the hidden
    message, encrypt the hidden message to read off the key."""

    def __init__(self, scheme: Cca1SepScheme):
        self.scheme = scheme

    def _key_from_pair(self, oracles, probe: BitString):
        c = oracles.enc(probe)
        if isinstance(c.aux, BitString):
            # we accidentally encrypted the hidden message itself
            return c.aux
        if not isinstance(c.aux, Ciphertext):
            return None  # target is not the paired scheme
        swapped = Cca1SepScheme.swap_halves(c)
        hidden = oracles.dec(swapped)
        c2 = oracles.enc(hidden)
        return c2.aux if isinstance(c2.aux, BitString) else None

    def choose(self, oracles, rand: Rand):
        key = self._key_from_pair(oracles, BitString.zeros(self.scheme.msg_bits))
        m0 = BitString.zeros(self.scheme.msg_bits)
        m1 = BitString.ones(self.scheme.msg_bits)
        return m0, m1, (key, m0, m1)

    def guess(self, challenge: Ciphertext, state, oracles, rand: Rand) -> int:
        key, m0, m1 = state
        if key is None:
            return rand.coin()
        plain = self.scheme.base.dec(key, Ciphertext(self.scheme.base.name, challenge.body, r=challenge.r))
        if plain == m1:
            return 1
        if plain == m0:
            return 0
        return rand.coin()


class Cca2FlipAttack:
    """Flip the malleable core of the challenge, decrypt the (now
    admissible) ciphertext, unflip, compare."""

    def __init__(self, msg_bits: int):
        self.m0 = BitString.zeros(msg_bits)
        self.m1 = BitString.ones(msg_bits)

    def choose(self, oracles, rand: Rand):
        return self.m0, self.m1, None

    def guess(self, challenge: Ciphertext, state, oracles, rand: Rand) -> int:
        flip = BitString.ones(challenge.body.width)
        related = Ciphertext(challenge.scheme, challenge.body ^ flip, r=challenge.r)
        plain = oracles.dec(related)
        if plain is BOT:
            return rand.coin()
        recovered = plain ^ BitString.ones(plain.width)
        if recovered == self.m1:
            return 1
        if recovered == self.m0:
            return 0
        return rand.coin()


# ---------------------------------------------------------------------------
# Hadamard distinguisher against in-place quantum encryption
# ---------------------------------------------------------------------------


class HadamardDistinguisher:
    """Challenge with the uniform-superposition pair H|0..0>, H|1..1>.

    A basis permutation fixes the first state and only flips signs on
    the second, so re-applying H and measuring separates them with
    certainty whenever the core does not expand the message.
    """

    def __init__(self, msg_qubits: int):
        self.m = msg_qubits
        self._challenge = None

    def challenge(self, rand: Rand, oracle=None) -> QindChallenge:
        # the arms draw nothing, so one pure pair serves every trial
        if self._challenge is None:
            plus = StateVector.zero(self.m)
            minus = StateVector.basis(self.m, (1 << self.m) - 1)
            for j in range(self.m):
                plus = apply_gate(plus, "H", [j])
                minus = apply_gate(minus, "H", [j])
            self._challenge = QindChallenge.product(plus, minus)
        return self._challenge

    def distinguish(self, state: StateVector | DensityMatrix, env_qubits: int, classical,
                    rand: Rand, oracle=None) -> int:
        core = list(range(env_qubits, state.n_qubits))
        out = state
        for q in core:
            out = apply_gate(out, "H", [q])
        outcome, _ = measure_computational(out, core, rand)
        return 0 if outcome.value == 0 else 1


# ---------------------------------------------------------------------------
# access-pattern adversaries
# ---------------------------------------------------------------------------


class AccessPatternAdversary:
    """The moves every access-pattern adversary shares.

    Phase 1 writes the zero data to the target id k times and keeps, in
    `leaves`, the leaf each view reveals; the challenge writes the same
    data to the target id or to the other one.  Both ORAMs' views are
    access patterns.  A subclass supplies `phase2_request`, which sets
    `answer`, and, against the quantum ORAM, its own `zero_data`.
    """

    target_id = 1
    other_id = 2

    def __init__(self, k_queries: int):
        if k_queries < 0:
            raise ValueError(f"k (the number of learning queries) must be at least 0, got {k_queries}")
        self.k = k_queries

    @staticmethod
    def zero_data(params):
        return BitString.zeros(params.n_dat)

    def begin(self, rand: Rand, params) -> None:
        self.params = params
        self.data = self.zero_data(params)
        self.leaves: list[int] = []
        self.answer: int | None = None
        self._rand = rand

    def phase1_request(self, view):
        # every request issued so far has delivered its view first
        if view is not None and len(self.leaves) < self.k:
            self.leaves.append(view.transcript.leaf)
        if len(self.leaves) < self.k:
            return DataRequest("write", self.target_id, self.data)
        return None

    def challenge(self):
        return (
            DataRequest("write", self.target_id, self.data),
            DataRequest("write", self.other_id, self.data),
        )

    def output(self) -> int:
        return self.answer


class BmOramAttack(AccessPatternAdversary):
    """Recover the position-map generator state from observed leaves.

    Reads the leaf history of the k learning writes, brute-forces the
    generator seed consistent with the truncated outputs, and predicts
    the leaf the challenge access will reveal if it touches the target
    id.  A post-challenge sanity query guards against wrong
    predictions; on any failure the attack answers with a fair coin
    rather than aborting.
    """

    def __init__(self, k_queries: int, p: int, g: int, target_id: int = 1):
        super().__init__(k_queries)
        _check_group(p, g)
        self.p = p
        self.g = g
        self.target_id = target_id

    def begin(self, rand: Rand, params) -> None:
        super().begin(rand, params)
        self.prediction = -1
        self.guess_bit: int | None = None

    def challenge(self):
        if self.k > 0:
            n_db = self.params.n_db
            positions = [self.target_id - 1] + [n_db + t - 1 for t in range(1, self.k)]
            _, self.prediction = bm_recover_state(
                self.p, self.g, self.params.n_tag, self.params.n_tree,
                positions, self.leaves, n_db + self.k - 1,
            )
        return super().challenge()

    # -- challenge view, then one sanity query ------------------------------

    def phase2_request(self, view):
        if self.answer is not None:
            return None
        if self.prediction < 0:
            # no consistent seed: degrade to guessing, skip the check
            self.answer = self._rand.coin()
        elif self.guess_bit is None:
            # the challenge view: guess, then probe the id it says was not touched
            self.guess_bit = 0 if view.transcript.leaf == self.prediction else 1
            probe = self.target_id if self.guess_bit == 1 else self.other_id
            return DataRequest("write", probe, self.data)
        else:
            # if the guess was right, the probe hits the predicted leaf
            # exactly when it is the target id
            passed = (view.transcript.leaf == self.prediction) == (self.guess_bit == 1)
            self.answer = self.guess_bit if passed else self._rand.coin()
        return None


def bm_oram_attack(k_queries: int, p: int, g: int, **kw) -> BmOramAttack:
    return BmOramAttack(k_queries, p, g, **kw)


class LeafFrequencyDistinguisher(AccessPatternAdversary):
    """Baseline access-pattern adversary: guesses the challenge by
    matching its leaf against the last one phase 1 saw.  Null against
    any unpredictable position-map generator."""

    def phase2_request(self, view):
        if self.answer is None:
            # first phase-2 call carries the challenge view
            matched = bool(self.leaves) and view.transcript.leaf == self.leaves[-1]
            self.answer = 0 if matched else self._rand.coin()
        return None


# ---------------------------------------------------------------------------
# quantum access-pattern null distinguishers
# ---------------------------------------------------------------------------


def _zero_register(params) -> DensityMatrix:
    return DensityMatrix.basis(params.n_dat, 0)


class TagOnlyQapDistinguisher(LeafFrequencyDistinguisher):
    """The leaf-matching guess against the quantum tree ORAM: the
    challenge arms touch different ids with equal payloads."""

    zero_data = staticmethod(_zero_register)


class PayloadOnlyQapDistinguisher(AccessPatternAdversary):
    """Challenge arms share the id but carry orthogonal payloads; the
    guess is scraped from ciphertext digests, which carry no usable
    signal under fresh pads."""

    zero_data = staticmethod(_zero_register)

    def __init__(self):
        super().__init__(0)

    def challenge(self):
        n_dat = self.params.n_dat
        one = DensityMatrix.basis(n_dat, (1 << n_dat) - 1)
        return (
            DataRequest("write", self.target_id, self.data),
            DataRequest("write", self.target_id, one),
        )

    def phase2_request(self, view):
        if self.answer is None:
            digest = view.transcript.up[0]
            self.answer = int(digest, 16) & 1
        return None
