"""Three-move proofs over toy prime-order groups, their hash transform,
and the oblivious-commitment variant.

The protocol is textbook knowledge-of-discrete-log: commitment g^a,
uniform challenge, response a + ch*w.  The hash transform replaces the
verifier's challenge by a lazily sampled random-oracle value; the
oblivious variant lets the oracle output stand for the commitment via
Com(x; r') = g^{r'}, with SmplRnd computable by brute-force discrete
log at these group sizes (the distributional property is exact, no
hardness is claimed for the toy instantiation).

Oracle tables support a pinned-fraction mode: each fresh input answers
with one fixed output with probability delta, else fresh uniform, and
stays consistent afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rng import Rand, is_prime


@dataclass(frozen=True)
class SchnorrGroup:
    p: int
    q: int
    g: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError("subgroup order must be prime")
        if not is_prime(self.p):
            raise ValueError("modulus must be prime")
        if (self.p - 1) % self.q:
            raise ValueError("subgroup order must divide p - 1")
        if pow(self.g, self.q, self.p) != 1 or self.g == 1:
            raise ValueError("g does not generate an order-q subgroup")


# q = 11 keeps exhaustive distribution checks cheap; the larger group
# (safe prime, q ~ 2^22) keeps random forgeries below one expected hit
# per 10^3-trial battery
TOY_GROUP = SchnorrGroup(23, 11, 2)
SIGN_GROUP = SchnorrGroup(8389163, 4194581, 4)


@dataclass(frozen=True)
class HardInstance:
    group: SchnorrGroup
    x: int
    w: int


@dataclass(frozen=True)
class SigmaTranscript:
    com: int
    ch: int
    resp: int


def inst_gen(group: SchnorrGroup, rand: Rand) -> HardInstance:
    w = rand.integer(0, group.q)
    return HardInstance(group, pow(group.g, w, group.p), w)


def schnorr_commit(group: SchnorrGroup, a: int) -> int:
    if not 0 <= a < group.q:
        raise ValueError("commitment exponent out of range")
    return pow(group.g, a, group.p)


def schnorr_respond(inst: HardInstance, a: int, ch: int) -> int:
    if not 0 <= ch < inst.group.q:
        raise ValueError("challenge out of range")
    return (a + ch * inst.w) % inst.group.q


def schnorr_verify(group: SchnorrGroup, x: int, t: SigmaTranscript) -> bool:
    lhs = pow(group.g, t.resp, group.p)
    rhs = (t.com * pow(x, t.ch, group.p)) % group.p
    return lhs == rhs


def run_honest(inst: HardInstance, rand: Rand) -> SigmaTranscript:
    a = rand.integer(0, inst.group.q)
    com = schnorr_commit(inst.group, a)
    ch = rand.integer(0, inst.group.q)
    return SigmaTranscript(com, ch, schnorr_respond(inst, a, ch))


def special_soundness_extract(group: SchnorrGroup, x: int, t1: SigmaTranscript, t2: SigmaTranscript) -> int:
    """Witness from two accepting transcripts sharing a commitment."""
    if t1.com != t2.com:
        raise ValueError("transcripts must share the commitment")
    if t1.ch == t2.ch:
        raise ValueError("challenges must differ")
    if not (schnorr_verify(group, x, t1) and schnorr_verify(group, x, t2)):
        raise ValueError("both transcripts must accept")
    num = (t1.resp - t2.resp) % group.q
    den = pow((t1.ch - t2.ch) % group.q, -1, group.q)
    return (num * den) % group.q


# ---------------------------------------------------------------------------
# random oracle
# ---------------------------------------------------------------------------


def _encode(parts) -> bytes:
    out = b""
    for part in parts:
        if isinstance(part, str):
            raw = part.encode()
        elif isinstance(part, int):
            raw = part.to_bytes((max(part, 1).bit_length() + 7) // 8, "big")
        else:
            raise TypeError(f"cannot encode {type(part).__name__}")
        out += len(raw).to_bytes(8, "big") + raw
    return out


class RandomOracleTable:
    """Lazily sampled function into Z_q, consistent across repeats.

    Without `pinned`, every fresh input gets a fresh uniform value.
    With it the oracle is semi-constant: each fresh input is pinned to
    that output with probability delta (decided by a seeded coin), else
    fresh uniform.
    """

    def __init__(self, q: int, rand: Rand, delta: float = 0.0, pinned: int | None = None):
        if not 0.0 <= delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        self.q = q
        self.delta = delta
        self.pinned = pinned
        self._rand = rand
        self._table: dict[bytes, int] = {}
        self.fresh_queries = 0
        self.pinned_hits = 0

    def _fresh_value(self) -> int:
        # rejection sampling keeps outputs exactly uniform on Z_q
        nbits = self.q.bit_length()
        while True:
            v = self._rand.bits(nbits).value
            if v < self.q:
                return v

    def query(self, *parts) -> int:
        key = _encode(parts)
        if key in self._table:
            return self._table[key]
        self.fresh_queries += 1
        if self.pinned is not None and self._rand.chance(self.delta):
            value = self.pinned
            self.pinned_hits += 1
        else:
            value = self._fresh_value()
        self._table[key] = value
        return value


def semi_constant_oracle(delta: float, pinned: int, seed: int, q: int) -> RandomOracleTable:
    return RandomOracleTable(q, Rand(seed), delta=delta, pinned=pinned)


# ---------------------------------------------------------------------------
# hash-transform signatures (commitment form and oblivious form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FsSignature:
    form: str  # "sigma" (com, resp) or "lambda" (r, resp)
    first: int
    resp: int


def fs_sign(inst: HardInstance, m, oracle: RandomOracleTable, rand: Rand) -> FsSignature:
    a = rand.integer(0, inst.group.q)
    com = schnorr_commit(inst.group, a)
    ch = oracle.query("sig", inst.x, com, m)
    return FsSignature("sigma", com, schnorr_respond(inst, a, ch))


def fs_verify(group: SchnorrGroup, x: int, m, sig: FsSignature, oracle: RandomOracleTable) -> bool:
    if sig.form != "sigma":
        return False
    ch = oracle.query("sig", x, sig.first, m)
    return schnorr_verify(group, x, SigmaTranscript(sig.first, ch, sig.resp))


def lambda_commit(group: SchnorrGroup, x: int, r: int) -> int:
    """Public-coin commitment Com(x; r) = g^r; uniform over the subgroup."""
    if not 0 <= r < group.q:
        raise ValueError("commitment coins out of range")
    return pow(group.g, r, group.p)


def fs_lambda_sign(inst: HardInstance, m, oracle: RandomOracleTable, rand: Rand) -> FsSignature:
    group = inst.group
    r = rand.integer(0, group.q)
    coins = oracle.query("com", inst.x, m, r)
    ch = oracle.query("ch", inst.x, m, r)
    # com = Com(x; coins) = g^coins; the prover knows the coins directly
    # from the oracle output, so the SmplRnd detour is a no-op here
    return FsSignature("lambda", r, schnorr_respond(inst, coins, ch))


def fs_lambda_verify(group: SchnorrGroup, x: int, m, sig: FsSignature, oracle: RandomOracleTable) -> bool:
    if sig.form != "lambda":
        return False
    coins = oracle.query("com", x, m, sig.first)
    ch = oracle.query("ch", x, m, sig.first)
    com = lambda_commit(group, x, coins)
    return schnorr_verify(group, x, SigmaTranscript(com, ch, sig.resp))


class FsSigScheme:
    """Signature-scheme adapter for the forgery games.

    form "sigma": signature (com, resp) with the challenge recomputed.
    form "lambda": signature (r, resp) with (com, ch) derived from the
    oracle on (pk, m, r).
    """

    def __init__(self, group: SchnorrGroup = SIGN_GROUP, form: str = "sigma"):
        if form not in ("sigma", "lambda"):
            raise ValueError(f"unknown signature form {form!r}")
        self.group = group
        self.form = form
        self.name = f"fs-{form}"

    def key_gen(self, rand: Rand):
        inst = inst_gen(self.group, rand)
        return inst.x, inst

    def fresh_oracle(self, rand: Rand) -> RandomOracleTable:
        return RandomOracleTable(self.group.q, rand)

    def sign(self, sk: HardInstance, m, oracle: RandomOracleTable, rand: Rand) -> FsSignature:
        if self.form == "sigma":
            return fs_sign(sk, m, oracle, rand)
        return fs_lambda_sign(sk, m, oracle, rand)

    def verify(self, pk: int, m, sig: FsSignature, oracle: RandomOracleTable) -> bool:
        if self.form == "sigma":
            return fs_verify(self.group, pk, m, sig, oracle)
        return fs_lambda_verify(self.group, pk, m, sig, oracle)
