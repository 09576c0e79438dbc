"""Classical toy encryption schemes and trapdoor permutations.

Everything here runs at configurable toy widths.  The deliberately
broken schemes (key-leaking paired ciphertexts, malleable XOR cores)
are the separation counterexamples exercised by the games module, whose
oracle set serves every encryption and decryption oracle, the
restricted post-challenge one included; none of this is production
cryptography.

Scheme interface (duck-typed):
    key_gen(rand) -> key
    enc(key, m, rand=None, r=None) -> Ciphertext   (pass r to pin randomness; see fresh_r)
    dec(key, c) -> BitString
    msg_bits, name

Schemes whose pinned-randomness encryption is a bijection additionally
expose enc_perm(key, r) -> (Permutation, plaintext_bits), the one hook
both quantum forms of encryption are built from: the lift's in-place
unitary and the superposition oracle's xor-style table.

Schemes that mask a message with a pad (GoldreichScheme,
PkesOwtpScheme) expose it as a key encapsulation, the hook the quantum
Pauli-pad scheme is built from:
    encapsulate(key, rand, r) -> (pad, classical part sent alongside)
    decapsulate(key, classical part) -> pad
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bits import BitString, parity
from .prf import Permutation, make_prf, sample_ideal_qprp
from .rng import Rand, next_prime


class Bot:
    """Rejection marker: the games' post-challenge decryption oracle
    returns BOT, the one instance, for the challenge ciphertext."""

    def __repr__(self):
        return "BOT"


BOT = Bot()


@dataclass(frozen=True)
class Ciphertext:
    """Scheme-tagged payload with optional randomness and auxiliary half."""

    scheme: str
    body: BitString
    r: BitString | None = None
    aux: object = None


def fresh_r(r_bits: int, rand: Rand, r: BitString | None) -> BitString:
    """The pinned randomness r after a width check, or r_bits fresh bits."""
    if r is None:
        return rand.bits(r_bits)
    if r.width != r_bits:
        raise ValueError(f"randomness width {r.width} != {r_bits}")
    return r


def require_enc_perm(scheme) -> None:
    """Reject a scheme that exposes no enc_perm hook."""
    if not hasattr(scheme, "enc_perm"):
        name = getattr(scheme, "name", type(scheme).__name__)
        raise ValueError(f"{name} has no pinned-randomness permutation form")


# ---------------------------------------------------------------------------
# one-time pad
# ---------------------------------------------------------------------------


class OtpScheme:
    """XOR pad on n bits; deterministic, key length = message length."""

    def __init__(self, msg_bits: int):
        self.name = "otp"
        self.msg_bits = msg_bits
        self.key_bits = msg_bits
        self.r_bits = 0
        self.perm_bits = msg_bits

    def key_gen(self, rand: Rand) -> BitString:
        return rand.bits(self.key_bits)

    def enc(self, key: BitString, m: BitString, rand: Rand = None, r: BitString = None) -> Ciphertext:
        return Ciphertext(self.name, otp_enc(key, m))

    def dec(self, key: BitString, c: Ciphertext) -> BitString:
        return otp_enc(key, c.body)

    def enc_perm(self, key: BitString, r: BitString = None) -> tuple[Permutation, int]:
        return Permutation.xor_mask(key.value, self.msg_bits), self.msg_bits


def otp_enc(key: BitString, x: BitString) -> BitString:  # its own inverse
    return x ^ key


# ---------------------------------------------------------------------------
# PRF-masked randomized scheme (the standard IND-CPA construction)
# ---------------------------------------------------------------------------


class GoldreichScheme:
    """Enc_k(x) = (x xor F_k(r), r) for fresh r; the workhorse SKES.

    IND-CPA and IND-CCA1 at classical level, IND-qCPA with an ideal
    PRF, and quasi-length-preserving, hence the canonical target of the
    Hadamard distinguisher once lifted to a quantum scheme.
    """

    def __init__(self, msg_bits: int, r_bits: int | None = None, key_bits: int | None = None):
        self.name = "skes-goldreich"
        self.msg_bits = msg_bits
        self.r_bits = msg_bits if r_bits is None else r_bits
        self.key_bits = msg_bits if key_bits is None else key_bits
        self.perm_bits = msg_bits
        # a game encrypts and decrypts many times under one key
        self._prf = functools.lru_cache(maxsize=1)(
            functools.partial(make_prf, in_bits=self.r_bits, out_bits=self.msg_bits))

    def key_gen(self, rand: Rand) -> BitString:
        return rand.bits(self.key_bits)

    def pad(self, key: BitString, r: BitString) -> BitString:
        """The msg_bits-bit pad F_k(r)."""
        return self._prf(key).eval(r)

    def encapsulate(self, key: BitString, rand: Rand,
                    r: BitString | None) -> tuple[BitString, BitString]:
        """(pad, r) for the pinned or a fresh r; r travels in the clear."""
        r = fresh_r(self.r_bits, rand, r)
        return self.pad(key, r), r

    decapsulate = pad

    def enc(self, key: BitString, m: BitString, rand: Rand = None, r: BitString = None) -> Ciphertext:
        if m.width != self.msg_bits:
            raise ValueError(f"message width {m.width} != {self.msg_bits}")
        pad, r = self.encapsulate(key, rand, r)
        return Ciphertext(self.name, m ^ pad, r=r)

    def dec(self, key: BitString, c: Ciphertext) -> BitString:
        return c.body ^ self.pad(key, c.r)

    def enc_perm(self, key: BitString, r: BitString) -> tuple[Permutation, int]:
        return Permutation.xor_mask(self.pad(key, r).value, self.msg_bits), self.msg_bits


# ---------------------------------------------------------------------------
# permutation-based scheme and its blockwise mode
# ---------------------------------------------------------------------------


class PrpScheme:
    """Enc_k(x) = P_k(x || r): message expands by r_bits, key selects an
    ideal tabulated permutation on msg_bits + r_bits."""

    def __init__(self, msg_bits: int, r_bits: int, key_bits: int = 16):
        if r_bits < 1:
            raise ValueError(f"r_bits must be at least 1, got {r_bits}")
        self.name = "skes-prp"
        self.msg_bits = msg_bits
        self.r_bits = r_bits
        self.key_bits = key_bits
        self.cipher_bits = msg_bits + r_bits
        self.perm_bits = self.cipher_bits
        # a game encrypts and decrypts many times under one key
        self._perm = functools.lru_cache(maxsize=1)(
            functools.partial(sample_ideal_qprp, domain_bits=self.cipher_bits))

    def key_gen(self, rand: Rand) -> BitString:
        return rand.bits(self.key_bits)

    def enc(self, key: BitString, m: BitString, rand: Rand = None, r: BitString = None) -> Ciphertext:
        if m.width != self.msg_bits:
            raise ValueError(f"message width {m.width} != {self.msg_bits}")
        r = fresh_r(self.r_bits, rand, r)
        y = self._perm(key).apply(m.concat(r).value)
        return Ciphertext(self.name, BitString(y, self.cipher_bits))

    def dec(self, key: BitString, c: Ciphertext) -> BitString:
        plain = self._perm(key).invert(c.body.value)
        return BitString(plain, self.cipher_bits).take(self.msg_bits)

    def enc_perm(self, key: BitString, r: BitString) -> tuple[Permutation, int]:
        # unitary on msg+r qubits: x || a  ->  P_k(x || (a xor r)); the
        # honest a = 0 slice encrypts with the pinned randomness
        base = self._perm(key)
        fwd = base.forward[_xor_index(self.cipher_bits, r.value)]
        return Permutation(self.cipher_bits, fwd), self.msg_bits


def _xor_index(bits: int, mask: int):
    return np.arange(1 << bits, dtype=np.int64) ^ mask


class PrpModeScheme:
    """Blockwise mode: l independent PrpScheme blocks, fresh r per block."""

    def __init__(self, block: PrpScheme, blocks: int):
        self.name = "skes-prp-mode"
        self.block = block
        self.blocks = blocks
        self.msg_bits = block.msg_bits * blocks
        self.key_bits = block.key_bits

    def key_gen(self, rand: Rand) -> BitString:
        return self.block.key_gen(rand)

    def enc(self, key: BitString, m: BitString, rand: Rand = None, r: list[BitString] | None = None) -> Ciphertext:
        if m.width != self.msg_bits:
            raise ValueError(f"message width {m.width} != {self.msg_bits}")
        if r is not None and len(r) != self.blocks:
            raise ValueError(f"expected {self.blocks} pinned randomness values, one per block, got {len(r)}")
        parts = []
        rest = m
        for i in range(self.blocks):
            chunk = rest.take(self.block.msg_bits) if rest.width > self.block.msg_bits else rest
            if rest.width > self.block.msg_bits:
                rest = rest.drop(self.block.msg_bits)
            ri = None if r is None else r[i]
            parts.append(self.block.enc(key, chunk, rand=rand, r=ri).body)
        body = parts[0]
        for pt in parts[1:]:
            body = body.concat(pt)
        return Ciphertext(self.name, body)

    def dec(self, key: BitString, c: Ciphertext) -> BitString:
        cb = self.block.cipher_bits
        rest = c.body
        out = None
        for i in range(self.blocks):
            chunk = rest.take(cb) if rest.width > cb else rest
            if rest.width > cb:
                rest = rest.drop(cb)
            m = self.block.dec(key, Ciphertext(self.block.name, chunk))
            out = m if out is None else out.concat(m)
        return out


# ---------------------------------------------------------------------------
# CPA-but-not-CCA1 counterexample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cca1Key:
    base_key: BitString
    hidden: BitString  # the special message, never revealed to adversaries


class Cca1SepScheme:
    """Paired-ciphertext scheme: encrypting the hidden message leaks the
    key in the second half, so one swap-and-decrypt query breaks it."""

    def __init__(self, base: GoldreichScheme | None = None, msg_bits: int = 8):
        self.base = base or GoldreichScheme(msg_bits)
        self.name = "skes-cca1-sep"
        self.msg_bits = self.base.msg_bits

    def key_gen(self, rand: Rand) -> Cca1Key:
        return Cca1Key(self.base.key_gen(rand), rand.bits(self.msg_bits))

    def enc(self, key: Cca1Key, m: BitString, rand: Rand = None, r=None) -> Ciphertext:
        first = self.base.enc(key.base_key, m, rand=rand, r=r)
        if m == key.hidden:
            second: object = key.base_key
        else:
            second = self.base.enc(key.base_key, key.hidden, rand=rand)
        return Ciphertext(self.name, first.body, r=first.r, aux=second)

    def dec(self, key: Cca1Key, c: Ciphertext) -> BitString:
        # only the first half is ever decrypted
        return self.base.dec(key.base_key, Ciphertext(self.base.name, c.body, r=c.r))

    @staticmethod
    def swap_halves(c: Ciphertext) -> Ciphertext:
        if not isinstance(c.aux, Ciphertext):
            raise ValueError("second half is not a ciphertext")
        first = Ciphertext(c.aux.scheme, c.body, r=c.r)
        return Ciphertext(c.scheme, c.aux.body, r=c.aux.r, aux=first)


# ---------------------------------------------------------------------------
# toy RSA trapdoor permutation and the derived public-key scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapdoorKeyPair:
    modulus: int
    public_exp: int
    trapdoor: int  # private exponent

    @property
    def index(self) -> tuple[int, int]:
        return (self.modulus, self.public_exp)


class InversionError(Exception):
    pass


def owtp_gen(rand: Rand, bits: int = 16) -> TrapdoorKeyPair:
    """Toy RSA keypair with modulus below 2**bits (bits <= 32)."""
    if not 4 <= bits <= 32:
        raise ValueError("modulus size must be in [4, 32] bits")
    half = bits // 2
    while True:
        p = next_prime(rand.integer(1 << (half - 1), 1 << half))
        q = next_prime(rand.integer(1 << (half - 1), 1 << half))
        n = p * q
        if p != q and n < 1 << bits:
            break
    phi = (p - 1) * (q - 1)
    e = 3
    while math.gcd(e, phi) != 1:
        e += 2
    d = pow(e, -1, phi)
    return TrapdoorKeyPair(n, e, d)


def owtp_domain(n: int):
    """Membership test for the multiplicative domain of the toy OWTP."""
    return lambda x: 1 <= x < n and math.gcd(x, n) == 1


def owtp_eval(index: tuple[int, int], x: int) -> int:
    n, e = index
    if not owtp_domain(n)(x):
        raise ValueError(f"{x} is outside the multiplicative domain mod {n}")
    return pow(x, e, n)


def owtp_invert(index: tuple[int, int], trapdoor: int, y: int) -> int:
    n, e = index
    if not owtp_domain(n)(y):
        raise ValueError(f"{y} is outside the multiplicative domain mod {n}")
    x = pow(y, trapdoor, n)
    if pow(x, e, n) != y:
        raise InversionError("trapdoor does not invert this image")
    return x


@dataclass
class OwpHandle:
    """One-way permutation with an attached hardcore predicate.

    The default predicate is the inner-product bit <x, z> for a public
    random mask z fixed per instance.
    """

    domain_bits: int
    fn: object
    contains: object
    mask: int

    def hc(self, x: int) -> int:
        return parity(x & self.mask)

    @classmethod
    def from_owtp(cls, pair_index: tuple[int, int], mask: int) -> "OwpHandle":
        n, _ = pair_index
        return cls(n.bit_length(), lambda x: owtp_eval(pair_index, x), owtp_domain(n), mask)

    @classmethod
    def identity(cls, domain_bits: int, mask: int | None = None, predicate=None) -> "OwpHandle":
        handle = cls(domain_bits, lambda x: x, lambda x: 0 <= x < (1 << domain_bits),
                     mask if mask is not None else 1 << (domain_bits - 1))
        if predicate is not None:
            handle.hc = predicate  # type: ignore[method-assign]
        return handle


def goldreich_levin_prng(seed: BitString, owp: OwpHandle, out_bits: int | None = None) -> BitString:
    """Iterated hardcore-bit generator: bit j is hc(owp^j(seed))."""
    if seed.width != owp.domain_bits:
        raise ValueError(f"seed width {seed.width} != domain width {owp.domain_bits}")
    if not owp.contains(seed.value):
        raise ValueError("seed outside the permutation domain")
    out_bits = seed.width if out_bits is None else out_bits
    x = seed.value
    val = 0
    for _ in range(out_bits):
        x = owp.fn(x)
        val = (val << 1) | owp.hc(x)
    return BitString(val, out_bits)


class PkesOwtpScheme:
    """Public-key scheme: pad from the iterated-hardcore generator of a
    trapdoor permutation, image of the seed sent alongside."""

    def __init__(self, msg_bits: int, modulus_bits: int = 16):
        self.name = "pkes-owtp"
        self.msg_bits = msg_bits
        self.modulus_bits = modulus_bits

    def key_gen(self, rand: Rand):
        pair = owtp_gen(rand, self.modulus_bits)
        mask = rand.bits(pair.modulus.bit_length()).value
        return (pair.index, mask), (pair.index, mask, pair.trapdoor)

    def sample_domain(self, pk, rand: Rand) -> int:
        (n, _), _mask = pk
        while True:
            r = rand.integer(1, n)
            if math.gcd(r, n) == 1:
                return r

    def pad(self, pk, r: int) -> BitString:
        """The msg_bits-bit iterated-hardcore pad grown from seed r."""
        handle = OwpHandle.from_owtp(*pk)
        return goldreich_levin_prng(BitString(r, handle.domain_bits), handle, self.msg_bits)

    def encapsulate(self, pk, rand: Rand, r: int | None) -> tuple[BitString, BitString]:
        """(pad, image) for the pinned or a sampled seed r; the image of r
        under the permutation travels in the clear."""
        index, _mask = pk
        if r is None:
            r = self.sample_domain(pk, rand)
        return self.pad(pk, r), BitString(owtp_eval(index, r), index[0].bit_length())

    def decapsulate(self, sk, image: BitString) -> BitString:
        """The pad of the seed that the trapdoor recovers from image."""
        index, mask, trapdoor = sk
        return self.pad((index, mask), owtp_invert(index, trapdoor, image.value))

    def enc(self, pk, m: BitString, rand: Rand = None, r: int | None = None) -> Ciphertext:
        if m.width != self.msg_bits:
            raise ValueError(f"message width {m.width} != {self.msg_bits}")
        pad, image = self.encapsulate(pk, rand, r)
        return Ciphertext(self.name, m ^ pad, aux=image)

    def dec(self, sk, c: Ciphertext) -> BitString:
        return c.body ^ self.decapsulate(sk, c.aux)
