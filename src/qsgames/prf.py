"""Pseudorandom functions and permutations at toy sizes.

Two PRF backends:

  * IdealPrf is the reference oracle used inside every game: a random
    function realized as a keyed hash of the query point.  This is the
    same object as a lazily sampled lookup table (each point gets an
    independent, fixed random value) but stateless, so it is trivially
    order-independent and safe to share.
  * ConcretePrf is a 4-round Feistel over a splitmix-style mixing
    round function.  It exists for throughput comparisons, never as a
    security reference.

sample_ideal_qprp tabulates a uniformly random permutation (Fisher-
Yates, deterministic in the key), the desk-scale stand-in for a
quantum-secure PRP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .bits import BitString

_M64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _hash_bits(key: BitString, payload: bytes, out_bits: int) -> BitString:
    key_bytes = key.value.to_bytes((key.width + 7) // 8, "big")
    val = 0
    produced = 0
    block = 0
    while produced < out_bits:
        h = hashlib.blake2b(payload + block.to_bytes(4, "big"), key=key_bytes[:64]).digest()
        val = (val << 512) | int.from_bytes(h, "big")
        produced += 512
        block += 1
    return BitString(val >> (produced - out_bits), out_bits)


class IdealPrf:
    """Random function {0,1}^in_bits -> {0,1}^out_bits fixed by the key."""

    backend = "ideal"

    def __init__(self, key: BitString, in_bits: int, out_bits: int):
        self.key = key
        self.in_bits = in_bits
        self.out_bits = out_bits

    def eval(self, x: BitString) -> BitString:
        if x.width != self.in_bits:
            raise ValueError(f"input width {x.width} != declared {self.in_bits}")
        return _hash_bits(self.key, b"prf" + x.value.to_bytes((self.in_bits + 7) // 8, "big"), self.out_bits)


class ConcretePrf:
    """4-round Feistel PRF; input and output widths coincide."""

    backend = "concrete"

    def __init__(self, key: BitString, in_bits: int, out_bits: int | None = None):
        out_bits = in_bits if out_bits is None else out_bits
        if out_bits != in_bits:
            raise ValueError("concrete backend is width-preserving")
        if in_bits % 2:
            raise ValueError("Feistel needs an even width")
        self.key = key
        self.in_bits = in_bits
        self.out_bits = out_bits
        self._round_keys = _round_keys(key)

    def eval(self, x: BitString) -> BitString:
        if x.width != self.in_bits:
            raise ValueError(f"input width {x.width} != declared {self.in_bits}")
        return BitString(_feistel_fwd(x.value, self.in_bits, self._round_keys), self.in_bits)


def make_prf(key: BitString, in_bits: int, out_bits: int, backend: str = "ideal"):
    if backend == "ideal":
        return IdealPrf(key, in_bits, out_bits)
    if backend == "concrete":
        return ConcretePrf(key, in_bits, out_bits)
    raise ValueError(f"unknown PRF backend {backend!r}")


def _round_keys(key: BitString, rounds: int = 4) -> list[int]:
    ks = []
    state = key.value & _M64 ^ (key.width << 56)
    for _ in range(rounds):
        state = splitmix64(state)
        ks.append(state)
    return ks


def _round_fn(rk: int, r: int, half: int) -> int:
    return splitmix64(rk ^ r) & ((1 << half) - 1)


def feistel_network(x: int, width: int, round_fns) -> int:
    """Generic balanced network: (L, R) -> (R, L xor f_i(R)) per round."""
    half = width // 2
    mask = (1 << half) - 1
    left, right = x >> half, x & mask
    for fn in round_fns:
        left, right = right, left ^ (fn(right) & mask)
    return (left << half) | right


def feistel_network_inv(y: int, width: int, round_fns) -> int:
    half = width // 2
    mask = (1 << half) - 1
    left, right = y >> half, y & mask
    for fn in reversed(round_fns):
        left, right = right ^ (fn(left) & mask), left
    return (left << half) | right


def _feistel_fwd(x: int, width: int, round_keys: list[int]) -> int:
    half = width // 2
    return feistel_network(x, width, [lambda r, rk=rk: _round_fn(rk, r, half) for rk in round_keys])


def _feistel_inv(y: int, width: int, round_keys: list[int]) -> int:
    half = width // 2
    return feistel_network_inv(y, width, [lambda r, rk=rk: _round_fn(rk, r, half) for rk in round_keys])


def feistel_prp(key: BitString, x: BitString) -> BitString:
    if x.width % 2:
        raise ValueError("Feistel needs an even width")
    return BitString(_feistel_fwd(x.value, x.width, _round_keys(key)), x.width)


def feistel_prp_inv(key: BitString, y: BitString) -> BitString:
    if y.width % 2:
        raise ValueError("Feistel needs an even width")
    return BitString(_feistel_inv(y.value, y.width, _round_keys(key)), y.width)


QPRP_DOMAIN_CAP = 14


@dataclass
class Permutation:
    """Tabulated bijection on {0,...,2**domain_bits - 1}."""

    domain_bits: int
    forward: np.ndarray
    inverse: np.ndarray = field(default=None)

    def __post_init__(self):
        n = 1 << self.domain_bits
        self.forward = np.asarray(self.forward, dtype=np.int64)
        if self.forward.shape != (n,):
            raise ValueError("forward table has wrong size")
        if self.inverse is None:
            inv = np.empty(n, dtype=np.int64)
            inv[self.forward] = np.arange(n, dtype=np.int64)
            self.inverse = inv
        else:
            self.inverse = np.asarray(self.inverse, dtype=np.int64)
        counts = np.bincount(self.forward, minlength=n)
        if not (counts == 1).all():
            raise ValueError("table is not a bijection")
        if not (self.forward[self.inverse] == np.arange(n)).all():
            raise ValueError("inverse table does not invert forward")

    def apply(self, x: int) -> int:
        return int(self.forward[x])

    def invert(self, y: int) -> int:
        return int(self.inverse[y])

    def inverted(self) -> "Permutation":
        return Permutation(self.domain_bits, self.inverse.copy(), self.forward.copy())

    @classmethod
    def identity(cls, domain_bits: int) -> "Permutation":
        n = 1 << domain_bits
        return cls(domain_bits, np.arange(n, dtype=np.int64))

    @classmethod
    def xor_mask(cls, mask: int, domain_bits: int) -> "Permutation":
        n = 1 << domain_bits
        return cls(domain_bits, np.arange(n, dtype=np.int64) ^ mask)

    @classmethod
    def from_fn(cls, fn, domain_bits: int) -> "Permutation":
        n = 1 << domain_bits
        return cls(domain_bits, np.array([fn(x) for x in range(n)], dtype=np.int64))


def sample_ideal_qprp(key: BitString, domain_bits: int, cap: int = QPRP_DOMAIN_CAP) -> Permutation:
    """Uniformly random tabulated permutation, deterministic in the key."""
    if domain_bits > cap:
        raise ValueError(f"domain_bits {domain_bits} exceeds cap {cap}")
    seed_material = _hash_bits(key, b"qprp", 256)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_material.value)))
    fwd = gen.permutation(1 << domain_bits).astype(np.int64)
    return Permutation(domain_bits, fwd)
