"""Pseudorandom functions and permutations at toy sizes.

IdealPrf is the one PRF, used inside every game: a random function
realized as a keyed hash of the query point.  This is the same object
as a lazily sampled lookup table (each point gets an independent, fixed
random value) but stateless, so it is trivially order-independent and
safe to share.

sample_ideal_qprp tabulates a uniformly random permutation (Fisher-
Yates, deterministic in the key), the desk-scale stand-in for a
quantum-secure PRP.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .bits import BitString, _unchecked


def _keyed_hash(key: BitString):
    """blake2b keyed with the key's big-endian bytes (the first 64 of them)."""
    return hashlib.blake2b(key=key.value.to_bytes((key.width + 7) // 8, "big")[:64])


def _hash_bits(keyed, payload: bytes, out_bits: int) -> BitString:
    """The first out_bits of the 512-bit blocks H(payload || counter),
    each hashed on a copy of the pre-keyed hash `keyed`.  The value fits
    in out_bits by construction, so for out_bits >= 1 the result skips
    the constructor's checks."""
    val = 0
    produced = 0
    block = 0
    while produced < out_bits:
        h = keyed.copy()
        h.update(payload + block.to_bytes(4, "big"))
        val = (val << 512) | int.from_bytes(h.digest(), "big")
        produced += 512
        block += 1
    return _unchecked(val >> (produced - out_bits), out_bits)


class IdealPrf:
    """Random function {0,1}^in_bits -> {0,1}^out_bits fixed by the key.

    The key schedule (the keyed blake2b state) is computed once here;
    each eval hashes on a copy of it.
    """

    def __init__(self, key: BitString, in_bits: int, out_bits: int):
        if in_bits < 1 or out_bits < 1:
            raise ValueError(f"PRF widths must be positive, got in_bits={in_bits}, out_bits={out_bits}")
        self.key = key
        self.in_bits = in_bits
        self.out_bits = out_bits
        self._in_bytes = (in_bits + 7) // 8
        self._keyed = _keyed_hash(key)

    def eval(self, x: BitString) -> BitString:
        if x.width != self.in_bits:
            raise ValueError(f"input width {x.width} != declared {self.in_bits}")
        return _hash_bits(self._keyed, b"prf" + x.value.to_bytes(self._in_bytes, "big"), self.out_bits)


def make_prf(key: BitString, in_bits: int, out_bits: int) -> IdealPrf:
    return IdealPrf(key, in_bits, out_bits)


QPRP_DOMAIN_CAP = 14


@dataclass(eq=False)
class Permutation:
    """Tabulated bijection on {0,...,2**domain_bits - 1}.

    It is also the basis permutation |z> -> |forward[z]> on domain_bits
    qubits, so it serves as a gate: the classical-function oracles are
    Permutations, and quantum.apply_gate gathers through the inverse.
    """

    domain_bits: int
    forward: np.ndarray
    inverse: np.ndarray = field(default=None)

    def __post_init__(self):
        n = 1 << self.domain_bits
        index = np.arange(n, dtype=np.int64)
        scatter = self.inverse is None
        fwd = self.forward = np.asarray(self.forward, dtype=np.int64)
        inv = self.inverse = np.zeros(n, dtype=np.int64) if scatter else np.asarray(self.inverse, dtype=np.int64)
        # viewed unsigned, a negative entry is out of range too
        ok = fwd.shape == inv.shape == (n,) and fwd.view(np.uint64).max() < n
        if ok and scatter:
            inv[fwd] = index
        else:
            ok = ok and inv.view(np.uint64).max() < n
        # forward[inverse] = id makes forward onto, so a bijection with
        # inverse as its inverse; a repeat in forward leaves some index
        # of the scattered inverse at 0, which fails it
        if not (ok and (fwd[inv] == index).all()):
            raise ValueError(f"table is not a permutation of range(2**{self.domain_bits}), "
                             f"or the inverse does not invert it")

    @property
    def n_qubits(self) -> int:
        return self.domain_bits

    @property
    def matrix(self) -> np.ndarray:
        """The dense 2**n x 2**n matrix, built on every read."""
        dim = 1 << self.domain_bits
        m = np.zeros((dim, dim), dtype=complex)
        m[self.forward, np.arange(dim)] = 1.0
        return m

    def apply(self, x: int) -> int:
        return int(self.forward[x])

    def invert(self, y: int) -> int:
        return int(self.inverse[y])

    def inverted(self) -> "Permutation":
        return Permutation(self.domain_bits, self.inverse, self.forward)

    @classmethod
    def identity(cls, domain_bits: int) -> "Permutation":
        return cls(domain_bits, np.arange(1 << domain_bits, dtype=np.int64))

    @classmethod
    def xor_mask(cls, mask: int, domain_bits: int) -> "Permutation":
        return cls(domain_bits, np.arange(1 << domain_bits, dtype=np.int64) ^ mask)

    @classmethod
    def from_fn(cls, fn, domain_bits: int) -> "Permutation":
        return cls(domain_bits, np.array([fn(x) for x in range(1 << domain_bits)], dtype=np.int64))


def sample_ideal_qprp(key: BitString, domain_bits: int) -> Permutation:
    """Uniformly random tabulated permutation, deterministic in the key."""
    if domain_bits > QPRP_DOMAIN_CAP:
        raise ValueError(f"domain_bits {domain_bits} exceeds cap {QPRP_DOMAIN_CAP}")
    seed_material = _hash_bits(_keyed_hash(key), b"qprp", 256)
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed_material.value)))
    fwd = gen.permutation(1 << domain_bits).astype(np.int64)
    return Permutation(domain_bits, fwd)
