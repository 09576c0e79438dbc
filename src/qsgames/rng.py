"""Seedable, splittable randomness plus the toy pseudorandom generators.

Every randomized operation in the package draws from a Rand handle so
experiments replay bit-exactly from a seed.  Child generators are
derived with numpy's SeedSequence spawning, which keeps parallel trials
independent and reproducible.

Two stateful generators feed the ORAM position maps:

  * BlumMicaliPrng: state s, step s' = g**s mod p, one output bit per
    step via the half-interval predicate hc(s') = [s' < (p-1)/2].
    Classically fine, quantumly predictable (the separation target).
  * CounterPrfPrng: output block t = F_key(t) for a lazily sampled
    random function, the stand-in for a generator with no usable
    structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

from . import _accel
from .bits import BitString


class Rand:
    """Thin wrapper over numpy Generator with splitting and bit output."""

    def __init__(self, seed=0):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(seed)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> list["Rand"]:
        return [Rand(s) for s in self._seq.spawn(n)]

    def child(self) -> "Rand":
        return self.split(1)[0]

    def bits(self, width: int) -> BitString:
        val = 0
        for _ in range((width + 31) // 32):
            val = (val << 32) | int(self._gen.integers(0, 1 << 32))
        return BitString(val & ((1 << width) - 1), width)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        if hi - lo <= (1 << 62):
            return int(self._gen.integers(lo, hi))
        # wide ranges (big toy moduli) via rejection on raw bits
        span = hi - lo
        nbits = span.bit_length()
        while True:
            v = self.bits(nbits).value
            if v < span:
                return lo + v

    def coin(self) -> int:
        return int(self._gen.integers(0, 2))

    def chance(self, p: float) -> bool:
        return bool(self._gen.random() < p)

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]

    def shuffle(self, arr: np.ndarray) -> None:
        self._gen.shuffle(arr)

    def numpy(self) -> np.random.Generator:
        return self._gen


@dataclass
class PrngState:
    """Snapshot of a stateful generator: kind, parameters, emission count."""

    kind: str
    params: dict
    emitted: int = 0


def _check_group(p: int, g: int) -> None:
    if not sympy.isprime(p):
        raise ValueError(f"p={p} is not prime")
    if not 1 < g < p:
        raise ValueError(f"g={g} generates a trivial subgroup")
    # require a primitive root so the state walk covers the full group
    for q in sympy.factorint(p - 1):
        if pow(g, (p - 1) // q, p) == 1:
            raise ValueError(f"g={g} is not a generator mod {p}")


class BlumMicaliPrng:
    """Stateful wrapper emitting fixed-width values from the bit stream."""

    name = "blum-micali"

    def __init__(self, p: int, g: int, seed: int):
        _check_group(p, g)
        if not 1 <= seed < p:
            raise ValueError("seed out of range")
        self.p = p
        self.g = g
        self._s = seed
        self.emitted_bits = 0

    def next_value(self, width: int) -> BitString:
        bits, self._s = _accel.bm_stream_bits(self.p, self.g, self._s, width)
        self.emitted_bits += width
        val = 0
        for b in bits:
            val = (val << 1) | int(b)
        return BitString(val, width)

    def state(self) -> PrngState:
        return PrngState("BlumMicali", {"p": self.p, "g": self.g, "s": self._s}, self.emitted_bits)


class CounterPrfPrng:
    """Counter-mode generator over a lazily sampled random function."""

    name = "counter-prf"

    def __init__(self, key_rand: Rand):
        self._rand = key_rand
        self._counter = 0

    def next_value(self, width: int) -> BitString:
        # each block is an independent draw from the key-derived stream,
        # indistinguishable from fresh randomness by construction
        self._counter += 1
        return self._rand.bits(width)

    def state(self) -> PrngState:
        return PrngState("CounterPrf", {"counter": self._counter}, self._counter)


def dlog_bruteforce(p: int, g: int, h: int) -> int:
    """Smallest x with g**x = h (mod p), by exhaustive search."""
    if p > _accel.DLOG_MODULUS_CAP:
        raise ValueError("modulus exceeds 2**24 brute-force cap")
    e = _accel.dlog_bruteforce_raw(p, g, h)
    if e < 0:
        raise ValueError(f"{h} is not in the subgroup generated by {g} mod {p}")
    return e
