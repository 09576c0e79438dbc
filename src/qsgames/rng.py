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

The searches against the first generator live here too.  Seed
recovery from truncated outputs reads a lazily built, cached table of
every seed's truncated outputs and filters it on the observations; the
discrete log is a baby-step giant-step search.  All moduli are capped
at 2**24 so every intermediate product fits comfortably in int64.

The number theory the toy groups and keys need (primality, the next
prime, the distinct prime factors) is here as well: a deterministic
Miller-Rabin test and trial division, exact at every size in use.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .bits import BitString, _unchecked


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
        # the value fits by construction; the constructor still rejects width < 1
        return _unchecked(val & ((1 << width) - 1), width) if width > 0 else BitString(val, width)

    def bits_batch(self, width: int, count: int) -> list[int]:
        """The values of `count` calls of bits(width), drawn as those calls
        draw them, each value's 32-bit words combined high word first.
        All the words come from one integers call."""
        if width < 1:
            raise ValueError(f"width must be positive, got {width}")
        words = (width + 31) // 32
        raw = self._gen.integers(0, 1 << 32, size=count * words).tolist()
        vals = raw[::words]
        for j in range(1, words):
            vals = [(val << 32) | word for val, word in zip(vals, raw[j::words])]
        mask = (1 << width) - 1
        return [val & mask for val in vals]

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

    def numpy(self) -> np.random.Generator:
        return self._gen


@dataclass
class PrngState:
    """Snapshot of a stateful generator: kind, parameters, emission count."""

    kind: str
    params: dict
    emitted: int = 0


# Miller-Rabin with the first 12 primes as bases decides every n below
# psi_12 exactly (Sorenson & Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXACT_BELOW = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic primality test for integers below psi_12 ~ 3.19e23.

    Trial division by the 12 base primes, then strong-probable-prime
    tests to each of them.  ValueError at n >= psi_12, where these bases
    are no longer known to decide every case.
    """
    n = operator.index(n)
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BELOW}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """The smallest prime greater than n (2 for every n < 2)."""
    n = operator.index(n)
    if n < 2:
        return 2
    c = (n + 1) | 1  # the smallest odd number above n
    while not is_prime(c):
        c += 2
    return c


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 in increasing order, by
    trial division (O(sqrt n) steps)."""
    factors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


# every ORAM trial builds a fresh generator over the same group, so
# passing checks are remembered (a failing one raises and is not)
@functools.lru_cache(maxsize=16)
def _check_group(p: int, g: int) -> None:
    # the cap also bounds the trial division of p - 1 to 2**12 steps
    _check_modulus(p)
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if not 1 < g < p:
        raise ValueError(f"g={g} generates a trivial subgroup")
    # require a primitive root so the state walk covers the full group
    for q in _prime_factors(p - 1):
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
        return BitString(self.next_values(width, 1)[0], width)

    def next_values(self, width: int, count: int) -> list[int]:
        """The values of `count` calls of next_value(width), from one run
        of the bit stream."""
        bits, self._s = bm_stream_bits(self.p, self.g, self._s, count * width)
        self.emitted_bits += count * width
        return [functools.reduce(lambda val, b: (val << 1) | b, row, 0)
                for row in bits.reshape(count, width).tolist()]

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

    def next_values(self, width: int, count: int) -> list[int]:
        """The values of `count` calls of next_value(width), in one draw."""
        self._counter += count
        return self._rand.bits_batch(width, count)

    def state(self) -> PrngState:
        return PrngState("CounterPrf", {"counter": self._counter}, self._counter)


DLOG_MODULUS_CAP = 1 << 24


def _check_modulus(p: int) -> None:
    if p > DLOG_MODULUS_CAP:
        raise ValueError(f"modulus {p} exceeds brute-force cap 2**24")


def bm_stream_bits(p: int, g: int, s: int, count: int) -> tuple[np.ndarray, int]:
    """Run the modular-exponentiation generator ``count`` steps.

    Returns (bits, final_state); bit i is the half-interval predicate of
    the state after step i+1.
    """
    out = np.zeros(count, dtype=np.int64)
    half = (p - 1) // 2
    for i in range(count):
        s = pow(g, s, p)
        out[i] = 1 if s < half else 0
    return out, int(s)


def _batch_modpow(g: int, exps: np.ndarray, p: int) -> np.ndarray:
    """g**exps mod p for an int64 exponent array (square-and-multiply
    over exponent bits; products stay below 2**48)."""
    result = np.ones_like(exps)
    base = np.int64(g % p)
    exps = exps.copy()
    maxbits = int(p).bit_length()
    for _ in range(maxbits + 1):
        odd = (exps & 1) == 1
        result[odd] = (result[odd] * base) % p
        base = (base * base) % p
        exps >>= 1
        if not exps.any():
            break
    return result


class TableCache:
    """build(*args), an array or a tuple holding arrays, kept read-only
    while all kept tables together fit in `budget` bytes.  A result
    larger than the budget is returned and never kept; keeping one that
    does not fit beside the others first empties the cache."""

    def __init__(self, budget: int):
        self.budget = budget
        self.tables: dict[tuple, object] = {}
        self.nbytes = 0

    def get(self, build, *args):
        key = (build, *args)
        tables = self.tables.get(key)
        if tables is None:
            tables = build(*args)
            parts = tables if isinstance(tables, tuple) else (tables,)
            arrays = [a for a in parts if isinstance(a, np.ndarray)]
            size = sum(a.nbytes for a in arrays)
            if size <= self.budget:
                for a in arrays:
                    a.flags.writeable = False
                if self.nbytes + size > self.budget:
                    self.tables.clear()
                    self.nbytes = 0
                self.tables[key] = tables
                self.nbytes += size
        return tables


# Power and seed-output tables for bm_recover_state.  The budget is also
# the largest output table it builds: above it the outputs are computed
# in lockstep for one block of seeds of this size at a time.
_TABLES = TableCache(64 << 20)


def _powers(p: int, g: int) -> np.ndarray:
    return _batch_modpow(g, np.arange(p, dtype=np.int64), p)


def _lockstep_outputs(powers: np.ndarray, n_tag: int, n_tree: int, first: int, stop: int, horizon: int) -> np.ndarray:
    """Truncated outputs 0..horizon of the seeds first..stop-1.

    Row pos, column i holds output number pos of seed first + i, in the
    smallest unsigned dtype that holds an n_tree-bit value.  Every seed
    advances in lockstep through the power table powers[x] = g**x mod p.
    """
    half = (powers.size - 1) // 2
    tree_mask = (1 << n_tree) - 1
    states = np.arange(first, stop, dtype=np.int64)
    out = np.empty((horizon + 1, states.size), dtype=np.min_scalar_type(tree_mask))
    for pos in range(horizon + 1):
        vals = np.zeros(states.size, dtype=np.int64)
        for _ in range(n_tag):
            states = powers[states]
            vals = (vals << 1) | (states < half)
        out[pos] = vals & tree_mask
    return out


def _output_table(p: int, g: int, n_tag: int, n_tree: int, horizon: int) -> np.ndarray:
    return _lockstep_outputs(_TABLES.get(_powers, p, g), n_tag, n_tree, 1, p, horizon)


def _first_fit(outputs: np.ndarray, first: int, obs: dict, predict_pos: int) -> tuple[int, int]:
    """The first seed whose column of `outputs` (seeds first, first+1,
    ...) agrees with every observation, and its output at predict_pos."""
    cand = None
    for pos, val in obs.items():
        # the first compare scans a whole row, so the candidates come
        # out in seed order and stay in it
        cand = np.flatnonzero(outputs[pos] == val) if cand is None else cand[outputs[pos, cand] == val]
        if cand.size == 0:
            return -1, -1
    col = 0 if cand is None else int(cand[0])
    prediction = int(outputs[predict_pos, col]) if predict_pos >= 0 else -1
    return first + col, prediction


def bm_recover_state(
    p: int,
    g: int,
    n_tag: int,
    n_tree: int,
    positions: list[int],
    expected: list[int],
    predict_pos: int,
) -> tuple[int, int]:
    """Search for a seed consistent with truncated outputs.

    The generator emits ``n_tag``-bit values (one per n_tag predicate
    bits); observation j says output number positions[j], truncated to
    its last ``n_tree`` bits, equals expected[j] (a repeated position
    keeps its last value).  Returns the first consistent seed and the
    truncated output at ``predict_pos``, or (-1, -1) when no seed fits.

    The outputs of every seed up to the furthest position needed are
    tabulated once per (p, g, n_tag, n_tree, horizon) and cached; a
    query filters them on the observations.  A table larger than
    _TABLES.budget is never built: the same filter then runs on
    outputs computed in lockstep, one block of seeds at a time.
    """
    _check_modulus(p)
    if not positions or p < 2:
        return -1, -1
    horizon = max(max(positions), predict_pos, 0)
    # a negative position names no output and constrains nothing
    obs = {pos: val for pos, val in zip(positions, expected) if pos >= 0}
    seed_bytes = np.min_scalar_type((1 << n_tree) - 1).itemsize * (horizon + 1)
    if (p - 1) * seed_bytes <= _TABLES.budget:
        return _first_fit(_TABLES.get(_output_table, p, g, n_tag, n_tree, horizon), 1, obs, predict_pos)
    block = max(1, _TABLES.budget // seed_bytes)
    powers = _TABLES.get(_powers, p, g)
    for first in range(1, p, block):
        outputs = _lockstep_outputs(powers, n_tag, n_tree, first, min(first + block, p), horizon)
        found = _first_fit(outputs, first, obs, predict_pos)
        if found[0] >= 0:
            return found
    return -1, -1


def dlog_bruteforce(p: int, g: int, h: int) -> int:
    """Smallest e >= 0 with g**e = h (mod p), by baby-step giant-step.

    Baby steps tabulate g**j for j < m = ceil(sqrt(p - 1)), keeping the
    first j of each value, so a g of small order still yields the
    smallest e; giant steps then try h * g**(-m*i) for i < m.  O(sqrt p)
    time and memory (Shanks, 1971).  ValueError when h is not in the
    subgroup generated by g, h = 0 included.
    """
    _check_modulus(p)
    target = h % p
    if target == 0 or g % p == 0:
        raise ValueError(f"{h} is not in the subgroup generated by {g} mod {p}")
    m = math.isqrt(p - 2) + 1
    baby: dict[int, int] = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = x * g % p
    stride = pow(g, -m, p)
    y = target
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            return i * m + j
        y = y * stride % p
    raise ValueError(f"{h} is not in the subgroup generated by {g} mod {p}")
