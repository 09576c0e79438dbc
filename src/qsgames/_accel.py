"""Hot numeric kernels in NumPy and plain Python.

The brute-force loops here (discrete log search, generator state
recovery) dominate the runtime of the ORAM separation experiments.
All moduli are capped at 2**24 so every intermediate product fits
comfortably in int64, and the state-recovery search runs off a cached
table of g**x mod p.
"""

from __future__ import annotations

import numpy as np

DLOG_MODULUS_CAP = 1 << 24


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


_POW_TABLE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _pow_table(p: int, g: int) -> np.ndarray:
    key = (p, g)
    table = _POW_TABLE_CACHE.get(key)
    if table is None:
        table = _batch_modpow(g, np.arange(p, dtype=np.int64), p)
        if len(_POW_TABLE_CACHE) > 8:
            _POW_TABLE_CACHE.clear()
        _POW_TABLE_CACHE[key] = table
    return table


def dlog_bruteforce_raw(p: int, g: int, h: int) -> int:
    """Smallest e >= 0 with g**e == h (mod p), or -1 if h is not in <g>."""
    if p > DLOG_MODULUS_CAP:
        raise ValueError(f"modulus {p} exceeds brute-force cap 2**24")
    h %= p
    x = 1
    for e in range(p - 1):
        if x == h:
            return e
        x = (x * g) % p
    return -1


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


def bm_recover_state(
    p: int,
    g: int,
    n_tag: int,
    n_tree: int,
    positions: list[int],
    expected: list[int],
    predict_pos: int,
) -> tuple[int, int]:
    """Exhaustively search for a seed consistent with truncated outputs.

    The generator emits ``n_tag``-bit values (one per n_tag predicate
    bits); observation j says output number positions[j], truncated to
    its last ``n_tree`` bits, equals expected[j].  Returns the first
    consistent seed and the truncated output at ``predict_pos``, or
    (-1, -1) when no seed fits.
    """
    if p > DLOG_MODULUS_CAP:
        raise ValueError(f"modulus {p} exceeds brute-force cap 2**24")
    if not positions:
        return -1, -1
    table = _pow_table(p, g)
    half = (p - 1) // 2
    tree_mask = (1 << n_tree) - 1
    # every admissible seed advances in lockstep through the power table;
    # a seed drops out at its first disagreeing truncated output
    seeds = np.arange(1, p, dtype=np.int64)
    states = seeds.copy()
    alive = np.ones(seeds.shape[0], dtype=bool)
    predictions = np.full(seeds.shape[0], -1, dtype=np.int64)
    obs = dict(zip(positions, expected))
    for pos in range(max(max(positions), predict_pos) + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        vals = np.zeros(idx.size, dtype=np.int64)
        st = states[idx]
        for _ in range(n_tag):
            st = table[st]
            vals = (vals << 1) | (st < half)
        states[idx] = st
        vals &= tree_mask
        if pos in obs:
            alive[idx] = vals == obs[pos]
        if pos == predict_pos:
            predictions[idx] = vals
    idx = np.flatnonzero(alive)
    if idx.size == 0:
        return -1, -1
    return int(seeds[idx[0]]), int(predictions[idx[0]])


def warmup() -> None:
    """Run each kernel once on a tiny group before timed sections."""
    dlog_bruteforce_raw(23, 5, 10)
    bits, _ = bm_stream_bits(23, 5, 3, 3)
    first = (int(bits[0]) << 2 | int(bits[1]) << 1 | int(bits[2])) & 3
    bm_recover_state(23, 5, 3, 2, [0], [first], 1)
