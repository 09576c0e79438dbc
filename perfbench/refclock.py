"""A reference clock that factors the host's speed out of wall time.

On a shared host the same code runs 20-40% faster in one stretch of a
minute than in the next, as neighbours come and go; the process gets
the same CPU time either way, it just does less with it.  Four fixed
kernels in the program's own idiom (an integer loop, dict churn, small
complex matrices, SHA-256 of short messages), run between experiment
runs, slow down with the program.  `speed()` is the geometric mean of
their speeds relative to the reference machine, and time measured in
*reference seconds*,

    wall seconds * speed(),

stays put while wall time drifts.  A reference second is a wall second
on a machine that runs each kernel in its time in KERNELS, about the
median of the 2-core Xeon machine this was tuned on.  Only the host's
speed cancels: a program change that halves the work halves reference
time as it halves wall time.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

_A = np.arange(64, dtype=np.complex128).reshape(8, 8) / 64 + 0.5j
_MESSAGE = bytes(60)


def _int_loop() -> None:
    acc = 0
    for i in range(30_000):
        acc += i * i % 7


def _dict_churn() -> None:
    table = {}
    for i in range(6_000):
        table[(i * 7919) & 0xFFFF] = (i, i + 1)
    sorted(table)


def _small_matrices() -> None:
    for _ in range(150):
        (_A @ _A).trace()
        np.kron(_A[:2, :2], _A[:4, :4])


def _hashing() -> None:
    for i in range(4_000):
        hashlib.sha256(_MESSAGE + i.to_bytes(4, "little")).digest()


# (kernel, its wall seconds on the reference machine)
KERNELS = (
    (_int_loop, 1.8e-3),
    (_dict_churn, 1.4e-3),
    (_small_matrices, 3.6e-3),
    (_hashing, 2.7e-3),
)


def speed() -> float:
    """This host's speed now, relative to the reference machine (about 10 ms)."""
    log_sum = 0.0
    for kernel, reference_s in KERNELS:
        t0 = time.perf_counter()
        kernel()
        log_sum += np.log(reference_s / (time.perf_counter() - t0))
    return float(np.exp(log_sum / len(KERNELS)))


def settled_speed() -> float:
    """Median of ten probes, for a process that measures itself once."""
    return statistics.median(speed() for _ in range(10))
