"""Layer sweep: public functions timed directly over a range of sizes.

The sweep is not a workload and has no end-to-end metric.  It times
each layer that the open performance work targets, at sizes fixed
here, on inputs drawn from the run's seed, and checks each result.
Times are medians over repeats.  Density matrices stop at 10 qubits:
a 12-qubit one is 256 MiB before gate temporaries.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

ORAM_SIZES = (16, 64, 256, 1024)
QUBITS = (3, 6, 8, 10)
BM_P, BM_G = 65537, 3
DLOG_GROUPS = ((65537, 3, 65536), (8389163, 4, 4194581))  # (p, g, order of g)


class SweepError(Exception):
    """A swept function returned a wrong result."""


def _median_s(fn, min_repeats: int = 5, budget_s: float = 0.25) -> float:
    """Median wall time of fn() over at least min_repeats calls."""
    times = []
    start = time.perf_counter()
    while len(times) < min_repeats or (time.perf_counter() - start < budget_s and len(times) < 200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _per_call_s(fn, calls: int, batches: int = 5) -> float:
    """Median over batches of the mean time of one of `calls` calls."""
    def batch():
        for _ in range(calls):
            fn()

    return _median_s(batch, min_repeats=batches, budget_s=0.0) / calls


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise SweepError(what)


def _oram(out: dict, seed: int) -> None:
    from qsgames.bits import BitString
    from qsgames.oram import DataRequest, OramParams, oram_access, oram_init
    from qsgames.rng import Rand

    for n_db in ORAM_SIZES:
        rand = Rand((seed, 1, n_db))
        client, server = oram_init(OramParams(n_db=n_db), rand)
        ids = [rand.integer(1, n_db + 1) for _ in range(16)]
        stored = {}
        step = itertools.count()

        def access():
            i = next(step)
            ident = ids[(i // 2) % len(ids)]
            if i % 2 == 0:
                data = BitString(rand.integer(0, 256), 8)
                stored[ident] = data
                oram_access(client, server, DataRequest("write", ident, data))
            else:
                oram_access(client, server, DataRequest("read", ident))
                _check(client.last_read == stored[ident], f"oram n_db={n_db} read back wrong data")

        out[f"sweep.oram_access_us.n_db{n_db}"] = _median_s(access, min_repeats=20) * 1e6


def _qoram(out: dict, seed: int) -> None:
    from qsgames.oram import OramParams
    from qsgames.qoram import QuantumDataRequest, qoram_access, qoram_init
    from qsgames.quantum import DensityMatrix, trace_distance
    from qsgames.rng import Rand

    rand = Rand((seed, 2))
    params = OramParams(n_db=2, n_dat=1)
    client, server = qoram_init(params, rand)
    one = DensityMatrix.basis(1, 1)
    step = itertools.count()

    def access():
        i = next(step)
        ident = 1 + (i // 2) % 2
        if i % 2 == 0:
            qoram_access(client, server, QuantumDataRequest("write", ident, one))
        else:
            qoram_access(client, server, QuantumDataRequest("read", ident))
            _check(trace_distance(client.retrieved, one) < 1e-9, "qoram read back a wrong payload")

    out[f"sweep.qoram_access_us.q{params.n_msg}"] = _median_s(access, min_repeats=20) * 1e6


def _kernels(out: dict, seed: int) -> None:
    from qsgames.quantum import DensityMatrix, apply_gate, partial_trace, qotp_apply
    from qsgames.rng import Rand

    rand = Rand((seed, 3))
    for n in QUBITS:
        rho = DensityMatrix.random_pure(n, rand)
        key = rand.bits(2 * n)
        keep = list(range(n - 1))
        out[f"sweep.gate_us.q{n}"] = _median_s(lambda: apply_gate(rho, "H", [0])) * 1e6
        out[f"sweep.mask_us.q{n}"] = _median_s(lambda: qotp_apply(key, rho)) * 1e6
        out[f"sweep.ptrace_us.q{n}"] = _median_s(lambda: partial_trace(rho, keep)) * 1e6
        twice = qotp_apply(key, qotp_apply(key, rho))
        _check(np.allclose(twice.mat, rho.mat), f"mask is not self-inverse at {n} qubits")
        _check(abs(np.trace(apply_gate(rho, "H", [0]).mat) - 1) < 1e-9, f"gate lost trace at {n} qubits")
        _check(abs(np.trace(partial_trace(rho, keep).mat) - 1) < 1e-9, f"partial trace lost trace at {n} qubits")
        del rho, twice


def _skes(out: dict, seed: int) -> None:
    from qsgames.oram import OramParams
    from qsgames.prf import make_prf
    from qsgames.rng import Rand
    from qsgames.schemes import GoldreichScheme

    rand = Rand((seed, 4))
    params = OramParams(n_db=16)
    # the ORAM's block cipher: n_msg-bit messages, 32 randomness bits
    scheme = GoldreichScheme(params.n_msg, r_bits=32, key_bits=params.key_bits)
    key = scheme.key_gen(rand)
    msg = rand.bits(params.n_msg)
    ct = scheme.enc(key, msg, rand=rand)
    _check(scheme.dec(key, ct) == msg, "SKES decryption does not invert encryption")
    prf = make_prf(key, 32, params.n_msg)
    r = rand.bits(32)
    out["sweep.prf_eval_us"] = _per_call_s(lambda: prf.eval(r), 2000) * 1e6
    out["sweep.skes_enc_us"] = _per_call_s(lambda: scheme.enc(key, msg, rand=rand), 1000) * 1e6
    out["sweep.skes_dec_us"] = _per_call_s(lambda: scheme.dec(key, ct), 1000) * 1e6


def _recover(out: dict, seed: int) -> None:
    from qsgames.attacks import bm_oram_attack
    from qsgames.oram import OramParams, oram_access, oram_init
    from qsgames.rng import BlumMicaliPrng, Rand

    times = []
    for rep in range(5):
        rand = Rand((seed, 5, rep))
        params = OramParams(n_db=16)
        prng = BlumMicaliPrng(BM_P, BM_G, rand.integer(1, BM_P))
        client, server = oram_init(params, rand, prng=prng)
        adv = bm_oram_attack(16, BM_P, BM_G)
        adv.begin(rand, client.params)
        view = None
        while (dr := adv.phase1_request(view)) is not None:
            _, _, view = oram_access(client, server, dr)
        t0 = time.perf_counter()
        adv.challenge()
        times.append(time.perf_counter() - t0)
        # the true seed always fits the observed leaves
        _check(adv.prediction >= 0, "state recovery found no consistent seed")
    out[f"sweep.recover_ms.p{BM_P}"] = statistics.median(times) * 1e3


def _dlog(out: dict, seed: int) -> None:
    from qsgames.rng import Rand, dlog_bruteforce

    rand = Rand((seed, 6))
    for p, g, order in DLOG_GROUPS:
        # exponents from the top eighth keep the exhaustive search's
        # cost steady across seeds
        e = rand.integer(order - order // 8, order)
        h = pow(g, e, p)
        times = []
        for _ in range(3 if p > 1 << 20 else 7):
            t0 = time.perf_counter()
            got = dlog_bruteforce(p, g, h)
            times.append(time.perf_counter() - t0)
            _check(got == e, f"dlog at p={p} returned {got}, expected {e}")
        out[f"sweep.dlog_ms.p{p}"] = statistics.median(times) * 1e3


PARTS = (_oram, _qoram, _kernels, _skes, _recover, _dlog)


def run(seed: int) -> tuple[dict, list, list]:
    """Returns (metrics, absent parts, wrong results)."""
    out: dict = {}
    absent = []
    errors = []
    for part in PARTS:
        try:
            part(out, seed)
        except ImportError as exc:
            absent.append(f"{part.__name__.strip('_')}: {exc}")
        except SweepError as exc:
            errors.append(f"{part.__name__.strip('_')}: {exc}")
    return out, absent, errors
