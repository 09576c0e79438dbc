"""Test oracles: slow or witness-free reference computations.

No catalog entry runs any of these.  Each one cross-checks a library
function that the catalog does run, or rebuilds a pinned digest:
- views_digest, safe_extractor_default and report_json: the tree
  digest and the quantum ORAM's identity-action extractor;
  tests/golden_data.py builds the "qoram" digest of traces.json through
  them.
- qotp_average and exact_perm_average: the Pauli mask averaged over
  every key, and the permutation channel averaged over every
  permutation, against quantum.qotp_apply and avg_perm_channel.
- hvzk_simulate, lambda_smplrnd and lambda_round: the protocol's
  witness-free simulator, and one interactive run of the
  oblivious-commitment variant with its brute-force SmplRnd.
"""

from __future__ import annotations

import json
from itertools import permutations

import numpy as np

from qsgames.bits import BitString
from qsgames.fiatshamir import HardInstance, SchnorrGroup, SigmaTranscript, lambda_commit, schnorr_respond
from qsgames.oram import ServerDB, Transcript, fnv1a64
from qsgames.prf import Permutation
from qsgames.quantum import DensityMatrix, _attach_ancilla, apply_gate, qotp_apply
from qsgames.rng import Rand, dlog_bruteforce

# ---------------------------------------------------------------------------
# quantum ORAM: safe extraction
# ---------------------------------------------------------------------------


def views_digest(snapshot: tuple) -> int:
    """FNV-1a over every block view of a snapshot, in heap order."""
    return fnv1a64("".join(str(v) for view in snapshot for v in view).encode())


def safe_extractor_default(transcript: Transcript | None, server: ServerDB) -> dict:
    """Identity-action extractor: classical channel contents plus
    ciphertext-register digests; data registers are never measured and
    the joint state is untouched, so repeated runs agree bit for bit.
    The report holds the tree digest and, given a transcript, its leaf
    and its down and up digests."""
    report = {"db_digest": views_digest(server.snapshot())}
    if transcript is not None:
        report.update(leaf=transcript.leaf, down=list(transcript.down), up=list(transcript.up))
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# quantum channels by enumeration
# ---------------------------------------------------------------------------


def qotp_average(state: DensityMatrix) -> DensityMatrix:
    """Exact average of the Pauli mask over all 4**n keys."""
    n = state.n_qubits
    dim = 1 << n
    acc = np.zeros((dim, dim), dtype=complex)
    for key_val in range(1 << (2 * n)):
        key = BitString(key_val, 2 * n)
        acc += qotp_apply(key, state).mat
    return DensityMatrix(n, acc / (1 << (2 * n)), check=False)


def exact_perm_average(rho: DensityMatrix, r_bits: int) -> DensityMatrix:
    """Exhaustive enumeration over every permutation (tiny dimensions only)."""
    c = rho.n_qubits + r_bits
    n_c = 1 << c
    if n_c > 8:
        raise ValueError("exhaustive enumeration is limited to 3 total qubits")
    attached = _attach_ancilla(rho, 0, r_bits)
    acc = np.zeros_like(attached.mat)
    count = 0
    for perm in permutations(range(n_c)):
        acc += apply_gate(attached, Permutation(c, perm), list(range(c))).mat
        count += 1
    return DensityMatrix(c, acc / count, check=False)


# ---------------------------------------------------------------------------
# knowledge-of-discrete-log: simulation and the oblivious-commitment run
# ---------------------------------------------------------------------------


def hvzk_simulate(group: SchnorrGroup, x: int, rand: Rand) -> SigmaTranscript:
    """Transcript without the witness: sample ch and resp, solve for com."""
    ch = rand.integer(0, group.q)
    resp = rand.integer(0, group.q)
    x_inv = pow(x, -1, group.p)
    com = (pow(group.g, resp, group.p) * pow(x_inv, ch, group.p)) % group.p
    return SigmaTranscript(com, ch, resp)


def lambda_smplrnd(group: SchnorrGroup, x: int, com: int) -> int:
    """Recover coins with g^r = com by brute force (toy sizes only)."""
    r = dlog_bruteforce(group.p, group.g, com)
    if r >= group.q:
        raise ValueError("commitment outside the subgroup")
    return r


def lambda_round(inst: HardInstance, rand: Rand) -> tuple[int, SigmaTranscript]:
    """One oblivious-commitment protocol run: the verifier draws the
    coins and the commitment, the prover answers via SmplRnd."""
    group = inst.group
    r = rand.integer(0, group.q)
    com = lambda_commit(group, inst.x, r)
    ch = rand.integer(0, group.q)
    coins = lambda_smplrnd(group, inst.x, com)
    resp = schnorr_respond(inst, coins, ch)
    return r, SigmaTranscript(com, ch, resp)
