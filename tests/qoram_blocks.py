"""Quantum ORAM blocks as dense Skqes1Scheme ciphertexts.

The quantum tree stores each block in product form: the masked tag
index, the masked data matrix and r.  dense_cipher rebuilds the
QCiphertext of the block's whole (tag register || data register), so a
test can decrypt a stored block with Skqes1Scheme.dec and read it off
the dense matrix, independently of the ORAM's codec; with_r gives the
block under another randomness r, for tampering.
"""

from dataclasses import replace

import numpy as np

from qsgames.bits import BitString
from qsgames.qscheme import QCiphertext
from qsgames.quantum import DensityMatrix


def dense_cipher(params, block) -> QCiphertext:
    if not 0 <= block.tag < 1 << params.n_tag or block.data.n_qubits != params.n_dat:
        raise ValueError(f"block of tag {block.tag} and {block.data.n_qubits} data qubits does not fit {params}")
    d = 1 << params.n_dat
    mat = np.zeros((1 << params.n_msg, 1 << params.n_msg), dtype=complex)
    lo = block.tag * d
    mat[lo:lo + d, lo:lo + d] = block.data.mat
    return QCiphertext(DensityMatrix(params.n_msg, mat, check=False), r=block.r)


def with_r(block, r: int):
    """The block under randomness r.  dataclasses.replace does not copy
    the masks and digest a block keeps, so the copy is decrypted under
    F_k(r) and digested afresh, as a tampered block is."""
    return replace(block, r=BitString(r, block.r.width))
