"""Quantum ORAM blocks as dense Skqes1Scheme ciphertexts.

The quantum tree stores each block in product form: the masked tag
index, the masked data matrix and r.  dense_cipher rebuilds the
QCiphertext of the block's whole (tag register || data register), so a
test can decrypt a stored block with Skqes1Scheme.dec and read it off
the dense matrix, independently of the ORAM's codec; sealed_afresh
rebuilds a codec-made block from the plaintext it holds through the
scheme's dense encryption; with_r gives the block under another
randomness r, for tampering.
"""

import numpy as np

from qsgames.bits import BitString
from qsgames.qoram import QuantumBlock
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


def sealed_afresh(client, block) -> QuantumBlock:
    """The block a codec made, rebuilt from the plaintext it holds:
    Skqes1Scheme encrypts the dense |t><t| (x) rho under the block's r,
    and the masked tag and data register are read off that ciphertext."""
    params = client.params
    _, tag, data = block._plain
    data = DensityMatrix.basis(params.n_dat, 0) if data is None else data
    plain = DensityMatrix.basis(params.n_tag, tag).tensor(data)
    mat = client.scheme.enc(client.key, plain, r=block.r).payload.mat
    d = 1 << params.n_dat
    masked_tag = int(np.argmax(np.real(np.diag(mat)).reshape(-1, d).sum(axis=1)))
    lo = masked_tag * d
    return QuantumBlock(masked_tag, DensityMatrix(params.n_dat, mat[lo:lo + d, lo:lo + d], check=False), block.r)


def with_r(block, r: int):
    """The block's ciphertext under randomness r, built by the
    QuantumBlock constructor: the copy holds no plaintext and no digest,
    so it is decrypted under F_k(r) and digested afresh, as a tampered
    block is."""
    return QuantumBlock(block.tag, block.data, BitString(r, block.r.width))
