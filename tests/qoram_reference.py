"""A frozen copy of the quantum ORAM's block codec with dense blocks.

This is qsgames.qoram's QuantumBlock and QuantumCodec as they were
when every stored block was one dense 2^n_msg x 2^n_msg ciphertext of
(tag register || data register): encoding tensors the tag projector
with the data register and masks the whole matrix with
Skqes1Scheme.enc, and decoding unmasks it, measures the tag qubits and
traces the tag register out.  Plugged into oram.tree_init as its
codec_cls, it runs the library's own client, set-up and access
protocol, so tests/test_oram_model.py can run it in lockstep with
qsgames.qoram and require the same views, stash, retrieved registers,
aborts and generator states.

It is the reference the library is checked against, so it is never
edited to follow the library.  It imports only the bit strings, the
generators, the quantum scheme and the quantum kernels.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from qsgames.bits import BitString
from qsgames.oram import ProtocolAbort
from qsgames.qscheme import QCiphertext, Skqes1Scheme
from qsgames.quantum import DensityMatrix, measure_computational, partial_trace
from qsgames.rng import Rand


@dataclass
class QuantumBlock:
    cipher: QCiphertext

    def digest(self) -> str:
        parts = np.ascontiguousarray(self.cipher.payload.mat).view(np.float64)
        rounded = np.round(parts, 9) + 0.0
        h = hashlib.blake2b(rounded.tobytes(), digest_size=8)
        h.update(self.cipher.r.to_hex().encode())
        return h.hexdigest()


class QuantumCodec:
    """One scheme call, one measurement and one partial trace per block."""

    def __init__(self, params, scheme: Skqes1Scheme, key: BitString, rand: Rand):
        self._params = params
        self._scheme = scheme
        self._key = key
        self._rand = rand
        self._empty_plain = DensityMatrix.basis(params.n_msg, 0)

    def encode_path(self, records: list) -> list:
        n_tag = self._params.n_tag
        plains = (self._empty_plain if rec is None else DensityMatrix.basis(n_tag, rec[0]).tensor(rec[1])
                  for rec in records)
        return [QuantumBlock(self._scheme.enc(self._key, plain, rand=self._rand)) for plain in plains]

    def decode_path(self, blocks) -> list:
        n_tag, n_msg = self._params.n_tag, self._params.n_msg
        records = []
        for block in blocks:
            plain = self._scheme.dec(self._key, block.cipher)
            tag_bits, post = measure_computational(plain, list(range(n_tag)), self._rand)
            if tag_bits.value > self._params.n_db:
                raise ProtocolAbort(f"block decodes to invalid tag {tag_bits.value}")
            if tag_bits.value:
                records.append([tag_bits.value, partial_trace(post, list(range(n_tag, n_msg)))])
        return records

    @staticmethod
    def view(blocks) -> tuple:
        return tuple(b.digest() for b in blocks)
