"""Tree ORAM over simulated quantum blocks.

Each stored block is a quantum ciphertext of (tag register || data
register): the tag is a computational basis state naming the block id,
so the client can locate its target by measuring only the tag qubits,
which never disturbs the (unentangled) data register.  Read and write
are the same primitive: a swap between the client's payload register
and the block's data register.  Qubit count is conserved; nothing is
ever copied.

The client, its set-up, the access protocol and the request type are
oram's (ClientState, tree_init, tree_access, DataRequest, whose data is
the payload register here); this module supplies the block
format (QuantumCodec), the swap step and the safe extractor.  The
transcript is oram.Transcript, its down/up views block digests.

Blocks are simulated one density matrix at a time, which is exact
because encryption acts blockwise and the tree holds no cross-block
entanglement.

A block's view is its ciphertext digest, taken once when the server
stores it; the tree digest is FNV-1a over the stored digests and is
recomputed only after a store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .bits import BitString
from .oram import ClientState, DataRequest, OramParams, ProtocolAbort, ServerDB, Transcript, tree_access, tree_init
from .qscheme import QCiphertext, Skqes1Scheme
from .quantum import DensityMatrix, measure_computational, partial_trace
from .rng import Rand


# the one request type; the old name stays importable
QuantumDataRequest = DataRequest


@dataclass
class QuantumBlock:
    cipher: QCiphertext

    def digest(self) -> str:
        # rounding the float view rounds each real and imaginary part as
        # rounding the complex matrix does, at half the cost; adding 0.0
        # canonicalizes negative zeros so equal states always hash
        # equally regardless of how they were produced
        parts = np.ascontiguousarray(self.cipher.payload.mat).view(np.float64)
        rounded = np.round(parts, 9) + 0.0
        h = hashlib.blake2b(rounded.tobytes(), digest_size=8)
        h.update(self.cipher.r.to_hex().encode())
        return h.hexdigest()


class QuantumCodec:
    """Blocks as quantum ciphertexts of (tag register || data register);
    decoding measures only the tag qubits."""

    def __init__(self, params: OramParams, scheme: Skqes1Scheme, key: BitString, rand: Rand):
        self._params = params
        self._scheme = scheme
        self._key = key
        self._rand = rand
        self._empty_plain = DensityMatrix.basis(params.n_msg, 0)

    def encode_path(self, records: list) -> list:
        """One block per entry: a [tag, data register] record, or None
        for an empty."""
        n_tag = self._params.n_tag
        plains = (self._empty_plain if rec is None else DensityMatrix.basis(n_tag, rec[0]).tensor(rec[1])
                  for rec in records)
        return [QuantumBlock(self._scheme.enc(self._key, plain, rand=self._rand)) for plain in plains]

    def decode_path(self, blocks) -> list:
        """The [tag, data register] records of the blocks in order, empties
        left out; ProtocolAbort at the first tag above n_db.  Every tag is
        measured (it draws from the client's randomness); an empty block's
        data is never used, so it is not traced out."""
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


def qoram_init(params: OramParams, rand: Rand, prng=None):
    """Fresh client/server pair; every block encrypts |0...0>."""
    return tree_init(params, rand, Skqes1Scheme(params.n_msg), QuantumCodec, prng)


def qoram_access(client: ClientState, server: ServerDB, qdr: DataRequest):
    """One access: tag-measure each branch block, swap payloads on match,
    re-encrypt fresh, evict, upload.  Returns (client, server, Transcript),
    the transcript's down/up views being block digests.
    """
    params = client.params
    payload = qdr.data if qdr.data is not None else DensityMatrix.basis(params.n_dat, 0)
    if payload.n_qubits != params.n_dat:
        raise ValueError("payload register width mismatch")

    def swap(target):
        if target is None:
            # the id has never been stored: take over an empty block, which
            # amounts to swapping with its |0> data register
            client.retrieved = DensityMatrix.basis(params.n_dat, 0)
            return [qdr.id, payload]
        target[1], client.retrieved = payload, target[1]
        return None

    leaf, down, up = tree_access(client, server, qdr.id, swap)
    return client, server, Transcript(leaf, down, up)


# ---------------------------------------------------------------------------
# safe extraction
# ---------------------------------------------------------------------------


def safe_extractor_default(transcript: Transcript | None, server: ServerDB) -> dict:
    """Identity-action extractor: classical channel contents plus
    ciphertext-register digests; data registers are never measured and
    the joint state is untouched, so repeated runs agree bit for bit."""
    report = {"db_digest": server.digest()}
    if transcript is not None:
        report["leaf"] = transcript.leaf
        report["down"] = list(transcript.down)
        report["up"] = list(transcript.up)
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True)

