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
format (QuantumCodec), the swap step and the safe extractor.  An
access returns oram.AccessPattern, as a classical one does, its
snapshots and down/up views block digests.

Blocks are stored in product form.  A plaintext block is |t><t| (x) rho,
and a Pauli mask X^a Z^b keeps that form: the Z signs cancel on the
diagonal tag projector, leaving |t^a><t^a|, and the pad's last 2*n_dat
bits mask rho (the quantum one-time pad of Ambainis, Mosca, Tapp and de
Wolf, arXiv:quant-ph/0003101).  So a block's ciphertext is the masked
tag index, the masked 2^n_dat data matrix and r.  This is exact:
encryption acts blockwise, the tree holds no cross-block entanglement,
and measuring a basis-state tag picks it with certainty and leaves the
data register renormalized by its trace.  The draws and bytes are those
of dense 2^n_msg-dimensional blocks: the measurement still draws once,
and a digest hashes the dense ciphertext.

A block the codec made holds its plaintext (tag, data register) and r,
and is sealed, its masked tag and data computed under F_k(r), when
something first reads them; so is its view, the ciphertext digest
(call-by-need; Henderson and Morris, POPL 1976).  A stored block never
changes and nobody writes a register in place, so a value read late
equals one computed at once.  Bucket views, snapshots and transcripts
hold BlockDigests, so the access-pattern game seals and digests only the
blocks its adversary reads, and the codec decodes its own blocks from
their plaintext with no PRF evaluation.  The safe extractor's report is
a plain dict, computed when it is made.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence

import numpy as np

from . import quantum
from .bits import BitString, _unchecked
from .oram import (ClientState, DataRequest, OramParams, ProtocolAbort, ServerDB, Transcript, tree_access, tree_init,
                   views_digest)
from .prf import make_prf
from .qscheme import Skqes1Scheme
from .quantum import DensityMatrix, _check_density_cap, qotp_apply
from .rng import Rand


# the one request type; the old name stays importable
QuantumDataRequest = DataRequest


class QuantumBlock:
    """A block's ciphertext: the masked tag t ^ a, a basis state; the
    masked data register; and r, 2 * n_msg bits, so r.width // 2 is the
    block's qubit count.  A block built with `plain`, the (codec, tag,
    data register) of its plaintext, with None for an empty's register,
    computes its tag and data through the codec when first read and keeps
    them, as it keeps its digest."""

    __slots__ = ("_tag", "_data", "r", "_plain", "_digest")

    def __init__(self, tag: int | None, data: DensityMatrix | None, r: BitString, plain: tuple | None = None):
        self._tag, self._data, self.r, self._plain, self._digest = tag, data, r, plain, None

    def _sealed(self) -> "QuantumBlock":
        if self._tag is None:
            self._tag, self._data = self._plain[0].seal(*self._plain[1:], self.r)
        return self

    tag = property(lambda self: self._sealed()._tag)
    data = property(lambda self: self._sealed()._data)

    def digest(self) -> str:
        """blake2b over the rounded float view of the dense ciphertext,
        zero off the (t', t') block, then the hex of r; adding 0.0 makes
        negative zeros positive, so equal states always hash equally.
        Computed on the first call and kept: a block is never changed."""
        if self._digest is None:
            d, dim = 1 << self.data.n_qubits, 1 << (self.r.width // 2)
            dense = np.zeros((dim, 2 * dim))  # the complex matrix's float view
            lo = self.tag * d
            block = dense[lo:lo + d, 2 * lo:2 * (lo + d)]
            self.data.mat.view(np.float64).round(9, out=block)
            block += 0.0
            h = hashlib.blake2b(dense, digest_size=8)
            h.update(self.r.to_hex().encode())
            self._digest = h.hexdigest()
        return self._digest


class BlockDigests(Sequence):
    """The digests of a run of blocks, a read-only sequence that digests
    a block only when its entry is read.  It compares equal to the tuple
    or list of the digests: stored views, transcripts and snapshots hold
    it where they held the digest tuple."""

    __slots__ = ("_blocks",)

    def __init__(self, blocks):
        self._blocks = tuple(blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __getitem__(self, i: int) -> str:
        return self._blocks[i].digest()

    def __iter__(self):
        return (block.digest() for block in self._blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, BlockDigests)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


class DecryptionMismatch(Exception):
    """Debug mode only: a block decrypted through F_k(r) disagrees with
    the plaintext it holds, so the codec, not the server, is at fault."""


class QuantumCodec:
    """Blocks as Skqes1Scheme ciphertexts of (tag register || data
    register) in product form, masked by the scheme's pad F_k(r), whose
    PRF is keyed once per client, as SkesCodec's is.  A path's r values
    come from one batched draw, the stream of one Rand.bits call per
    block.  Encoding keeps each block's plaintext; the block is sealed
    only when read.  An empty's |0><0| masks to the basis state of the
    pad's X bits, up to the signs of zeros, which digests and decoding
    make positive; so an empty's data register is sealed as that basis
    state.  Decoding draws once per block, as the tag measurement does.

    A block this codec made decodes from its plaintext, which a Pauli
    mask and its inverse give back exactly but for the signs of zeros,
    with no PRF evaluation; under QSGAMES_DEBUG it is also decrypted and
    must agree.  Any other block (a copy built from a ciphertext, a
    tampered block, another client's) is decrypted under this client's
    key.  SkesCodec's blocks stay plain (body, r) pairs because a block
    type would cost build time and memory on each of the 8,188 blocks of
    a 1024-block tree's set-up.
    """

    def __init__(self, params: OramParams, scheme: Skqes1Scheme, key: BitString, rand: Rand):
        # a digest hashes the dense matrix; within the cap, r (2 * n_msg
        # bits) fits one 32-bit draw
        _check_density_cap(params.n_msg)
        self._params = params
        self._prf = make_prf(key, scheme.r_bits, 2 * params.n_msg)
        self._rand = rand
        # the pad bit holding the X of each qubit, most significant first
        self._x_bits = [2 * (params.n_msg - 1 - q) + 1 for q in range(params.n_msg)]

    def _masks(self, r: BitString) -> tuple:
        """(tag index flip, data index flip, data register pad) of F_k(r)."""
        pad = self._prf.eval(r).value
        flip = 0
        for bit in self._x_bits:
            flip = (flip << 1) | ((pad >> bit) & 1)
        n_dat = self._params.n_dat
        return flip >> n_dat, flip & ((1 << n_dat) - 1), _unchecked(pad & ((1 << 2 * n_dat) - 1), 2 * n_dat)

    def seal(self, tag: int, data: DensityMatrix | None, r: BitString) -> tuple:
        """The masked (tag, data register) of a plaintext under F_k(r);
        data None is an empty's |0><0|."""
        tag_flip, data_flip, data_pad = self._masks(r)
        if data is None:
            return tag ^ tag_flip, DensityMatrix.basis(self._params.n_dat, data_flip)
        return tag ^ tag_flip, qotp_apply(data_pad, data)

    def _open(self, block: QuantumBlock) -> tuple:
        """The (tag, data register) of a block decrypted under F_k(r)."""
        tag_flip, _, data_pad = self._masks(block.r)
        return block.tag ^ tag_flip, qotp_apply(data_pad, block.data)

    def encode_path(self, records: list) -> list:
        """One block per entry: a [tag, data register] record, or None
        for an empty."""
        r_bits = self._prf.in_bits
        return [QuantumBlock(None, None, _unchecked(r & ((1 << r_bits) - 1), r_bits),
                             (self, 0, None) if rec is None else (self, rec[0], rec[1]))
                for rec, r in zip(records, self._rand.numpy().integers(0, 1 << 32, size=len(records)).tolist())]

    def decode_path(self, blocks) -> list:
        """The [tag, data register] records of the blocks in order, empties
        left out; ProtocolAbort at the first tag above n_db.  Every tag is
        measured, which draws from the client's randomness."""
        n_db, n_dat = self._params.n_db, self._params.n_dat
        gen = self._rand.numpy()
        records = []
        for block in blocks:
            plain = block._plain
            if plain is None or plain[0] is not self:
                tag, data = self._open(block)
            else:
                _, tag, data = plain
                if quantum.DEBUG_CHECKS:
                    opened_tag, opened = self._open(block)
                    kept = DensityMatrix.basis(n_dat, 0) if data is None else data
                    if opened_tag != tag or (opened.mat + 0.0).tobytes() != (kept.mat + 0.0).tobytes():
                        raise DecryptionMismatch(f"block of plaintext tag {tag} decrypts to tag {opened_tag}"
                                                 + ("" if opened_tag != tag else " and other data"))
            gen.random()  # the tag is a basis state: the measurement's one draw always picks it
            if tag > n_db:
                raise ProtocolAbort(f"block decodes to invalid tag {tag}")
            if tag:
                # the collapse divides by the tag's probability, the trace
                # of the data register; the partial trace then adds zeros
                mat = data.mat / np.real(np.diag(data.mat)).sum() + 0.0
                records.append([tag, DensityMatrix(n_dat, mat, check=False)])
        return records

    view = BlockDigests


def qoram_init(params: OramParams, rand: Rand, prng=None):
    """Fresh client/server pair; every block encrypts |0...0>."""
    return tree_init(params, rand, Skqes1Scheme(params.n_msg), QuantumCodec, prng)


def qoram_access(client: ClientState, server: ServerDB, qdr: DataRequest):
    """One access: tag-measure each branch block, swap payloads on match,
    re-encrypt fresh, evict, upload.  Returns (client, server,
    AccessPattern), its snapshots and down/up views being block digests.
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

    return client, server, tree_access(client, server, qdr.id, swap)


# ---------------------------------------------------------------------------
# safe extraction
# ---------------------------------------------------------------------------


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
