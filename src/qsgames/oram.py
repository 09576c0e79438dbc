"""Tree-based ORAM client/server state machines.

The server stores a complete binary tree of encrypted fixed-size
blocks; the client holds the key, a position map from block ids to
leaves, and a stash.  Every access downloads one root-to-leaf path,
remaps the touched id to a fresh pseudorandom leaf, re-encrypts
everything with fresh randomness, and greedily pushes blocks as deep
as possible along the downloaded path (deepest common node first, then
up toward the root, then the stash).

One client type, one set-up path (tree_init) and one access protocol
(tree_access) serve both ORAMs.  The client holds its scheme and a
block codec built once at set-up: SkesCodec here (via oram_init),
qoram.QuantumCodec for the quantum variant.  A codec decodes a
downloaded path in one call and encodes a re-encrypted path (or, at
set-up, the whole tree) in one call, in the order the blocks'
randomness is drawn: root to leaf, each bucket's records before its
empties.  A classical block is the int pair (body, r) of a
GoldreichScheme ciphertext, exactly what an observer of the server
sees of it.  SkesCodec draws a path's randomness in one batch and
keeps the pad F_k(r) of every block it encodes, keyed by r, so
decoding a block it stored costs no PRF evaluation.  The position-map
generator is pluggable, and its choice is exactly what the separation
experiments attack.

A bucket's view is what an observer of the server sees of it, built
by codec.view: a classical bucket is its own view, and a quantum
bucket's view digests each block only when someone reads it.  The
server keeps each bucket's view beside it, and snapshots, the
transcript's down/up views and the tree digest read views alone.
tree_access returns an AccessPattern, the server's snapshots before
and after the access around its transcript, for either ORAM; both
access-pattern games hand it to the adversary.  Coding touches one
path per access.  The first snapshot() after a store copies the list
of views, which is memoized until the next store, so an access's
before snapshot is the previous access's after snapshot; the tree
digest hashes every view of a snapshot, so it is left to whoever
reads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .bits import BitString, _unchecked
from .prf import make_prf
from .rng import CounterPrfPrng, Rand
from .schemes import GoldreichScheme


class ProtocolAbort(Exception):
    """Raised when a downloaded block decrypts to garbage."""


@dataclass(frozen=True)
class DataRequest:
    """A read or write of one id, for either ORAM: `data` is a BitString
    for the classical one, a DensityMatrix register for the quantum one,
    and None on reads."""

    op: str
    id: int
    data: object = None

    def __post_init__(self):
        if self.op not in ("read", "write"):
            raise ValueError(f"unknown op {self.op!r}")
        if self.op == "write" and self.data is None:
            raise ValueError("write requires data")


@dataclass
class OramParams:
    n_db: int
    n_dat: int = 8
    n_bkt: int = 4
    key_bits: int = 16

    def __post_init__(self):
        if self.n_db < 1:
            raise ValueError(f"n_db must be at least 1, got {self.n_db}")
        # tag width must cover ids 1..n_db plus the reserved empty tag 0
        self.n_tag = self.n_db.bit_length()
        self.n_tree = (self.n_db - 1).bit_length()
        self.n_msg = self.n_tag + self.n_dat


class ServerDB:
    """Complete binary tree of height n_tree; heap-indexed nodes, each a
    bucket (a tuple) of exactly n_bkt blocks, empties included.

    views[idx] is the codec's view of nodes[idx], made when the bucket
    is stored; store() is the only writer, so the two lists never
    disagree.  snapshot() reads the views alone and is memoized until
    the next store.
    """

    def __init__(self, n_tree: int, n_bkt: int):
        self.n_tree = n_tree
        self.n_bkt = n_bkt
        self.node_count = (1 << (n_tree + 1)) - 1
        self.nodes: list[tuple] = [()] * self.node_count
        self.views: list = [()] * self.node_count
        self._snapshot: tuple | None = None

    def store(self, idx: int, bucket: tuple, view) -> None:
        self.nodes[idx] = bucket
        self.views[idx] = view
        self._snapshot = None

    def store_path(self, path, blocks: list, view) -> None:
        """Store blocks, n_bkt to a bucket, at the nodes of path in order;
        view(bucket) gives each bucket's view."""
        for i, idx in enumerate(path):
            bucket = tuple(blocks[i * self.n_bkt:(i + 1) * self.n_bkt])
            self.store(idx, bucket, view(bucket))

    def path_nodes(self, leaf: int) -> list[int]:
        """Heap indices from the root down to the given leaf."""
        return [(1 << d) - 1 + (leaf >> (self.n_tree - d)) for d in range(self.n_tree + 1)]

    def snapshot(self) -> tuple:
        if self._snapshot is None:
            self._snapshot = tuple(self.views)
        return self._snapshot


def views_digest(snapshot: tuple) -> int:
    """FNV-1a over every block view of a snapshot, in heap order."""
    return fnv1a64("".join(str(v) for view in snapshot for v in view).encode())


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass
class Transcript:
    leaf: int
    down: tuple
    up: tuple


@dataclass
class AccessPattern:
    pre_db: tuple
    transcript: Transcript
    post_db: tuple

    def to_json(self) -> str:
        def hex_block(view):  # a classical (body, r) pair, or a quantum block's digest
            return "%x:%x" % view if isinstance(view, tuple) else view

        return json.dumps(
            {
                "leaf": self.transcript.leaf,
                "down": [hex_block(b) for b in self.transcript.down],
                "up": [hex_block(b) for b in self.transcript.up],
                "pre_digest": fnv1a64(str(self.pre_db).encode()),
                "post_digest": fnv1a64(str(self.post_db).encode()),
            }
        )


@dataclass
class ClientState:
    params: OramParams
    key: object
    position_map: dict
    prng: object
    rand: Rand
    scheme: object
    codec: object  # built from (params, scheme, key, rand), not the client: no reference cycle
    stash: list = field(default_factory=list)  # [tag, data] records
    last_read: BitString | None = None  # data of the last classical read
    retrieved: object = None  # data register swapped out by the last quantum access
    stash_history: list = field(default_factory=list)
    leaf_log: list = field(default_factory=list)  # truncated values consumed, white-box

    def fresh_leaf(self) -> int:
        leaf = self.prng.next_value(self.params.n_tag).value & ((1 << self.params.n_tree) - 1)
        self.leaf_log.append(leaf)
        return leaf


class SkesCodec:
    """Blocks as GoldreichScheme ciphertexts of the message
    (tag << n_dat) | data, stored as the int pair (body, r) with
    body = m xor F_k(r): a block is its own view.  The pad memo holds one
    entry per block encoded and not yet decoded; a pad is a pure function
    of (key, r), so a miss (a tampered block, a repeated r) recomputes it.
    """

    def __init__(self, params: OramParams, scheme, key, rand: Rand):
        if scheme.r_bits != 32:
            raise ValueError(f"SkesCodec draws 32-bit randomness, got r_bits={scheme.r_bits}")
        self._params = params
        self._prf = make_prf(key, scheme.r_bits, scheme.msg_bits)
        self._rand = rand
        self._pads: dict[int, int] = {}

    def encode_path(self, records: list) -> list:
        """One block per entry: a [tag, data] record, or None for an empty."""
        n_dat, prf, pads = self._params.n_dat, self._prf, self._pads
        blocks = []
        for rec, r in zip(records, self._rand.numpy().integers(0, 1 << 32, size=len(records)).tolist()):
            pad = pads[r] = prf.eval(_unchecked(r, 32)).value
            msg = 0 if rec is None else (rec[0] << n_dat) | rec[1].value
            blocks.append((msg ^ pad, r))
        return blocks

    def decode_path(self, blocks) -> list:
        """The [tag, data] records of the blocks in order, empties left
        out; ProtocolAbort at the first tag above n_db."""
        n_db, n_dat, prf, pads = self._params.n_db, self._params.n_dat, self._prf, self._pads
        records = []
        for body, r in blocks:
            pad = pads.pop(r, None)
            msg = body ^ (prf.eval(_unchecked(r, 32)).value if pad is None else pad)
            tag = msg >> n_dat
            if tag > n_db:
                raise ProtocolAbort(f"block decodes to invalid tag {tag}")
            if tag:
                records.append([tag, _unchecked(msg & ((1 << n_dat) - 1), n_dat)])
        return records

    view = staticmethod(tuple)


def tree_init(params: OramParams, rand: Rand, scheme, codec_cls, prng=None):
    """Set up a fresh client/server pair: draw the key, the position-map
    generator (unless given) and the client's randomness from `rand`,
    map every id to a fresh leaf, then fill the tree with encrypted
    empties.  Returns (client, server)."""
    key = scheme.key_gen(rand)
    prng = prng or CounterPrfPrng(rand.child())
    client_rand = rand.child()
    codec = codec_cls(params, scheme, key, client_rand)
    client = ClientState(params, key, {}, prng, client_rand, scheme, codec)
    server = ServerDB(params.n_tree, params.n_bkt)
    client.position_map = {i: client.fresh_leaf() for i in range(1, params.n_db + 1)}
    server.store_path(range(server.node_count), codec.encode_path([None] * server.node_count * server.n_bkt),
                      codec.view)
    return client, server


def _common_depth(a: int, b: int, n_tree: int) -> int:
    """Number of leading path bits shared by two leaves."""
    return n_tree - (a ^ b).bit_length()


def tree_access(client: ClientState, server: ServerDB, rid: int, step) -> AccessPattern:
    """The access protocol both ORAMs share; returns its AccessPattern.

    `step(target)` performs the variant's read/write on the target
    record ([tag, data], from the branch or the stash, or None when the
    id was never stored) and returns a new record to store, or None.
    """
    params, codec = client.params, client.codec
    if not 1 <= rid <= params.n_db:
        raise ValueError(f"id {rid} outside 1..{params.n_db}")
    pre = server.snapshot()
    leaf = client.position_map[rid]
    path = server.path_nodes(leaf)
    down = codec.view([block for idx in path for block in server.nodes[idx]])

    # fresh remap before touching the branch
    client.position_map[rid] = client.fresh_leaf()

    # decode the branch leaf-to-root, slots ascending (eviction order)
    records = codec.decode_path([block for idx in reversed(path) for block in server.nodes[idx]])

    target = next((rec for rec in records + client.stash if rec[0] == rid), None)
    new_record = step(target)
    if new_record is not None:
        records.append(new_record)

    # eviction: branch records first, then the stash re-examination; each
    # goes to the deepest bucket with room on both its path and this one
    placed: dict[int, list] = {idx: [] for idx in path}
    new_stash = []
    for rec in records + client.stash:
        depth = _common_depth(leaf, client.position_map[rec[0]], params.n_tree)
        node = next((path[d] for d in range(depth, -1, -1) if len(placed[path[d]]) < params.n_bkt), None)
        (new_stash if node is None else placed[node]).append(rec)
    client.stash = new_stash

    # re-encrypt root to leaf, each bucket's records before its empties
    blocks = codec.encode_path(
        [rec for idx in path for rec in placed[idx] + [None] * (params.n_bkt - len(placed[idx]))])
    server.store_path(path, blocks, codec.view)

    return AccessPattern(pre, Transcript(leaf, down, codec.view(blocks)), server.snapshot())


def oram_init(params: OramParams, rand: Rand, prng=None):
    """Set up a fresh client/server pair with an all-empty encrypted tree."""
    # 32 randomness bits keep re-encryption collisions out of reach at
    # the trial counts the freshness checks run with
    scheme = GoldreichScheme(params.n_msg, r_bits=32, key_bits=params.key_bits)
    return tree_init(params, rand, scheme, SkesCodec, prng)


def oram_access(client: ClientState, server: ServerDB, dr: DataRequest):
    """One read/write exchange; returns (client, server, AccessPattern)."""
    params = client.params
    if dr.data is not None and dr.data.width != params.n_dat:
        raise ValueError("data width mismatch")

    def read_write(target):
        if dr.op == "read":
            client.last_read = target[1] if target is not None else BitString.zeros(params.n_dat)
        elif target is not None:
            target[1] = dr.data
        else:
            return [dr.id, dr.data]
        return None

    pattern = tree_access(client, server, dr.id, read_write)
    client.stash_history.append(len(client.stash))
    return client, server, pattern


# ---------------------------------------------------------------------------
# soundness checking
# ---------------------------------------------------------------------------


@dataclass
class TraceStep:
    dr: DataRequest
    returned: BitString | None
    key_before: object
    key_after: object
    aborted: bool = False


@dataclass
class SoundnessReport:
    steps: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def run_trace(client: ClientState, server: ServerDB, requests: list[DataRequest]) -> list[TraceStep]:
    steps = []
    for dr in requests:
        key_before = client.key
        try:
            oram_access(client, server, dr)
            returned = client.last_read if dr.op == "read" else None
            steps.append(TraceStep(dr, returned, key_before, client.key))
        except ProtocolAbort:
            steps.append(TraceStep(dr, None, key_before, client.key, aborted=True))
    return steps


def check_minimal_soundness(trace: list[TraceStep]) -> SoundnessReport:
    """Replay a trace against a shadow store and list every violation of
    key retention, read-returns-stored-data, and write-persistence."""
    shadow: dict[int, BitString] = {}
    violations = []
    for i, step in enumerate(trace):
        if step.key_after != step.key_before:
            violations.append((i, "key", "client key changed during access"))
        if step.aborted:
            violations.append((i, "abort", f"access {step.dr} aborted on malformed block"))
            continue
        if step.dr.op == "write":
            shadow[step.dr.id] = step.dr.data
        else:
            expected = shadow.get(step.dr.id)
            if expected is None:
                if step.returned is None or step.returned.value != 0:
                    violations.append((i, "read", f"fresh id {step.dr.id} returned {step.returned}"))
            elif step.returned != expected:
                violations.append(
                    (i, "read", f"id {step.dr.id} returned {step.returned}, stored {expected}")
                )
    return SoundnessReport(len(trace), violations)


def diff_nodes(pre: tuple, post: tuple) -> list[int]:
    """Heap indices whose buckets differ between two snapshots."""
    return [i for i, (a, b) in enumerate(zip(pre, post)) if a != b]
