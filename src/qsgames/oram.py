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
empties.  A classical block is, to everyone who reads it, the int pair
(body, r) of a GoldreichScheme ciphertext, exactly what an observer of
the server sees of it.  A block SkesCodec makes holds its message and
r, and is sealed, its pad F_k(r) and body computed and kept, when
something first reads it (call-by-need; Henderson and Morris, POPL
1976); a stored block never changes, so a body computed late equals
one computed at once.  So set-up evaluates no PRF, and an access
evaluates one for each block it downloads that nobody has read.  The
position-map generator is pluggable, and its choice is exactly what
the separation experiments attack.  Set-up takes every id's leaf from
one next_values call of it, the values n_db fresh_leaf calls would
give in the same order, and stores the whole tree in one store_path
call, so its generator calls do not grow with n_db; an access remaps
its id through fresh_leaf.

A bucket's view is what an observer of the server sees of it, built
by codec.view: a classical bucket is its own view, and a quantum
bucket's view digests each block only when someone reads it.  The
server keeps each bucket's view beside it, and snapshots, the
transcript's down/up views and the tree digests read views alone.
tree_access returns an AccessPattern, the server's snapshots before
and after the access around its transcript, for either ORAM; both
access-pattern games hand it to the adversary.  Coding touches one
path per access.  The first snapshot() after a store copies the list
of views, which is memoized until the next store, so an access's
before snapshot is the previous access's after snapshot; the tree
digests of AccessPattern.to_json hash every view of a snapshot, so
they are left to whoever reads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import quantum
from .bits import BitString, _unchecked
from .prf import make_prf
from .rng import CounterPrfPrng, Rand
from .schemes import GoldreichScheme


class ProtocolAbort(Exception):
    """Raised when a downloaded block decrypts to garbage."""


class DecryptionMismatch(Exception):
    """Debug mode only: a block decrypted through F_k(r) disagrees with
    the plaintext it holds, so the codec, not the server, is at fault."""


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
    is stored; store_path() is the only writer, so the two lists never
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

    def store_path(self, path, blocks: list, view) -> None:
        """Store blocks, n_bkt to a bucket, at the nodes of path in order;
        view(bucket) gives each bucket's view.  ValueError unless the
        blocks fill every bucket of the path exactly."""
        if len(blocks) != len(path) * self.n_bkt:
            raise ValueError(f"{len(blocks)} blocks do not fill {len(path)} buckets of {self.n_bkt}")
        nodes, views = self.nodes, self.views
        for idx, bucket in zip(path, zip(*[iter(blocks)] * self.n_bkt)):
            nodes[idx] = bucket
            views[idx] = view(bucket)
        self._snapshot = None

    def path_nodes(self, leaf: int) -> list[int]:
        """Heap indices from the root down to the given leaf."""
        return [(1 << d) - 1 + (leaf >> (self.n_tree - d)) for d in range(self.n_tree + 1)]

    def snapshot(self) -> tuple:
        if self._snapshot is None:
            self._snapshot = tuple(self.views)
        return self._snapshot


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
            return view if isinstance(view, str) else "%x:%x" % tuple(view)

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


class SkesBlock:
    """A block SkesCodec made: the codec's PRF, the message and r.  Its
    first read seals it, computing pad = F_k(r) and body = msg ^ pad and
    keeping both; it iterates, compares, hashes and prints as the pair
    (body, r)."""

    __slots__ = ("prf", "msg", "r", "pad", "_pair")

    def __init__(self, prf, msg: int, r: int):
        self.prf, self.msg, self.r, self.pad = prf, msg, r, None

    def pair(self) -> tuple:
        if self.pad is None:
            self.pad = self.prf.eval(_unchecked(self.r, 32)).value
            self._pair = (self.msg ^ self.pad, self.r)
        return self._pair

    def __iter__(self):
        return iter(self.pair())

    def __eq__(self, other) -> bool:
        return self.pair() == other

    def __hash__(self) -> int:
        return hash(self.pair())

    def __repr__(self) -> str:
        return repr(self.pair())


class SkesCodec:
    """Blocks as GoldreichScheme ciphertexts of the message
    (tag << n_dat) | data, read as the int pair (body, r) with
    body = m xor F_k(r): a block is its own view.  Encoding makes
    SkesBlocks, which hold the message and evaluate no PRF until read.
    A block this codec made decodes as body ^ pad, sealing it first if
    nobody has read it; under QSGAMES_DEBUG its body is also decrypted
    through F_k(r) and must give its message.  Any other block (a pair
    stored through ServerDB.store_path, a tampered block, another client's)
    is decrypted under this client's key.
    """

    def __init__(self, params: OramParams, scheme, key, rand: Rand):
        if scheme.r_bits != 32:
            raise ValueError(f"SkesCodec draws 32-bit randomness, got r_bits={scheme.r_bits}")
        self._params = params
        self._prf = make_prf(key, scheme.r_bits, scheme.msg_bits)
        self._rand = rand

    def encode_path(self, records: list) -> list:
        """One block per entry: a [tag, data] record, or None for an empty."""
        n_dat, prf = self._params.n_dat, self._prf
        return [SkesBlock(prf, 0 if rec is None else (rec[0] << n_dat) | rec[1].value, r)
                for rec, r in zip(records, self._rand.numpy().integers(0, 1 << 32, size=len(records)).tolist())]

    def decode_path(self, blocks) -> list:
        """The [tag, data] records of the blocks in order, empties left
        out; ProtocolAbort at the first tag above n_db."""
        n_db, n_dat, prf = self._params.n_db, self._params.n_dat, self._prf
        records = []
        for block in blocks:
            if type(block) is SkesBlock and block.prf is prf:
                body, r = block.pair()
                msg = body ^ block.pad
                if quantum.DEBUG_CHECKS and (opened := body ^ prf.eval(_unchecked(r, 32)).value) != block.msg:
                    raise DecryptionMismatch(f"block of message {block.msg:#x} decrypts to {opened:#x}")
            else:
                body, r = block
                msg = body ^ prf.eval(_unchecked(r, 32)).value
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
    map every id to a leaf from one next_values call (the values n_db
    fresh_leaf calls would give, in id order), then fill the tree with
    encrypted empties in one encode_path and one store_path call.
    Returns (client, server)."""
    key = scheme.key_gen(rand)
    prng = prng or CounterPrfPrng(rand.child())
    client_rand = rand.child()
    codec = codec_cls(params, scheme, key, client_rand)
    tree_mask = (1 << params.n_tree) - 1
    leaves = [value & tree_mask for value in prng.next_values(params.n_tag, params.n_db)]
    client = ClientState(params, key, dict(zip(range(1, params.n_db + 1), leaves)), prng, client_rand, scheme,
                         codec, leaf_log=leaves)
    server = ServerDB(params.n_tree, params.n_bkt)
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


def diff_nodes(pre: tuple, post: tuple) -> list[int]:
    """Heap indices whose buckets differ between two snapshots."""
    return [i for i, (a, b) in enumerate(zip(pre, post)) if a != b]
