"""A frozen copy of the classical tree ORAM with one scheme call per block.

This is the set-up, the access protocol and the block codec of
qsgames.oram before blocks were encoded and decoded a path at a time:
every block is one GoldreichScheme.enc on encode and one
GoldreichScheme.dec on decode, each drawing or hashing on its own.
tests/test_oram_model.py runs it in lockstep with the library and
requires the same views, stash, reads, aborts and generator states.

It is the reference the library is checked against, so it is never
edited to follow the library.  It imports only the bit strings, the
generators and the schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from qsgames.bits import BitString
from qsgames.rng import CounterPrfPrng, Rand
from qsgames.schemes import Ciphertext, GoldreichScheme


class ReferenceAbort(Exception):
    """A downloaded block decrypted to an invalid tag."""


@dataclass
class ReferenceClient:
    n_db: int
    n_dat: int
    n_bkt: int
    key: BitString
    scheme: GoldreichScheme
    prng: CounterPrfPrng
    rand: Rand
    position_map: dict = field(default_factory=dict)
    stash: list = field(default_factory=list)  # [tag, data] records
    last_read: BitString | None = None

    @property
    def n_tag(self) -> int:
        return self.n_db.bit_length()

    @property
    def n_tree(self) -> int:
        return (self.n_db - 1).bit_length()

    def fresh_leaf(self) -> int:
        value = self.prng.next_value(self.n_tag).value
        return value & ((1 << self.n_tree) - 1)

    def encode(self, tag: int, data: BitString) -> Ciphertext:
        msg = BitString(tag, self.n_tag).concat(data)
        return self.scheme.enc(self.key, msg, rand=self.rand)

    def empty(self) -> Ciphertext:
        return self.scheme.enc(self.key, BitString.zeros(self.n_tag + self.n_dat), rand=self.rand)

    def decode(self, block: Ciphertext):
        msg = self.scheme.dec(self.key, block)
        return msg.take(self.n_tag).value, msg.drop(self.n_tag)


def view(bucket) -> tuple:
    return tuple((c.body.value, c.r.value) for c in bucket)


@dataclass
class ReferenceServer:
    n_tree: int
    nodes: list  # heap-indexed buckets

    def path_nodes(self, leaf: int) -> list[int]:
        idx = (1 << self.n_tree) - 1 + leaf
        path = [idx]
        while idx:
            idx = (idx - 1) // 2
            path.append(idx)
        return path[::-1]

    def views(self) -> list:
        return [view(bucket) for bucket in self.nodes]

    def path_view(self, path) -> tuple:
        return tuple(v for idx in path for v in view(self.nodes[idx]))


def reference_init(n_db: int, n_dat: int, n_bkt: int, rand: Rand):
    """Draw the key, the position-map generator and the client's
    randomness from `rand`, map every id, fill the tree with empties."""
    scheme = GoldreichScheme(n_db.bit_length() + n_dat, r_bits=32, key_bits=16)
    key = scheme.key_gen(rand)
    prng = CounterPrfPrng(rand.child())
    client = ReferenceClient(n_db, n_dat, n_bkt, key, scheme, prng, rand.child())
    for i in range(1, n_db + 1):
        client.position_map[i] = client.fresh_leaf()
    node_count = (1 << (client.n_tree + 1)) - 1
    nodes = [tuple(client.empty() for _ in range(n_bkt)) for _ in range(node_count)]
    return client, ReferenceServer(client.n_tree, nodes)


def _common_depth(a: int, b: int, n_tree: int) -> int:
    for d in range(n_tree, -1, -1):
        if (a >> (n_tree - d)) == (b >> (n_tree - d)):
            return d
    return 0


def reference_access(client: ReferenceClient, server: ReferenceServer, op: str, rid: int,
                     data: BitString | None = None):
    """One read or write of `rid`; returns (leaf, down, up)."""
    leaf = client.position_map[rid]
    path = server.path_nodes(leaf)
    down = server.path_view(path)
    client.position_map[rid] = client.fresh_leaf()

    records = []
    for idx in reversed(path):
        for block in server.nodes[idx]:
            tag, value = client.decode(block)
            if tag > client.n_db:
                raise ReferenceAbort(f"block decodes to invalid tag {tag}")
            if tag != 0:
                records.append([tag, value])

    target = next((rec for rec in records if rec[0] == rid), None)
    if target is None:
        target = next((rec for rec in client.stash if rec[0] == rid), None)
    if op == "read":
        client.last_read = target[1] if target is not None else BitString.zeros(client.n_dat)
    elif target is not None:
        target[1] = data
    else:
        records.append([rid, data])

    capacity = {idx: client.n_bkt for idx in path}
    placed = {idx: [] for idx in path}
    new_stash = []
    for rec in records + client.stash:
        depth = _common_depth(leaf, client.position_map[rec[0]], client.n_tree)
        node = None
        for d in range(depth, -1, -1):
            if capacity[path[d]] > 0:
                node = path[d]
                break
        if node is None:
            new_stash.append(rec)
        else:
            capacity[node] -= 1
            placed[node].append(rec)
    client.stash = new_stash

    for idx in path:
        bucket = tuple(client.encode(tag, value) for tag, value in placed[idx])
        bucket += tuple(client.empty() for _ in range(client.n_bkt - len(bucket)))
        server.nodes[idx] = bucket
    return leaf, down, server.path_view(path)
