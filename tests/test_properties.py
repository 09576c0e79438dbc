"""Property tests for the tree-ORAM core shared by both ORAMs.

Example counts are bounded and the search is derandomized, so the
suite stays fast and every run checks the same cases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsgames.bits import BitString
from qsgames.oram import (
    DataRequest,
    OramParams,
    check_minimal_soundness,
    fnv1a64,
    oram_access,
    oram_init,
    run_trace,
)
from qsgames.qoram import QuantumDataRequest, qoram_access, qoram_init
from qsgames.quantum import DensityMatrix, trace_distance
from qsgames.rng import Rand

N_DAT = 4
bounded = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def classical_requests(n_db: int, min_size: int, max_size: int):
    request = st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(1, n_db),
        st.integers(0, (1 << N_DAT) - 1),
    ).map(lambda t: DataRequest(t[0], t[1], BitString(t[2], N_DAT) if t[0] == "write" else None))
    return st.lists(request, min_size=min_size, max_size=max_size)


def stored_tags(client, server) -> list[int]:
    """Tags of every non-empty block in the tree, decrypted."""
    n_tag = client.params.n_tag
    tags = (
        client.skes.dec(client.key, block).take(n_tag).value
        for bucket in server.nodes for block in bucket
    )
    return [tag for tag in tags if tag]


def check_classical(n_db: int, n_bkt: int, seed: int, requests: list) -> None:
    client, server = oram_init(OramParams(n_db=n_db, n_dat=N_DAT, n_bkt=n_bkt), Rand(seed))
    report = check_minimal_soundness(run_trace(client, server, requests))
    assert report.ok, report.violations
    # every written id is held exactly once, in the tree or the stash
    held = stored_tags(client, server) + [rec[0] for rec in client.stash]
    assert sorted(held) == sorted({dr.id for dr in requests if dr.op == "write"})
    assert all(len(bucket) == n_bkt for bucket in server.nodes)


@bounded
@given(st.data(), st.integers(2, 16), st.integers(1, 4), st.integers(0, 2**16))
def test_classical_oram_sound_on_random_requests(data, n_db, n_bkt, seed):
    check_classical(n_db, n_bkt, seed, data.draw(classical_requests(n_db, 1, 40)))


@bounded
@given(classical_requests(16, 60, 100), st.integers(0, 2**16))
def test_classical_oram_sound_with_one_block_buckets(requests, seed):
    # one block per bucket and long sequences keep the stash busy
    check_classical(16, 1, seed, requests)


def quantum_requests(n_db: int):
    request = st.tuples(
        st.sampled_from(["read", "write"]), st.integers(1, n_db), st.integers(0, 2**16)
    )
    return st.lists(request, min_size=1, max_size=12)


def tag_of(client, block) -> int:
    """Tag register of a block, read off the diagonal without measuring."""
    plain = client.scheme.dec(client.key, block.cipher)
    marginal = np.real(np.diag(plain.mat)).reshape(1 << client.params.n_tag, -1).sum(axis=1)
    return int(np.argmax(marginal))


@bounded
@given(st.integers(2, 4), st.integers(0, 2**16), st.data())
def test_quantum_oram_returns_what_was_swapped_in(n_db, seed, data):
    params = OramParams(n_db=n_db, n_dat=1)
    client, server = qoram_init(params, Rand(seed))
    zero = DensityMatrix.basis(params.n_dat, 0)
    shadow = {}  # id -> the state its slot holds
    for op, rid, state_seed in data.draw(quantum_requests(n_db)):
        payload = DensityMatrix.random_pure(params.n_dat, Rand(state_seed)) if op == "write" else None
        qoram_access(client, server, QuantumDataRequest(op, rid, payload))
        # reads and writes both swap: the old contents come back and the
        # payload (|0> for a read) takes their place
        assert trace_distance(client.retrieved, shadow.get(rid, zero)) < 1e-10
        shadow[rid] = payload if payload is not None else zero

        # qubits are conserved: the tree keeps its block count and width,
        # and each touched id's data register is held exactly once
        assert all(len(bucket) == params.n_bkt for bucket in server.nodes)
        assert all(b.cipher.payload.n_qubits == params.n_msg for bucket in server.nodes for b in bucket)
        held = [tag_of(client, b) for bucket in server.nodes for b in bucket]
        held = [tag for tag in held if tag] + [rec[0] for rec in client.stash]
        assert sorted(held) == sorted(shadow)
        assert all(rec[1].n_qubits == params.n_dat for rec in client.stash)


# The server stores each bucket's view once; everything read off the
# stored views must equal a rebuild from the blocks themselves.


def classical_views(nodes) -> tuple:
    return tuple(tuple((c.body.value, c.r.value) for c in bucket) for bucket in nodes)


def quantum_views(nodes) -> tuple:
    return tuple(tuple(b.digest() for b in bucket) for bucket in nodes)


def path_views(views: tuple, path: list) -> tuple:
    return tuple(v for idx in path for v in views[idx])


def tree_digest(views: tuple) -> int:
    return fnv1a64("".join(str(v) for bucket in views for v in bucket).encode())


def check_stored_views(server, rebuild, before: tuple, leaf: int, down: tuple, up: tuple) -> None:
    after = rebuild(server.nodes)
    path = server.path_nodes(leaf)
    assert server.snapshot() == after
    assert down == path_views(before, path)
    assert up == path_views(after, path)
    assert server.digest() == tree_digest(after)
    with pytest.raises(TypeError):
        server.nodes[path[-1]][0] = server.nodes[0][0]


@bounded
@given(st.data(), st.integers(2, 16), st.integers(1, 4), st.integers(0, 2**16))
def test_classical_stored_views_match_rebuild(data, n_db, n_bkt, seed):
    client, server = oram_init(OramParams(n_db=n_db, n_dat=N_DAT, n_bkt=n_bkt), Rand(seed))
    for dr in data.draw(classical_requests(n_db, 1, 20)):
        server.digest()  # a memoized digest must not survive the access
        before = classical_views(server.nodes)
        _, _, ap = oram_access(client, server, dr)
        assert ap.pre_db == before and ap.post_db == server.snapshot()
        check_stored_views(server, classical_views, before, ap.transcript.leaf,
                           ap.transcript.down, ap.transcript.up)


@bounded
@given(st.integers(2, 4), st.integers(1, 2), st.integers(0, 2**16), st.data())
def test_quantum_stored_views_match_rebuild(n_db, n_bkt, seed, data):
    params = OramParams(n_db=n_db, n_dat=1, n_bkt=n_bkt)
    client, server = qoram_init(params, Rand(seed))
    for op, rid, state_seed in data.draw(quantum_requests(n_db)):
        payload = DensityMatrix.random_pure(params.n_dat, Rand(state_seed)) if op == "write" else None
        server.digest()
        before = quantum_views(server.nodes)
        _, _, tr = qoram_access(client, server, QuantumDataRequest(op, rid, payload))
        check_stored_views(server, quantum_views, before, tr.leaf, tr.down_digests, tr.up_digests)
