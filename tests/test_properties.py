"""Property tests for the tree-ORAM core shared by both ORAMs, the
quantum kernels on its hot path, the pure-state path of the quantum
challenge games, the permutation and oracle algebra, and the parsing of
experiment parameters.

Example counts are bounded and the search is derandomized, so the
suite stays fast and every run checks the same cases.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsgames import attacks, games, qscheme, quantum, schemes
from qsgames.bits import BitString
from qsgames.cli import load_config, parse_params
from qsgames.oram import (
    AccessPattern,
    DataRequest,
    OramParams,
    Transcript,
    fnv1a64,
    oram_access,
    oram_init,
)
from qsgames.prf import Permutation
from qsgames.qoram import QuantumDataRequest, qoram_access, qoram_init
from qsgames.quantum import (
    DensityMatrix,
    StateVector,
    _compose_maps,
    _pick_outcome,
    apply_gate,
    maximally_mixed,
    measure_computational,
    qotp_apply,
    trace_distance,
    type1_from_type2,
    type1_oracle,
    type2_from_type1,
    type2_oracle,
)
from qsgames.rng import Rand, TableCache
from oracles import qotp_average, views_digest
from oram_reference import check_minimal_soundness, run_trace
from qoram_blocks import dense_cipher, sealed_afresh, with_r
from skes_blocks import as_ciphertext, as_pair

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
        client.scheme.dec(client.key, as_ciphertext(client.scheme, block)).take(n_tag).value
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
    plain = client.scheme.dec(client.key, dense_cipher(client.params, block))
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
        assert all(dense_cipher(params, b).payload.n_qubits == params.n_msg for bucket in server.nodes for b in bucket)
        held = [tag_of(client, b) for bucket in server.nodes for b in bucket]
        held = [tag for tag in held if tag] + [rec[0] for rec in client.stash]
        assert sorted(held) == sorted(shadow)
        assert all(rec[1].n_qubits == params.n_dat for rec in client.stash)


@settings(bounded, max_examples=10)  # each access checks every block, 124 of them at n_db=16
@given(st.sampled_from([2, 16]), st.integers(0, 2**16), st.data())
def test_quantum_blocks_seal_as_the_scheme_encrypts(n_db, seed, data):
    # a block the codec made holds its plaintext and is sealed when read:
    # its tag, data and digest are those of the scheme's dense encryption
    # of that plaintext under its r, up to the signs of zeros, and a copy
    # built from that ciphertext decodes to the records the block does
    params = OramParams(n_db=n_db, n_dat=1)
    client, server = qoram_init(params, Rand(seed))
    gen = client.rand.numpy()
    for op, rid, state_seed in data.draw(quantum_requests(n_db)):
        payload = DensityMatrix.random_mixed(params.n_dat, Rand(state_seed)) if op == "write" else None
        qoram_access(client, server, QuantumDataRequest(op, rid, payload))
        for block in (b for bucket in server.nodes for b in bucket):
            rebuilt = sealed_afresh(client, block)
            assert block.tag == rebuilt.tag and block.digest() == rebuilt.digest()
            assert (block.data.mat + 0.0).tobytes() == (rebuilt.data.mat + 0.0).tobytes()
            state = gen.bit_generator.state  # decoding draws; the accesses keep their stream
            own = client.codec.decode_path([block])
            copy = client.codec.decode_path([with_r(block, block.r.value)])
            gen.bit_generator.state = state
            assert [(t, d.mat.tobytes()) for t, d in copy] == [(t, d.mat.tobytes()) for t, d in own]


@bounded
@given(st.data(), st.integers(2, 16), st.integers(1, 4), st.integers(0, 2**16))
def test_classical_blocks_seal_as_the_scheme_encrypts(data, n_db, n_bkt, seed):
    # a block the codec made holds its message and is sealed when read:
    # after every access each stored block is the scheme's encryption of
    # its message under its r, and the access pattern's JSON and the tree
    # digest are those of the plain (body, r) pairs
    client, server = oram_init(OramParams(n_db=n_db, n_dat=N_DAT, n_bkt=n_bkt), Rand(seed))
    scheme, n_msg = client.scheme, client.params.n_msg

    def pairs(blocks) -> tuple:
        return tuple(tuple(block) for block in blocks)

    for dr in data.draw(classical_requests(n_db, 1, 20)):
        _, _, ap = oram_access(client, server, dr)
        for block in (b for bucket in server.nodes for b in bucket):
            assert block == as_pair(scheme.enc(client.key, BitString(block.msg, n_msg), r=BitString(block.r, 32)))
        tr = ap.transcript
        plain = AccessPattern(tuple(map(pairs, ap.pre_db)), Transcript(tr.leaf, pairs(tr.down), pairs(tr.up)),
                              tuple(map(pairs, ap.post_db)))
        assert ap.to_json() == plain.to_json()
        assert views_digest(server.snapshot()) == views_digest(tuple(map(pairs, server.snapshot())))


# The server stores each bucket's view once; everything read off the
# stored views must equal a rebuild from the blocks themselves.


def classical_views(nodes) -> tuple:
    return tuple(tuple((body, r) for body, r in bucket) for bucket in nodes)


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
    assert views_digest(server.snapshot()) == tree_digest(after)
    with pytest.raises(TypeError):
        server.nodes[path[-1]][0] = server.nodes[0][0]


@bounded
@given(st.data(), st.integers(2, 16), st.integers(1, 4), st.integers(0, 2**16))
def test_classical_stored_views_match_rebuild(data, n_db, n_bkt, seed):
    client, server = oram_init(OramParams(n_db=n_db, n_dat=N_DAT, n_bkt=n_bkt), Rand(seed))
    for dr in data.draw(classical_requests(n_db, 1, 20)):
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
        before = quantum_views(server.nodes)
        tr = qoram_access(client, server, QuantumDataRequest(op, rid, payload))[2].transcript
        check_stored_views(server, quantum_views, before, tr.leaf, tr.down, tr.up)


# The Pauli mask and the measurement read cached index tables.  The
# references below are the kernels as they were before the tables:
# np.ix_ gathers, an np.outer projector mask and, for a statevector,
# index slices.


def reference_qotp(key: BitString, state, targets=None) -> np.ndarray:
    n = state.n_qubits
    targets = range(n) if targets is None else targets
    k = len(targets)
    flip = sign = 0
    v = key.value
    for j, t in enumerate(targets):
        pair = (v >> (2 * (k - 1 - j))) & 3
        flip |= (pair >> 1) << (n - 1 - t)
        sign |= (pair & 1) << (n - 1 - t)
    idx = np.arange(1 << n)
    phase = 1.0 - 2.0 * (np.bitwise_count(idx & sign) & 1)
    if isinstance(state, StateVector):
        return phase * state.amps[idx ^ flip]
    src = state.mat[np.ix_(idx ^ flip, idx ^ flip)]
    return (phase[:, None] * phase[None, :]) * src


def reference_measure(state, targets: list, rand: Rand, force=None):
    n = state.n_qubits
    if isinstance(state, StateVector):
        psi = state.amps.reshape([2] * n)
        other = tuple(q for q in range(n) if q not in targets)
        probs = np.abs(psi) ** 2
        if other:
            probs = probs.sum(axis=other)
        probs = np.transpose(probs, np.argsort(np.argsort(targets))).reshape(-1)
        outcome = _pick_outcome(probs, rand, force)
        sel = [slice(None)] * n
        bits = [(outcome >> (len(targets) - 1 - i)) & 1 for i in range(len(targets))]
        for t, b in zip(targets, bits):
            sel[t] = b
        collapsed = np.zeros_like(psi)
        collapsed[tuple(sel)] = psi[tuple(sel)]
        collapsed = collapsed.reshape(-1)
        collapsed /= np.linalg.norm(collapsed)
        return outcome, collapsed
    diag = np.real(np.diag(state.mat)).reshape([2] * n)
    other = tuple(q for q in range(n) if q not in targets)
    probs = diag.sum(axis=other) if other else diag
    probs = np.transpose(probs, np.argsort(np.argsort(targets))).reshape(-1)
    outcome = _pick_outcome(probs, rand, force)
    idx = np.arange(1 << n)
    mask = np.ones(1 << n, dtype=bool)
    for i, t in enumerate(targets):
        bit = (outcome >> (len(targets) - 1 - i)) & 1
        mask &= ((idx >> (n - 1 - t)) & 1) == bit
    post = np.where(np.outer(mask, mask), state.mat, 0.0) / probs[outcome]
    return outcome, post


def random_state(kind: str, n: int, seed: int):
    rand = Rand(seed)
    if kind == "vector":
        return StateVector.random(n, rand)
    if kind == "pure":
        return DensityMatrix.random_pure(n, rand)
    return DensityMatrix.random_mixed(n, rand, env_qubits=2)


@st.composite
def target_lists(draw, n: int):
    """A random subset of range(n), in a random order."""
    order = draw(st.permutations(range(n)))
    return list(order[:draw(st.integers(1, n))])


kernel_cases = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@kernel_cases
@given(st.sampled_from(["vector", "pure", "mixed"]), st.integers(1, 6), st.integers(0, 2**16),
       st.booleans(), st.data())
def test_qotp_apply_matches_reference(kind, n, seed, all_qubits, data):
    state = random_state(kind, n, seed)
    targets = None if all_qubits else data.draw(target_lists(n))
    k = n if targets is None else len(targets)
    key = BitString(data.draw(st.integers(0, (1 << (2 * k)) - 1)), 2 * k)
    out = qotp_apply(key, state, targets)
    got = out.amps if kind == "vector" else out.mat
    assert got.tobytes() == reference_qotp(key, state, targets).tobytes()

    # the mask is self-inverse: exactly on a density matrix, up to the
    # global sign of (XZ)^2 = -I on a vector
    twice = qotp_apply(key, out, targets)
    if kind == "vector":
        assert np.array_equal(twice.amps, state.amps) or np.array_equal(twice.amps, -state.amps)
    else:
        assert np.array_equal(twice.mat, state.mat)


@kernel_cases
@given(st.sampled_from(["vector", "pure", "mixed"]), st.integers(1, 6), st.integers(0, 2**16),
       st.booleans(), st.data())
def test_measure_computational_matches_reference(kind, n, seed, forced, data):
    state = random_state(kind, n, seed)
    targets = data.draw(target_lists(n))
    force = data.draw(st.integers(0, (1 << len(targets)) - 1)) if forced else None
    mine, ref = Rand(seed + 1), Rand(seed + 1)
    try:
        want = reference_measure(state, targets, ref, force)
    except ValueError:
        with pytest.raises(ValueError):
            measure_computational(state, targets, mine, force)
        return
    outcome, post = measure_computational(state, targets, mine, force)
    assert outcome == BitString(want[0], len(targets))
    assert type(post) is type(state)
    assert (post.amps if kind == "vector" else post.mat).tobytes() == want[1].tobytes()
    # both drew the same randomness, and no more
    assert mine.numpy().bit_generator.state == ref.numpy().bit_generator.state


def reference_dense_apply(state, matrix: np.ndarray, targets: list) -> np.ndarray:
    """The kernel as it was before index maps: a tensordot of the dense
    matrix on the row axes and of its conjugate on the column axes."""
    n, k = state.n_qubits, len(targets)
    ut = matrix.reshape([2] * (2 * k))
    if isinstance(state, StateVector):
        psi = np.tensordot(ut, state.amps.reshape([2] * n), axes=(list(range(k, 2 * k)), targets))
        return np.moveaxis(psi, list(range(k)), targets).reshape(-1)
    rho = state.mat.reshape([2] * (2 * n))
    for u, axes in ((ut, targets), (ut.conj(), [n + t for t in targets])):
        rho = np.tensordot(u, rho, axes=(list(range(k, 2 * k)), axes))
        rho = np.moveaxis(rho, list(range(k)), axes)
    return rho.reshape(1 << n, 1 << n)


@kernel_cases
@given(st.sampled_from(["vector", "pure", "mixed"]), st.integers(1, 6), st.integers(0, 2**16),
       st.data())
def test_permutation_op_matches_dense_reference(kind, n, seed, data):
    state = random_state(kind, n, seed)
    targets = data.draw(target_lists(n))
    k = len(targets)
    mapping = data.draw(st.permutations(range(1 << k)))
    dense = np.zeros((1 << k, 1 << k), dtype=complex)
    for z, image in enumerate(mapping):
        dense[image, z] = 1.0
    op = Permutation(k, mapping)
    assert np.array_equal(op.matrix, dense)

    def array(s):
        return s.amps if kind == "vector" else s.mat

    out = apply_gate(state, op, targets)
    assert np.array_equal(array(out), reference_dense_apply(state, dense, targets))
    assert np.array_equal(array(apply_gate(out, op.inverted(), targets)), array(state))


@st.composite
def pure_circuits(draw, n: int):
    """Up to six steps on n qubits: H, X, CNOT, a basis permutation on a
    few qubits, and at most one in-place encryption that appends an
    r-qubit ancilla, as (name, targets, argument) tuples."""
    steps, width, lifted = [], n, False
    for _ in range(draw(st.integers(1, 6))):
        kinds = ["H", "X", "perm"] + ["CNOT"] * (width > 1) + ["lift"] * (not lifted and width < 7)
        kind = draw(st.sampled_from(kinds))
        if kind == "lift":
            m = draw(st.integers(1, min(width, 3)))
            r = draw(st.integers(1, 7 - width))
            steps.append((kind, draw(st.permutations(range(width)))[:m], (m, r, draw(st.integers(0, 2**16)))))
            width, lifted = width + r, True
        elif kind == "perm":
            k = draw(st.integers(1, min(width, 3)))
            steps.append((kind, draw(st.permutations(range(width)))[:k],
                          Permutation(k, draw(st.permutations(range(1 << k))))))
        else:
            k = 2 if kind == "CNOT" else 1
            steps.append((kind, draw(st.permutations(range(width)))[:k], None))
    return steps


def run_pure_circuit(state, steps):
    for kind, targets, arg in steps:
        if kind == "lift":
            m, r, seed = arg
            lift = qscheme.Type2LiftScheme(schemes.PrpScheme(m, r))
            rand = Rand(seed)
            state, _, _ = lift.enc_on(lift.key_gen(rand), state, targets, rand)
        else:
            state = apply_gate(state, arg if kind == "perm" else kind, targets)
    return state


@bounded
@given(st.integers(1, 4), st.integers(0, 2**16), st.data())
def test_pure_path_matches_dense_path(n, seed, data):
    # a statevector run through gates, permutations and an in-place
    # encryption, then made dense, is the density-matrix run
    vec = StateVector.random(n, Rand(seed))
    steps = data.draw(pure_circuits(n))
    pure, dense = run_pure_circuit(vec, steps), run_pure_circuit(vec.density(), steps)
    assert type(pure) is StateVector and type(dense) is DensityMatrix
    assert np.abs(pure.density().mat - dense.mat).max() <= 1e-12
    targets = data.draw(target_lists(pure.n_qubits))
    got, post = measure_computational(pure, targets, Rand(seed + 1))
    want, dense_post = measure_computational(dense, targets, Rand(seed + 1))
    assert got == want
    assert np.abs(post.density().mat - dense_post.mat).max() <= 1e-12


class _DenseArms:
    """The Hadamard distinguisher with its challenge arms made dense."""

    def __init__(self, m: int):
        self._pure = attacks.HadamardDistinguisher(m)
        self.distinguish = self._pure.distinguish

    def challenge(self, rand, oracle=None):
        ch = self._pure.challenge(rand, oracle)
        return games.QindChallenge.product(ch.arm0.density(), ch.arm1.density())


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pure_challenge_arms_win_as_dense_ones(m, r):
    lift = qscheme.Type2LiftScheme(schemes.PrpScheme(m, r))
    pure, dense = attacks.HadamardDistinguisher(m), _DenseArms(m)
    for seed in range(50):
        for b in (0, 1):
            pure_rand, dense_rand = Rand(seed), Rand(seed)
            won = games.game_qind(lift, pure, pure_rand, forced_b=b)
            assert won == games.game_qind(lift, dense, dense_rand, forced_b=b), (seed, b)
            assert pure_rand.numpy().bit_generator.state == dense_rand.numpy().bit_generator.state


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3), st.integers(0, 2**16))
def test_qotp_average_is_maximally_mixed(n, seed):
    rho = DensityMatrix.random_mixed(n, Rand(seed))
    assert np.abs(qotp_average(rho).mat - maximally_mixed(n).mat).max() <= 1e-10


def test_cached_tables_stay_within_budget(monkeypatch):
    # the peak bound has no room for QSGAMES_DEBUG's validation of each result
    monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
    cache = TableCache(quantum._TABLES.budget)
    monkeypatch.setattr(quantum, "_TABLES", cache)
    budget = cache.budget
    rand = Rand(11)
    states = {n: DensityMatrix.random_pure(n, rand) for n in (9, 10)}
    biggest = states[10].mat.nbytes

    def cached_bytes() -> int:
        total = 0
        for tables in cache.tables.values():
            parts = tables if isinstance(tables, tuple) else (tables,)
            total += sum(a.nbytes for a in parts if isinstance(a, np.ndarray))
        return total

    tracemalloc.start()
    try:
        for i in range(24):
            n = 9 if i % 6 else 10
            state = states[n]
            qotp_apply(rand.bits(2 * n), state)
            targets = [int(t) for t in rand.numpy().permutation(n)[: 1 + i % n]]
            measure_computational(state, targets, rand)
            assert cached_bytes() <= budget
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the tables kept plus the working copies of one 10-qubit call
    assert peak <= budget + 3 * biggest

    assert cache.tables
    for tables in cache.tables.values():
        array = tables[-1] if isinstance(tables, tuple) else tables
        with pytest.raises(ValueError):
            array.flat[0] = 1


# Permutations and the classical-function oracles built from them.  The
# references below walk the circuits one basis index at a time in plain
# Python integers.


@st.composite
def permutation_tables(draw, max_bits: int):
    bits = draw(st.integers(1, max_bits))
    return bits, draw(st.permutations(range(1 << bits)))


@bounded
@given(permutation_tables(6))
def test_permutation_inverse_and_from_fn(case):
    bits, table = case
    perm = Permutation(bits, table)
    inv = perm.inverted()
    ident = list(range(1 << bits))
    assert inv.forward[perm.forward].tolist() == ident
    assert perm.forward[inv.forward].tolist() == ident
    assert [inv.apply(perm.apply(x)) for x in ident] == ident
    assert inv.inverted().forward.tolist() == list(table)
    assert Permutation.from_fn(lambda x: table[x], bits).forward.tolist() == list(table)


@bounded
@given(st.integers(1, 6), st.data())
def test_compose_maps_is_associative_and_applies_in_order(bits, data):
    maps = [np.array(data.draw(st.permutations(range(1 << bits))), dtype=np.int64)
            for _ in range(data.draw(st.integers(1, 4)))]
    total = _compose_maps(*maps)
    want = []
    for x in range(1 << bits):
        for step in maps:
            x = int(step[x])
        want.append(x)
    assert total.tolist() == want
    for cut in range(1, len(maps)):
        left, right = _compose_maps(*maps[:cut]), _compose_maps(*maps[cut:])
        assert _compose_maps(left, right).tolist() == want


@bounded
@given(permutation_tables(4))
def test_oracle_conversions_match_direct_oracles(case):
    d, table = case
    perm = Permutation(d, table)
    fwd, inv = perm.forward.tolist(), perm.inverse.tolist()
    low = (1 << d) - 1

    # type-2 access -> type-1 oracle: |a, b> -> |a, b xor perm(a)>
    built1 = type1_from_type2(type2_oracle(perm), type2_oracle(perm.inverted()))
    direct1 = type1_oracle(perm.forward, d, d)
    assert built1.forward.tolist() == direct1.forward.tolist()
    assert np.array_equal(built1.matrix, direct1.matrix)
    assert direct1.forward.tolist() == [(z & ~low) | ((z & low) ^ fwd[z >> d]) for z in range(1 << 2 * d)]

    # type-1 oracles -> in-place operator: enc on (A, B), dec on (B, A),
    # then SWAP; |x, 0> goes to |perm(x), 0>
    built2 = type2_from_type1(direct1, type1_oracle(perm.inverse, d, d))
    want = []
    for z in range(1 << 2 * d):
        a, b = z >> d, z & low
        b ^= fwd[a]
        a ^= inv[b]
        want.append((b << d) | a)
    assert built2.forward.tolist() == want
    assert [built2.forward[x << d] for x in range(1 << d)] == [y << d for y in fwd]
    assert np.array_equal(np.flatnonzero(built2.matrix.T), np.arange(1 << 2 * d) * (1 << 2 * d) + want)


# --param key=value and --config FILE share one grammar: the key and the
# value are stripped, the value becomes an int, else a float, else stays
# a string; the config file also skips blank and '#' lines.

param_keys = st.text(st.sampled_from("abcdefgh_xyz0123"), min_size=1, max_size=8)
param_values = st.one_of(
    st.integers(-10**12, 10**12).map(lambda v: (str(v), v)),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: (repr(v), v)),
    # booleans, and strings with '=' in them, stay strings
    st.sampled_from(["true", "false", "True"]).map(lambda v: (v, v)),
    st.builds(lambda a, b: f"{a}={b}".strip(), st.text(st.sampled_from("ab-z="), max_size=5),
              st.text(st.sampled_from("cd =z"), max_size=5)).map(lambda v: (v, v)),
)
padding = st.text(st.sampled_from(" \t"), max_size=3)


@bounded
@given(st.dictionaries(param_keys, param_values, min_size=1, max_size=6), st.data())
def test_param_and_config_parse_alike(tmp_path_factory, items, data):
    pairs, lines = [], []
    for key, (text, _) in items.items():
        pad = [data.draw(padding) for _ in range(4)]
        pairs.append(f"{pad[0]}{key}{pad[1]}={pad[2]}{text}{pad[3]}")
        lines += data.draw(st.lists(st.sampled_from(["", "   ", "# a comment", "  #x=1"]), max_size=2))
        lines.append(pairs[-1])
    config = tmp_path_factory.mktemp("config") / "params.cfg"
    config.write_text("\n".join(lines) + "\n")
    want = {key: value for key, (_, value) in items.items()}
    got = parse_params(pairs)
    assert got == want
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]
    assert load_config(str(config)) == got


# estimate_advantage builds trial i's generator from (seed, i) when the
# trial runs; it must be the one Rand(seed).split(trials) hands out.


@bounded
@given(st.integers(0, 2**64), st.integers(0, 63), st.data())
def test_trial_generators_match_split(seed, i, data):
    n = data.draw(st.integers(i + 1, 64))
    split = [r.numpy().bit_generator.state for r in Rand(seed).split(n)]
    direct = Rand(np.random.SeedSequence(seed, spawn_key=(i,)))
    assert direct.numpy().bit_generator.state == split[i]
    seen = []
    games.estimate_advantage(lambda r: seen.append(r.numpy().bit_generator.state) or 0, n, seed)
    assert seen == split
