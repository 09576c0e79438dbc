import json

import numpy as np
import pytest

from qoram_blocks import dense_cipher, with_r
from qsgames import experiments, oram, quantum
from qsgames.bits import BitString
from qsgames.oram import OramParams, ProtocolAbort, views_digest
from qsgames.prf import IdealPrf
from qsgames.qoram import (
    DecryptionMismatch,
    QuantumBlock,
    QuantumCodec,
    QuantumDataRequest,
    qoram_access,
    qoram_init,
    report_json,
    safe_extractor_default,
)
from qsgames.quantum import DensityMatrix, partial_trace, trace_distance
from qsgames.rng import Rand


def fresh(n_db=2, n_dat=1, seed=0):
    return qoram_init(OramParams(n_db=n_db, n_dat=n_dat), Rand(seed))


class TestInit:
    def test_shape(self):
        params = OramParams(n_db=2, n_dat=1)
        assert params.n_tree == 1 and params.n_msg == params.n_tag + 1
        client, server = qoram_init(params, Rand(0))
        assert server.node_count == 3

    def test_blocks_decrypt_to_zero_state(self):
        client, server = fresh()
        zero = DensityMatrix.basis(client.params.n_msg, 0)
        for bucket in server.nodes:
            for block in bucket:
                plain = client.scheme.dec(client.key, dense_cipher(client.params, block))
                assert trace_distance(plain, zero) < 1e-10

    def test_deterministic_under_seed(self):
        a, sa = fresh(seed=42)
        b, sb = fresh(seed=42)
        assert a.position_map == b.position_map
        assert views_digest(sa.snapshot()) == views_digest(sb.snapshot())


class TestAccess:
    def test_write_then_read_fidelity_one(self):
        client, server = fresh(seed=1)
        phi = DensityMatrix.random_pure(1, Rand(2))
        qoram_access(client, server, QuantumDataRequest("write", 1, phi))
        qoram_access(client, server, QuantumDataRequest("read", 1))
        assert trace_distance(client.retrieved, phi) < 1e-10

    def test_server_slot_holds_swapped_in_payload(self):
        # after the read the stored state is the read's zero placeholder
        client, server = fresh(seed=3)
        phi = DensityMatrix.random_pure(1, Rand(4))
        qoram_access(client, server, QuantumDataRequest("write", 1, phi))
        qoram_access(client, server, QuantumDataRequest("read", 1))
        qoram_access(client, server, QuantumDataRequest("read", 1))
        assert trace_distance(client.retrieved, DensityMatrix.basis(1, 0)) < 1e-10

    def test_untouched_ids_keep_their_data(self):
        client, server = fresh(n_db=2, seed=5)
        phi = DensityMatrix.random_pure(1, Rand(6))
        qoram_access(client, server, QuantumDataRequest("write", 1, phi))
        for _ in range(4):
            qoram_access(client, server, QuantumDataRequest("write", 2, DensityMatrix.basis(1, 1)))
        qoram_access(client, server, QuantumDataRequest("read", 1))
        assert trace_distance(client.retrieved, phi) < 1e-10

    def test_consecutive_accesses_use_fresh_leaves(self):
        client, server = qoram_init(OramParams(n_db=4, n_dat=1), Rand(7))
        leaves = []
        for _ in range(16):
            tr = qoram_access(client, server, QuantumDataRequest("read", 2))[2].transcript
            leaves.append(tr.leaf)
        assert len(set(leaves)) > 1

    def test_invalid_id_rejected(self):
        client, server = fresh()
        with pytest.raises(ValueError):
            qoram_access(client, server, QuantumDataRequest("read", 3))

    def test_payload_width_checked(self):
        client, server = fresh(n_dat=2)
        with pytest.raises(ValueError):
            qoram_access(client, server, QuantumDataRequest("write", 1, DensityMatrix.basis(1, 0)))

    def test_write_requires_payload(self):
        with pytest.raises(ValueError):
            QuantumDataRequest("write", 1, None)

    def test_invalid_tag_aborts_before_the_next_measurement(self, monkeypatch):
        # n_db=2 leaves tag 3 unused; the block decoded first (the leaf
        # bucket's first slot) carries it, so decoding measures once: one
        # random() draw from the client's generator, and nothing else
        client, server = fresh()
        leaf_bucket = server.path_nodes(client.position_map[1])[-1]
        bad = client.codec.encode_path([[3, DensityMatrix.basis(1, 0)]]) + list(server.nodes[leaf_bucket][1:])
        server.store(leaf_bucket, tuple(bad), client.codec.view(bad))
        gen = client.rand.numpy()
        expected = np.random.Generator(np.random.PCG64())
        expected.bit_generator.state = gen.bit_generator.state
        expected.random()
        draws = []

        class Counted:
            def random(self, *args, **kwargs):
                draws.append((args, kwargs))
                return gen.random(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(gen, name)

        counted = Counted()
        monkeypatch.setattr(client.rand, "numpy", lambda: counted)
        with pytest.raises(ProtocolAbort, match="invalid tag 3"):
            qoram_access(client, server, QuantumDataRequest("read", 1))
        assert draws == [((), {})]
        assert gen.bit_generator.state == expected.bit_generator.state

    def test_qubit_count_conserved(self):
        # the tree keeps node_count * n_bkt blocks of n_msg qubits, and
        # every written id's data register is held exactly once, in the
        # tree or the stash; one-block buckets make the stash fill
        params = OramParams(n_db=4, n_dat=1, n_bkt=1)
        client, server = qoram_init(params, Rand(8))
        gen = Rand(9).numpy()
        written, stash_peak = set(), 0
        for _ in range(40):
            rid = int(gen.integers(1, params.n_db + 1))
            qoram_access(client, server, QuantumDataRequest("write", rid, DensityMatrix.basis(1, 1)))
            written.add(rid)
            stash_peak = max(stash_peak, len(client.stash))
            blocks = [b for bucket in server.nodes for b in bucket]
            assert len(blocks) == server.node_count * params.n_bkt
            assert all(dense_cipher(params, b).payload.n_qubits == params.n_msg for b in blocks)
            held = [_tag(client, b) for b in blocks]
            held = [tag for tag in held if tag] + [rec[0] for rec in client.stash]
            assert sorted(held) == sorted(written)
            assert all(rec[1].n_qubits == params.n_dat for rec in client.stash)
        assert stash_peak > 0


class TestCosts:
    @staticmethod
    def accesses(params, count, seed) -> list:
        """count reads and writes of random ids, half of them writes of a
        random mixed payload."""
        gen = Rand(seed).numpy()
        requests = []
        for i in range(count):
            rid = int(gen.integers(1, params.n_db + 1))
            payload = DensityMatrix.random_mixed(params.n_dat, Rand(i)) if gen.random() < 0.5 else None
            requests.append(QuantumDataRequest("write" if payload else "read", rid, payload))
        return requests

    @staticmethod
    def counted_evals(monkeypatch) -> dict:
        """Counts of the IdealPrf evaluations made from now on: "all" of
        them, and those "decoding", made inside QuantumCodec.decode_path.
        The debug checks are off unless the test turns them on."""
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
        counts, inside = {"all": 0, "decoding": 0}, [False]
        evaluate, decode = IdealPrf.eval, QuantumCodec.decode_path

        def counted_eval(prf, x):
            counts["all"] += 1
            counts["decoding"] += inside[0]
            return evaluate(prf, x)

        def counted_decode(codec, blocks):
            inside[0] = True
            try:
                return decode(codec, blocks)
            finally:
                inside[0] = False

        monkeypatch.setattr(IdealPrf, "eval", counted_eval)
        monkeypatch.setattr(QuantumCodec, "decode_path", counted_decode)
        return counts

    @pytest.mark.parametrize("n_db", [2, 16])
    def test_prf_evals_per_access(self, monkeypatch, n_db):
        # blocks keep their plaintext and are sealed under F_k(r) only when
        # read; no block is read here, so set-up and accesses evaluate
        # nothing, and the codec decodes its own blocks from their
        # plaintext.  Debug mode also decrypts each decoded block: it seals
        # the block (one evaluation) and unmasks it (one more)
        counts = self.counted_evals(monkeypatch)
        for debug in (False, True):
            monkeypatch.setattr(quantum, "DEBUG_CHECKS", debug)
            counts.update(all=0, decoding=0)
            client, server = fresh(n_db=n_db, seed=16)
            per_access = 2 * (client.params.n_tree + 1) * server.n_bkt if debug else 0  # 16 at n_db=2, 40 at 16
            assert counts == {"all": 0, "decoding": 0}
            for i, qdr in enumerate(self.accesses(client.params, 200, 17)):
                qoram_access(client, server, qdr)
                assert counts == {"all": (i + 1) * per_access, "decoding": (i + 1) * per_access}

    @pytest.mark.parametrize("n_db", [2, 16])
    def test_first_read_of_a_block_seals_it_through_one_prf_eval(self, monkeypatch, n_db):
        # a block's first digest seals it, one evaluation; reading its
        # digest, tag or data again costs none
        client, _ = fresh(n_db=n_db, seed=16)
        block = client.codec.encode_path([[1, DensityMatrix.random_mixed(client.params.n_dat, Rand(18))]])[0]
        counts = self.counted_evals(monkeypatch)
        digest = block.digest()
        assert counts["all"] == 1
        dense_cipher(client.params, block)  # reads the tag and the data
        assert block.digest() == digest and counts["all"] == 1

    @pytest.mark.parametrize("n_db", [2, 16])
    def test_replaced_block_decodes_through_one_prf_eval(self, monkeypatch, n_db):
        # a copy built from the ciphertext holds no plaintext: it is
        # decrypted under F_k(r), with the same r or another one
        client, server = fresh(n_db=n_db, seed=16)
        codec, payload = client.codec, DensityMatrix.random_mixed(client.params.n_dat, Rand(18))
        block = codec.encode_path([[1, payload]])[0]
        counts = self.counted_evals(monkeypatch)
        own = codec.decode_path([block])
        assert counts["decoding"] == 0
        same = codec.decode_path([with_r(block, block.r.value)])
        assert counts["decoding"] == 1
        assert [(t, d.mat.tobytes()) for t, d in same] == [(t, d.mat.tobytes()) for t, d in own]
        assert own[0][0] == 1 and trace_distance(own[0][1], payload) < 1e-10
        moved = with_r(block, block.r.value ^ 1)
        tag = _tag(client, moved)  # under F_k(r ^ 1), read off the dense decryption: 0 at n_db=2, 8 at 16
        assert [t for t, _ in codec.decode_path([moved])] == ([tag] if tag else []) and counts["decoding"] == 2

    @pytest.mark.parametrize("n_db", [2, 16])
    def test_another_clients_block_decodes_under_this_clients_key(self, monkeypatch, n_db):
        # a bucket another client's codec made, stored at this tree's root,
        # decodes as its copy with the same r does: through F_k(r) under
        # this client's key, one evaluation per block decoded.  Under that
        # key its tags are random, so decoding stops at the first one above
        # n_db.  Building the copies reads, and so seals, the other
        # client's blocks under its own key before the count starts
        foreign = fresh(n_db=n_db, seed=31)[1].nodes[0]
        counts = self.counted_evals(monkeypatch)
        outcomes = []
        for bucket in (foreign, tuple(with_r(block, block.r.value) for block in foreign)):
            client, server = fresh(n_db=n_db, seed=16)
            server.store(0, bucket, client.codec.view(bucket))
            counts["decoding"] = 0
            try:
                qoram_access(client, server, QuantumDataRequest("read", 1))
                outcome = [client.retrieved.mat.tobytes(), [(t, d.mat.tobytes()) for t, d in client.stash],
                           list(server.views)]
            except ProtocolAbort as err:
                outcome = str(err)
            outcomes.append((outcome, counts["decoding"], client.rand.numpy().bit_generator.state))
        tags = [_tag(client, block) for block in foreign]
        decoded = next((i + 1 for i, tag in enumerate(tags) if tag > n_db), len(tags))
        assert outcomes[0] == outcomes[1] and outcomes[0][1] == decoded

    def test_prf_is_keyed_once_per_client(self, monkeypatch):
        # both codecs key their PRF at set-up and evaluate it from then on
        keyed = []
        init = IdealPrf.__init__

        def counted(prf, *args):
            keyed.append(prf)
            init(prf, *args)

        monkeypatch.setattr(IdealPrf, "__init__", counted)
        params = OramParams(n_db=4, n_dat=1)
        client, server = oram.oram_init(params, Rand(19))
        gen = Rand(20).numpy()
        for _ in range(40):
            rid, data = int(gen.integers(1, params.n_db + 1)), BitString(int(gen.integers(2)), 1)
            oram.oram_access(client, server, oram.DataRequest("write" if gen.random() < 0.5 else "read", rid, data))
        assert len(keyed) == 1
        client, server = qoram_init(params, Rand(19))
        for qdr in self.accesses(params, 40, 20):
            qoram_access(client, server, qdr)
        assert len(keyed) == 2

    def test_no_register_wider_than_the_data_register(self, monkeypatch):
        # blocks are a tag index and a 2^n_dat matrix: no density matrix of
        # the whole n_msg-qubit block is built, at set-up or in an access
        widths = []
        check = DensityMatrix.__post_init__

        def recorded(dm):
            widths.append(dm.n_qubits)
            check(dm)

        params = OramParams(n_db=16, n_dat=1)
        requests = self.accesses(params, 20, 19)  # drawn first: random payloads purify on 2 qubits
        monkeypatch.setattr(DensityMatrix, "__post_init__", recorded)
        client, server = qoram_init(params, Rand(18))
        for qdr in requests:
            qoram_access(client, server, qdr)
        assert client.params.n_msg == 6 and widths and max(widths) == client.params.n_dat

    @staticmethod
    def digests_per_trial(monkeypatch, name, overrides, seeds) -> list:
        """(block digests, tree digests) computed by one trial of a
        catalog entry at each seed; a kept digest read again is free."""
        counts = [0, 0]
        digest, fnv = QuantumBlock.digest, oram.fnv1a64

        def block_digest(block):
            counts[0] += block._digest is None
            return digest(block)

        def tree_digest(data):
            counts[1] += 1
            return fnv(data)

        monkeypatch.setattr(QuantumBlock, "digest", block_digest)
        monkeypatch.setattr(oram, "fnv1a64", tree_digest)
        per_trial = []
        for seed in seeds:
            counts[:] = [0, 0]
            experiments.get(name).run(trials=1, seed=seed, overrides=dict(overrides))
            per_trial.append(tuple(counts))
        return per_trial

    @pytest.mark.parametrize("overrides", [{}, {"n_db": 16, "n_dat": 1}])
    def test_tag_only_trial_digests_nothing(self, monkeypatch, overrides):
        # the adversary reads only leaves: no block or tree is digested
        assert self.digests_per_trial(monkeypatch, "qap-tag-null", overrides, range(5)) == [(0, 0)] * 5

    @pytest.mark.parametrize("overrides", [{}, {"n_db": 16, "n_dat": 1}])
    def test_payload_trial_digests_at_most_one_bucket(self, monkeypatch, overrides):
        # the adversary reads one digest of the challenge's upload
        n_bkt = OramParams(n_db=2).n_bkt
        for blocks, trees in self.digests_per_trial(monkeypatch, "qap-payload-null", overrides, range(5)):
            assert 0 < blocks <= n_bkt and trees == 0


def _tag(client, block) -> int:
    """Tag register of a block, read off the diagonal without measuring."""
    plain = client.scheme.dec(client.key, dense_cipher(client.params, block))
    marginal = np.real(np.diag(plain.mat)).reshape(1 << client.params.n_tag, -1).sum(axis=1)
    return int(np.argmax(marginal))


class TestDebugChecks:
    @pytest.mark.parametrize("fault", ["tag", "data"])
    def test_debug_decoding_decrypts_each_own_block(self, monkeypatch, fault):
        # a block sealed wrongly still decodes from the plaintext it holds;
        # debug mode decrypts it under F_k(r) too, and the two disagree
        client, _ = fresh(n_db=2, seed=24)
        codec, seal = client.codec, QuantumCodec.seal

        def misseal(codec, tag, data, r):
            masked_tag, masked = seal(codec, tag, data, r)
            if fault == "tag":
                return masked_tag ^ 1, masked
            return masked_tag, DensityMatrix(masked.n_qubits, masked.mat[::-1, ::-1], check=False)

        monkeypatch.setattr(QuantumCodec, "seal", misseal)
        for rec in ([1, DensityMatrix.basis(1, 1)], None):
            blocks = codec.encode_path([rec])
            monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
            assert [t for t, _ in codec.decode_path(blocks)] == ([1] if rec else [])
            monkeypatch.setattr(quantum, "DEBUG_CHECKS", True)
            with pytest.raises(DecryptionMismatch, match=f"plaintext tag {rec[0] if rec else 0} decrypts to "):
                codec.decode_path(blocks)


class TestBlockDigest:
    def test_replaced_block_digests_afresh(self):
        # a copy built by the constructor from the ciphertext keeps no digest
        client, server = fresh(seed=20)
        block = server.nodes[0][0]
        block.digest()
        moved = QuantumBlock(block.tag, block.data, BitString(block.r.value ^ 1, block.r.width))
        assert moved.digest() == QuantumBlock(moved.tag, moved.data, moved.r).digest() != block.digest()

    def test_views_compare_as_digest_tuples(self):
        client, server = fresh(seed=21)
        tr = qoram_access(client, server, QuantumDataRequest("read", 1))[2].transcript
        up = tuple(block.digest() for idx in server.path_nodes(tr.leaf) for block in server.nodes[idx])
        assert tr.up == up and up == tr.up and tr.up == list(up) and tr.up != up[1:]
        assert tr.up[-1] == up[-1] and list(tr.up) == list(up) and len(tr.up) == len(up)
        assert server.snapshot() == tuple(tuple(b.digest() for b in bucket) for bucket in server.nodes)

    def test_views_defer_comparison_with_other_types(self):
        client, server = fresh(seed=22)
        up = qoram_access(client, server, QuantumDataRequest("read", 1))[2].transcript.up
        assert up.__eq__("digests") is NotImplemented and up != "digests"

    def test_access_pattern_json_holds_the_digests(self):
        client, server = fresh(seed=23)
        pattern = qoram_access(client, server, QuantumDataRequest("read", 1))[2]
        obj = json.loads(pattern.to_json())
        assert obj["leaf"] == pattern.transcript.leaf and obj["up"] == list(pattern.transcript.up)


class TestExtractor:
    def test_identical_reports_on_repeat(self):
        client, server = fresh(seed=9)
        tr = qoram_access(client, server, QuantumDataRequest("read", 1))[2].transcript
        a = report_json(safe_extractor_default(tr, server))
        b = report_json(safe_extractor_default(tr, server))
        assert a == b

    def test_no_state_disturbance(self):
        client, server = fresh(seed=10)
        before = views_digest(server.snapshot())
        safe_extractor_default(None, server)["db_digest"]
        assert views_digest(server.snapshot()) == before

    def test_report_contains_announced_leaf(self):
        client, server = fresh(seed=11)
        expected = client.position_map[1]
        tr = qoram_access(client, server, QuantumDataRequest("read", 1))[2].transcript
        report = safe_extractor_default(tr, server)
        assert report["leaf"] == expected
        assert "down" in report and "up" in report

    def test_report_is_the_dict_of_its_entries_at_extraction(self):
        # entries read after the server has moved on are those of the
        # moment of extraction; the report equals that dict, key for key
        client, server = fresh(seed=22)
        tr = qoram_access(client, server, QuantumDataRequest("read", 1))[2].transcript
        late = safe_extractor_default(tr, server)
        now = {"db_digest": views_digest(server.snapshot()), "leaf": tr.leaf, "down": list(tr.down), "up": list(tr.up)}
        qoram_access(client, server, QuantumDataRequest("write", 2, DensityMatrix.basis(1, 1)))
        assert views_digest(server.snapshot()) != now["db_digest"]
        assert late == now and dict(late) == now and list(late) == list(now)
        assert report_json(late) == report_json(now)
        assert dict(safe_extractor_default(None, server)) == {"db_digest": views_digest(server.snapshot())}
        with pytest.raises(KeyError):
            safe_extractor_default(None, server)["leaf"]


def test_tag_measurement_never_disturbs_data():
    # blocks carry basis-state tags, so the tag measurement is exact and
    # the data register of non-target blocks is untouched
    client, server = fresh(n_db=2, seed=12)
    phi = DensityMatrix.random_pure(1, Rand(13))
    qoram_access(client, server, QuantumDataRequest("write", 2, phi))

    def stored_data(tag):
        for bucket in server.nodes:
            for block in bucket:
                plain = client.scheme.dec(client.key, dense_cipher(client.params, block))
                tag_marginal = np.real(np.diag(plain.mat)).reshape(
                    1 << client.params.n_tag, -1
                ).sum(axis=1)
                if int(np.argmax(tag_marginal)) == tag:
                    return partial_trace(plain, list(range(client.params.n_tag, client.params.n_msg)))
        return None

    before = stored_data(2)
    qoram_access(client, server, QuantumDataRequest("read", 1))
    after = stored_data(2)
    assert before is not None and after is not None
    assert trace_distance(before, after) < 1e-10
