import numpy as np
import pytest

import oram_reference
from qsgames import quantum
from qsgames.bits import BitString
from qsgames.oram import (
    DataRequest,
    DecryptionMismatch,
    OramParams,
    ProtocolAbort,
    SkesCodec,
    _common_depth,
    diff_nodes,
    oram_access,
    oram_init,
)
from qsgames.rng import BlumMicaliPrng, Rand
from qsgames.schemes import GoldreichScheme
from oram_reference import TraceStep, check_minimal_soundness, run_trace
from prf_counts import counted_evals
from skes_blocks import as_ciphertext, as_pair, misseal


def fresh(n_db=8, n_dat=8, seed=0, **kw):
    params = OramParams(n_db=n_db, n_dat=n_dat)
    return oram_init(params, Rand(seed), **kw)


class CountingGenerator:
    """A numpy Generator that appends the name of each method called on
    it to `calls`."""

    def __init__(self, gen, calls: list):
        self._gen, self._calls = gen, calls

    def __getattr__(self, name):
        method = getattr(self._gen, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return counted


class TestInit:
    def test_tree_shape(self):
        params = OramParams(n_db=8)
        assert params.n_tree == 3
        client, server = oram_init(params, Rand(0))
        assert server.node_count == 15
        assert all(len(bucket) == params.n_bkt for bucket in server.nodes)

    def test_all_blocks_decrypt_to_zero(self):
        client, server = fresh()
        for bucket in server.nodes:
            for block in bucket:
                assert client.scheme.dec(client.key, as_ciphertext(client.scheme, block)).value == 0

    def test_same_seed_same_position_map(self):
        a, _ = fresh(seed=42)
        b, _ = fresh(seed=42)
        assert a.position_map == b.position_map

    def test_tag_width_covers_all_ids(self):
        params = OramParams(n_db=16)
        assert (1 << params.n_tag) > params.n_db

    def test_codec_needs_32_bit_randomness(self):
        params = OramParams(n_db=8)
        scheme = GoldreichScheme(params.n_msg, r_bits=16)
        with pytest.raises(ValueError, match="32-bit randomness, got r_bits=16"):
            SkesCodec(params, scheme, scheme.key_gen(Rand(0)), Rand(1))


class TestAccess:
    def test_write_then_read(self):
        client, server = fresh()
        data = BitString(0xAB, 8)
        oram_access(client, server, DataRequest("write", 3, data))
        oram_access(client, server, DataRequest("read", 3))
        assert client.last_read == data

    def test_read_never_written_is_zero(self):
        client, server = fresh()
        oram_access(client, server, DataRequest("read", 5))
        assert client.last_read.value == 0

    def test_remap_uses_next_generator_output(self):
        client, server = fresh()
        consumed = len(client.leaf_log)
        oram_access(client, server, DataRequest("write", 2, BitString(1, 8)))
        assert client.position_map[2] == client.leaf_log[consumed]
        assert len(client.leaf_log) == consumed + 1

    def test_announced_leaf_matches_position_map(self):
        client, server = fresh()
        before = client.position_map[4]
        _, _, ap = oram_access(client, server, DataRequest("read", 4))
        assert ap.transcript.leaf == before

    def test_invalid_id(self):
        client, server = fresh()
        with pytest.raises(ValueError):
            oram_access(client, server, DataRequest("read", 9))

    def test_data_width_checked(self):
        client, server = fresh()
        with pytest.raises(ValueError):
            oram_access(client, server, DataRequest("write", 1, BitString(0, 9)))

    def test_request_guards(self):
        with pytest.raises(ValueError, match="unknown op 'erase'"):
            DataRequest("erase", 1)
        with pytest.raises(ValueError, match="write requires data"):
            DataRequest("write", 1)

    @pytest.mark.parametrize("n_tree", range(7))
    def test_common_depth_matches_the_scanning_loop(self, n_tree):
        leaves = range(1 << n_tree)
        assert all(_common_depth(a, b, n_tree) == oram_reference._common_depth(a, b, n_tree)
                   for a in leaves for b in leaves)


class TestCosts:
    def test_prf_evals_per_access(self, monkeypatch):
        # blocks hold their message and are sealed under F_k(r) only when
        # read: a set-up (124 blocks at n_db=16) evaluates nothing, and an
        # access seals the 20 blocks of the 5 buckets it decodes, one
        # evaluation each, and re-encodes them unread.  Debug mode also
        # decrypts each decoded block, one more evaluation
        counts = counted_evals(monkeypatch, SkesCodec)
        for debug in (False, True):
            monkeypatch.setattr(quantum, "DEBUG_CHECKS", debug)
            counts.update(all=0, decoding=0)
            client, server = oram_init(OramParams(n_db=16), Rand(5))
            assert counts == {"all": 0, "decoding": 0}
            per_access = 40 if debug else 20
            for i in range(40):
                rid = 1 + i % 16
                op = DataRequest("write", rid, BitString(i, 8)) if i % 2 else DataRequest("read", rid)
                oram_access(client, server, op)
                assert counts == {"all": (i + 1) * per_access, "decoding": (i + 1) * per_access}
            # reading the views of a path seals its blocks, so decoding them
            # evaluates nothing, or once a block in debug mode
            path = server.path_nodes(client.position_map[1])
            assert len([tuple(block) for idx in path for block in server.nodes[idx]]) == 20
            counts.update(all=0, decoding=0)
            oram_access(client, server, DataRequest("read", 1))
            assert counts == {"all": per_access - 20, "decoding": per_access - 20}

    def test_set_up_makes_the_same_generator_calls_at_every_size(self, monkeypatch):
        # one draw for the key, one for the whole position map and one
        # for the randomness of every block in the tree, however many ids
        # and buckets there are
        calls = []
        init = Rand.__init__

        def counting_init(rand, seed=0):
            init(rand, seed)
            rand._gen = CountingGenerator(rand._gen, calls)

        monkeypatch.setattr(Rand, "__init__", counting_init)
        seen = {}
        for n_db in (16, 1024):
            calls.clear()
            oram_init(OramParams(n_db=n_db), Rand(5))
            seen[n_db] = list(calls)
        assert seen[16] == seen[1024] == ["integers"] * 3

    @pytest.mark.parametrize("read", ["iter", "eq", "hash", "repr", "str", "decode"])
    def test_first_read_of_a_block_seals_it_through_one_prf_eval(self, monkeypatch, read):
        # any first read seals a block, one evaluation; every later read,
        # decoding included, costs none and sees the same pair
        client, _ = fresh(n_db=16, seed=16)
        codec, params = client.codec, client.params
        block = codec.encode_path([[3, BitString(0xAB, 8)]])[0]
        msg = BitString((3 << 8) | 0xAB, params.n_msg)
        want = as_pair(client.scheme.enc(client.key, msg, r=BitString(block.r, 32)))
        counts = counted_evals(monkeypatch, SkesCodec)
        first = {"iter": tuple, "eq": lambda b: b == (0, 0), "hash": hash, "repr": repr, "str": str,
                 "decode": lambda b: codec.decode_path([b])}[read]
        first(block)
        assert counts["all"] == 1
        pair = tuple(block)
        assert pair == want
        assert block == pair and pair == block and not block != pair and block != (pair[0] ^ 1, pair[1])
        assert hash(block) == hash(pair) and repr(block) == str(block) == repr(pair)
        assert codec.decode_path([block]) == [[3, BitString(0xAB, 8)]]
        assert counts["all"] == 1

    def test_stored_pairs_decode_through_one_prf_eval_each(self, monkeypatch):
        # a plain (body, r) pair stored through ServerDB.store_path is not a block
        # the codec made: it is decrypted under F_k(r), one evaluation, and
        # a tag above n_db still aborts.  The root's blocks become pairs and
        # the rest of the path is read, so sealed, beforehand
        client, server = fresh(n_db=16, seed=16)
        oram_access(client, server, DataRequest("write", 1, BitString(0xAB, 8)))
        path = server.path_nodes(client.position_map[1])
        pairs = tuple(tuple(block) for block in server.nodes[0])
        server.store_path([0], list(pairs), SkesCodec.view)
        assert all(tuple(block) for idx in path[1:] for block in server.nodes[idx])
        counts = counted_evals(monkeypatch, SkesCodec)
        oram_access(client, server, DataRequest("read", 1))
        assert client.last_read == BitString(0xAB, 8) and counts["decoding"] == server.n_bkt
        body, r = client.codec.encode_path([[1, BitString(0xAB, 8)]])[0]
        counts["decoding"] = 0
        with pytest.raises(ProtocolAbort, match="invalid tag 17"):  # the top bit of a 5-bit tag flipped
            client.codec.decode_path([(body ^ (1 << (client.params.n_msg - 1)), r)])
        assert counts["decoding"] == 1

    def test_another_clients_block_decodes_under_this_clients_key(self, monkeypatch):
        # another client's blocks, whether or not it has sealed them under
        # its own key, are decrypted through F_k(r) under this client's
        # key, as their pairs are: one evaluation per block decoded once
        # they are sealed.  Under this key their tags are random, so
        # decoding stops at the first one above n_db
        records = [[1, BitString(0xAB, 8)], None, [2, BitString(0x5, 8)], None] * 2
        other = fresh(n_db=16, seed=31)[0]
        sealed, unsealed = other.codec.encode_path(records), fresh(n_db=16, seed=31)[0].codec.encode_path(records)
        pairs = [as_pair(as_ciphertext(other.scheme, block)) for block in sealed]
        client, _ = fresh(n_db=16, seed=16)
        counts = counted_evals(monkeypatch, SkesCodec)

        def outcome(blocks):
            try:
                return client.codec.decode_path(blocks)
            except ProtocolAbort as err:
                return str(err)

        got, decoded = outcome(sealed), counts["decoding"]
        assert got == outcome(pairs) == outcome(unsealed)
        msgs = [client.scheme.dec(client.key, as_ciphertext(client.scheme, pair)).value for pair in pairs]
        bad = next((i for i, msg in enumerate(msgs) if msg >> 8 > 16), None)
        want = [[msg >> 8, BitString(msg & 0xFF, 8)] for msg in msgs if msg >> 8]
        assert got == (want if bad is None else f"block decodes to invalid tag {msgs[bad] >> 8}")
        assert decoded == (len(msgs) if bad is None else bad + 1)

    def test_debug_decoding_decrypts_each_own_block(self, monkeypatch):
        # a block sealed under the wrong pad shows a body that does not
        # decrypt to its message; decoding trusts the pad it keeps, so only
        # debug mode, which decrypts the body afresh, sees the fault
        client, _ = fresh(n_db=16, seed=16)
        misseal(monkeypatch)
        blocks = client.codec.encode_path([[3, BitString(0xAB, 8)], None])
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", False)
        assert client.codec.decode_path(blocks) == [[3, BitString(0xAB, 8)]]
        monkeypatch.setattr(quantum, "DEBUG_CHECKS", True)
        for block, msg in zip(blocks, ((3 << 8) | 0xAB, 0)):
            with pytest.raises(DecryptionMismatch, match=f"block of message {msg:#x} decrypts to "):
                client.codec.decode_path([block])


class TestInvariants:
    def test_path_locality_every_diff(self):
        client, server = fresh(n_db=16, seed=3)
        gen = Rand(4).numpy()
        for _ in range(200):
            i = int(gen.integers(1, 17))
            _, _, ap = oram_access(client, server, DataRequest("write", i, BitString(int(gen.integers(0, 256)), 8)))
            path = set(server.path_nodes(ap.transcript.leaf))
            assert set(diff_nodes(ap.pre_db, ap.post_db)) <= path

    def test_ciphertext_freshness(self):
        client, server = fresh(n_db=16, seed=5)
        gen = Rand(6).numpy()
        for _ in range(1000):
            i = int(gen.integers(1, 17))
            _, _, ap = oram_access(client, server, DataRequest("read", i))
            assert not (set(ap.transcript.down) & set(ap.transcript.up))

    def test_classical_tree_is_its_own_view(self):
        # a stored block is the int pair (body, r), which is also its view
        client, server = fresh(n_db=16, seed=18)

        def check():
            for bucket, view in zip(server.nodes, server.views):
                assert bucket is view
                assert all(type(body) is int and type(r) is int for body, r in bucket)
                assert all(0 <= body < 1 << client.params.n_msg and 0 <= r < 1 << 32 for body, r in bucket)

        check()
        for i in range(40):
            rid = 1 + i % 16
            op = DataRequest("write", rid, BitString(i, 8)) if i % 2 else DataRequest("read", rid)
            oram_access(client, server, op)
        check()

    def test_back_to_back_accesses_share_one_snapshot(self):
        # snapshot() is memoized until the next store: an access's post_db
        # is the next access's pre_db object, and a store in between
        # replaces it with a snapshot of the new contents
        client, server = fresh(n_db=16, seed=20)
        _, _, first = oram_access(client, server, DataRequest("read", 1))
        _, _, second = oram_access(client, server, DataRequest("write", 2, BitString(5, 8)))
        assert second.pre_db is first.post_db
        assert second.post_db is not second.pre_db and second.post_db == tuple(server.views)
        root = server.nodes[0][::-1]
        server.store_path([0], list(root), SkesCodec.view)
        _, _, third = oram_access(client, server, DataRequest("read", 3))
        assert third.pre_db is not second.post_db
        assert third.pre_db == (root,) + second.post_db[1:] != second.post_db

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_store_path_needs_one_full_bucket_per_node(self, extra):
        # a block list that does not fill the path's buckets exactly is
        # refused, and nothing is stored
        client, server = fresh(n_db=16, seed=21)
        path, before = server.path_nodes(0), server.snapshot()
        blocks = client.codec.encode_path([None] * (len(path) * server.n_bkt + extra))
        with pytest.raises(ValueError, match=f"{20 + extra} blocks do not fill 5 buckets of 4"):
            server.store_path(path, blocks, client.codec.view)
        assert server.snapshot() is before

    def test_stash_stays_small(self):
        client, server = fresh(n_db=64, seed=7)
        gen = Rand(8).numpy()
        for _ in range(2000):
            i = int(gen.integers(1, 65))
            op = "write" if gen.random() < 0.5 else "read"
            data = BitString(int(gen.integers(0, 256)), 8) if op == "write" else None
            oram_access(client, server, DataRequest(op, i, data))
        assert max(client.stash_history) <= 4 * 6  # 4 log2(n_db)

    def test_fresh_leaf_chi_square_uniform(self):
        # generator replaced by true randomness: announced leaves for
        # fresh ids are uniform (chi-square, p > 0.001 <=> stat below
        # the 0.999 quantile of chi2 with 15 degrees of freedom)
        client, _ = fresh(n_db=16, seed=9)
        counts = np.zeros(16)
        for _ in range(10000):
            counts[client.fresh_leaf()] += 1
        expected = 10000 / 16
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 37.697


class TestSoundness:
    def _random_requests(self, n_db, count, seed):
        gen = Rand(seed).numpy()
        out = []
        for _ in range(count):
            op = "write" if gen.random() < 0.5 else "read"
            i = int(gen.integers(1, n_db + 1))
            data = BitString(int(gen.integers(0, 256)), 8) if op == "write" else None
            out.append(DataRequest(op, i, data))
        return out

    def test_honest_trace_has_no_violations(self):
        client, server = fresh(n_db=16, seed=10)
        trace = run_trace(client, server, self._random_requests(16, 200, 11))
        report = check_minimal_soundness(trace)
        assert report.ok, report.violations[:3]

    def test_interleaved_writes_persist(self):
        client, server = fresh(n_db=64, seed=12)
        reqs = []
        for i in range(1, 51):
            reqs.append(DataRequest("write", i, BitString(i % 256, 8)))
            reqs.append(DataRequest("read", i))
        trace = run_trace(client, server, reqs)
        assert check_minimal_soundness(trace).ok
        for step in trace:
            if step.dr.op == "read":
                assert step.returned.value == step.dr.id % 256

    @pytest.mark.parametrize("case", ["key changed", "stored data wrong", "fresh id non-zero",
                                      "fresh id nothing"])
    def test_hand_built_violations(self, case):
        key, other_key = BitString(3, 16), BitString(4, 16)
        write = DataRequest("write", 1, BitString(0x55, 8))
        steps = {
            "key changed": (DataRequest("read", 1), BitString(0x55, 8), other_key, "key"),
            "stored data wrong": (DataRequest("read", 1), BitString(0x54, 8), key, "read"),
            "fresh id non-zero": (DataRequest("read", 2), BitString(1, 8), key, "read"),
            "fresh id nothing": (DataRequest("read", 2), None, key, "read"),
        }
        dr, returned, key_after, kind = steps[case]
        trace = [TraceStep(write, None, key, key), TraceStep(dr, returned, key, key_after)]
        report = check_minimal_soundness(trace)
        assert [(i, k) for i, k, _ in report.violations] == [(1, kind)]
        assert report.steps == 2 and not report.ok

    def _flip_block_bit(self, client, server, target_id, flip_tag: bool):
        # locate the target's block on its mapped path and flip one bit
        leaf = client.position_map[target_id]
        for idx in server.path_nodes(leaf):
            bucket = server.nodes[idx]
            for j, (body, r) in enumerate(bucket):
                msg = client.scheme.dec(client.key, as_ciphertext(client.scheme, (body, r)))
                if msg.take(client.params.n_tag).value == target_id:
                    mask = 1 << (msg.width - 1) if flip_tag else 1  # top tag bit, or lowest data bit
                    new = bucket[:j] + ((body ^ mask, r),) + bucket[j + 1:]
                    server.store_path([idx], list(new), SkesCodec.view)
                    return True
        return False

    def test_fault_injection_reported(self):
        client, server = fresh(n_db=8, seed=14)
        trace = run_trace(client, server, [DataRequest("write", 1, BitString(0x55, 8))])
        assert self._flip_block_bit(client, server, 1, flip_tag=False)
        trace += run_trace(client, server, [DataRequest("read", 1)])
        report = check_minimal_soundness(trace)
        assert not report.ok
        assert any(kind == "read" for _, kind, _ in report.violations)
        assert trace[1].returned == BitString(0x55 ^ 1, 8)

    def test_tag_corruption_aborts(self):
        client, server = fresh(n_db=8, seed=15)
        run_trace(client, server, [DataRequest("write", 1, BitString(0x55, 8))])
        assert self._flip_block_bit(client, server, 1, flip_tag=True)
        trace = run_trace(client, server, [DataRequest("read", 1)])
        report = check_minimal_soundness(trace)
        assert trace[0].aborted and not report.ok


class TestBlumMicaliInstantiation:
    def test_runs_and_reads_back(self):
        params = OramParams(n_db=16, n_dat=8)
        client, server = oram_init(params, Rand(16), prng=BlumMicaliPrng(65537, 3, 4242))
        oram_access(client, server, DataRequest("write", 1, BitString(7, 8)))
        oram_access(client, server, DataRequest("read", 1))
        assert client.last_read.value == 7

    def test_leaf_log_matches_generator(self):
        params = OramParams(n_db=4, n_dat=4)
        client, _ = oram_init(params, Rand(17), prng=BlumMicaliPrng(12289, 11, 99))
        reference = BlumMicaliPrng(12289, 11, 99)
        mask = (1 << params.n_tree) - 1
        expect = [reference.next_value(params.n_tag).value & mask for _ in range(4)]
        assert client.leaf_log == expect


def test_access_pattern_json_fields():
    client, server = fresh()
    _, _, ap = oram_access(client, server, DataRequest("read", 1))
    import json

    obj = json.loads(ap.to_json())
    assert set(obj) == {"leaf", "down", "up", "pre_digest", "post_digest"}
    assert all(":" in blk for blk in obj["down"])
