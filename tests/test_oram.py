import numpy as np
import pytest

import oram_reference
from qsgames.bits import BitString
from qsgames.oram import (
    DataRequest,
    OramParams,
    SkesCodec,
    TraceStep,
    _common_depth,
    check_minimal_soundness,
    diff_nodes,
    oram_access,
    oram_init,
    run_trace,
)
from qsgames.prf import IdealPrf
from qsgames.rng import BlumMicaliPrng, Rand
from qsgames.schemes import GoldreichScheme
from skes_blocks import as_ciphertext


def fresh(n_db=8, n_dat=8, seed=0, **kw):
    params = OramParams(n_db=n_db, n_dat=n_dat)
    return oram_init(params, Rand(seed), **kw)


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
        # a set-up encodes all 31 buckets of 4 blocks at n_db=16, and an
        # access re-encodes the 5 buckets of its path; decoding reuses the
        # pads the codec computed when it encoded the blocks
        calls = []
        uncounted = IdealPrf.eval

        def counted(prf, x):
            calls.append(x)
            return uncounted(prf, x)

        monkeypatch.setattr(IdealPrf, "eval", counted)
        client, server = oram_init(OramParams(n_db=16), Rand(5))
        assert len(calls) <= 124
        for i in range(40):
            rid = 1 + i % 16
            op = DataRequest("write", rid, BitString(i, 8)) if i % 2 else DataRequest("read", rid)
            oram_access(client, server, op)
        assert len(calls) <= 124 + 20 * 40

    def test_pad_memo_holds_at_most_one_pad_per_stored_block(self):
        # decoding pops the pad of every block it reads back, so the memo
        # never holds more entries than the tree has blocks
        client, server = oram_init(OramParams(n_db=16), Rand(5))
        gen = Rand(6).numpy()
        for i in range(200):
            rid = int(gen.integers(1, 17))
            op = DataRequest("write", rid, BitString(i % 256, 8)) if gen.random() < 0.5 else DataRequest("read", rid)
            oram_access(client, server, op)
        assert len(client.codec._pads) <= server.node_count * server.n_bkt


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
        server.store(0, root, root)
        _, _, third = oram_access(client, server, DataRequest("read", 3))
        assert third.pre_db is not second.post_db
        assert third.pre_db == (root,) + second.post_db[1:] != second.post_db

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
                    server.store(idx, new, SkesCodec.view(new))
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
