"""Both tree ORAMs against their frozen references, step by step.

Derandomized Hypothesis state machines set up the library's ORAM and
its reference from equal seeds, then drive both with the same writes,
reads and tampering of stored blocks.  The classical reference is
tests/oram_reference.py, a whole ORAM of its own; the quantum one is
tests/qoram_reference.py, the dense block codec run by the library's
client.  After every step the two must agree on the tree, the stash,
the last read or the retrieved register, whether the access aborted,
and the state of the client's generator; so a change to an ORAM's hot
path must keep every draw and every byte.  Until the tree is tampered
with, a read must also return the last write.

Model-based testing as in QuickCheck (Claessen and Hughes, ICFP 2000);
the protocol is Path ORAM (Stefanov et al., arXiv:1202.5150).
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import oram_reference as ref
import qoram_reference as qref
from qoram_blocks import with_r
from qsgames.bits import BitString
from qsgames.oram import DataRequest, OramParams, ProtocolAbort, oram_access, oram_init, tree_init
from qsgames.qoram import qoram_access, qoram_init
from qsgames.qscheme import QCiphertext, Skqes1Scheme
from qsgames.quantum import DensityMatrix, trace_distance
from qsgames.rng import Rand
from skes_blocks import as_ciphertext, as_pair

index = st.integers(0, 1 << 16)


class ClassicalOramModel(RuleBasedStateMachine):
    @initialize(n_db=st.integers(1, 9), n_dat=st.integers(1, 4), n_bkt=st.integers(1, 3),
                seed=st.integers(0, 1 << 16))
    def set_up(self, n_db, n_dat, n_bkt, seed):
        params = OramParams(n_db=n_db, n_dat=n_dat, n_bkt=n_bkt)
        self.client, self.server = oram_init(params, Rand(seed))
        self.ref_client, self.ref_server = ref.reference_init(n_db, n_dat, n_bkt, Rand(seed))
        self.n_db, self.n_dat, self.n_msg = n_db, n_dat, params.n_msg
        self.shadow = {}
        self.tampered = False

    # -- accesses -------------------------------------------------------------

    def access(self, op, rid, data=None):
        try:
            _, _, pattern = oram_access(self.client, self.server, DataRequest(op, rid, data))
            got = (pattern.transcript.leaf, pattern.transcript.down, pattern.transcript.up)
        except ProtocolAbort:
            got = "abort"
        try:
            want = ref.reference_access(self.ref_client, self.ref_server, op, rid, data)
        except ref.ReferenceAbort:
            want = "abort"
        assert got == want
        return got != "abort"

    @rule(raw_id=index, value=index)
    def write(self, raw_id, value):
        rid, data = 1 + raw_id % self.n_db, BitString(value % (1 << self.n_dat), self.n_dat)
        if self.access("write", rid, data):
            self.shadow[rid] = data

    @rule(raw_id=index)
    def read(self, raw_id):
        rid = 1 + raw_id % self.n_db
        if self.access("read", rid) and not self.tampered:
            assert self.client.last_read == self.shadow.get(rid, BitString.zeros(self.n_dat))

    # -- tampering, applied to both trees alike ---------------------------------

    def slot(self, raw):
        return divmod(raw % (len(self.server.nodes) * self.server.n_bkt), self.server.n_bkt)

    def tamper(self, edit):
        """Apply edit(buckets) to each tree's buckets, as lists of (body, r)
        pairs, and store them back; the reference's ciphertexts go through
        pairs and back."""
        library = [list(bucket) for bucket in self.server.nodes]
        edit(library)
        for idx, bucket in enumerate(map(tuple, library)):
            self.server.store(idx, bucket, self.client.codec.view(bucket))
        reference = [[as_pair(c) for c in bucket] for bucket in self.ref_server.nodes]
        edit(reference)
        scheme = self.ref_client.scheme
        self.ref_server.nodes = [tuple(as_ciphertext(scheme, block) for block in bucket) for bucket in reference]
        self.tampered = True

    @rule(raw=index, bit=index)
    def flip_body_bit(self, raw, bit):
        node, slot = self.slot(raw)

        def flip(buckets):
            body, r = buckets[node][slot]
            buckets[node][slot] = (body ^ (1 << bit % self.n_msg), r)
        self.tamper(flip)

    @rule(raw=index, r=st.integers(0, (1 << 32) - 1))
    def change_r(self, raw, r):
        node, slot = self.slot(raw)

        def change(buckets):
            body, _ = buckets[node][slot]
            buckets[node][slot] = (body, r)
        self.tamper(change)

    @rule(raw_a=index, raw_b=index)
    def swap_blocks(self, raw_a, raw_b):
        (na, sa), (nb, sb) = self.slot(raw_a), self.slot(raw_b)

        def swap(buckets):
            buckets[na][sa], buckets[nb][sb] = buckets[nb][sb], buckets[na][sa]
        self.tamper(swap)

    # -- after every step --------------------------------------------------------

    @invariant()
    def agrees_with_reference(self):
        client, other = self.client, self.ref_client
        assert list(self.server.views) == self.ref_server.views()
        assert [(t, d.value) for t, d in client.stash] == [(t, d.value) for t, d in other.stash]
        assert client.last_read == other.last_read
        assert client.position_map == other.position_map
        assert client.rand.numpy().bit_generator.state == other.rand.numpy().bit_generator.state


TestClassicalOramModel = ClassicalOramModel.TestCase
TestClassicalOramModel.settings = settings(max_examples=40, stateful_step_count=25, deadline=None,
                                           derandomize=True, database=None)


class QuantumOramModel(RuleBasedStateMachine):
    """qsgames.qoram against the dense reference codec: both sides run
    oram.tree_init and qoram_access, and differ only in the codec."""

    @initialize(n_db=st.integers(1, 5), n_dat=st.integers(1, 3), n_bkt=st.integers(1, 3),
                seed=st.integers(0, 1 << 16))
    def set_up(self, n_db, n_dat, n_bkt, seed):
        self.params = OramParams(n_db=n_db, n_dat=n_dat, n_bkt=n_bkt)
        self.client, self.server = qoram_init(self.params, Rand(seed))
        self.ref_client, self.ref_server = tree_init(self.params, Rand(seed), Skqes1Scheme(self.params.n_msg),
                                                     qref.QuantumCodec)
        self.shadow = {}
        self.tampered = False

    # -- accesses -------------------------------------------------------------

    def access(self, op, rid, payload=None):
        try:
            tr = qoram_access(self.client, self.server, DataRequest(op, rid, payload))[2].transcript
            got = (tr.leaf, tr.down, tr.up)
        except ProtocolAbort:
            got = "abort"
        try:
            tr = qoram_access(self.ref_client, self.ref_server, DataRequest(op, rid, payload))[2].transcript
            want = (tr.leaf, tr.down, tr.up)
        except ProtocolAbort:
            want = "abort"
        assert got == want
        if got != "abort" and not self.tampered:
            # an access swaps: the old contents come back, the payload stays
            zero = DensityMatrix.basis(self.params.n_dat, 0)
            assert trace_distance(self.client.retrieved, self.shadow.get(rid, zero)) < 1e-9
            self.shadow[rid] = zero if payload is None else payload

    @rule(raw_id=index, state_seed=index)
    def write(self, raw_id, state_seed):
        payload = DensityMatrix.random_mixed(self.params.n_dat, Rand(state_seed))
        self.access("write", 1 + raw_id % self.params.n_db, payload)

    @rule(raw_id=index)
    def read(self, raw_id):
        self.access("read", 1 + raw_id % self.params.n_db)

    # -- tampering, applied to both trees alike ---------------------------------

    def slot(self, raw):
        return divmod(raw % (len(self.server.nodes) * self.server.n_bkt), self.server.n_bkt)

    def tamper(self, edit):
        """Apply edit(buckets, with_r) to each tree's buckets, as lists of
        blocks, and store back the buckets that changed; with_r(block, r)
        gives a block of that tree under another randomness r."""
        def ref_with_r(block, r):
            cipher = block.cipher
            return qref.QuantumBlock(QCiphertext(cipher.payload, r=BitString(r, cipher.r.width)))

        for client, server, retag in ((self.client, self.server, with_r),
                                      (self.ref_client, self.ref_server, ref_with_r)):
            buckets = [list(bucket) for bucket in server.nodes]
            edit(buckets, retag)
            for idx, bucket in enumerate(map(tuple, buckets)):
                if any(a is not b for a, b in zip(bucket, server.nodes[idx])):
                    server.store(idx, bucket, client.codec.view(bucket))
        self.tampered = True

    @rule(raw_id=index, raw=index, r=st.integers(0, (1 << 20) - 1))
    def change_r(self, raw_id, raw, r):
        # a block on the path of an id, so that an access soon decodes it
        path = self.server.path_nodes(self.client.position_map[1 + raw_id % self.params.n_db])
        node, slot = path[raw % len(path)], raw // len(path) % self.server.n_bkt
        r %= 1 << (2 * self.params.n_msg)

        def change(buckets, retag):
            buckets[node][slot] = retag(buckets[node][slot], r)
        self.tamper(change)

    @rule(raw_a=index, raw_b=index)
    def swap_blocks(self, raw_a, raw_b):
        (na, sa), (nb, sb) = self.slot(raw_a), self.slot(raw_b)

        def swap(buckets, retag):
            buckets[na][sa], buckets[nb][sb] = buckets[nb][sb], buckets[na][sa]
        self.tamper(swap)

    # -- after every step --------------------------------------------------------

    @invariant()
    def agrees_with_reference(self):
        client, other = self.client, self.ref_client

        def register(state):
            return None if state is None else state.mat.tobytes()

        assert list(self.server.views) == list(self.ref_server.views)
        assert [(t, register(d)) for t, d in client.stash] == [(t, register(d)) for t, d in other.stash]
        assert register(client.retrieved) == register(other.retrieved)
        assert client.position_map == other.position_map
        assert client.rand.numpy().bit_generator.state == other.rand.numpy().bit_generator.state


TestQuantumOramModel = QuantumOramModel.TestCase
TestQuantumOramModel.settings = settings(max_examples=50, stateful_step_count=25, deadline=None,
                                         derandomize=True, database=None)
