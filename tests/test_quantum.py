import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qsgames.bits import BitString
from qsgames.prf import Permutation, sample_ideal_qprp
from qsgames.quantum import (
    GATES,
    CircuitDescription,
    DensityMatrix,
    StateVector,
    UnitaryOp,
    _pick_outcome,
    apply_gate,
    apply_unitary,
    avg_perm_channel,
    avg_perm_channel_sampled,
    build_from_description,
    maximally_mixed,
    measure_computational,
    partial_trace,
    qotp_apply,
    trace_distance,
    type1_from_type2,
    type1_oracle,
    type2_from_type1,
    type2_oracle,
)
from qsgames.rng import Rand
from qsgames.schemes import GoldreichScheme, OtpScheme, PrpScheme
from oracles import exact_perm_average, qotp_average


class TestGates:
    def test_hadamard_on_zero(self):
        plus = apply_gate(StateVector.zero(1), "H", [0])
        assert np.allclose(plus.amps, [2**-0.5, 2**-0.5])

    def test_pauli_product_matches_y_up_to_phase(self):
        xz = GATES["X"] @ GATES["Z"]
        target = 1j * GATES["Y"]
        phase = xz[1, 0] / target[1, 0]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(xz, phase * target)

    def test_swap(self):
        out = apply_gate(StateVector.basis(2, 0b01), "SWAP", [0, 1])
        assert np.allclose(out.amps, StateVector.basis(2, 0b10).amps)

    def test_cnot(self):
        out = apply_gate(StateVector.basis(2, 0b10), "CNOT", [0, 1])
        assert np.allclose(out.amps, StateVector.basis(2, 0b11).amps)

    def test_norm_preserved_on_random_states(self):
        r = Rand(0)
        sv = StateVector.random(3, r)
        for name, targets in (("H", [1]), ("X", [0]), ("CNOT", [2, 0]), ("SWAP", [1, 2])):
            sv = apply_gate(sv, name, targets)
            assert abs(np.vdot(sv.amps, sv.amps).real - 1) < 1e-10

    def test_unitary_op_and_matrix_match_the_named_gate(self):
        sv = StateVector.random(3, Rand(4))
        dm = DensityMatrix.random_mixed(3, Rand(5))
        # Y is the one gate in the table that is not its own transpose
        for (name, targets), (state, attr) in itertools.product((("CNOT", [2, 0]), ("Y", [1])),
                                                                 ((sv, "amps"), (dm, "mat"))):
            named = getattr(apply_gate(state, name, targets), attr)
            for gate in (UnitaryOp(len(targets), GATES[name]), GATES[name].tolist()):
                assert np.array_equal(getattr(apply_gate(state, gate, targets), attr), named)

    def test_target_errors(self):
        with pytest.raises(ValueError):
            apply_gate(StateVector.zero(2), "H", [2])
        with pytest.raises(ValueError):
            apply_gate(StateVector.zero(2), "CNOT", [1, 1])
        with pytest.raises(ValueError):
            apply_gate(StateVector.zero(2), "NOPE", [0])
        with pytest.raises(ValueError, match="gate acts on 2 qubits, got 1 targets"):
            apply_gate(StateVector.zero(2), "CNOT", [0])


class TestStates:
    def test_cap(self):
        with pytest.raises(ValueError):
            StateVector.zero(13)

    def test_density_cap_is_checked_before_allocating(self):
        # an 11-qubit density matrix would take 64 MiB; its statevector
        # (32 KiB) is still within the simulation cap
        sv = StateVector.zero(11)
        builders = (
            lambda: DensityMatrix.basis(11, 0),
            lambda: maximally_mixed(11),
            sv.density,
            lambda: DensityMatrix.basis(6, 0).tensor(DensityMatrix.basis(5, 0)),
        )
        for build in builders:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="density-matrix cap of 10 qubits"):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        assert DensityMatrix.basis(10, 0).n_qubits == 10

    def test_density_invariants(self):
        dm = DensityMatrix.random_mixed(2, Rand(1))
        dm.validate()

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.5, 0.0], [0.1, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(1, np.array([[0.7, 0.0], [0.0, 0.7]]))

    def test_unitary_check(self):
        with pytest.raises(ValueError):
            UnitaryOp(1, np.array([[1, 0], [0, 2]], dtype=complex))

    def test_maximally_mixed(self):
        tau = maximally_mixed(1)
        assert np.allclose(tau.mat, np.diag([0.5, 0.5]))
        assert abs(np.trace(maximally_mixed(3).mat) - 1) < 1e-12
        assert trace_distance(tau, tau) == 0.0


class TestOracles:
    def test_identity_function_on_one_bit_is_cnot(self):
        op = type1_oracle([0, 1], 1, 1)
        assert np.allclose(op.matrix, GATES["CNOT"])

    def test_constant_zero_is_identity(self):
        op = type1_oracle([0, 0], 1, 1)
        assert np.allclose(op.matrix, np.eye(4))

    def test_columns_exhaustive_toy_prf(self):
        # f = 3-bit keyed function; column x||y has its 1 at x||(y xor f(x))
        scheme = GoldreichScheme(3)
        key = scheme.key_gen(Rand(2))
        rr = BitString(0b101, 3)
        table = [scheme.enc(key, BitString(x, 3), r=rr).body.value for x in range(8)]
        op = type1_oracle(table, 3, 3)
        for x in range(8):
            for y in range(8):
                col = op.matrix[:, (x << 3) | y]
                expect = np.zeros(64)
                expect[(x << 3) | (y ^ table[x])] = 1
                assert np.array_equal(col, expect)

    def test_non_injective_still_unitary(self):
        op = type1_oracle([5, 5, 5, 5], 2, 3)
        assert np.allclose(op.matrix @ op.matrix.conj().T, np.eye(32))

    def test_dense_cap_is_checked_before_allocating(self):
        # an 11-qubit oracle matrix would take 64 MiB, within the
        # 12-qubit statevector cap but over the density-matrix cap
        zeros = np.zeros(1 << 5, dtype=np.int64)
        perm6, perm11 = Permutation.identity(6), Permutation.identity(11)
        # stands in for a 12-qubit permutation operator, whose matrix
        # alone would take 256 MiB
        op12 = SimpleNamespace(domain_bits=12, forward=np.arange(1 << 12))
        builders = (
            lambda: type1_oracle(zeros, 5, 6),
            lambda: type2_oracle(perm11),
            lambda: type1_from_type2(type2_oracle(perm6), type2_oracle(perm6)),
            lambda: type2_from_type1(op12, op12),
        )
        for build in builders:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="density-matrix cap of 10 qubits"):
                    build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
        perm5 = Permutation.identity(5)
        assert type1_oracle(zeros, 5, 5).n_qubits == 10
        assert type2_oracle(Permutation.identity(10)).n_qubits == 10
        assert type1_from_type2(type2_oracle(perm5), type2_oracle(perm5)).n_qubits == 10

    def test_oracle_is_an_index_map(self):
        # the dense matrix of a 10-qubit oracle would take 16 MiB
        table = np.arange(1 << 5) ^ 0b10110
        state = StateVector.random(10, Rand(9))
        tracemalloc.start()
        try:
            op = type1_oracle(table, 5, 5)
            _, built = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = apply_unitary(state, op)
            _, applied = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built < 1 << 20
        assert applied < 1 << 20
        assert np.array_equal(out.amps[op.forward], state.amps)

    def test_permutation_op_rejects_non_permutations(self):
        # a repeat, a wrong length, an entry out of range, a negative one;
        # then a supplied inverse that does not invert forward, or is no table
        bad = [(fwd, None) for fwd in ([0, 1, 1, 3], [0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2])]
        bad += [([1, 2, 0, 3], inv) for inv in ([1, 2, 0, 3], [2, 0, 1], [2, 0, 1, 4], [2, 0, 1, -1])]
        messages = set()
        for forward, inverse in bad:
            with pytest.raises(ValueError, match="not a permutation") as err:
                Permutation(2, forward, inverse)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert Permutation(2, [1, 2, 0, 3], [2, 0, 1, 3]).inverse.tolist() == [2, 0, 1, 3]

    def test_incomplete_table_rejected(self):
        with pytest.raises(ValueError):
            type1_oracle([0, 1, 2], 2, 2)

    def test_type2_identity(self):
        op = type2_oracle(Permutation.identity(2))
        assert np.allclose(op.matrix, np.eye(4))

    def test_type2_adjoint_is_inverse_oracle(self):
        perm = sample_ideal_qprp(BitString(3, 8), 4)
        left = type2_oracle(perm).inverted()
        right = type2_oracle(perm.inverted())
        assert np.allclose(left.matrix, right.matrix)

    def test_type2_maps_plaintext_to_ciphertext_basis_state(self):
        scheme = PrpScheme(2, 1)
        key = scheme.key_gen(Rand(3))
        rr = BitString(1, 1)
        perm, m = scheme.enc_perm(key, rr)
        op = type2_oracle(perm)
        for x in range(4):
            ct = scheme.enc(key, BitString(x, 2), r=rr).body.value
            out = apply_unitary(StateVector.basis(3, x << 1), op)
            assert abs(out.amps[ct]) == 1.0


class TestConversions:
    def _check_pair(self, perm: Permutation):
        d = perm.domain_bits
        enc2 = type2_oracle(perm)
        dec2 = enc2.inverted()
        direct1 = type1_oracle(perm.forward, d, d)
        built1 = type1_from_type2(enc2, dec2)
        assert np.array_equal(built1.matrix, direct1.matrix)

        dec1 = type1_oracle(perm.inverse, d, d)
        built2 = type2_from_type1(direct1, dec1)
        # the in-place operator is pinned on the honest zero-ancilla slice
        for x in range(1 << d):
            col = built2.matrix[:, x << d]
            expect = np.zeros(1 << (2 * d))
            expect[perm.apply(x) << d] = 1
            assert np.array_equal(col, expect)

    def test_identity_cipher(self):
        self._check_pair(Permutation.identity(2))

    def test_otp_one_bit(self):
        perm, _ = OtpScheme(1).enc_perm(BitString(1, 1))
        self._check_pair(perm)

    def test_prp_scheme_pinned(self):
        scheme = PrpScheme(2, 1)
        key = scheme.key_gen(Rand(4))
        perm, _ = scheme.enc_perm(key, BitString(0, 1))
        self._check_pair(perm)

    def test_mismatched_pair_rejected(self):
        perm = Permutation.from_fn(lambda x: (x + 1) % 4, 2)  # not an involution
        with pytest.raises(ValueError):
            type1_from_type2(type2_oracle(perm), type2_oracle(perm))


class TestPartialTrace:
    def test_product_state(self):
        r = Rand(5)
        rho = DensityMatrix.random_pure(1, r)
        sigma = DensityMatrix.random_pure(2, r)
        joint = rho.tensor(sigma)
        assert np.allclose(partial_trace(joint, [0]).mat, rho.mat)
        assert np.allclose(partial_trace(joint, [1, 2]).mat, sigma.mat)

    def test_bell_state_reduces_to_mixed(self):
        bell = apply_gate(apply_gate(StateVector.zero(2), "H", [0]), "CNOT", [0, 1])
        for q in (0, 1):
            red = partial_trace(bell.density(), [q])
            assert np.allclose(red.mat, np.eye(2) / 2)

    def test_trace_preserved_random(self):
        r = Rand(6)
        for _ in range(20):
            dm = DensityMatrix.random_mixed(3, r)
            red = partial_trace(dm, [0, 2])
            assert abs(np.trace(red.mat) - 1) < 1e-10
            red.validate()

    def test_statevector_reduces_through_its_density_matrix(self):
        vec = StateVector.random(3, Rand(7))
        for keep in ([0], [1, 2], [0, 2], [0, 1, 2]):
            assert np.array_equal(partial_trace(vec, keep).mat, partial_trace(vec.density(), keep).mat)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(maximally_mixed(2), [])


class TestTraceDistance:
    def test_zero_for_equal(self):
        dm = DensityMatrix.random_mixed(2, Rand(7))
        assert trace_distance(dm, dm) == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(DensityMatrix.basis(1, 0), DensityMatrix.basis(1, 1)) - 1) < 1e-12

    def test_zero_vs_plus(self):
        plus = apply_gate(StateVector.zero(1), "H", [0]).density()
        # eigenvalue oracle on the 2x2 difference gives exactly 1/sqrt(2)
        assert abs(trace_distance(DensityMatrix.basis(1, 0), plus) - 2**-0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(maximally_mixed(1), maximally_mixed(2))

    def test_symmetric_and_bounded(self):
        r = Rand(8)
        a, b = DensityMatrix.random_mixed(2, r), DensityMatrix.random_mixed(2, r)
        d1, d2 = trace_distance(a, b), trace_distance(b, a)
        assert abs(d1 - d2) < 1e-12 and 0 <= d1 <= 1


class TestMeasurement:
    def test_basis_state_is_certain(self):
        sv = StateVector.basis(3, 0b101)
        out, post = measure_computational(sv, [0, 1, 2], Rand(9))
        assert out.value == 0b101
        assert post.overlap(sv) > 1 - 1e-12

    def test_uniform_outcome_frequency(self):
        plus = apply_gate(StateVector.zero(1), "H", [0])
        r = Rand(10)
        ones = sum(measure_computational(plus, [0], r)[0].value for _ in range(10000))
        assert abs(ones - 5000) <= 3 * 50

    def test_unentangled_register_untouched(self):
        phi = StateVector.random(2, Rand(11))
        joint = StateVector.basis(1, 1).tensor(phi)
        out, post = measure_computational(joint, [0], Rand(12))
        assert out.value == 1
        reduced = partial_trace(post.density(), [1, 2])
        assert trace_distance(reduced, phi.density()) < 1e-10

    def test_forced_zero_probability_errors(self):
        with pytest.raises(ValueError):
            measure_computational(StateVector.basis(1, 0), [0], Rand(13), force=1)

    def test_density_matrix_measurement(self):
        dm = DensityMatrix.basis(2, 0b10)
        out, post = measure_computational(dm, [0], Rand(14))
        assert out.value == 1
        assert trace_distance(post, dm) < 1e-12

    def test_target_order_controls_bit_order(self):
        sv = StateVector.basis(2, 0b01)
        out_fwd, _ = measure_computational(sv, [0, 1], Rand(15))
        out_rev, _ = measure_computational(sv, [1, 0], Rand(15))
        assert out_fwd.value == 0b01 and out_rev.value == 0b10


class _FixedDraw:
    """Stands in for Rand: every uniform draw returns the same value."""

    def __init__(self, u):
        self._u = u

    def numpy(self):
        return self

    def random(self):
        return self._u


class TestPickOutcome:
    def test_draw_just_below_one_stays_in_range(self):
        # outcome vectors whose running sum ends below their total, far
        # enough that a draw just below 1 scaled by the total would land
        # past the last entry; scaled by the last running sum it cannot
        gen = np.random.default_rng(0)
        top = np.nextafter(1.0, 0.0)
        short = [
            p for p in (gen.random(16) for _ in range(2000))
            if top * p.sum() > np.cumsum(p)[-1]
        ]
        assert short
        for probs in short:
            idx = _pick_outcome(probs, _FixedDraw(top), None)
            assert idx < len(probs) and probs[idx] > 0

    def test_zero_weight_ends_are_never_picked(self):
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        assert _pick_outcome(probs, _FixedDraw(0.0), None) == 1
        assert _pick_outcome(probs, _FixedDraw(np.nextafter(1.0, 0.0)), None) == 2

    def test_subnormal_total_falls_back_to_the_last_weighted_outcome(self):
        # a draw just below 1 times a total at or below the smallest
        # normal double rounds back up to the total, so the search runs
        # past the end; this is the only way to reach the fallback
        probs = np.array([0.0, 1e-310, 0.0])
        top = np.nextafter(1.0, 0.0)
        assert np.searchsorted(np.cumsum(probs), top * probs.sum(), side="right") == len(probs)
        assert _pick_outcome(probs, _FixedDraw(top), None) == 1


class TestQotp:
    def test_zero_key_is_identity(self):
        dm = DensityMatrix.random_pure(2, Rand(16))
        assert np.allclose(qotp_apply(BitString.zeros(4), dm).mat, dm.mat)

    def test_x_bit_flips_basis(self):
        out = qotp_apply(BitString(0b10, 2), DensityMatrix.basis(1, 0))
        assert np.allclose(out.mat, DensityMatrix.basis(1, 1).mat)

    def test_self_inverse(self):
        dm = DensityMatrix.random_mixed(2, Rand(17))
        key = Rand(18).bits(4)
        assert np.allclose(qotp_apply(key, qotp_apply(key, dm)).mat, dm.mat)

    def test_average_over_all_keys_is_mixed(self):
        for n in (1, 2):
            dm = DensityMatrix.random_pure(n, Rand(19 + n))
            avg = qotp_average(dm)
            assert np.abs(avg.mat - np.eye(1 << n) / (1 << n)).max() < 1e-10

    def test_key_width_mismatch(self):
        with pytest.raises(ValueError):
            qotp_apply(BitString(0, 3), DensityMatrix.basis(1, 0))

    def test_subset_targets_match_gate_product(self):
        # two key bits per listed target, in list order, against apply_gate
        dm = DensityMatrix.random_mixed(3, Rand(33))
        targets = [2, 0]
        for key_val in range(16):
            key = BitString(key_val, 4)
            expect = dm
            for j, t in enumerate(targets):
                if key.bit(2 * j):
                    expect = apply_gate(expect, "X", [t])
                if key.bit(2 * j + 1):
                    expect = apply_gate(expect, "Z", [t])
            assert np.allclose(qotp_apply(key, dm, targets).mat, expect.mat)
        with pytest.raises(ValueError):
            qotp_apply(BitString(0, 4), dm, [1, 1])
        with pytest.raises(ValueError):
            qotp_apply(BitString(0, 6), dm, [0, 1])

    def test_matches_explicit_pauli_product(self):
        # cross-check the vectorized mask against the kron-built unitary
        for n, seed in ((2, 31), (3, 32)):
            key = Rand(seed).bits(2 * n)
            u = np.eye(1)
            for j in range(n):
                factor = np.eye(2, dtype=complex)
                if key.bit(2 * j):
                    factor = GATES["X"] @ factor
                if key.bit(2 * j + 1):
                    factor = GATES["Z"] @ factor
                u = np.kron(u, factor)
            sv = StateVector.random(n, Rand(seed + 100))
            assert np.allclose(qotp_apply(key, sv).amps, u @ sv.amps)
            dm = DensityMatrix.random_mixed(n, Rand(seed + 200))
            assert np.allclose(qotp_apply(key, dm).mat, u @ dm.mat @ u.conj().T)


class TestCircuitDescriptions:
    def test_empty_circuit(self):
        out = build_from_description(CircuitDescription(2, []))
        assert isinstance(out, StateVector)
        assert np.allclose(out.amps, StateVector.zero(2).amps)

    def test_single_hadamard(self):
        out = build_from_description(CircuitDescription(1, [{"g": "H", "t": [0]}]))
        assert out.overlap(apply_gate(StateVector.zero(1), "H", [0])) > 1 - 1e-12

    def test_bell_with_proper_out_register(self):
        desc = CircuitDescription(2, [{"g": "H", "t": [0]}, {"g": "CNOT", "t": [0, 1]}], out=[0])
        red = build_from_description(desc)
        assert isinstance(red, DensityMatrix)
        assert np.allclose(red.mat, np.eye(2) / 2)

    def test_oracle_gate(self):
        desc = CircuitDescription(
            2,
            [{"g": "X", "t": [0]}, {"g": "ORACLE", "t": [0, 1], "f": [0, 1], "in_bits": 1, "out_bits": 1}],
        )
        out = build_from_description(desc)
        assert np.allclose(out.amps, StateVector.basis(2, 0b11).amps)

    def test_json_roundtrip(self):
        desc = CircuitDescription(3, [{"g": "H", "t": [1]}], out=[1, 2])
        back = CircuitDescription.from_json(desc.to_json())
        assert back.wires == 3 and back.out == [1, 2] and back.gates == desc.gates

    def test_out_register_validated(self):
        with pytest.raises(ValueError):
            CircuitDescription(2, [], out=[5])


class TestAvgPermChannel:
    def test_basis_input_diagonal_uniform(self):
        rho = DensityMatrix.basis(1, 0)
        out = avg_perm_channel(rho, 2)
        assert np.allclose(np.diag(out.mat), np.full(8, 1 / 8))
        mc = avg_perm_channel_sampled(rho, 2, Rand(20), 1000)
        sigma = 1 / np.sqrt(1000)
        assert np.abs(mc.mat - out.mat).max() <= 3 * sigma

    def test_exhaustive_enumeration_m1_r1(self):
        rho = DensityMatrix.random_pure(1, Rand(21))
        assert np.abs(avg_perm_channel(rho, 1).mat - exact_perm_average(rho, 1).mat).max() < 1e-12

    def test_trace_distance_bound(self):
        # fixed inputs lower-bound the channel distance, so the stated
        # diamond-norm bound applies to them as well
        for r_bits in (2, 3):
            rho = DensityMatrix.random_pure(2, Rand(22 + r_bits))
            out = avg_perm_channel(rho, r_bits)
            tau = maximally_mixed(2 + r_bits)
            assert trace_distance(out, tau) <= 2.0 ** (-r_bits + 2) + 1e-12

    def test_monte_carlo_agreement_small(self):
        rho = DensityMatrix.random_mixed(2, Rand(25))
        cf = avg_perm_channel(rho, 2)
        mc = avg_perm_channel_sampled(rho, 2, Rand(26), 2000)
        assert np.abs(mc.mat - cf.mat).max() <= 3 / np.sqrt(2000)

    def test_entangled_input_via_reference_register(self):
        joint = DensityMatrix.random_pure(3, Rand(27))  # 2 reference + 1 message
        cf = avg_perm_channel(joint, 1, msg_qubits=1)
        mc = avg_perm_channel_sampled(joint, 1, Rand(28), 2000, msg_qubits=1)
        assert cf.n_qubits == 4
        assert np.abs(mc.mat - cf.mat).max() <= 3 / np.sqrt(2000)
        cf.validate()

    def test_output_is_valid_density_matrix(self):
        out = avg_perm_channel(DensityMatrix.random_mixed(2, Rand(29)), 3)
        out.validate()
