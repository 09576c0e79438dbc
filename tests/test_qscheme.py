import numpy as np
import pytest

from qsgames.bits import BitString
from qsgames.prf import make_prf
from qsgames.qscheme import PkqesScheme, QCiphertext, Skqes1Scheme, Type2LiftScheme
from qsgames.quantum import (
    DensityMatrix,
    StateVector,
    apply_gate,
    partial_trace,
    qotp_apply,
    trace_distance,
)
from qsgames.rng import Rand
from qsgames.schemes import GoldreichScheme, OtpScheme, PrpScheme


def random_state_battery(n_qubits: int, rand: Rand, count: int):
    """Pure, mixed, and purification-reduced inputs for roundtrip checks."""
    states = []
    for i in range(count):
        if i % 3 == 0:
            states.append(DensityMatrix.random_pure(n_qubits, rand))
        elif i % 3 == 1:
            states.append(DensityMatrix.random_mixed(n_qubits, rand))
        else:
            joint = StateVector.random(n_qubits + 1, rand).density()
            states.append(partial_trace(joint, list(range(n_qubits))))
    return states


class TestSkqes1:
    def test_roundtrip_battery(self):
        r = Rand(1)
        for n in (1, 2, 3):
            scheme = Skqes1Scheme(n)
            key = scheme.key_gen(r)
            for phi in random_state_battery(n, r, 6):
                back = scheme.dec(key, scheme.enc(key, phi, rand=r))
                assert trace_distance(back, phi) < 1e-10

    def test_pinned_pad_example(self):
        # pad bits (1, 0) per qubit apply X only: |0..0> -> |1..1>
        flipped = qotp_apply(BitString(0b1010, 4), DensityMatrix.basis(2, 0))
        assert trace_distance(flipped, DensityMatrix.basis(2, 0b11)) < 1e-12
        # pinned r: the ciphertext is exactly the mask under the derived pad
        scheme = Skqes1Scheme(2)
        key = scheme.key_gen(Rand(2))
        rr = BitString(0, scheme.r_bits)
        phi = DensityMatrix.basis(2, 0)
        out = scheme.enc(key, phi, r=rr)
        expect = qotp_apply(scheme.inner.pad(key, rr), phi)
        assert trace_distance(out.payload, expect) < 1e-12 and out.r == rr

    def test_ciphertext_marginal_over_all_pads_is_mixed(self):
        # exact 4^n-term sum: the scheme's ciphertext under a uniform pad
        for n in (1, 2):
            phi = DensityMatrix.random_pure(n, Rand(3 + n))
            dim = 1 << n
            acc = np.zeros((dim, dim), dtype=complex)
            for pad_val in range(1 << (2 * n)):
                acc += qotp_apply(BitString(pad_val, 2 * n), phi).mat
            acc /= 1 << (2 * n)
            assert np.abs(acc - np.eye(dim) / dim).max() < 1e-10

    @pytest.mark.parametrize("n_qubits,key_bits", [(3, None), (2, 40)])
    def test_alternating_keys_match_fresh_prf(self, n_qubits, key_bits):
        # the scheme keeps the PRF of the last key; alternating keys,
        # including one equal in value but not in width, must never
        # reuse the wrong one
        scheme = Skqes1Scheme(n_qubits, key_bits=key_bits)
        rand = Rand(8)
        k1 = scheme.key_gen(rand)
        keys = [k1, scheme.key_gen(rand), BitString(k1.value, scheme.key_bits + 8),
                BitString(k1.value, scheme.key_bits)]
        for i in range(12):
            key = keys[i % len(keys)]
            phi = DensityMatrix.random_pure(n_qubits, rand)
            r = rand.bits(scheme.r_bits)
            pad = make_prf(key, scheme.r_bits, scheme.r_bits).eval(r)
            assert scheme.inner.pad(key, r) == pad
            c = scheme.enc(key, phi, r=r)
            assert c.payload.mat.tobytes() == qotp_apply(pad, phi).mat.tobytes()
            back = scheme.dec(key, QCiphertext(phi, r=r))
            assert back.mat.tobytes() == qotp_apply(pad, phi).mat.tobytes()

    def test_width_errors(self):
        scheme = Skqes1Scheme(2)
        key = scheme.key_gen(Rand(5))
        with pytest.raises(ValueError):
            scheme.enc(key, DensityMatrix.basis(1, 0), rand=Rand(6))
        with pytest.raises(ValueError):
            scheme.enc(key, DensityMatrix.basis(2, 0), r=BitString(0, 3))
        # enc_on checks a pinned r as enc does
        with pytest.raises(ValueError, match="randomness width 3 != 4"):
            scheme.enc_on(key, DensityMatrix.basis(3, 0), [0, 2], r=BitString(0, 3))

    def test_enc_on_joint_register(self):
        scheme = Skqes1Scheme(1)
        key = scheme.key_gen(Rand(7))
        bell = apply_gate(apply_gate(StateVector.zero(2), "H", [0]), "CNOT", [0, 1]).density()
        joint, reg, rr = scheme.enc_on(key, bell, [1], rand=Rand(8))
        # decrypting the register restores the joint state exactly
        pad = scheme.inner.pad(key, rr)
        restored = joint
        if pad.bit(0):
            restored = apply_gate(restored, "X", [1])
        if pad.bit(1):
            restored = apply_gate(restored, "Z", [1])
        assert trace_distance(restored, bell) < 1e-10


class TestType2Lift:
    def test_lifted_otp_on_basis_states(self):
        lift = Type2LiftScheme(OtpScheme(3))
        key = BitString(0b110, 3)
        qc = lift.enc(key, DensityMatrix.basis(3, 0b010))
        assert trace_distance(qc.payload, DensityMatrix.basis(3, 0b010 ^ 0b110)) < 1e-12
        assert trace_distance(lift.dec(key, qc), DensityMatrix.basis(3, 0b010)) < 1e-12

    def test_lifted_prp_identity_channel(self):
        lift = Type2LiftScheme(PrpScheme(2, 2))
        r = Rand(9)
        key = lift.key_gen(r)
        for phi in random_state_battery(2, r, 6):
            back = lift.dec(key, lift.enc(key, phi, rand=r))
            assert trace_distance(back, phi) < 1e-10

    def test_lifted_goldreich_identity_channel(self):
        lift = Type2LiftScheme(GoldreichScheme(3))
        r = Rand(10)
        key = lift.key_gen(r)
        phi = DensityMatrix.random_mixed(3, r)
        assert trace_distance(lift.dec(key, lift.enc(key, phi, rand=r)), phi) < 1e-10

    def test_expanding_lift_has_ancilla(self):
        lift = Type2LiftScheme(PrpScheme(2, 3))
        assert lift.ancilla_qubits == 3 and lift.ciphertext_qubits == 5

    def test_expanding_lift_enc_on_appends_ancillas(self):
        # enc_on acts on [env | phi] and [ancillas] appended after them:
        # the ciphertext register is enc's payload, the env is untouched
        lift = Type2LiftScheme(PrpScheme(1, 2))
        r = Rand(11)
        key = lift.key_gen(r)
        env, phi = DensityMatrix.random_mixed(1, r), DensityMatrix.random_pure(1, r)
        pinned = BitString(0b10, lift.r_bits)
        joint, reg, rr = lift.enc_on(key, env.tensor(phi), [1], r=pinned)
        assert reg == [1, 2, 3] and rr == pinned and joint.n_qubits == 4
        assert np.abs(partial_trace(joint, reg).mat - lift.enc(key, phi, r=pinned).payload.mat).max() < 1e-12
        assert np.abs(partial_trace(joint, [0]).mat - env.mat).max() < 1e-12

    def test_expanding_lift_keeps_a_statevector_pure(self):
        # the ancilla is appended as a statevector, the same permutation
        # acts on it, and decryption traces the ancilla out
        lift = Type2LiftScheme(PrpScheme(2, 2))
        r = Rand(12)
        key = lift.key_gen(r)
        phi = StateVector.random(2, r)
        qc = lift.enc(key, phi, rand=r)
        assert type(qc.payload) is StateVector and qc.payload.n_qubits == 4
        dense = lift.enc(key, phi.density(), r=qc.r).payload
        assert np.abs(qc.payload.density().mat - dense.mat).max() < 1e-12
        assert trace_distance(lift.dec(key, qc), phi.density()) < 1e-10

    def test_scheme_without_permutation_form_rejected(self):
        class NoPerm:
            name = "bare"

        with pytest.raises(ValueError):
            Type2LiftScheme(NoPerm())


@pytest.mark.parametrize("scheme", [Skqes1Scheme(2), Type2LiftScheme(PrpScheme(2, 1)), PkqesScheme(2)],
                         ids=lambda s: s.name)
def test_register_width_is_checked_once_for_both_encryption_paths(scheme):
    # enc is enc_on over the whole plaintext, and every register scheme
    # shares that one guard
    key = scheme.key_gen(Rand(30))
    for width in (1, 3):
        with pytest.raises(ValueError, match=f"register has {width} qubits, scheme expects 2"):
            scheme.enc(key, DensityMatrix.basis(width, 0), rand=Rand(31))
        with pytest.raises(ValueError, match=f"register has {width} qubits, scheme expects 2"):
            scheme.enc_on(key, DensityMatrix.basis(3, 0), list(range(width)), rand=Rand(31))


class TestPkqes:
    def test_roundtrip_battery(self):
        scheme = PkqesScheme(2, modulus_bits=12)
        r = Rand(11)
        pk, sk = scheme.key_gen(r)
        for phi in random_state_battery(2, r, 6):
            back = scheme.dec(sk, scheme.enc(pk, phi, rand=r))
            assert trace_distance(back, phi) < 1e-10

    def test_pinned_r_pad_recomputes(self):
        scheme = PkqesScheme(1, modulus_bits=12)
        r = Rand(12)
        pk, sk = scheme.key_gen(r)
        rr = scheme.inner.sample_domain(pk, r)
        phi = DensityMatrix.random_pure(1, r)
        qc = scheme.enc(pk, phi, r=rr)
        pad = scheme.inner.pad(pk, rr)
        assert trace_distance(qotp_apply(pad, qc.payload), phi) < 1e-10

    def test_distinct_r_gives_distinct_ciphertexts(self):
        scheme = PkqesScheme(1, modulus_bits=12)
        r = Rand(13)
        pk, sk = scheme.key_gen(r)
        phi = DensityMatrix.basis(1, 0)
        distinct = 0
        for _ in range(20):
            a = scheme.enc(pk, phi, rand=r)
            b = scheme.enc(pk, phi, rand=r)
            distinct += trace_distance(a.payload, b.payload) > 1e-9
        # pads collide only when the two draws share all relevant bits
        assert distinct >= 10

    def test_bad_image_rejected(self):
        scheme = PkqesScheme(1, modulus_bits=12)
        r = Rand(14)
        pk, sk = scheme.key_gen(r)
        qc = scheme.enc(pk, DensityMatrix.basis(1, 0), rand=r)
        n = pk[0][0]
        import math

        bad = next(z for z in range(2, n) if math.gcd(z, n) != 1)
        with pytest.raises(ValueError):
            scheme.dec(sk, QCiphertext(qc.payload, r=BitString(bad, qc.r.width)))


def test_fifty_state_correctness_battery():
    # the module-level correctness contract: identity channel within
    # 1e-8 on a 50-state battery of pure, mixed, and purification-reduced
    # inputs, across every scheme kind
    r = Rand(40)
    checked = 0
    for scheme in (
        Skqes1Scheme(2),
        Type2LiftScheme(GoldreichScheme(2)),
        Type2LiftScheme(PrpScheme(1, 1)),
    ):
        key = scheme.key_gen(r)
        for phi in random_state_battery(scheme.n_qubits, r, 17):
            back = scheme.dec(key, scheme.enc(key, phi, rand=r))
            assert trace_distance(back, phi) <= 1e-8
            checked += 1
    assert checked >= 50
