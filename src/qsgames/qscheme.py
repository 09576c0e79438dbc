"""Quantum encryption schemes with classical keys.

Three constructions:

  * Skqes1Scheme: Pauli-mask the plaintext under a pad derived from a
    PRF on fresh classical randomness r; r travels with the ciphertext.
    The r register is a basis state in the original formulation, so it
    is carried classically here with identical semantics.
  * Type2LiftScheme: wrap a classical scheme whose pinned-randomness
    encryption is a bijection; encryption conjugates by the in-place
    permutation unitary and decryption by its adjoint.
  * PkqesScheme: public-key variant, pad from the iterated-hardcore
    generator of a trapdoor permutation, image of the seed attached.

All operate on DensityMatrix plaintexts so entangled inputs (supplied
as joint states, encrypted on a register) work throughout.  In the two
secret-key schemes `enc` is `enc_on` over the whole register, whose
width check is the only one, and r comes from schemes.fresh_r.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bits import BitString
from .prf import make_prf
from .quantum import (
    DensityMatrix,
    apply_unitary,
    partial_trace,
    qotp_apply,
    type2_oracle,
)
from .rng import Rand
from .schemes import PkesOwtpScheme, fresh_r, owtp_eval, require_enc_perm


@dataclass
class QCiphertext:
    payload: DensityMatrix
    r: BitString | None = None
    image: BitString | None = None  # trapdoor-permutation image (public-key case)


class Skqes1Scheme:
    """PRF-keyed Pauli masking with the randomness carried alongside."""

    name = "skqes-qotp-prf"

    def __init__(self, n_qubits: int, key_bits: int | None = None):
        self.n_qubits = n_qubits
        self.pad_bits = 2 * n_qubits
        self.r_bits = 2 * n_qubits
        self.key_bits = 2 * n_qubits if key_bits is None else key_bits
        self.ciphertext_qubits = n_qubits
        self._prf = functools.lru_cache(maxsize=1)(
            functools.partial(make_prf, in_bits=self.r_bits, out_bits=self.pad_bits))

    def key_gen(self, rand: Rand) -> BitString:
        return rand.bits(self.key_bits)

    def pad_for(self, key: BitString, r: BitString) -> BitString:
        return self._prf(key).eval(r)

    def enc(self, key: BitString, phi: DensityMatrix, rand: Rand = None, r: BitString = None) -> QCiphertext:
        payload, _, r = self.enc_on(key, phi, range(phi.n_qubits), rand, r)
        return QCiphertext(payload, r=r)

    def dec(self, key: BitString, qc: QCiphertext) -> DensityMatrix:
        return qotp_apply(self.pad_for(key, qc.r), qc.payload)

    def enc_on(self, key: BitString, joint: DensityMatrix, targets: list[int],
               rand: Rand = None, r: BitString = None):
        """Encrypt a register of a joint state in place.

        Returns (new joint state, ciphertext register indices, r).
        """
        if len(targets) != self.n_qubits:
            raise ValueError(f"register has {len(targets)} qubits, scheme expects {self.n_qubits}")
        r = fresh_r(self.r_bits, rand, r)
        return qotp_apply(self.pad_for(key, r), joint, targets), list(targets), r


class Type2LiftScheme:
    """Quantum scheme built from the in-place unitaries of a classical one.

    The inner scheme must expose enc_perm(key, r): the bijection its
    pinned-randomness encryption induces on perm_bits bits.  Plaintext
    registers hold msg_bits qubits; expanding schemes gain ancilla
    qubits prepared in |0> (the honest slice).
    """

    def __init__(self, inner):
        require_enc_perm(inner)
        self.inner = inner
        self.name = f"type2-lift({inner.name})"
        self.n_qubits = inner.msg_bits
        self.ciphertext_qubits = inner.perm_bits
        self.ancilla_qubits = inner.perm_bits - inner.msg_bits
        self.r_bits = inner.r_bits

    def key_gen(self, rand: Rand):
        return self.inner.key_gen(rand)

    def _unitary(self, key, r):
        perm, _ = self.inner.enc_perm(key, r)
        return type2_oracle(perm)

    def enc(self, key, phi: DensityMatrix, rand: Rand = None, r: BitString = None) -> QCiphertext:
        payload, _, r = self.enc_on(key, phi, range(phi.n_qubits), rand, r)
        return QCiphertext(payload, r=r)

    def dec(self, key, qc: QCiphertext) -> DensityMatrix:
        full = apply_unitary(qc.payload, self._unitary(key, qc.r).inverted())
        if not self.ancilla_qubits:
            return full
        return partial_trace(full, list(range(self.n_qubits)))

    def enc_on(self, key, joint: DensityMatrix, targets: list[int],
               rand: Rand = None, r: BitString = None):
        if len(targets) != self.n_qubits:
            raise ValueError(f"register has {len(targets)} qubits, scheme expects {self.n_qubits}")
        # a scheme without randomness (the pad) carries r = None
        r = fresh_r(self.r_bits, rand, r) if self.r_bits else None
        state, targets = joint, list(targets)
        if self.ancilla_qubits:
            state = joint.tensor(DensityMatrix.basis(self.ancilla_qubits, 0))
            targets += range(joint.n_qubits, state.n_qubits)
        return apply_unitary(state, self._unitary(key, r), targets), targets, r


class PkqesScheme:
    """Public-key quantum encryption from a toy trapdoor permutation.

    Keys, seeds, pads and trapdoor inversion are those of the classical
    scheme on 2n-bit messages; the pad Pauli-masks n qubits instead of
    masking bits.
    """

    name = "pkqes-owtp"

    def __init__(self, n_qubits: int, modulus_bits: int = 16):
        self.n_qubits = n_qubits
        self.pad_bits = 2 * n_qubits
        self.modulus_bits = modulus_bits
        self.ciphertext_qubits = n_qubits
        self.classical = PkesOwtpScheme(self.pad_bits, modulus_bits)

    def key_gen(self, rand: Rand):
        return self.classical.key_gen(rand)

    def sample_domain(self, pk, rand: Rand) -> int:
        return self.classical.sample_domain(pk, rand)

    def enc(self, pk, phi: DensityMatrix, rand: Rand = None, r: int | None = None) -> QCiphertext:
        index, _mask = pk
        if phi.n_qubits != self.n_qubits:
            raise ValueError("plaintext register width mismatch")
        if r is None:
            r = self.sample_domain(pk, rand)
        pad = self.classical.pad(pk, r)
        z = owtp_eval(index, r)
        return QCiphertext(qotp_apply(pad, phi), image=BitString(z, index[0].bit_length()))

    def dec(self, sk, qc: QCiphertext) -> DensityMatrix:
        r = self.classical.seed_of(sk, qc.image.value)
        return qotp_apply(self.classical.pad(sk[:2], r), qc.payload)
