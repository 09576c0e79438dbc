"""Quantum encryption schemes with classical keys.

Two constructions, each a classical scheme plus how it acts on qubits:

  * PadScheme: Pauli-mask the register under the pad of a classical
    scheme that encapsulates one; the classical part that goes with the
    pad travels with the ciphertext as r.  Skqes1Scheme takes the pad
    from a PRF on fresh randomness r (GoldreichScheme; r is a basis
    state in the original formulation, so it is carried classically
    here with identical semantics), and PkqesScheme from the
    iterated-hardcore generator of a trapdoor permutation
    (PkesOwtpScheme; r is the seed's image).
  * Type2LiftScheme: wrap a classical scheme whose pinned-randomness
    encryption is a bijection; encryption conjugates by the in-place
    permutation unitary and decryption by its adjoint.

All operate on DensityMatrix plaintexts so entangled inputs (supplied
as joint states, encrypted on a register) work throughout; a pure one
may be a StateVector, and its ciphertext stays one.  `enc` is `enc_on`
over the whole register, whose width check is the only one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitString
from .quantum import (
    DensityMatrix,
    StateVector,
    apply_unitary,
    partial_trace,
    qotp_apply,
    type2_oracle,
)
from .rng import Rand
from .schemes import GoldreichScheme, PkesOwtpScheme, fresh_r, require_enc_perm


@dataclass
class QCiphertext:
    payload: StateVector | DensityMatrix
    r: BitString | None = None  # the classical part: randomness or the seed's image


class _RegisterScheme:
    """A quantum scheme over a classical one (`inner`) that encrypts
    n_qubits-qubit registers in place."""

    def key_gen(self, rand: Rand):
        return self.inner.key_gen(rand)

    def enc(self, key, phi: StateVector | DensityMatrix, rand: Rand = None, r=None) -> QCiphertext:
        payload, _, r = self.enc_on(key, phi, range(phi.n_qubits), rand, r)
        return QCiphertext(payload, r=r)

    def _check_register(self, targets) -> None:
        if len(targets) != self.n_qubits:
            raise ValueError(f"register has {len(targets)} qubits, scheme expects {self.n_qubits}")


class PadScheme(_RegisterScheme):
    """Pauli masking under the 2n-bit pad that the classical scheme
    `inner` encapsulates; its classical part is carried alongside."""

    def __init__(self, inner, n_qubits: int):
        self.inner = inner
        self.n_qubits = n_qubits
        self.ciphertext_qubits = n_qubits

    def dec(self, key, qc: QCiphertext) -> StateVector | DensityMatrix:
        return qotp_apply(self.inner.decapsulate(key, qc.r), qc.payload)

    def enc_on(self, key, joint: StateVector | DensityMatrix, targets: list[int], rand: Rand = None, r=None):
        """Encrypt a register of a joint state in place.

        Returns (new joint state, ciphertext register indices, r).
        """
        self._check_register(targets)
        pad, r = self.inner.encapsulate(key, rand, r)
        return qotp_apply(pad, joint, targets), list(targets), r


class Skqes1Scheme(PadScheme):
    """PRF-keyed Pauli masking with the randomness carried alongside."""

    name = "skqes-qotp-prf"

    def __init__(self, n_qubits: int, key_bits: int | None = None):
        super().__init__(GoldreichScheme(2 * n_qubits, key_bits=key_bits), n_qubits)
        self.r_bits = 2 * n_qubits
        self.key_bits = self.inner.key_bits


class Type2LiftScheme(_RegisterScheme):
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

    def _unitary(self, key, r):
        perm, _ = self.inner.enc_perm(key, r)
        return type2_oracle(perm)

    def dec(self, key, qc: QCiphertext) -> StateVector | DensityMatrix:
        full = apply_unitary(qc.payload, self._unitary(key, qc.r).inverted())
        if not self.ancilla_qubits:
            return full
        return partial_trace(full, list(range(self.n_qubits)))

    def enc_on(self, key, joint: StateVector | DensityMatrix, targets: list[int],
               rand: Rand = None, r: BitString = None):
        self._check_register(targets)
        # a scheme without randomness (the pad) carries r = None
        r = fresh_r(self.r_bits, rand, r) if self.r_bits else None
        state, targets = joint, list(targets)
        if self.ancilla_qubits:
            state = joint.tensor(type(joint).basis(self.ancilla_qubits, 0))
            targets += range(joint.n_qubits, state.n_qubits)
        return apply_unitary(state, self._unitary(key, r), targets), targets, r


class PkqesScheme(PadScheme):
    """Public-key quantum encryption from a toy trapdoor permutation.

    Keys, seeds, pads and trapdoor inversion are those of the classical
    scheme on 2n-bit messages; the pad Pauli-masks n qubits instead of
    masking bits.
    """

    name = "pkqes-owtp"

    def __init__(self, n_qubits: int, modulus_bits: int = 16):
        super().__init__(PkesOwtpScheme(2 * n_qubits, modulus_bits), n_qubits)
