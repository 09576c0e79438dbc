"""Exact small-scale quantum state simulation.

Statevectors over at most QUBIT_CAP qubits, density matrices and
classical-function oracles over at most DENSITY_QUBIT_CAP (checked
before the dense 2**n x 2**n matrix is allocated), the gate set needed
by the games (Hadamard, Paulis, CNOT, SWAP, classical oracles), the
Pauli masking scheme, partial trace, trace distance, and the
averaged-permutation channel with its closed form.  Oracles are basis
permutations, kept as prf.Permutation index maps; their dense matrix is
built only when read.

Conventions: qubit 0 is the most significant bit of the basis index,
so |x, y> lives at index x * 2**|y| + y.  Every kernel views a state
as a tensor with one axis per qubit index: n axes for a statevector,
2n for a density matrix (row qubit t on axis t, column qubit t on
axis n + t).  States are compared through density matrices or
overlap, never raw amplitudes, since global phase is unphysical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .bits import BitString
from .prf import Permutation
from .rng import Rand, TableCache

QUBIT_CAP = 12
DENSITY_QUBIT_CAP = 10  # one complex 2**n x 2**n matrix: 16 MiB at 10 qubits
ATOL_STATE = 1e-10
ATOL_POS = 1e-8
ATOL_UNITARY = 1e-8

# debug mode re-validates every state produced by a gate, oracle, or
# mask application instead of only user-constructed ones
DEBUG_CHECKS = os.environ.get("QSGAMES_DEBUG", "").strip() in ("1", "true", "yes")

_SQ2 = 1.0 / np.sqrt(2.0)

GATES = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "SWAP": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def _check_cap(n: int) -> None:
    if n > QUBIT_CAP:
        raise ValueError(f"{n} qubits exceed the simulation cap {QUBIT_CAP}")
    if n < 1:
        raise ValueError("need at least one qubit")


def _check_density_cap(n: int) -> None:
    if n > DENSITY_QUBIT_CAP:
        mib = 16 << (2 * n) >> 20
        raise ValueError(f"a dense {n}-qubit matrix ({mib} MiB) exceeds the density-matrix "
                         f"cap of {DENSITY_QUBIT_CAP} qubits")
    _check_cap(n)


@dataclass
class StateVector:
    n_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        _check_cap(self.n_qubits)
        self.amps = np.asarray(self.amps, dtype=complex).reshape(-1)
        if self.amps.shape != (1 << self.n_qubits,):
            raise ValueError("amplitude array has wrong length")
        if abs(np.vdot(self.amps, self.amps).real - 1.0) > ATOL_STATE * 10:
            raise ValueError("state is not normalized")

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        return cls.basis(n_qubits, 0)

    @classmethod
    def random(cls, n_qubits: int, rand: Rand) -> "StateVector":
        gen = rand.numpy()
        v = gen.normal(size=1 << n_qubits) + 1j * gen.normal(size=1 << n_qubits)
        return cls(n_qubits, v / np.linalg.norm(v))

    def density(self) -> "DensityMatrix":
        # projector onto a normalized vector, valid by construction
        _check_density_cap(self.n_qubits)
        return DensityMatrix(self.n_qubits, np.outer(self.amps, self.amps.conj()), check=False)

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(self.n_qubits + other.n_qubits, np.kron(self.amps, other.amps))

    def overlap(self, other: "StateVector") -> float:
        """|<self|other>|^2, the phase-insensitive comparison."""
        return float(abs(np.vdot(self.amps, other.amps)) ** 2)


@dataclass
class DensityMatrix:
    n_qubits: int
    mat: np.ndarray
    check: bool = field(default=True, repr=False)

    def __post_init__(self):
        _check_density_cap(self.n_qubits)
        self.mat = np.asarray(self.mat, dtype=complex)
        dim = 1 << self.n_qubits
        if self.mat.shape != (dim, dim):
            raise ValueError("matrix has wrong shape")
        if self.check:
            self.validate()

    def validate(self) -> None:
        if not np.allclose(self.mat, self.mat.conj().T, atol=1e-10):
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(self.mat).real - 1.0) > 1e-10:
            raise ValueError("trace is not 1")
        if np.linalg.eigvalsh(self.mat).min() < -ATOL_POS:
            raise ValueError("matrix is not positive semidefinite")

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> "DensityMatrix":
        _check_density_cap(n_qubits)
        dim = 1 << n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        mat[index, index] = 1.0
        return cls(n_qubits, mat, check=False)

    @classmethod
    def random_pure(cls, n_qubits: int, rand: Rand) -> "DensityMatrix":
        return StateVector.random(n_qubits, rand).density()

    @classmethod
    def random_mixed(cls, n_qubits: int, rand: Rand, env_qubits: int = None) -> "DensityMatrix":
        """Reduced state of a random purification on n + env qubits."""
        env = n_qubits if env_qubits is None else env_qubits
        return partial_trace(StateVector.random(n_qubits + env, rand), list(range(n_qubits)))

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        _check_density_cap(self.n_qubits + other.n_qubits)
        return DensityMatrix(self.n_qubits + other.n_qubits, np.kron(self.mat, other.mat), check=False)


def maximally_mixed(n_qubits: int) -> DensityMatrix:
    _check_density_cap(n_qubits)
    dim = 1 << n_qubits
    return DensityMatrix(n_qubits, np.eye(dim, dtype=complex) / dim, check=False)


@dataclass
class UnitaryOp:
    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 1 << self.n_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError("matrix has wrong shape")
        err = np.abs(self.matrix @ self.matrix.conj().T - np.eye(dim)).max()
        if err > ATOL_UNITARY:
            raise ValueError(f"matrix is not unitary (deviation {err:.2e})")


# ---------------------------------------------------------------------------
# gate application
# ---------------------------------------------------------------------------


def _state_array(state, action: str) -> tuple[np.ndarray, int]:
    """The array of a state and the number of qubit-index halves it has:
    1 for the amplitudes of a StateVector, 2 for a density matrix."""
    if isinstance(state, StateVector):
        return state.amps, 1
    if isinstance(state, DensityMatrix):
        return state.mat, 2
    raise TypeError(f"cannot {action} {type(state).__name__}")


def _same_kind(state, data: np.ndarray, check: bool):
    """A state of the kind and width of state, holding data in any shape."""
    n = state.n_qubits
    if isinstance(state, StateVector):
        return StateVector(n, data)
    return DensityMatrix(n, data.reshape(1 << n, 1 << n), check=check)


def _resolve_gate(gate):
    """A Permutation as it is, any other gate as its matrix."""
    if isinstance(gate, Permutation):
        return gate
    if isinstance(gate, str):
        if gate not in GATES:
            raise ValueError(f"unknown gate {gate!r}")
        return GATES[gate]
    if isinstance(gate, UnitaryOp):
        return gate.matrix
    return np.asarray(gate, dtype=complex)


def _check_targets(targets: list[int], k_needed: int, n: int) -> None:
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubits")
    if len(targets) != k_needed:
        raise ValueError(f"gate acts on {k_needed} qubits, got {len(targets)} targets")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target {t} out of range for {n} qubits")


def apply_gate(state, gate, targets: list[int]):
    """Apply a named gate, raw matrix, UnitaryOp or Permutation to the
    target qubits.

    Works on StateVector and DensityMatrix alike: U acts on the row
    axes and conj(U) on the column axes; a Permutation is a gather
    through its inverse map on the same axes.  Preserves norm/trace by
    unitarity.
    """
    data, halves = _state_array(state, "apply gates to")
    op = _resolve_gate(gate)
    is_perm = isinstance(op, Permutation)
    k = op.domain_bits if is_perm else int(np.log2(op.shape[0]))
    n = state.n_qubits
    _check_targets(targets, k, n)
    if not is_perm:
        ut = op.reshape([2] * (2 * k))
    front = list(range(k))
    # the tensor shape is kept between the halves: a flatten there costs
    # a copy of the whole matrix
    psi = data.reshape([2] * (halves * n))
    for half in range(halves):
        axes = [half * n + t for t in targets]
        if is_perm:
            moved = np.moveaxis(psi, axes, front)
            psi = moved.reshape(1 << k, -1).take(op.inverse, axis=0).reshape(moved.shape)
        else:
            u = ut if half == 0 else ut.conj()
            psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, front, axes)
    return _same_kind(state, psi, DEBUG_CHECKS)


def apply_unitary(state, op: UnitaryOp | Permutation, targets: list[int] | None = None):
    targets = list(range(op.n_qubits)) if targets is None else targets
    return apply_gate(state, op, targets)


# ---------------------------------------------------------------------------
# classical-function oracles
# ---------------------------------------------------------------------------


def type1_oracle(f, in_bits: int, out_bits: int) -> Permutation:
    """Canonical reversible embedding |x, y> -> |x, y xor f(x)>.

    Unitary even for non-injective f; the table must cover the full
    input space.
    """
    table = np.asarray(f, dtype=np.int64)
    if table.shape != (1 << in_bits,):
        raise ValueError(f"function table must have {1 << in_bits} entries")
    if table.min() < 0 or table.max() >= (1 << out_bits):
        raise ValueError("table values do not fit the output width")
    _check_density_cap(in_bits + out_bits)
    z = np.arange(1 << (in_bits + out_bits), dtype=np.int64)
    x = z >> out_bits
    y = z & ((1 << out_bits) - 1)
    return Permutation(in_bits + out_bits, (x << out_bits) | (y ^ table[x]))


def type2_oracle(perm: Permutation) -> Permutation:
    """In-place encryption unitary |x> -> |perm(x)>: perm itself, within
    the density-matrix cap; its adjoint is perm.inverted()."""
    _check_density_cap(perm.domain_bits)
    return perm


def _compose_maps(*steps: np.ndarray) -> np.ndarray:
    total = steps[0]
    for step in steps[1:]:
        total = step[total]
    return total


def type1_from_type2(enc2: Permutation, dec2: Permutation) -> Permutation:
    """Build the xor-style oracle from in-place gate access.

    Circuit on registers (A, B) of d qubits each: apply enc2 on A, copy
    A into B with transversal CNOTs, then dec2 on A.  Equality with
    type1_oracle on the full space is exact.
    """
    if not isinstance(enc2, Permutation) or not isinstance(dec2, Permutation):
        raise ValueError("conversion needs permutation-style operators")
    d = enc2.domain_bits
    if dec2.domain_bits != d:
        raise ValueError("width mismatch between encryption and decryption operators")
    if not np.array_equal(dec2.forward[enc2.forward], np.arange(1 << d)):
        raise ValueError("operators are not mutually inverse")
    _check_density_cap(2 * d)
    size = 1 << (2 * d)
    z = np.arange(size, dtype=np.int64)
    a, b = z >> d, z & ((1 << d) - 1)
    step_enc = (enc2.forward[a] << d) | b
    step_copy = (a << d) | (b ^ a)
    step_dec = (dec2.forward[a] << d) | b
    return Permutation(2 * d, _compose_maps(step_enc, step_copy, step_dec))


def type2_from_type1(enc1: Permutation, dec1: Permutation) -> Permutation:
    """Build the in-place operator from xor-style enc/dec oracles.

    Circuit on registers (A, B): enc1 with input A and output B, dec1
    with input B and output A (uncomputing A), then SWAP.  On the
    honest slice B = |0> this sends |x, 0> to |Enc(x), 0>.
    """
    if enc1.domain_bits != dec1.domain_bits or enc1.domain_bits % 2:
        raise ValueError("operators must act on matching (x, y) registers")
    two_d = enc1.domain_bits
    _check_density_cap(two_d)
    if not isinstance(enc1, Permutation) or not isinstance(dec1, Permutation):
        raise ValueError("conversion needs permutation-style operators")
    d = two_d // 2
    size = 1 << two_d
    z = np.arange(size, dtype=np.int64)
    a, b = z >> d, z & ((1 << d) - 1)
    # f and g tables recovered from the oracles' action on y = 0
    xs = np.arange(1 << d, dtype=np.int64)
    f = enc1.forward[xs << d] & ((1 << d) - 1)
    g = dec1.forward[xs << d] & ((1 << d) - 1)
    step_enc = (a << d) | (b ^ f[a])
    step_dec = ((a ^ g[b]) << d) | b
    step_swap = (b << d) | a
    return Permutation(two_d, _compose_maps(step_enc, step_dec, step_swap))


# ---------------------------------------------------------------------------
# cached index tables
# ---------------------------------------------------------------------------

# Every table of a 3-qubit block fits the budget (about 8 KiB).  It
# stays small because long-lived tables split the free heap that large
# density matrices reuse: 256 KiB of 6-qubit tables raised the peak RSS
# of a run that also simulates 10 qubits by 8 MB.
_TABLES = TableCache(64 << 10)


# ---------------------------------------------------------------------------
# Pauli masking (two key bits per qubit)
# ---------------------------------------------------------------------------


def _flip_index(n: int, flip: int, ndim: int) -> np.ndarray:
    """Source index of the X^flip basis permutation: into the amplitudes
    (ndim 1), or into the flattened density matrix as a (row, col) grid
    (ndim 2)."""
    src = np.arange(1 << n) ^ flip
    return src if ndim == 1 else (src[:, None] << n) | src[None, :]


def _sign_phase(n: int, sign: int, ndim: int) -> np.ndarray:
    """The +-1 pattern of Z^sign: on the amplitudes (ndim 1), or its
    outer product with itself on a density matrix (ndim 2)."""
    idx = np.arange(1 << n)
    phase = 1.0 - 2.0 * (np.bitwise_count(idx & sign) & 1)
    return phase if ndim == 1 else phase[:, None] * phase[None, :]


def qotp_apply(key: BitString, state, targets: list[int] | None = None):
    """X^a Z^b mask on each target qubit (every qubit, in order, by
    default), two key bits per target in list order; self-inverse for a
    fixed key.

    The whole mask is one basis permutation (the X bits) composed with
    a diagonal sign pattern (the Z bits): one gather through a cached
    index and one multiply by a cached phase.
    """
    n = getattr(state, "n_qubits", None)
    if n is None:
        raise ValueError(f"key of width {key.width} cannot mask a {type(state).__name__}")
    if targets is None:
        targets = range(n)
    else:
        _check_targets(targets, len(targets), n)
    k = len(targets)
    if key.width != 2 * k:
        raise ValueError(f"key of width {key.width} cannot mask {k} qubits")
    flip = sign = 0
    v = key.value
    for j, t in enumerate(targets):
        # key bits 2j, 2j+1 (bit 0 is the most significant): X, then Z
        pair = (v >> (2 * (k - 1 - j))) & 3
        flip |= (pair >> 1) << (n - 1 - t)
        sign |= (pair & 1) << (n - 1 - t)
    data, halves = _state_array(state, "mask")
    # take reads a density matrix flattened in row-major order
    out = _TABLES.get(_sign_phase, n, sign, halves) * data.take(_TABLES.get(_flip_index, n, flip, halves))
    return _same_kind(state, out, DEBUG_CHECKS)


# ---------------------------------------------------------------------------
# partial trace, trace distance, measurement
# ---------------------------------------------------------------------------


def partial_trace(state, keep: list[int]) -> DensityMatrix:
    """Reduce to the kept qubits (original relative order preserved)."""
    dm = state.density() if isinstance(state, StateVector) else state
    if not keep:
        raise ValueError("keep set must be non-empty")
    n = dm.n_qubits
    keep = sorted(keep)
    if keep[0] < 0 or keep[-1] >= n or len(set(keep)) != len(keep):
        raise ValueError("keep indices out of range")
    drop = [q for q in range(n) if q not in keep]
    rho = dm.mat.reshape([2] * (2 * n))
    for q in sorted(drop, reverse=True):
        rho = np.trace(rho, axis1=q, axis2=q + (rho.ndim // 2))
    dim = 1 << len(keep)
    return DensityMatrix(len(keep), rho.reshape(dim, dim), check=False)


def trace_distance(rho, sigma) -> float:
    """Half the sum of absolute eigenvalues of the difference."""
    a = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    b = sigma.mat if isinstance(sigma, DensityMatrix) else np.asarray(sigma)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    eig = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(eig).sum())


def measure_computational(state, targets: list[int], rand: Rand, force: int | None = None):
    """Measure target qubits in the computational basis.

    Returns (outcome BitString in target order, collapsed state of the
    same kind).  Forcing a zero-probability branch is an error.
    """
    data, halves = _state_array(state, "measure")
    n = state.n_qubits
    _check_targets(targets, len(targets), n)
    other, order, outcome_of = _TABLES.get(_measure_tables, n, tuple(targets))
    # outcome probabilities: squared amplitudes, or the diagonal
    weights = np.abs(data) ** 2 if halves == 1 else np.real(np.diag(data))
    probs = weights.reshape([2] * n)
    probs = probs.sum(axis=other) if other else probs
    probs = np.transpose(probs, order).reshape(-1)
    outcome = _pick_outcome(probs, rand, force)
    # the projector is a basis mask on each half, so collapse is elementwise
    sel = outcome_of == outcome
    post = np.where(sel if halves == 1 else sel[:, None] & sel[None, :], data, 0.0)
    post /= np.linalg.norm(post) if halves == 1 else probs[outcome]
    return BitString(outcome, len(targets)), _same_kind(state, post, False)


def _measure_tables(n: int, targets: tuple) -> tuple:
    """(untouched axes, the transpose that puts the remaining axes in
    target order, the outcome each basis index belongs to)."""
    other = tuple(q for q in range(n) if q not in targets)
    order = tuple(int(a) for a in np.argsort(np.argsort(targets)))
    idx = np.arange(1 << n)
    outcome_of = np.zeros(1 << n, dtype=idx.dtype)
    for t in targets:
        outcome_of = (outcome_of << 1) | ((idx >> (n - 1 - t)) & 1)
    return other, order, outcome_of


def _pick_outcome(probs: np.ndarray, rand: Rand, force: int | None) -> int:
    total = probs.sum()
    if force is not None:
        if probs[force] / total < 1e-12:
            raise ValueError("forced branch has zero probability")
        return force
    # draw against the last cumulative sum, which can fall short of
    # probs.sum(); the right-side search never lands on a zero weight
    cum = np.cumsum(probs)
    u = rand.numpy().random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    if idx < len(probs):
        return idx
    # u rounded up to the top: take the last outcome with weight
    return int(np.flatnonzero(probs > 0)[-1])


# ---------------------------------------------------------------------------
# circuit descriptions
# ---------------------------------------------------------------------------


@dataclass
class CircuitDescription:
    """Constructive classical description of a state: a gate list applied
    to |0...0>, with a declared output register."""

    wires: int
    gates: list
    out: list[int] | None = None

    def __post_init__(self):
        self.out = list(range(self.wires)) if self.out is None else list(self.out)
        for w in self.out:
            if not 0 <= w < self.wires:
                raise ValueError("output register outside the wire range")

    def to_json(self) -> str:
        return json.dumps({"wires": self.wires, "gates": self.gates, "out": self.out})

    @classmethod
    def from_json(cls, payload: str) -> "CircuitDescription":
        obj = json.loads(payload)
        return cls(obj["wires"], obj["gates"], obj.get("out"))


def build_from_description(desc: CircuitDescription):
    """Run the described circuit from |0...0> and return the state on the
    declared output register (reduced to a DensityMatrix when proper)."""
    state = StateVector.zero(desc.wires)
    for gate in desc.gates:
        name = gate["g"]
        targets = list(gate["t"])
        if name == "ORACLE":
            op = type1_oracle(gate["f"], gate["in_bits"], gate["out_bits"])
            state = apply_unitary(state, op, targets)
        else:
            state = apply_gate(state, name, targets)
    if sorted(desc.out) == list(range(desc.wires)):
        return state
    return partial_trace(state, desc.out)


# ---------------------------------------------------------------------------
# averaged-permutation channel
# ---------------------------------------------------------------------------


def avg_perm_channel(rho: DensityMatrix, r_bits: int, msg_qubits: int | None = None) -> DensityMatrix:
    """Closed-form average of: attach |0^r>, apply a uniformly random
    permutation of the computational basis on the last msg+r qubits.

    Splits into a diagonal part (reduction of the input tensored with
    the maximally mixed state) and an off-diagonal correction carried
    by the uniform off-diagonal matrix; both follow from averaging
    |p(y||0)><p(y'||0)| over all permutations p.
    """
    m = rho.n_qubits if msg_qubits is None else msg_qubits
    env = rho.n_qubits - m
    _check_density_cap(rho.n_qubits + r_bits)
    c = m + r_bits
    n_c = 1 << c
    dim_env = 1 << env
    dim_m = 1 << m

    blocks = rho.mat.reshape(dim_env, dim_m, dim_env, dim_m)
    full_sum = blocks.sum(axis=(1, 3))            # sum over y, y'
    diag_sum = np.trace(blocks, axis1=1, axis2=3)  # sum over y == y'
    off_sum = full_sum - diag_sum

    tau = np.eye(n_c, dtype=complex) / n_c
    chi_c = (np.ones((n_c, n_c), dtype=complex) - np.eye(n_c)) / (n_c * (n_c - 1))
    out = np.kron(diag_sum, tau) + np.kron(off_sum, chi_c)
    return DensityMatrix(env + c, out, check=False)


def avg_perm_channel_sampled(
    rho: DensityMatrix, r_bits: int, rand: Rand, samples: int, msg_qubits: int | None = None
) -> DensityMatrix:
    """Monte-Carlo estimate of the same channel over random permutations."""
    m = rho.n_qubits if msg_qubits is None else msg_qubits
    env = rho.n_qubits - m
    c = m + r_bits
    attached = _attach_ancilla(rho, env, r_bits)
    acc = np.zeros_like(attached.mat)
    gen = rand.numpy()
    targets = list(range(env, env + c))
    for _ in range(samples):
        acc += apply_gate(attached, Permutation(c, gen.permutation(1 << c)), targets).mat
    return DensityMatrix(attached.n_qubits, acc / samples, check=False)


def _attach_ancilla(rho: DensityMatrix, env: int, r_bits: int) -> DensityMatrix:
    """rho with |0^r><0^r| inserted behind its message register: qubits
    (env, m) become (env, m, r)."""
    _check_density_cap(rho.n_qubits + r_bits)
    de, dm, dr = 1 << env, 1 << (rho.n_qubits - env), 1 << r_bits
    anc = np.zeros((dr, dr), dtype=complex)
    anc[0, 0] = 1.0
    out = np.einsum("aibj,kl->aikbjl", rho.mat.reshape(de, dm, de, dm), anc)
    return DensityMatrix(rho.n_qubits + r_bits, out.reshape(de * dm * dr, -1), check=False)
