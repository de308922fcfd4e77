"""Exact dense statevector and unitary simulation for small circuits.

A leaf layer over `circuit`: it knows gates and wires, not the gate
library.  It gives states, dense unitaries, unitary equivalence at three
strengths (global phase, relative phase, classical), Boolean truth tables
whose target is checked deterministic after one batched sweep, Pauli
conjugation by Clifford gates, and q-sphere points as plain {"basis",
"magnitude", "phase"} records.  Its errors are `SimulationError`, a
`CircuitError`.

One kernel, `_apply_matrix`, applies every gate: the amplitudes are
reshaped so each acted-on wire is an axis of two, and each output slice of
those axes is written from the input slices its matrix row names.  A
diagonal gate scales its slices in place, a one-wire gate with a two-term
row (H, SX, RY) is one matmul, and any other gate is a term-wise product:
CX and SWAP are four copies, ECR eight multiply-adds.  Amplitudes may carry
trailing batch columns, so `apply` (one state), `unitary_of` (the
identity's 2^n columns) and `truth_table` (one basis column per control
assignment) all call the one sweep over the gates, `_sweep`, which copies
its input once and then moves between two buffers of its own.  One grader,
`equivalence_levels`, grades a stack of matrices against one reference:
`equivalence` grades dense unitaries with it, and the configuration search
the 2x2 target blocks of its row tables.  It flattens the stack to one
row per matrix, so every overlap tr(U^dagger . ref) is one einsum with the
flattened reference (no BLAS call, so no BLAS thread pool to wake), and
it refuses a stack whose matrices do not have the reference's shape.  One
rule, `target_bits`, decides a measured target: `truth_table` applies it
to its control assignments, and the search to the branches of its core
configurations.

Matrix conventions:
  - basis index bit i corresponds to qubit i (qubit 0 least significant);
  - two-qubit matrices are indexed (control_bit << 1) | target_bit;
  - RZ(g) = diag(e^{-ig/2}, e^{+ig/2}), while Z/S/T are the phase-form
    diag(1, e^{i phi}) gates, so Z and RZ(pi) differ by a global phase;
  - ECR = (IX - XY)/sqrt(2) in control (x) target ordering.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circuit import Angle, Circuit, CircuitError, GateKind

ATOL_NORM = 1e-10
ATOL_UNITARY = 1e-12
ATOL_EQUIV = 1e-9
ATOL_QSPHERE = 1e-12  # amplitudes at or below this are not q-sphere points
MAX_UNITARY_QUBITS = 12
# 2^20 amplitudes of complex128 are 16 MiB; the family's widest gate has 7 qubits
MAX_STATEVECTOR_QUBITS = 20


class SimulationError(CircuitError):
    """Raised for width mismatches, resource-guard violations, and
    circuits that fail a determinism or equatorial-form requirement; a
    CircuitError, so every input path has the one error root."""


# ---------------------------------------------------------------------------
# gate matrices

_SQ2 = 1.0 / math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)

_FIXED_1Q = {
    GateKind.I: _I2,
    GateKind.X: _X,
    GateKind.Y: _Y,
    GateKind.Z: _Z,
    GateKind.H: _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    GateKind.SXDG: 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex),
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
    GateKind.T: np.diag([1, cmath.exp(1j * math.pi / 4)]).astype(complex),
    GateKind.TDG: np.diag([1, cmath.exp(-1j * math.pi / 4)]).astype(complex),
}

_FIXED_2Q = {
    GateKind.CX: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    GateKind.CY: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]], dtype=complex),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
    GateKind.SWAP: np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    GateKind.ECR: _SQ2 * (np.kron(_I2, _X) - np.kron(_X, _Y)),
}
# shared, never copied: a caller that writes to one raises
for _m in (*_FIXED_1Q.values(), *_FIXED_2Q.values()):
    _m.flags.writeable = False


def gate_matrix(kind: GateKind, angle: Angle | None = None) -> np.ndarray:
    """The unitary matrix of a gate kind under the package conventions
    (read-only for the fixed kinds)."""
    if kind in _FIXED_1Q:
        return _FIXED_1Q[kind]
    if kind in _FIXED_2Q:
        return _FIXED_2Q[kind]
    if angle is None:
        raise SimulationError(f"{kind.value} requires an angle")
    g = angle.radians
    if kind is GateKind.RZ:
        return np.diag([cmath.exp(-1j * g / 2), cmath.exp(1j * g / 2)]).astype(complex)
    if kind is GateKind.RY:
        c, s = math.cos(g / 2), math.sin(g / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    raise SimulationError(f"no matrix for {kind.value}")


# ---------------------------------------------------------------------------
# states

@dataclass(frozen=True)
class Statevector:
    """n-qubit pure state; amps[b] is the amplitude of |q_{n-1} ... q_0> = b."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        object.__setattr__(self, "amps", amps)
        if amps.shape != (2 ** self.n,):
            raise SimulationError(f"expected {2 ** self.n} amplitudes, got {amps.shape}")
        if abs(np.linalg.norm(amps) - 1.0) > ATOL_NORM:
            raise SimulationError("state is not normalized")

    @staticmethod
    def _check_width(n: int) -> None:
        if n > MAX_STATEVECTOR_QUBITS:
            raise SimulationError(f"statevectors support at most {MAX_STATEVECTOR_QUBITS} qubits, "
                                  f"got {n}")

    @staticmethod
    def basis(n: int, bits: dict[int, int]) -> "Statevector":
        """Computational basis state with the given {qubit: bit} values (others 0);
        a qubit outside 0..n-1 or a bit other than 0/1 is a SimulationError."""
        Statevector._check_width(n)
        if not all(type(q) is int and 0 <= q < n and bit in (0, 1) for q, bit in bits.items()):
            raise SimulationError(f"basis bits {bits} must set qubits 0..{n - 1} to 0 or 1")
        index = sum(int(bit) << q for q, bit in bits.items())
        amps = np.zeros(2 ** n, dtype=complex)
        amps[index] = 1.0
        return Statevector(n, amps)


# the slice of a wires-first view that holds local index i: one wire, two wires
_SLICES = {2: ((0,), (1,)), 4: ((0, 0), (0, 1), (1, 0), (1, 1))}
_SCALE, _MATMUL, _TERMS = "scale", "matmul", "terms"


@functools.lru_cache(maxsize=256)
def _form(data: bytes, dim: int) -> tuple:
    """How `_apply_matrix` applies a complex dim x dim matrix, read from its
    entries.  They come as bytes, so the cache keys on the matrix's content
    and never on the gate it belongs to:

      - (_SCALE, ((i, d), ...)): a diagonal matrix, by its entries d != 1;
      - (_MATMUL, ()): a one-wire matrix with a row of two terms (H, SX, RY);
      - (_TERMS, ((i, j, c, more), ...)): any other, each output slice i with
        its row's first nonzero entry c, in column j, and the rest as
        more = ((j, c), ...); a zero row keeps one zero term.

    i and j name slices of the wires-first view (`_SLICES`).
    """
    slices = _SLICES[dim]
    rows = np.frombuffer(data, dtype=complex).reshape(dim, dim).tolist()
    terms = [[(slices[j], c) for j, c in enumerate(row) if c] or [(slices[0], 0j)] for row in rows]
    if all(len(row) == 1 and row[0][0] is slices[i] for i, row in enumerate(terms)):
        return _SCALE, tuple((slices[i], row[i]) for i, row in enumerate(rows) if row[i] != 1)
    if dim == 2 and any(len(row) > 1 for row in terms):
        return _MATMUL, ()
    return _TERMS, tuple((slices[i], *row[0], tuple(row[1:])) for i, row in enumerate(terms))


def _apply_matrix(amps: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int,
                  spare: np.ndarray) -> np.ndarray:
    """Apply a complex one- or two-qubit matrix at the given qubit positions
    (qubits[0] = MSB of the local index); `amps` may carry trailing batch
    axes.

    The amplitudes are reshaped so each acted-on wire is an axis of two and
    viewed with those axes first, so slice i of the view holds every
    amplitude whose local index is i; nothing is copied.  The matrix's own
    entries pick the product (`_form`): a diagonal matrix scales its slices
    in place; a one-wire matrix with a row of two terms is one matmul; any
    other writes each output slice as the sum, over its row's nonzero
    entries, of coefficient x input slice.  So X, CX, CY, CZ and SWAP are
    scaled copies, ECR eight multiply-adds, and no contraction is left.

    The result is written over `amps` or into `spare`, the same shape, and
    that array is returned.
    """
    form, terms = _form(mat.tobytes(), len(mat))
    shape, axes = _wire_axes(qubits, n, amps.size >> n)
    if form is _MATMUL:
        np.matmul(mat, amps.reshape(shape), out=spare.reshape(shape))
        return spare
    src = amps.reshape(shape).transpose(axes)
    if form is _SCALE:
        for i, d in terms:
            src[i] *= d
        return amps
    dst = spare.reshape(shape).transpose(axes)
    for i, j, c, more in terms:
        if c == 1:
            dst[i] = src[j]
        else:
            np.multiply(src[j], c, out=dst[i])
        for j, c in more:
            dst[i] += c * src[j]
    return spare


@functools.lru_cache(maxsize=256)
def _wire_axes(qubits: tuple[int, ...], n: int, rest: int) -> tuple[tuple, tuple]:
    """The shape that gives each acted-on wire an axis of two, and the
    transpose that puts those axes first, qubits[0] leading."""
    if len(qubits) == 1:
        q = qubits[0]
        return (2 ** (n - 1 - q), 2, (2 ** q) * rest), (1, 0, 2)
    a, b = qubits
    hi, lo = max(a, b), min(a, b)
    shape = (2 ** (n - 1 - hi), 2, 2 ** (hi - lo - 1), 2, (2 ** lo) * rest)
    return shape, (1, 3, 0, 2, 4) if a == hi else (3, 1, 0, 2, 4)


def _sweep(amps: np.ndarray, circuit: Circuit) -> np.ndarray:
    """The circuit's gates applied in order to amplitudes over its wires
    (trailing batch axes ride along): the one gate loop of the module.
    `amps` is copied once, into the first of two buffers the sweep owns;
    each gate writes over the current buffer or into the other, and the two
    swap roles when it writes into the other.  The caller's array is left
    as it is."""
    amps = amps.astype(complex)
    spare = np.empty_like(amps)
    n = circuit.width
    for g in circuit.gates:
        if _apply_matrix(amps, gate_matrix(g.kind, g.angle), g.qubits, n, spare) is spare:
            amps, spare = spare, amps
    return amps


def apply(circuit: Circuit, state: Statevector) -> Statevector:
    """Left-to-right application of the circuit's gates to a state."""
    if state.n != circuit.width:
        raise SimulationError(f"state has {state.n} qubits, circuit has {circuit.width}")
    return Statevector(circuit.width, _sweep(state.amps, circuit))


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (guarded to 12 qubits)."""
    if circuit.width > MAX_UNITARY_QUBITS:
        raise SimulationError(f"unitary_of supports at most {MAX_UNITARY_QUBITS} qubits")
    return _sweep(np.eye(2 ** circuit.width, dtype=complex), circuit)


# ---------------------------------------------------------------------------
# Clifford conjugation of Pauli gates

_CLIFFORD_1Q = (GateKind.I, GateKind.X, GateKind.Y, GateKind.Z, GateKind.H,
                GateKind.SX, GateKind.SXDG, GateKind.S, GateKind.SDG)
_PAULIS = (GateKind.X, GateKind.Y, GateKind.Z)


def pauli_conjugate(c: GateKind, p: GateKind) -> tuple[GateKind, int]:
    """Resolve C . P . C^dagger to a signed Pauli, by matrix comparison."""
    if c not in _CLIFFORD_1Q:
        raise SimulationError(f"{c.value} is not a single-qubit Clifford gate")
    if p not in _PAULIS:
        raise SimulationError(f"{p.value} is not a Pauli gate")
    cm = gate_matrix(c)
    m = cm @ gate_matrix(p) @ cm.conj().T
    for cand in _PAULIS:
        pm = gate_matrix(cand)
        if np.allclose(m, pm, atol=ATOL_UNITARY):
            return cand, +1
        if np.allclose(m, -pm, atol=ATOL_UNITARY):
            return cand, -1
    raise SimulationError(f"{c.value} . {p.value} . {c.value}^dagger is not a signed Pauli")


# ---------------------------------------------------------------------------
# equivalence checking

class EquivalenceLevel(Enum):
    L1_GLOBAL_PHASE = 3
    L2_RELATIVE_PHASE = 2
    L3_CLASSICAL = 1
    NONE = 0

    def at_least(self, other: "EquivalenceLevel") -> bool:
        return self.value >= other.value


# the levels as module names, strongest first: the grader's loop reads no Enum attribute
_L1, _L2, _L3, _NONE = EquivalenceLevel


def equivalence_levels(us: np.ndarray, ref: np.ndarray) -> list[EquivalenceLevel]:
    """Strongest equivalence level of each matrix of a stack (n, r, c) against
    one (r, c) unitary `ref`.  The tests read entries only: tr(Ua^dagger . Ub)
    is the sum of conj(Ua) * Ub, and the dimension is the row count r.  So a
    block-diagonal unitary may be passed as its diagonal blocks stacked
    row-wise; the entries off the blocks are zero on both sides.

    The stack is flattened to (n, r*c): every overlap is one einsum with the
    flattened `ref`, and the magnitude tests are row maxima of the same flat
    arrays.  Each matrix must have `ref`'s shape (a transposed stack of the
    same size would flatten alike), else SimulationError; an empty stack
    grades as []."""
    if us.shape[1:] != ref.shape:
        raise SimulationError(f"stack of {us.shape[1:]} matrices graded against a "
                              f"{ref.shape} reference")
    if not len(us):
        return []
    flat, ref_flat = us.reshape(len(us), -1), ref.ravel()
    overlap = (np.abs(np.einsum("ij,j->i", flat.conj(), ref_flat)) / ref.shape[0]).tolist()
    mags, ref_mags = np.abs(flat), np.abs(ref_flat)
    l2 = (np.abs(mags - ref_mags).max(axis=1) <= ATOL_EQUIV).tolist()
    # column j of |U|^2 is the output distribution for basis input j
    l3 = (np.abs(mags ** 2 - ref_mags ** 2).max(axis=1) <= ATOL_EQUIV).tolist()
    return [_L1 if o >= 1 - ATOL_EQUIV else _L2 if a else _L3 if b else _NONE
            for o, a, b in zip(overlap, l2, l3)]


def equivalence(a: Circuit, b: Circuit) -> EquivalenceLevel:
    """Strongest equivalence level of two circuits of one width."""
    if a.width != b.width:
        raise SimulationError(f"width mismatch: {a.width} vs {b.width}")
    return equivalence_levels(unitary_of(a)[None], unitary_of(b))[0]


# ---------------------------------------------------------------------------
# truth tables

def truth_table(circuit: Circuit, target: int, controls, ancillas=()) -> dict[str, int]:
    """Measure the Boolean function on `target` over all control assignments.

    `controls` lists control qubits least-significant first, so the key for
    an assignment is the bit string 'c_k ... c_2 c_1' ('' with no controls).
    Target and ancillas start in |0>; ancillas may end dirty.  One batch
    sweep takes every assignment as a basis column; then the first, ascending,
    that is not normalized or leaves the target non-deterministic raises.
    """
    controls = tuple(controls)
    wires = (target,) + controls + tuple(ancillas)
    if len(set(wires)) != len(wires):
        raise SimulationError("target, controls, and ancillas must be distinct wires")
    n, k = circuit.width, len(controls)
    if any(q < 0 or q >= n for q in wires):
        raise SimulationError(f"target, controls, and ancillas must be wires 0..{n - 1}")
    Statevector._check_width(n)
    norms, p1s = [], []
    # columns per batch: at most 2^MAX_STATEVECTOR_QUBITS amplitudes in all
    step = 2 ** max(0, MAX_STATEVECTOR_QUBITS - n)
    for start in range(0, 2 ** k, step):
        ms = np.arange(start, min(start + step, 2 ** k))
        index = sum(((ms >> j) & 1) << q for j, q in enumerate(controls))
        amps = np.zeros((2 ** n, len(ms)), dtype=complex)
        amps[index, np.arange(len(ms))] = 1.0
        amps = _sweep(amps, circuit)
        norms += np.linalg.norm(amps, axis=0).tolist()
        target_one = amps.reshape(2 ** (n - 1 - target), 2, 2 ** target, -1)[:, 1]
        p1s += np.sum(np.abs(target_one) ** 2, axis=(0, 1)).tolist()
    keys = [_bits(m, k) for m in range(2 ** k)]
    bits, deterministic = target_bits(np.array(p1s))
    for key, norm, p1, ok in zip(keys, norms, p1s, deterministic.tolist()):
        if abs(norm - 1.0) > ATOL_NORM:
            raise SimulationError("state is not normalized")
        if not ok:
            raise SimulationError(f"non-deterministic target for controls {key}: p(1)={p1:.6f}")
    return dict(zip(keys, bits.astype(int).tolist()))


def target_bits(p1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The determinism rule of a measured target, entry by entry over an
    array of p(target=1): the target is deterministic where p lies within
    ATOL_NORM of 0 or 1, and its bit is 1 where p lies within ATOL_NORM of
    1.  Returns (bits, deterministic), two bool arrays of p1's shape."""
    one = p1 >= 1 - ATOL_NORM
    return one, one | (p1 <= ATOL_NORM)


def _bits(b: int, n: int) -> str:
    """b as n bits, most significant first ('' for n = 0)."""
    return format(b | 1 << n, "b")[1:]  # the leading 1 keeps b's leading zeros


def truth_string(table: dict[str, int]) -> str:
    """Flatten a truth table to a string over ascending assignments (00,01,...)."""
    return "".join(str(table[k]) for k in sorted(table))


# ---------------------------------------------------------------------------
# q-sphere data

def qsphere(state: Statevector) -> list[dict]:
    """Nonzero basis amplitudes as {"basis", "magnitude", "phase"} records,
    each labelled |q_{n-1} ... q_0>, its phase in radians in [0, 2*pi)
    relative to the first record's (a phase within 1e-12 of 2*pi reads 0.0)."""
    index = np.flatnonzero(np.abs(state.amps) > ATOL_QSPHERE).tolist()
    # Python scalars keep the printed records: np.abs and np.angle round some last bits apart
    amps = state.amps[index].tolist()
    phases = [(cmath.phase(a) - cmath.phase(amps[0])) % (2 * math.pi) for a in amps]
    return [{"basis": _bits(b, state.n), "magnitude": abs(a),
             "phase": 0.0 if abs(p - 2 * math.pi) < 1e-12 else p}
            for b, a, p in zip(index, amps, phases)]
