"""Shared oracles for the test suite.

Expected unitaries are constructed directly as numpy permutation/block
matrices, and expected truth tables are written out by hand, so they stay
independent of the circuit builders they check.
"""
import numpy as np
import pytest

from hexsynth.circuit import Angle, Circuit, Gate, GateKind
from hexsynth.library import BooleanGateKind

K = GateKind

SX_MAT = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)

# each Boolean core's target bit f(c1, c2), keyed 'c2 c1' as `truth_table` keys it
BOOLEAN_TRUTH = {
    BooleanGateKind.AND: {"00": 0, "01": 0, "10": 0, "11": 1},
    BooleanGateKind.NAND: {"00": 1, "01": 1, "10": 1, "11": 0},
    BooleanGateKind.OR: {"00": 0, "01": 1, "10": 1, "11": 1},
    BooleanGateKind.NOR: {"00": 1, "01": 0, "10": 0, "11": 0},
    BooleanGateKind.IMPLICATION: {"00": 1, "01": 0, "10": 1, "11": 1},  # (not c1) or c2
    BooleanGateKind.INHIBITION: {"00": 0, "01": 1, "10": 0, "11": 0},  # c1 and not c2
}


def permutation_unitary(n, mapping):
    """Unitary sending basis index b to mapping(b)."""
    dim = 2 ** n
    u = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        u[mapping(b), b] = 1.0
    return u


def toffoli_unitary():
    """Controls q0, q1; target q2 (basis bit i = qubit i)."""
    return permutation_unitary(3, lambda b: b ^ 0b100 if (b & 0b011) == 0b011 else b)


def fredkin_unitary():
    """Control q0; swaps q1 and q2 when the control is set."""

    def mapping(b):
        if b & 1:
            b1, b2 = (b >> 1) & 1, (b >> 2) & 1
            return (b & 1) | (b2 << 1) | (b1 << 2)
        return b

    return permutation_unitary(3, mapping)


def swap_unitary():
    return permutation_unitary(2, lambda b: ((b & 1) << 1) | ((b >> 1) & 1))


def controlled_gate_unitary(block):
    """Control q0, target q1: identity on c=0, `block` on the target for c=1."""
    u = np.zeros((4, 4), dtype=complex)
    for b in range(4):
        c, t = b & 1, (b >> 1) & 1
        if c == 0:
            u[b, b] = 1.0
        else:
            for t2 in (0, 1):
                u[(t2 << 1) | 1, b] = block[t2, t]
    return u


def is_unitary(mat, atol=1e-12):
    return bool(np.allclose(mat.conj().T @ mat, np.eye(mat.shape[0]), atol=atol))


def probability_of_one(state, qubit):
    """p(qubit=1) in a Statevector."""
    mask = (np.arange(2 ** state.n) >> qubit) & 1 == 1
    return float(np.sum(np.abs(state.amps[mask]) ** 2))


_RANDOM_1Q = (K.X, K.Y, K.Z, K.H, K.SX, K.SXDG, K.S, K.SDG, K.T, K.TDG)
_RANDOM_2Q = (K.CX, K.CY, K.CZ, K.SWAP)


def random_clifford_t_circuit(rng, width, length):
    """A random Clifford+T circuit (with occasional k*pi/4 rotations) from a
    `random.Random`."""
    gates = []
    for _ in range(length):
        roll = rng.random()
        if width >= 2 and roll < 0.35:
            kind = rng.choice(_RANDOM_2Q)
            a, b = rng.sample(range(width), 2)
            gates.append(Gate(kind, (a, b)))
        elif roll < 0.85:
            gates.append(Gate(rng.choice(_RANDOM_1Q), (rng.randrange(width),)))
        else:
            kind = rng.choice((K.RZ, K.RY))
            gates.append(Gate(kind, (rng.randrange(width),), Angle.pi_frac(rng.randrange(-7, 8), 4)))
    return Circuit(width=width, gates=tuple(gates), name="random")


def map_data(cmap):
    """A coupling map as the JSON object `load_map` reads."""
    return {"name": cmap.name, "num_qubits": cmap.num_qubits,
            "edges": sorted([a, b] for a, b in cmap.edges)}


@pytest.fixture(scope="session")
def brisbane():
    from hexsynth.layout import heavy_hex_127

    return heavy_hex_127()
