import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexsynth import rules, simulator
from hexsynth.circuit import Angle, Circuit, CircuitError, Gate, GateKind
from hexsynth.library import (AX_ENTRIES, BOOLEAN_TABLE, GATES, SUPERPOSITION_KINDS, THETA_KINDS,
                              BooleanGateKind, CoreSpec, build_gate, core_gates)
from hexsynth.rules import STAGE_NAMES, phase_trace
from hexsynth.simulator import (ATOL_NORM, EquivalenceLevel, SimulationError, Statevector,
                                _apply_matrix, apply, equivalence, equivalence_levels, gate_matrix,
                                pauli_conjugate, qsphere, truth_string, truth_table, unitary_of)

from conftest import is_unitary, probability_of_one, random_clifford_t_circuit, toffoli_unitary

K = GateKind


def G(kind, *qubits, angle=None):
    return Gate(kind, tuple(qubits), angle)


def reference_apply_matrix(amps, mat, qubits, n):
    """The former kernel: move the acted-on axes to the front, multiply,
    move them back."""
    k = len(qubits)
    batch = amps.shape[1:] if amps.ndim > 1 else ()
    t = amps.reshape((2,) * n + batch)
    axes = [n - 1 - q for q in qubits]
    t = np.moveaxis(t, axes, range(k))
    shape = t.shape
    t = mat @ t.reshape(2 ** k, -1)
    t = np.moveaxis(t.reshape(shape), range(k), axes)
    return t.reshape((2 ** n,) + batch)


def reference_truth_table(circuit, target, controls):
    """The former truth table: one full `apply` per control assignment."""
    k = len(controls)
    table = {}
    for m in range(2 ** k):
        bits = {q: (m >> j) & 1 for j, q in enumerate(controls)}
        p1 = probability_of_one(apply(circuit, Statevector.basis(circuit.width, bits)), target)
        if p1 >= 1 - ATOL_NORM:
            table[format(m, f"0{k}b")] = 1
        elif p1 <= ATOL_NORM:
            table[format(m, f"0{k}b")] = 0
        else:
            raise SimulationError(f"non-deterministic target for controls {m:0{k}b}: p(1)={p1:.6f}")
    return table


def reference_qsphere(state):
    """The former q-sphere reader: one Python step per amplitude, as records."""
    ref, points = None, []
    for b, amp in enumerate(state.amps):
        if abs(amp) <= simulator.ATOL_QSPHERE:
            continue
        if ref is None:
            ref = cmath.phase(amp)
        label = "".join(str((b >> q) & 1) for q in reversed(range(state.n)))
        phase = (cmath.phase(amp) - ref) % (2 * math.pi)
        if abs(phase - 2 * math.pi) < 1e-12:
            phase = 0.0
        points.append({"basis": label, "magnitude": float(abs(amp)), "phase": phase})
    return points


def reference_phase_trace(core, control_state):
    """The former trace: a 3-qubit statevector through every stage."""
    if len(control_state) != 2 or any(ch not in "01" for ch in control_state):
        raise SimulationError(f"control_state must be two bits, got {control_state!r}")
    c2, c1 = int(control_state[0]), int(control_state[1])
    state = Statevector.basis(3, {0: c1, 2: c2})
    labels = []
    # the nine stages of the gate list, AX folded into the SP stages
    flat = core_gates(core, c1=0, t=1, c2=2)
    head, tail = 1 + len(AX_ENTRIES[core.ax1]), len(AX_ENTRIES[core.ax2]) + 1
    stages = list(zip(STAGE_NAMES, [flat[:head], *([g] for g in flat[head:-tail]), flat[-tail:]]))
    for idx, (name, gates) in enumerate(stages):
        fires = not ((name == "CX_c2" and c2 == 0) or (name == "CX_c1" and c1 == 0))
        amps = state.amps
        for g in gates:
            amps = _apply_matrix(amps.copy(), gate_matrix(g.kind, g.angle), g.qubits, 3,
                                 np.empty_like(amps))
        state = Statevector(3, amps)
        if not fires:
            labels.append("-")
            continue
        base = (c2 << 2) | c1
        psi = np.array([state.amps[base], state.amps[base | 0b010]])
        if idx == len(stages) - 1 and abs(psi[0]) > 1 - 1e-9:
            labels.append("|0>")
        elif idx == len(stages) - 1 and abs(psi[1]) > 1 - 1e-9:
            labels.append("|1>")
        else:
            labels.append(rules._equatorial_label(psi))
    return labels


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestGateMatrix:
    def test_rz_pi_is_minus_i_z(self):
        m = gate_matrix(K.RZ, Angle.pi_frac(1))
        assert np.allclose(m, -1j * gate_matrix(K.Z))

    def test_identity(self):
        assert np.allclose(gate_matrix(K.I), np.eye(2))

    def test_h_is_involution(self):
        h = gate_matrix(K.H)
        assert np.allclose(h @ h, np.eye(2))

    @pytest.mark.parametrize("kind", list(K))
    def test_all_matrices_unitary(self, kind):
        angle = Angle.pi_frac(3, 4) if kind.takes_angle else None
        assert is_unitary(gate_matrix(kind, angle))

    def test_sx_squares_to_x(self):
        sx = gate_matrix(K.SX)
        assert np.allclose(sx @ sx, gate_matrix(K.X))

    def test_ecr_self_inverse(self):
        e = gate_matrix(K.ECR)
        assert np.allclose(e @ e, np.eye(4))

    def test_rotation_needs_an_angle(self):
        with pytest.raises(SimulationError, match="^rz requires an angle$"):
            gate_matrix(K.RZ)

    @pytest.mark.parametrize("kind", [K.X, K.T, K.CX, K.ECR])
    def test_fixed_matrices_are_shared_and_read_only(self, kind):
        m = gate_matrix(kind)
        assert m is gate_matrix(kind)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
        assert gate_matrix(kind)[0, 0] != 2.0


class TestApplyAndUnitary:
    def test_empty_circuit_preserves_state(self):
        v = Statevector.basis(2, {0: 1})
        out = apply(Circuit(2), v)
        assert np.allclose(out.amps, v.amps)

    def test_width_mismatch(self):
        with pytest.raises(SimulationError):
            apply(Circuit(2, (G(K.H, 0),)), Statevector.basis(3, {}))

    def test_x_unitary(self):
        u = unitary_of(Circuit(1, (G(K.X, 0),)))
        assert np.allclose(u, [[0, 1], [1, 0]])

    def test_sdg_x_s_equals_y(self):
        # temporal [Sdg, X, S] composes to the matrix product S.X.Sdg = Y
        c = Circuit(1, (G(K.SDG, 0), G(K.X, 0), G(K.S, 0)))
        assert np.allclose(unitary_of(c), gate_matrix(K.Y))

    def test_cx_involution(self):
        u = unitary_of(Circuit(2, (G(K.CX, 0, 1), G(K.CX, 0, 1))))
        assert np.allclose(u, np.eye(4))

    def test_apply_matches_unitary(self):
        c = Circuit(3, (G(K.H, 0), G(K.CX, 0, 2), G(K.T, 2), G(K.CZ, 1, 2)))
        u = unitary_of(c)
        for b in range(8):
            v = Statevector(3, np.eye(8)[b])
            assert np.allclose(apply(c, v).amps, u[:, b])

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(3)
        import random as _random

        r = _random.Random(5)
        for _ in range(20):
            c = random_clifford_t_circuit(r, 3, 25)
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            out = apply(c, Statevector(3, amps))
            assert abs(np.linalg.norm(out.amps) - 1) < 1e-10

    def test_unitary_guard(self):
        with pytest.raises(SimulationError):
            unitary_of(Circuit(13))

    def test_statevector_shape_and_norm_checked(self):
        with pytest.raises(SimulationError, match=r"^expected 2 amplitudes, got \(3,\)$"):
            Statevector(1, [1, 0, 0])
        with pytest.raises(SimulationError, match="^state is not normalized$"):
            Statevector(1, [1, 1])

    def test_statevector_guard(self):
        # raised before the 2^n amplitudes are allocated
        with pytest.raises(SimulationError, match="at most 20 qubits"):
            Statevector.basis(40, {})
        with pytest.raises(SimulationError, match="at most 20 qubits"):
            Statevector.basis(40, {0: 1})
        with pytest.raises(SimulationError):
            truth_table(Circuit(40), target=1, controls=(0,))

    @pytest.mark.parametrize("bits", [{5: 1}, {-1: 1}, {0: 3}])
    def test_basis_rejects_a_bad_bit(self, bits):
        # a qubit outside 0..n-1 or a bit other than 0/1
        with pytest.raises(SimulationError, match=r"must set qubits 0\.\.1 to 0 or 1"):
            Statevector.basis(2, bits)

    def test_unitary_unitarity(self):
        c = Circuit(2, (G(K.H, 0), G(K.ECR, 0, 1), G(K.SXDG, 1)))
        assert is_unitary(unitary_of(c))


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (3,)]))
    def test_every_qubit_and_ordered_pair(self, n, seed, batch):
        rng = np.random.default_rng(seed)
        shape = (2 ** n,) + batch
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        sites = [(q,) for q in range(n)]
        sites += [(a, b) for a in range(n) for b in range(n) if a != b]
        for qubits in sites:
            mat = random_unitary(rng, 2 ** len(qubits))
            got = _apply_matrix(amps.copy(), mat, qubits, n, np.empty_like(amps))
            assert got.shape == shape
            assert np.allclose(got, reference_apply_matrix(amps, mat, qubits, n), rtol=0, atol=1e-12)


ANGLE_FREE_KINDS = [k for k in K if not k.takes_angle]


def reference_unitary(circuit):
    """A circuit's unitary swept with the former kernel."""
    u = np.eye(2 ** circuit.width, dtype=complex)
    for g in circuit.gates:
        u = reference_apply_matrix(u, gate_matrix(g.kind, g.angle), g.qubits, circuit.width)
    return u


class TestTermWiseKernel:
    # every fixed matrix: diagonal (Z, S, T, CZ), monomial (X, Y, CX, CY,
    # SWAP), dense (H, SX) and rows of two terms on two wires (ECR)
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_fixed_matrix_on_every_site(self, n):
        rng = np.random.default_rng(n)
        for batch in [(), (3,), (2 ** n,)]:
            shape = (2 ** n,) + batch
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            before = amps.copy()
            for kind in ANGLE_FREE_KINDS:
                sites = ([(q,) for q in range(n)] if kind.arity == 1 else
                         [(a, b) for a in range(n) for b in range(n) if a != b])
                for qubits in sites:
                    mat = gate_matrix(kind)
                    want = reference_apply_matrix(amps, mat, qubits, n)
                    # the result is in one of the two buffers
                    work, spare = amps.copy(), np.empty_like(amps)
                    out = _apply_matrix(work, mat, qubits, n, spare)
                    assert out is work or out is spare
                    assert out.shape == shape
                    assert np.allclose(out, want, rtol=0, atol=1e-12), (kind, qubits, batch)
            assert np.array_equal(amps, before)

    @pytest.mark.parametrize("kind", [K.RZ, K.RY])
    @pytest.mark.parametrize("angle", [Angle.pi_frac(1, 4), Angle.pi_frac(-1, 3),
                                       Angle.from_radians(0.3), Angle.pi_frac(1)])
    def test_rotations(self, kind, angle):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=(32, 3)) + 1j * rng.normal(size=(32, 3))
        for q in range(5):
            mat = gate_matrix(kind, angle)
            got = _apply_matrix(amps.copy(), mat, (q,), 5, np.empty_like(amps))
            assert np.allclose(got, reference_apply_matrix(amps, mat, (q,), 5), rtol=0, atol=1e-12)


MIXED = Circuit(3, (G(K.T, 0), G(K.CZ, 2, 0), G(K.S, 1), G(K.H, 1), G(K.CX, 1, 2), G(K.X, 0),
                    G(K.ECR, 0, 2), G(K.SWAP, 2, 1), G(K.RZ, 2, angle=Angle.pi_frac(1, 3))))
DIAGONAL = Circuit(3, (G(K.T, 0), G(K.CZ, 2, 0), G(K.S, 1), G(K.Z, 2)))


class TestCallersKeepTheirArrays:
    @pytest.mark.parametrize("circuit", [MIXED, DIAGONAL])
    def test_apply_leaves_the_state(self, circuit):
        rng = np.random.default_rng(11)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = Statevector(3, amps / np.linalg.norm(amps))
        before = state.amps.copy()
        out = apply(circuit, state)
        assert np.array_equal(state.amps, before)
        assert not np.shares_memory(out.amps, state.amps)
        assert np.allclose(out.amps, reference_unitary(circuit) @ before, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("circuit", [MIXED, DIAGONAL])
    def test_sweep_leaves_its_input(self, circuit):
        eye = np.eye(8, dtype=complex)
        u = simulator._sweep(eye, circuit)
        assert np.array_equal(eye, np.eye(8))
        assert not np.shares_memory(u, eye)

    @pytest.mark.parametrize("circuit", [MIXED, DIAGONAL])
    def test_unitaries_share_no_buffer(self, circuit):
        u = unitary_of(circuit)
        want = u.copy()
        u[:] = 0
        again = unitary_of(circuit)
        assert np.array_equal(again, want)
        assert not np.shares_memory(again, u)

    def test_gate_matrices_are_only_read(self, monkeypatch):
        # writeable copies in place of the shared read-only matrices
        before = {}
        for table in (simulator._FIXED_1Q, simulator._FIXED_2Q):
            for kind, m in list(table.items()):
                before[kind] = m.copy()
                monkeypatch.setitem(table, kind, m.copy())
        gate = build_gate("nand3")
        (target,) = gate.target_qubits()
        assert truth_table(gate, target, gate.control_qubits()) == {"00": 1, "01": 1, "10": 1,
                                                                    "11": 0}
        unitary_of(MIXED)
        apply(MIXED, Statevector.basis(3, {}))
        assert all(np.array_equal(gate_matrix(kind), m) for kind, m in before.items())


class TestRegistryUnitaries:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_matches_the_reference_sweep(self, name):
        gate = build_gate(name)
        assert np.allclose(unitary_of(gate), reference_unitary(gate), rtol=0, atol=1e-12)


class TestPauliConjugate:
    # the six book rows: C . P . C^dagger = (sign) P'
    @pytest.mark.parametrize("c,p,want,sign", [
        (K.H, K.Z, K.X, +1),
        (K.S, K.X, K.Y, +1),
        (K.H, K.X, K.Z, +1),
        (K.Z, K.X, K.X, -1),
        (K.Z, K.Y, K.Y, -1),
        (K.X, K.Z, K.Z, -1),
    ])
    def test_table_rows(self, c, p, want, sign):
        assert pauli_conjugate(c, p) == (want, sign)

    def test_identity_fixes_paulis(self):
        assert pauli_conjugate(K.I, K.Y) == (K.Y, +1)

    def test_every_clifford_pauli_pair_resolves(self):
        cliffords = (K.I, K.X, K.Y, K.Z, K.H, K.SX, K.SXDG, K.S, K.SDG)
        for c in cliffords:
            for p in (K.X, K.Y, K.Z):
                pauli, sign = pauli_conjugate(c, p)
                assert pauli in (K.X, K.Y, K.Z) and sign in (-1, +1)

    def test_non_clifford_rejected(self):
        with pytest.raises(SimulationError):
            pauli_conjugate(K.T, K.X)

    def test_non_pauli_rejected(self):
        with pytest.raises(SimulationError, match="^h is not a Pauli gate$"):
            pauli_conjugate(K.H, K.H)


class TestEquivalence:
    def test_reflexive_l1(self):
        c = build_gate("and3")
        assert equivalence(c, c) is EquivalenceLevel.L1_GLOBAL_PHASE

    def test_symmetric(self):
        a = build_gate("and3")
        b = build_gate("nand3")
        assert equivalence(a, b) is equivalence(b, a)

    def test_global_phase_only_is_l1(self):
        a = Circuit(1, (G(K.Z, 0),))
        b = Circuit(1, (G(K.RZ, 0, angle=Angle.pi_frac(1)),))
        assert equivalence(a, b) is EquivalenceLevel.L1_GLOBAL_PHASE

    def test_relative_phase_is_l2(self):
        a = Circuit(1, (G(K.I, 0), G(K.I, 0)))
        b = Circuit(1, (G(K.Z, 0),))
        assert equivalence(a, b) is EquivalenceLevel.L2_RELATIVE_PHASE

    def test_distinct_functions_none(self):
        a = Circuit(1, (G(K.X, 0),))
        b = Circuit(1,)
        assert equivalence(a, b) is EquivalenceLevel.NONE

    def test_width_mismatch(self):
        with pytest.raises(SimulationError):
            equivalence(Circuit(1), Circuit(2))

    def test_ordering(self):
        assert EquivalenceLevel.L1_GLOBAL_PHASE.at_least(EquivalenceLevel.L3_CLASSICAL)
        assert not EquivalenceLevel.L3_CLASSICAL.at_least(EquivalenceLevel.L2_RELATIVE_PHASE)


def graded_variants(ref):
    """Matrices of every level against `ref`, with the level each should
    get: a global phase (L1); row and column phases (L2); row phases, then
    two rows mixed by a 1e-5 rotation, which moves magnitudes by 1e-5 and
    squared magnitudes by 1e-10 (L3); the rows reversed or the columns
    rotated (NONE)."""
    dim = len(ref)
    rows = np.diag(np.exp(1j * np.pi / 4 * np.arange(dim)))
    cols = np.diag(np.exp(-1j * np.pi / 3 * (np.arange(ref.shape[1]) % 3)))
    eps = 1e-5
    mix = np.eye(dim, dtype=complex)
    mix[:2, :2] = [[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]]
    return [(np.exp(0.7j) * ref, EquivalenceLevel.L1_GLOBAL_PHASE),
            (-ref, EquivalenceLevel.L1_GLOBAL_PHASE),
            (rows @ ref @ cols, EquivalenceLevel.L2_RELATIVE_PHASE),
            (rows @ ref, EquivalenceLevel.L2_RELATIVE_PHASE),
            (mix @ rows @ ref, EquivalenceLevel.L3_CLASSICAL),
            (mix @ rows @ ref @ cols, EquivalenceLevel.L3_CLASSICAL),
            (ref[::-1], EquivalenceLevel.NONE),
            (np.roll(ref, 1, axis=1), EquivalenceLevel.NONE)]


def reference_equivalence_levels(us, ref):
    """The former grader: the overlaps by `einsum` over the unflattened
    stack, the level by `np.select`."""
    overlap = np.abs(np.einsum("nij,ij->n", us.conj(), ref)) / ref.shape[0]
    mags, ref_mags = np.abs(us), np.abs(ref)
    l2 = np.max(np.abs(mags - ref_mags), axis=(1, 2)) <= simulator.ATOL_EQUIV
    l3 = np.max(np.abs(mags ** 2 - ref_mags ** 2), axis=(1, 2)) <= simulator.ATOL_EQUIV
    value = np.select([overlap >= 1 - simulator.ATOL_EQUIV, l2, l3], [3, 2, 1], 0)
    return [EquivalenceLevel(v) for v in value.tolist()]


def block_diagonal(blocks):
    """The 8x8 matrix with four 2x2 blocks on its diagonal."""
    u = np.zeros((8, 8), dtype=complex)
    for b, block in enumerate(blocks):
        u[2 * b:2 * b + 2, 2 * b:2 * b + 2] = block
    return u


class TestBatchedGrader:
    def test_stack_equals_one_pair_at_a_time(self):
        ref = toffoli_unitary()
        stack, levels = zip(*graded_variants(ref))
        assert set(levels) == set(EquivalenceLevel)
        assert [equivalence_levels(u[None], ref)[0] for u in stack] == list(levels)
        assert equivalence_levels(np.array(stack), ref) == list(levels)
        assert reference_equivalence_levels(np.array(stack), ref) == list(levels)

    def test_block_diagonal_pair_grades_as_its_stacked_blocks(self):
        # the AND oracle's blocks: X on branch 3, identity on the others
        ref = np.array([gate_matrix(K.I)] * 3 + [gate_matrix(K.X)])
        variants = [(np.array(blocks), level) for blocks, level in
                    [([np.exp(0.3j) * b for b in ref], EquivalenceLevel.L1_GLOBAL_PHASE),
                     ([ref[0], gate_matrix(K.Z), gate_matrix(K.S), ref[3]],
                      EquivalenceLevel.L2_RELATIVE_PHASE),
                     ([ref[0], ref[1], ref[2], gate_matrix(K.Y)], EquivalenceLevel.L2_RELATIVE_PHASE),
                     ([ref[0], ref[1], ref[2], ref[0]], EquivalenceLevel.NONE)]]
        variants += [(v.reshape(4, 2, 2), level)
                     for v, level in graded_variants(ref.reshape(8, 2))]
        stack, levels = zip(*variants)
        dense = [equivalence_levels(block_diagonal(b)[None], block_diagonal(ref))[0] for b in stack]
        assert dense == list(levels)
        assert equivalence_levels(np.array(stack).reshape(-1, 8, 2), ref.reshape(8, 2)) == dense
        assert reference_equivalence_levels(np.array(stack).reshape(-1, 8, 2), ref.reshape(8, 2)) == dense
        assert [reference_equivalence_levels(block_diagonal(b)[None], block_diagonal(ref))[0]
                for b in stack] == dense

    def test_equals_the_former_grader_on_every_search_hit(self):
        # every configuration of the space that is a hit of some target:
        # the level its row table holds is the former grader's on its dense
        # blocks L . T . F, stacked per function against that function's
        # oracle blocks
        middles, last = rules._middles(), rules._LAST.reshape(30, 2, 2)
        graded = 0
        for sp1, ax1 in itertools.product(SUPERPOSITION_KINDS, AX_ENTRIES):
            first = rules._FIRST[rules._SP_INDEX[sp1], rules._AX_INDEX[ax1]]
            table = rules._row_table(sp1, ax1).reshape(256, 30)
            t, j = np.nonzero(table != rules._UNDECIDED)
            found, blocks = table[t, j], last[j, None] @ middles[t] @ first
            for code in set((found >> 2).tolist()):
                sel = found >> 2 == code
                oracle = rules._FLIP[[int(b) for b in format(code, "04b")]].reshape(8, 2)
                levels = reference_equivalence_levels(blocks[sel].reshape(-1, 8, 2), oracle)
                assert [level.value for level in levels] == (found[sel] & 3).tolist()
                graded += len(levels)
        assert graded == 14912

    def test_rejects_a_stack_of_another_shape(self):
        ref = np.array([gate_matrix(K.I)] * 3 + [gate_matrix(K.X)]).reshape(8, 2)
        stack = np.array([ref, -ref])
        assert equivalence_levels(stack, ref) == [EquivalenceLevel.L1_GLOBAL_PHASE] * 2
        # the same entry count, transposed: the flat form must not grade it
        for bad in (stack.transpose(0, 2, 1), stack.reshape(2, 4, 4), ref, stack[None]):
            with pytest.raises(SimulationError, match="matrices graded against a"):
                equivalence_levels(bad, ref)

    def test_empty_stack_grades_as_empty(self):
        ref = toffoli_unitary()
        assert equivalence_levels(np.zeros((0, 8, 8), dtype=complex), ref) == []
        assert equivalence_levels(np.zeros((0, 8, 2), dtype=complex), ref[:, :2]) == []
        with pytest.raises(SimulationError):
            equivalence_levels(np.zeros((0, 2, 8), dtype=complex), ref[:, :2])


class TestTruthTable:
    def test_and_gate(self):
        tt = truth_table(build_gate("and3"), target=1, controls=(0, 2))
        assert tt == {"00": 0, "01": 0, "10": 0, "11": 1}

    def test_nor_gate(self):
        tt = truth_table(build_gate("nor3"), target=1, controls=(0, 2))
        assert tt == {"00": 1, "01": 0, "10": 0, "11": 0}

    def test_implication_gate(self):
        tt = truth_table(build_gate("imp3"), target=1, controls=(0, 2))
        assert tt == {"00": 1, "01": 0, "10": 1, "11": 1}

    def test_no_controls_keys_the_empty_assignment(self):
        # one assignment, the empty one: its key is '' (not '0', the key of
        # a one-control table's first row)
        assert truth_table(Circuit(1), target=0, controls=()) == {"": 0}
        table = truth_table(Circuit(2, (G(K.X, 1),)), target=1, controls=(), ancillas=(0,))
        assert table == {"": 1} and truth_string(table) == "1"

    def test_truth_string_ordering(self):
        assert truth_string({"00": 1, "01": 0, "10": 0, "11": 0}) == "1000"

    def test_nondeterministic_target_rejected(self):
        c = Circuit(2, (G(K.H, 1),), name="half")
        with pytest.raises(SimulationError, match="non-deterministic"):
            truth_table(c, target=1, controls=(0,))


BOOLEAN_FAMILY = ("and3", "nand3", "or3", "nor3", "imp3", "inh3", "and4", "and5", "pos5", "sop5")


class TestBatchedTruthTable:
    @pytest.mark.parametrize("name", BOOLEAN_FAMILY)
    def test_matches_per_assignment_apply(self, name):
        gate = build_gate(name)
        (target,) = gate.target_qubits()
        got = truth_table(gate, target, gate.control_qubits(), gate.ancilla_qubits())
        assert got == reference_truth_table(gate, target, gate.control_qubits())

    @pytest.mark.parametrize("name", ["and4", "sop5"])
    def test_column_blocks_smaller_than_the_table(self, name, monkeypatch):
        gate = build_gate(name)
        (target,) = gate.target_qubits()
        want = truth_table(gate, target, gate.control_qubits(), gate.ancilla_qubits())
        # two columns per batch at this width
        monkeypatch.setattr(simulator, "MAX_STATEVECTOR_QUBITS", gate.width + 1)
        assert truth_table(gate, target, gate.control_qubits(), gate.ancilla_qubits()) == want

    def test_first_nondeterministic_assignment_is_named(self):
        # controls q0, q2; the ancilla q3 holds c1 xor c2 and rotates the
        # target off the axis only then: assignments 01 and 10 are both bad
        c = Circuit(4, (G(K.CX, 0, 3), G(K.CX, 2, 3), G(K.RY, 1, angle=Angle.pi_frac(-1, 4)),
                        G(K.CX, 3, 1), G(K.RY, 1, angle=Angle.pi_frac(1, 4))))
        with pytest.raises(SimulationError) as want:
            reference_truth_table(c, target=1, controls=(0, 2))
        assert str(want.value) == "non-deterministic target for controls 01: p(1)=0.500000"
        with pytest.raises(SimulationError) as got:
            truth_table(c, target=1, controls=(0, 2))
        assert str(got.value) == str(want.value)

    def test_width_guard_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the width guard")

        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(SimulationError, match="at most 20 qubits"):
            truth_table(Circuit(40), target=0, controls=range(1, 40))

    def test_non_unitary_gate_trips_normalization(self, monkeypatch):
        monkeypatch.setitem(simulator._FIXED_1Q, K.X, 1.5 * simulator._X)
        with pytest.raises(SimulationError, match="not normalized"):
            truth_table(Circuit(2, (G(K.X, 0),)), target=1, controls=(0,))

    @pytest.mark.parametrize("max_qubits", [20, 2], ids=["one-batch", "a-batch-per-assignment"])
    def test_first_failing_assignment_raises_normalization_first(self, monkeypatch, max_qubits):
        # control 1 maps the target's |0> to 0.6|0> + 0.5|1>: neither normalized
        # nor deterministic; control 0 leaves the target alone
        bad_cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0.6, 0], [0, 0, 0.5, 0]],
                          dtype=complex)
        monkeypatch.setitem(simulator._FIXED_2Q, K.CX, bad_cx)
        monkeypatch.setattr(simulator, "MAX_STATEVECTOR_QUBITS", max_qubits)
        # H first: assignment 0 is non-deterministic, before assignment 1 is not normalized
        with pytest.raises(SimulationError, match=r"^non-deterministic target for controls 0: "
                                                  r"p\(1\)=0\.500000$"):
            truth_table(Circuit(2, (G(K.H, 1), G(K.CX, 0, 1))), target=1, controls=(0,))
        # assignment 0 is fine; assignment 1 fails both checks, normalization first
        with pytest.raises(SimulationError, match="^state is not normalized$"):
            truth_table(Circuit(2, (G(K.CX, 0, 1),)), target=1, controls=(0,))

    def test_wires_outside_the_circuit_rejected(self):
        with pytest.raises(SimulationError, match="wires 0..2"):
            truth_table(build_gate("and3"), target=3, controls=(0, 2))


class TestPhaseTrace:
    AND = BOOLEAN_TABLE[BooleanGateKind.AND]

    def test_row_11(self):
        assert phase_trace(self.AND, "11") == [
            "|+>", "7pi/4", "pi/4", "|+i>", "|-i>", "5pi/4", "3pi/4", "|->", "|1>"]

    def test_row_00(self):
        assert phase_trace(self.AND, "00") == [
            "|+>", "7pi/4", "-", "|+>", "-", "7pi/4", "-", "|+>", "|0>"]

    def test_row_10_theta3(self):
        assert phase_trace(self.AND, "10")[5] == "pi/4"

    def test_symmetric_core_zero_controls_end_at_zero(self):
        from hexsynth.library import CoreSpec

        for theta in ((K.TDG, K.T, K.TDG, K.T), (K.T, K.TDG, K.T, K.TDG)):
            assert phase_trace(CoreSpec(theta=theta), "00")[-1] == "|0>"

    def test_bad_control_state(self):
        with pytest.raises(SimulationError):
            phase_trace(self.AND, "2")

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(SUPERPOSITION_KINDS), st.sampled_from(tuple(AX_ENTRIES)),
           st.tuples(*[st.sampled_from(THETA_KINDS)] * 4),
           st.sampled_from(tuple(AX_ENTRIES)), st.sampled_from(SUPERPOSITION_KINDS),
           st.sampled_from(("00", "01", "10", "11")))
    def test_matches_statevector_reference(self, sp1, ax1, theta, ax2, sp2, controls):
        core = CoreSpec(sp1=sp1, ax1=ax1, theta=theta, ax2=ax2, sp2=sp2)
        try:
            want = reference_phase_trace(core, controls)
        except SimulationError as e:
            with pytest.raises(SimulationError) as got:
                phase_trace(core, controls)
            assert str(got.value) == str(e)
        else:
            assert phase_trace(core, controls) == want


class TestErrorRoot:
    """A simulation error is a CircuitError, the package's one error root."""

    def test_simulation_error_is_a_circuit_error(self):
        assert issubclass(SimulationError, CircuitError)

    @pytest.mark.parametrize("call", [
        lambda: phase_trace(BOOLEAN_TABLE[BooleanGateKind.AND], "2"),
        lambda: truth_table(build_gate("and3"), target=1, controls=(0, 0)),
        lambda: Statevector.basis(21, {}),
    ], ids=["phase_trace", "truth_table_repeated_wires", "basis_too_wide"])
    def test_caught_as_circuit_error(self, call):
        with pytest.raises(CircuitError):
            call()


class TestQSphere:
    def test_basis_state(self):
        pts = qsphere(Statevector.basis(3, {}))
        assert len(pts) == 1
        assert pts[0]["basis"] == "000"
        assert pts[0]["magnitude"] == pytest.approx(1.0)
        assert pts[0]["phase"] == 0.0

    def test_uniform_plus_state(self):
        amps = np.full(4, 0.5, dtype=complex)
        pts = qsphere(Statevector(2, amps))
        assert len(pts) == 4
        assert all(p["phase"] == pytest.approx(0.0) for p in pts)
        assert sum(p["magnitude"] ** 2 for p in pts) == pytest.approx(1.0)

    def test_and_core_on_superposed_controls(self):
        # controls in |+>, target |0>: four equal points; relative phases fall
        # in the classes {0, pi/2, 3pi/2} (computed: 0, 0, 0, 3pi/2)
        amps = np.zeros(8, dtype=complex)
        for c1 in (0, 1):
            for c2 in (0, 1):
                amps[(c2 << 2) | c1] = 0.5
        out = apply(build_gate("and3"), Statevector(3, amps))
        pts = qsphere(out)  # |c2 t c1>
        assert len(pts) == 4
        assert all(p["magnitude"] == pytest.approx(0.5) for p in pts)
        phases = {p["basis"]: p["phase"] for p in pts}
        assert phases["000"] == pytest.approx(0.0)
        assert phases["001"] == pytest.approx(0.0)
        assert phases["100"] == pytest.approx(0.0)
        assert phases["111"] == pytest.approx(3 * math.pi / 2)

    def test_phase_just_below_two_pi_reads_zero(self):
        # a relative phase within 1e-12 below 2*pi is reported as 0.0; one
        # further below is kept
        for eps, want in ((1e-13, 0.0), (1e-11, 2 * math.pi - 1e-11)):
            amps = np.array([1, cmath.exp(-1j * eps)]) / math.sqrt(2)
            assert [p["phase"] for p in qsphere(Statevector(1, amps))] == [0.0, pytest.approx(want)]

    @pytest.mark.parametrize("n", range(7))
    def test_equals_the_per_amplitude_loop(self, n):
        # equal to the last bit on states no registry gate reaches; numpy's
        # vector abs and angle round some of these differently
        rng = np.random.default_rng(n)
        for _ in range(50):
            amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            amps[rng.random(2 ** n) < 0.3] = 0
            if amps.any():
                state = Statevector(n, amps / np.linalg.norm(amps))
                assert qsphere(state) == reference_qsphere(state)

    def test_oracle_alignment(self):
        # per-assignment agreement with the exact permutation (magnitudes)
        u = np.abs(unitary_of(build_gate("and3").relabeled({0: 0, 1: 2, 2: 1})))
        assert np.allclose(u, np.abs(toffoli_unitary()), atol=1e-12)
