import dataclasses
import hashlib
import math
import random
import re
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexsynth import transpiler
from hexsynth.circuit import (Angle, Circuit, CircuitError, Gate, GateKind, count_gates, emit_text,
                             parse_text)
from hexsynth.library import FAMILY_GATES, GATES, build_gate
from hexsynth.layout import (CouplingMap, LayoutError, Placement, heavy_hex_127, ishape_brisbane,
                             place)
from hexsynth.simulator import EquivalenceLevel, equivalence, unitary_of
from hexsynth.transpiler import (_LOWERINGS, _RULES, NativeBasis, compile_gate, lower, peephole,
                                 route_naive, rule_table_text)

from conftest import random_clifford_t_circuit

K = GateKind


# --- the former passes, kept as references ---------------------------------------
# `peephole` and `lower` used to rewrite to a fixed point, restarting from the
# first gate after every rewrite (about n^2).  The tests hold the one-pass
# versions to these: `lower` gate for gate, `peephole` never longer or deeper.
# `depth` used to take two passes; the one-loop version must agree with it.

def reference_lower(circuit, basis):
    rules = {kind: parse_text(text).gates for kind, text in _RULES.items()}
    allowed = basis.allowed
    gates = list(circuit.gates)
    changed = True
    while changed:
        changed = False
        out = []
        for g in gates:
            if g.kind in allowed:
                if g.kind is K.I:
                    changed = True
                    continue
                if g.kind is K.RZ and g.angle.is_zero_mod_2pi():
                    changed = True
                    continue
                out.append(g)
            elif g.kind is K.RY:
                q, pi = g.qubits, Angle.pi_frac(1)
                out.extend([Gate(K.SX, q), Gate(K.RZ, q, g.angle.plus(pi)), Gate(K.SX, q),
                            Gate(K.RZ, q, pi)])
                changed = True
            elif g.kind in rules:
                out.extend(Gate(r.kind, tuple(g.qubits[i] for i in r.qubits), r.angle)
                           for r in rules[g.kind])
                changed = True
            else:
                raise CircuitError(f"no rewrite for {g.kind.value} in {basis.value} basis")
        gates = out
    return dataclasses.replace(circuit, gates=tuple(gates))


def _reference_try_pair(a, b):
    if a.qubits != b.qubits:
        return None
    if a.kind is K.RZ and b.kind is K.RZ:
        merged = a.angle.plus(b.angle)
        return [] if merged.is_zero_mod_2pi() else [Gate(K.RZ, a.qubits, merged)]
    if a.kind in (K.CX, K.ECR) and b.kind is a.kind:
        return []
    return None


def _reference_pair_pass(gates):
    for i, g in enumerate(gates):
        qubits = set(g.qubits)
        for j in range(i + 1, len(gates)):
            other = gates[j]
            if qubits.isdisjoint(other.qubits):
                continue
            replacement = _reference_try_pair(g, other)
            if replacement is not None:
                return gates[:i] + replacement + gates[i + 1:j] + gates[j + 1:], True
            break
    return gates, False


def _reference_sx_run_pass(gates):
    runs = {}
    for idx, g in enumerate(gates):
        if len(g.qubits) == 1 and g.kind in (K.SX, K.X):
            runs.setdefault(g.qubits[0], []).append(idx)
            continue
        for q in g.qubits:
            run = runs.pop(q, None)
            if run is not None:
                collapsed = _reference_collapse_run(gates, run)
                if collapsed is not None:
                    return collapsed, True
    for run in runs.values():
        collapsed = _reference_collapse_run(gates, run)
        if collapsed is not None:
            return collapsed, True
    return gates, False


def _reference_collapse_run(gates, run):
    if len(run) < 2:
        return None
    a = sum(1 for idx in run if gates[idx].kind is K.SX)
    b = len(run) - a
    sx_out = a % 2
    x_out = (b + (a % 4) // 2) % 2
    if x_out > b or sx_out + x_out >= len(run):
        return None
    qubit = gates[run[0]].qubits
    replacement = [Gate(K.SX, qubit)] * sx_out + [Gate(K.X, qubit)] * x_out
    out = []
    consumed = set(run)
    emitted = 0
    for idx, g in enumerate(gates):
        if idx in consumed:
            if emitted < len(replacement):
                out.append(replacement[emitted])
                emitted += 1
            continue
        out.append(g)
    return out


def reference_peephole(circuit):
    gates = [g for g in circuit.gates if g.kind is not K.I
             and not (g.kind is K.RZ and g.angle.is_zero_mod_2pi())]
    changed = True
    while changed:
        gates, changed = _reference_pair_pass(gates)
        if not changed:
            gates, changed = _reference_sx_run_pass(gates)
    return dataclasses.replace(circuit, gates=tuple(gates))


def reference_depth(circuit):
    level = dict.fromkeys(chain.from_iterable(g.qubits for g in circuit.gates), 0)
    for g in circuit.gates:
        if len(g.qubits) == 1:
            level[g.qubits[0]] += 1
        else:
            layer = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = layer
    return max(level.values(), default=0)


def G(kind, *qubits, angle=None):
    return Gate(kind, tuple(qubits), angle)


def fidelity(a, b):
    ua, ub = unitary_of(a), unitary_of(b)
    return abs(np.trace(ua.conj().T @ ub)) / ua.shape[0]


def rz(q, num, den=1):
    return G(K.RZ, q, angle=Angle.pi_frac(num, den))


class TestSingleQubitRules:
    # every rewrite row must hold as a global-phase identity
    ROWS = [
        Circuit(1, (G(k, 0),)) for k in
        (K.I, K.X, K.Y, K.Z, K.H, K.SX, K.SXDG, K.S, K.SDG, K.T, K.TDG)
    ] + [
        Circuit(1, (G(K.RZ, 0, angle=Angle.pi_frac(3, 4)),)),
        Circuit(1, (G(K.RY, 0, angle=Angle.pi_frac(-5, 4)),)),
    ]

    @pytest.mark.parametrize("circuit", ROWS, ids=lambda c: c.gates[0].kind.value)
    def test_row_is_l1_identity(self, circuit):
        for basis in NativeBasis:
            assert fidelity(circuit, lower(circuit, basis)) >= 1 - 1e-9

    def test_h_row_shape(self):
        lowered = lower(Circuit(1, (G(K.H, 0),)), NativeBasis.CX_BASIS)
        assert [g.kind for g in lowered.gates] == [K.RZ, K.SX, K.RZ]
        assert [g.angle.frac for g in lowered.gates if g.angle] == \
               [Angle.pi_frac(1, 2).frac] * 2

    def test_t_row_shape(self):
        lowered = lower(Circuit(1, (G(K.T, 0),)), NativeBasis.CX_BASIS)
        assert [g.kind for g in lowered.gates] == [K.RZ]
        assert lowered.gates[0].angle.frac == Angle.pi_frac(1, 4).frac

    def test_output_is_native_only(self):
        rng = random.Random(0)
        for basis in NativeBasis:
            for _ in range(10):
                c = random_clifford_t_circuit(rng, 3, 20)
                lowered = lower(c, basis)
                assert all(g.kind in basis.allowed for g in lowered.gates)


class TestCxEcrDressing:
    def test_cx_lowered_to_single_ecr(self):
        c = Circuit(2, (G(K.CX, 0, 1),))
        lowered = lower(c, NativeBasis.ECR_BASIS)
        counts = count_gates(lowered).counts
        assert counts.get("ecr") == 1
        assert counts.get("x", 0) == 0
        assert fidelity(c, lowered) >= 1 - 1e-9

    def test_ecr_lowered_back_to_cx(self):
        c = Circuit(2, (G(K.ECR, 0, 1),))
        lowered = lower(c, NativeBasis.CX_BASIS)
        assert count_gates(lowered).counts.get("cx") == 1
        assert fidelity(c, lowered) >= 1 - 1e-9

    def test_two_qubit_gates_via_cx(self):
        for kind in (K.CY, K.CZ, K.SWAP):
            c = Circuit(2, (G(kind, 0, 1),))
            for basis in NativeBasis:
                assert fidelity(c, lower(c, basis)) >= 1 - 1e-9

    def test_rule_table_dump(self):
        text = rule_table_text(NativeBasis.ECR_BASIS)
        assert "ecr" in text and "h " in text
        assert K.CX in _LOWERINGS[NativeBasis.ECR_BASIS].rules

    @pytest.mark.parametrize("basis", list(NativeBasis))
    def test_rule_dump_shows_each_applied_rule_once(self, basis):
        # one line per kind `lower` rewrites, none for a native kind; each
        # non-RY rule, placed on a gate's wires, equals the gate to global phase
        lines = rule_table_text(basis).splitlines()
        tags = [line.split()[0] for line in lines]
        assert sorted(tags) == sorted(k.value for k in K if k not in basis.allowed)
        for line in lines:
            tag, rhs = (part.strip() for part in line.split(" -> "))
            if tag == "ry":
                continue
            kind = K(tag)
            rule = parse_text("\n".join(re.split(r"(?<=\]) ", rhs))).gates
            wires = (1, 0) if kind.arity == 2 else (1,)
            placed = Circuit(2, tuple(Gate(r.kind, tuple(wires[i] for i in r.qubits), r.angle)
                                      for r in rule))
            assert equivalence(Circuit(2, (Gate(kind, wires),)), placed) \
                is EquivalenceLevel.L1_GLOBAL_PHASE, tag


class TestPeephole:
    def test_rz_merge(self):
        c = Circuit(1, (rz(0, 1, 4), rz(0, 1)))
        out = peephole(c)
        assert len(out.gates) == 1
        assert out.gates[0].angle.frac == Angle.pi_frac(5, 4).frac

    def test_inverse_pair_cancels(self):
        out = peephole(Circuit(1, (rz(0, 1, 4), rz(0, -1, 4))))
        assert out.gates == ()

    def test_x_pair_cancels(self):
        out = peephole(Circuit(1, (G(K.X, 0), G(K.X, 0))))
        assert out.gates == ()

    def test_lone_sx_pair_left_alone(self):
        # collapsing [sx, sx] to [x] would raise the x count, so it stays
        out = peephole(Circuit(1, (G(K.SX, 0), G(K.SX, 0))))
        assert [g.kind for g in out.gates] == [K.SX, K.SX]

    def test_sxdg_image_cancels_sx(self):
        # sxdg lowers to [sx, x]; preceded by sx the whole run collapses
        c = lower(Circuit(1, (G(K.SX, 0), G(K.SXDG, 0))), NativeBasis.CX_BASIS)
        assert peephole(c).gates == ()

    def test_sx_quadruple_cancels(self):
        out = peephole(Circuit(1, (G(K.SX, 0),) * 4))
        assert out.gates == ()

    def test_sx_run_interleaved_with_other_wires(self):
        c = Circuit(2, (G(K.SX, 0), G(K.RZ, 1, angle=Angle.pi_frac(1)), G(K.SX, 0), G(K.X, 0)))
        out = peephole(c)
        assert [g.kind for g in out.gates] == [K.RZ]

    def test_cx_pair_cancels(self):
        out = peephole(Circuit(2, (G(K.CX, 0, 1), G(K.CX, 0, 1))))
        assert out.gates == ()

    def test_blocked_by_intervening_gate(self):
        c = Circuit(2, (G(K.CX, 0, 1), G(K.SX, 1), G(K.CX, 0, 1)))
        assert len(peephole(c).gates) == 3

    def test_never_increases_counts(self):
        rng = random.Random(9)
        for _ in range(30):
            c = lower(random_clifford_t_circuit(rng, 3, 30), NativeBasis.CX_BASIS)
            before = count_gates(c).counts
            after = count_gates(peephole(c)).counts
            for tag, n in after.items():
                assert n <= before.get(tag, 0)

    def test_preserves_l1(self):
        rng = random.Random(10)
        for _ in range(20):
            c = lower(random_clifford_t_circuit(rng, 3, 30), NativeBasis.ECR_BASIS)
            assert fidelity(c, peephole(c)) >= 1 - 1e-9


def native(text):
    """A circuit from `;`-separated lines such as `sx q0; ecr q1,q0`."""
    lines = []
    for line in text.split(";"):
        tag, args = line.split()
        lines.append(f"{tag} " + ", ".join(f"q[{a.strip()[1:]}]" for a in args.split(",")))
    return parse_text("\n".join(lines))


def assert_no_worse_than_reference(c):
    """L1-equal to the input, no tag count above the input's, and no longer
    or deeper than the former fixed-point peephole's output."""
    out, ref = count_gates(peephole(c)), count_gates(reference_peephole(c))
    before = count_gates(c).counts
    assert all(n <= before.get(tag, 0) for tag, n in out.counts.items())
    assert out.qc <= ref.qc and out.depth <= ref.depth
    assert fidelity(c, peephole(c)) >= 1 - 1e-9


class TestSweepRegressions:
    # each case breaks a sweep that emits a run too early, drops an identity
    # run's X gates, or pools the X budget over the whole wire
    CASES = {
        "x-pair-then-sx-pair": ("x q0; x q0; sx q0; sx q0", ["x q[0]"]),
        "run-resumes-after-rz-cancels": (
            "x q0; sx q0; sx q0; sx q0; rz(pi/2) q0; rz(3*pi/2) q0; sx q0", ["x q[0]"]),
        "identity-run-keeps-its-x": (
            "rz(pi/2) q0; sx q0; x q0; sx q0; rz(-pi/2) q0; rz(pi/2) q0; sx q0; "
            "rz(3*pi/2) q0; rz(pi/2) q0; sx q0; rz(3*pi/2) q0; rz(-3*pi/2) q0; rz(-pi) q0",
            ["rz(pi/2) q[0]", "x q[0]", "rz(-pi) q[0]"]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_one_wire(self, name):
        text, want = self.CASES[name]
        c = native(text)
        assert [g.text() for g in peephole(c).gates] == want
        out, ref = count_gates(peephole(c)), count_gates(reference_peephole(c))
        assert (out.qc, out.depth) == (ref.qc, ref.depth)
        assert fidelity(c, peephole(c)) >= 1 - 1e-9

    def test_x_budget_is_per_segment(self):
        # pooling the X gates over the whole wire spends q1's spare X before
        # the ECR and leaves the deeper side X-free: depth 9, not 8
        c = native("rz(-3*pi/2) q0; sx q1; rz(pi) q0; sx q0; sx q0; sx q1; sx q0; ecr q1,q0; "
                   "sx q0; sx q1; sx q1; x q1; sx q1; sx q1; rz(3*pi/2) q1; x q1")
        out, ref = count_gates(peephole(c)), count_gates(reference_peephole(c))
        assert (out.qc, out.depth) == (ref.qc, ref.depth) == (11, 8)
        assert_no_worse_than_reference(c)

    @pytest.mark.parametrize("between", ["", "rz(pi/2) q0; rz(-pi/2) q0; "])
    def test_adjacent_pair_cancels_before_one_through_an_identity_run(self, between):
        # the second ECR may cancel the first through x x, but the third
        # cancels it directly first; the first survives, and the identity
        # run's X gates join the sx pair after it
        c = native(f"ecr q0,q1; x q0; x q0; ecr q0,q1; {between}ecr q0,q1; sx q0; sx q0")
        assert [g.text() for g in peephole(c).gates] == ["ecr q[0], q[1]", "x q[0]"]
        assert_no_worse_than_reference(c)

    def test_spare_x_shortens_an_sx_pair(self):
        # the identity run x x leaves an X the segment's sx sx may use
        c = native("x q0; x q0; rz(pi/4) q0; sx q0; sx q0")
        assert [g.text() for g in peephole(c).gates] == ["rz(pi/4) q[0]", "x q[0]"]
        assert len(reference_peephole(c).gates) == 3

    def test_cancelled_pair_joins_segments(self):
        c = native("rz(pi/4) q1; cx q0,q1; x q0; x q0; rz(-pi/4) q1; rz(pi/4) q1; cx q0,q1; "
                   "rz(-pi/4) q1")
        assert peephole(c).gates == ()

    def test_pending_pair_resolved_by_another_two_qubit_gate(self):
        # the cx pair waits to cancel through x x; the cx on q1, q2 meets it
        # on q1 and cancels it before taking its own place
        c = native("cx q0,q1; x q0; x q0; cx q0,q1; cx q1,q2")
        assert [g.text() for g in peephole(c).gates] == ["cx q[1], q[2]"]
        assert_no_worse_than_reference(c)

    def test_grid_identity_rotations_dropped(self):
        c = native("rz(0) q0; sx q0; rz(2*pi) q0; x q1")
        assert [g.text() for g in peephole(c).gates] == ["sx q[0]", "x q[1]"]
        assert_no_worse_than_reference(c)

    @pytest.mark.parametrize("name", FAMILY_GATES)
    def test_family_costs_unchanged(self, name):
        gate = build_gate(name)
        for basis in NativeBasis:
            lowered = lower(gate, basis)
            assert count_gates(peephole(lowered)) == count_gates(reference_peephole(lowered))
            assert fidelity(lowered, peephole(lowered)) >= 1 - 1e-9


_GRID_ANGLES = [(1, 2), (-1, 2), (1, 1), (3, 2), (-3, 2), (1, 4), (-1, 4), (3, 4)]
_ANGLES = st.sampled_from(_GRID_ANGLES)
# The sweep adds grid angles as indices mod 16; exact angles off the grid and
# floats take `Angle.plus`.  pi/3 + 5*pi/3 merges to 2*pi and 0.3 - 0.3 to 0,
# and a float 2*pi is the identity on its own.
_ZERO_PAIRS = [(Angle.pi_frac(1, 3), Angle.pi_frac(5, 3)),
               (Angle.from_radians(0.3), Angle.from_radians(-0.3))]
_RZ_ANGLES = st.sampled_from([Angle.pi_frac(*a) for a in _GRID_ANGLES]
                             + [a for pair in _ZERO_PAIRS for a in pair]
                             + [Angle.from_radians(2 * math.pi)])
_RZ_ZERO_PAIRS = st.sampled_from(_ZERO_PAIRS + [pair[::-1] for pair in _ZERO_PAIRS])


@st.composite
def native_circuits(draw):
    """Native circuits, drawn as runs of one gate or of an RZ pair that
    merges to the identity."""
    basis = draw(st.sampled_from(list(NativeBasis)))
    width = draw(st.integers(1, 4))
    qubit = st.integers(0, width - 1)
    runs = [st.builds(lambda q: (G(K.SX, q),), qubit),
            st.builds(lambda q: (G(K.X, q),), qubit),
            st.builds(lambda q, a: (G(K.RZ, q, angle=a),), qubit, _RZ_ANGLES),
            st.builds(lambda q, ab: tuple(G(K.RZ, q, angle=a) for a in ab), qubit, _RZ_ZERO_PAIRS)]
    if width > 1:
        pair = st.one_of(st.just((0, 1)), st.lists(qubit, min_size=2, max_size=2, unique=True))
        runs.append(st.builds(lambda qs: (G(basis.two_qubit_kind, *qs),), pair))
    return Circuit(width, tuple(chain.from_iterable(draw(st.lists(st.one_of(*runs), max_size=40)))))


@st.composite
def any_circuits(draw):
    width = draw(st.integers(1, 4))
    qubit = st.integers(0, width - 1)
    one_q = st.builds(lambda k, q, a: Gate(k, (q,), Angle.pi_frac(*a) if k.takes_angle else None),
                      st.sampled_from([k for k in K if k.arity == 1]), qubit, _ANGLES)
    gates = [one_q]
    if width > 1:
        gates.append(st.builds(lambda k, qs: Gate(k, tuple(qs)),
                               st.sampled_from([k for k in K if k.arity == 2]),
                               st.lists(qubit, min_size=2, max_size=2, unique=True)))
    return Circuit(width, tuple(draw(st.lists(st.one_of(*gates), max_size=30))))


PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


class TestSweepProperties:
    @PROPERTY
    @given(native_circuits())
    def test_no_worse_than_reference(self, c):
        assert_no_worse_than_reference(c)

    @PROPERTY
    @given(native_circuits())
    def test_idempotent(self, c):
        once = peephole(c)
        assert peephole(once) == once

    @PROPERTY
    @given(any_circuits(), st.sampled_from(list(NativeBasis)))
    def test_lower_matches_fixed_point_lowering(self, c, basis):
        assert lower(c, basis) == reference_lower(c, basis)

    @PROPERTY
    @given(any_circuits())
    def test_depth_matches_two_pass_depth(self, c):
        assert count_gates(c).depth == reference_depth(c)

    def test_depth_of_empty_and_routed_circuits(self):
        lattice = heavy_hex_127()
        gate = build_gate("and4")
        spots = random.Random(3).sample(range(lattice.num_qubits), gate.width)
        routed = route_naive(gate, lattice, dict(enumerate(spots))).circuit
        assert routed.width == 127 and any(g.kind is K.SWAP for g in routed.gates)
        for c in (Circuit(3), routed, peephole(lower(routed, NativeBasis.ECR_BASIS))):
            assert count_gates(c).depth == reference_depth(c)


class TestSharedLowering:
    @pytest.mark.parametrize("basis", list(NativeBasis))
    def test_second_lowering_reuses_the_gates(self, basis):
        c = build_gate("and4")
        first, second = lower(c, basis), lower(c, basis)
        assert first == second
        assert all(a is b for a, b in zip(first.gates, second.gates))

    @pytest.mark.parametrize("basis", list(NativeBasis))
    def test_result_does_not_depend_on_what_was_lowered_before(self, basis):
        # RY gates of distinct angles share a wire, so a memo that kept
        # angle gates under an angle-blind key would hand one the other's
        # expansion
        ry = Circuit(2, tuple(G(K.RY, q, angle=Angle.pi_frac(n, 5))
                              for n in range(1, 4) for q in (0, 1)))
        circuits = [build_gate(name) for name in sorted(GATES)] + [ry]
        forward = [lower(c, basis) for c in circuits]
        backward = [lower(c, basis) for c in reversed(circuits)][::-1]
        assert forward == backward
        assert forward == [reference_lower(c, basis) for c in circuits]

    @pytest.mark.parametrize("basis", list(NativeBasis))
    def test_grid_angle_ry_is_lowered_once(self, basis):
        # RY by a multiple of pi/4 is memoized like an angle-free gate; a
        # fresh Angle of the same value finds the same entry
        shared = Circuit(2, tuple(G(K.RY, q, angle=Angle.pi_frac(n, 4))
                                  for n in range(-7, 9) for q in (0, 1)))
        fresh = dataclasses.replace(shared, gates=tuple(G(K.RY, *g.qubits, angle=Angle(g.angle.frac))
                                                       for g in shared.gates))
        first, second = lower(shared, basis), lower(fresh, basis)
        assert first == second == reference_lower(shared, basis)
        assert all(a is b for a, b in zip(first.gates, second.gates))

    def test_angle_gates_are_not_stored(self):
        rng = random.Random(5)
        off_grid = [Angle.pi_frac(n, d) for d in (3, 5) for n in (1, 2, -4, 7)]
        c = Circuit(3, tuple(G(K.RY, rng.randrange(3), angle=Angle.from_radians(rng.uniform(-3, 3)))
                             for _ in range(200))
                    + tuple(G(K.RY, q, angle=a) for a in off_grid for q in range(3)))
        sizes = {basis: len(_LOWERINGS[basis].memo) for basis in NativeBasis}
        for basis in NativeBasis:
            assert lower(c, basis) == reference_lower(c, basis)
        assert {basis: len(_LOWERINGS[basis].memo) for basis in NativeBasis} == sizes


class TestSharedPeephole:
    def test_merged_grid_rotation_is_shared(self):
        # a merged rotation on the pi/4 grid is one instance per wire and
        # angle, so its text is rendered once
        c = native("rz(pi/4) q0; rz(pi/2) q0; sx q0; rz(pi) q1; rz(pi/4) q1; x q1")
        first, second = peephole(c), peephole(c)
        assert [g.text() for g in first.gates] == ["rz(3*pi/4) q[0]", "sx q[0]",
                                                   "rz(5*pi/4) q[1]", "x q[1]"]
        assert all(a is b for a, b in zip(first.gates, second.gates))

    def test_off_grid_merges_are_not_stored(self):
        # pi/3 + pi/4 is exact off the grid, 0.3 + 0.5 a float; with wires 0
        # and 1 already built, neither merge adds a cache entry
        c = Circuit(2, (G(K.RZ, 0, angle=Angle.pi_frac(1, 3)),
                        G(K.RZ, 0, angle=Angle.pi_frac(1, 4)),
                        G(K.RZ, 1, angle=Angle.from_radians(0.3)),
                        G(K.RZ, 1, angle=Angle.from_radians(0.5))))
        for q in (0, 1):
            transpiler._wire_outputs(q)
        size = transpiler._wire_outputs.cache_info().currsize
        out = peephole(c)
        assert [g.angle for g in out.gates] == [Angle.pi_frac(7, 12), Angle.from_radians(0.8)]
        assert transpiler._wire_outputs.cache_info().currsize == size


class TestDeclaredWidth:
    @pytest.mark.parametrize("basis", list(NativeBasis))
    def test_idle_wires_cost_nothing(self, basis):
        # lowering, the sweep, counting and text keep state only for the
        # wires that carry a gate; a per-wire list would peak at about 8 MB
        wide = 10 ** 6
        c = Circuit(wide, (G(K.H, 0), G(K.CX, 3, wide - 1), G(K.T, 3)))
        tracemalloc.start()
        try:
            out = peephole(lower(c, basis))
            text, report = emit_text(out), count_gates(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.startswith(f"qubits {wide}\n") and report.qc == len(out.gates) > 3
        assert peak < 64_000

    def test_sweep_visits_only_wires_with_gates(self, monkeypatch):
        visited = []
        emit = transpiler._emit_wire
        monkeypatch.setattr(transpiler, "_emit_wire",
                            lambda stack, q: (visited.append(q), emit(stack, q)))
        narrow = random_clifford_t_circuit(random.Random(5), 3, 80)
        spread = {0: 7, 1: 0, 2: 10 ** 6 - 1}

        def spread_out(gates):
            return tuple(Gate(g.kind, tuple(spread[q] for q in g.qubits), g.angle) for g in gates)

        wide = Circuit(10 ** 6, spread_out(narrow.gates))
        for basis in NativeBasis:
            visited.clear()
            out = peephole(lower(wide, basis))
            assert sorted(visited) == sorted(spread.values())
            assert out.gates == spread_out(peephole(lower(narrow, basis)).gates)


class TestCostReport:
    def test_csx2_table_values(self):
        rep = compile_gate(build_gate("csx2"), NativeBasis.CX_BASIS).cost
        assert rep.counts == {"x": 0, "sx": 2, "rz": 4, "cx": 1}
        assert rep.qc == 7 and rep.depth == 7

    def test_and3_ecr_count(self):
        rep = compile_gate(build_gate("and3"), NativeBasis.ECR_BASIS).cost
        assert rep.counts["ecr"] == 3
        assert rep.counts["x"] == 0

    def test_fredkin4_ecr_count(self):
        rep = compile_gate(build_gate("fredkin4"), NativeBasis.ECR_BASIS).cost
        assert rep.counts["ecr"] == 8

    def test_zero_filled_basis_keys(self):
        rep = compile_gate(Circuit(1), NativeBasis.ECR_BASIS).cost
        assert rep.counts == {"x": 0, "sx": 0, "rz": 0, "ecr": 0}
        assert rep.qc == 0 and rep.depth == 0


class TestCompileGate:
    def test_without_a_map_it_only_costs(self):
        compiled = compile_gate(build_gate("and4"), NativeBasis.ECR_BASIS)
        assert compiled.placement is None and compiled.violations == ()
        assert compiled.as_dict() == compiled.cost.as_dict()
        assert compiled.circuit == peephole(lower(build_gate("and4"), NativeBasis.ECR_BASIS))

    def test_places_on_the_ishape(self):
        cmap = heavy_hex_127()
        compiled = compile_gate(build_gate("and5"), NativeBasis.CX_BASIS, cmap)
        assert compiled.placement == place("and5", ishape_brisbane(cmap))
        assert compiled.violations == ()
        assert list(compiled.as_dict()) == ["counts", "qc", "depth", "placement", "swap_free",
                                            "violations"]

    def test_a_given_placement_is_used_as_given(self):
        given = Placement({"c1": 80, "t": 81, "c2": 82})
        compiled = compile_gate(build_gate("and3"), NativeBasis.ECR_BASIS, heavy_hex_127(), given)
        assert compiled.placement is given and compiled.violations == ()
        assert compiled.as_dict()["swap_free"] is True

    def test_displaced_and3_reports_its_violations(self):
        displaced = Placement({"c1": 62, "t": 61, "c2": 63})
        compiled = compile_gate(build_gate("and3"), NativeBasis.ECR_BASIS, heavy_hex_127(),
                                displaced)
        assert compiled.violations
        assert all(v["gate"] == "ecr" and [61, 63] in (v["physical"], v["physical"][::-1])
                   for v in compiled.violations)
        data = compiled.as_dict()
        assert data["swap_free"] is False and data["violations"] == list(compiled.violations)

    def test_a_map_without_the_ishape_places_on_the_whole_map(self):
        cut = CouplingMap("cut", 127, heavy_hex_127().edges - {(62, 72)})
        compiled = compile_gate(build_gate("and3"), NativeBasis.CX_BASIS, cut)
        assert compiled.placement == place("and3", cut)
        assert compiled.placement.assignment == {"c1": 0, "t": 1, "c2": 2}
        assert compiled.violations == ()

    def test_a_placement_alone_is_checked_on_the_lattice(self):
        given = Placement({"c1": 61, "t": 62, "c2": 63})
        alone = compile_gate(build_gate("and3"), NativeBasis.CX_BASIS, placement=given)
        assert alone == compile_gate(build_gate("and3"), NativeBasis.CX_BASIS, heavy_hex_127(),
                                     given)
        with pytest.raises(LayoutError, match="off the 127-qubit map"):
            compile_gate(build_gate("and3"), NativeBasis.CX_BASIS,
                         placement=Placement({"c1": 61, "t": 62, "c2": 130}))

    def test_places_the_circuit_it_compiles(self):
        # named and3, but only c1 and c2 interact: they go side by side, not
        # where the registry and3 would put them
        and3 = build_gate("and3")
        circuit = Circuit(3, (G(K.CX, 0, 2),), and3.roles, "and3", and3.wire_names)
        compiled = compile_gate(circuit, NativeBasis.CX_BASIS, heavy_hex_127())
        assert compiled.placement.assignment == {"c1": 61, "t": 63, "c2": 62}
        assert compiled.violations == ()

    def test_a_parsed_circuit_needs_wire_names_to_be_placed(self):
        parsed = parse_text(emit_text(build_gate("and3")))
        with pytest.raises(LayoutError, match=r"^gate '' has no wire names to place$"):
            compile_gate(parsed, NativeBasis.CX_BASIS, heavy_hex_127())
        named = dataclasses.replace(parsed, wire_names=("c1", "t", "c2"))
        compiled = compile_gate(named, NativeBasis.CX_BASIS, heavy_hex_127())
        assert compiled.placement.assignment == {"c1": 61, "t": 62, "c2": 63}
        assert compiled.violations == ()


class TestSoundnessSweep:
    def test_200_random_circuits_both_bases(self):
        rng = random.Random(20240814)
        worst = 1.0
        for _ in range(200):
            width = rng.randint(1, 4)
            c = random_clifford_t_circuit(rng, width, rng.randint(0, 40))
            for basis in NativeBasis:
                worst = min(worst, fidelity(c, peephole(lower(c, basis))))
        assert worst >= 1 - 1e-9


# rotations off the pi/4 grid: exact pi/3, pi/5, pi/8 multiples and plain radians
_OFF_GRID = (Angle.pi_frac(1, 3), Angle.pi_frac(-2, 5), Angle.pi_frac(3, 8), Angle.pi_frac(7, 6),
             Angle.from_radians(0.3), Angle.from_radians(-1.2), Angle.from_radians(math.pi / 4))


def _digest_corpus():
    """Seeded Clifford+T circuits, some with off-grid RZ/RY mixed in."""
    rng = random.Random(16016)
    corpus = []
    for i in range(80):
        c = random_clifford_t_circuit(rng, rng.randint(1, 6), rng.randint(0, 120))
        gates = list(c.gates)
        if i % 4 == 0:
            for _ in range(rng.randint(1, 8)):
                gates.insert(rng.randint(0, len(gates)),
                             G(rng.choice((K.RZ, K.RY)), rng.randrange(c.width),
                               angle=rng.choice(_OFF_GRID)))
        corpus.append(dataclasses.replace(c, gates=tuple(gates)))
    return corpus


class TestOutputDigest:
    def test_transpile_output_is_unchanged(self):
        # the sha256 of every emitted circuit, pinned when the peephole still
        # merged every exact angle as a Fraction: a change in how angles are
        # stored or merged must not change one byte of output
        h = hashlib.sha256()
        for c in _digest_corpus():
            for basis in NativeBasis:
                h.update(emit_text(peephole(lower(c, basis))).encode())
        assert h.hexdigest() == "5aaf8fe4446608e38e7c97c7452e458b969423cbcaf22eb8bdc9b0f2afaaa6b5"


class TestRouteNaive:
    LINE3 = CouplingMap("line3", 3, frozenset({(0, 1), (1, 2)}))

    def test_adjacent_circuit_unchanged(self):
        c = Circuit(2, (G(K.CX, 0, 1),))
        res = route_naive(c, self.LINE3, {0: 0, 1: 1})
        assert res.swaps_added == 0
        assert [g.kind for g in res.circuit.gates] == [K.CX]

    def test_distance_two_inserts_one_swap(self):
        c = Circuit(2, (G(K.CX, 0, 1),))
        res = route_naive(c, self.LINE3, {0: 0, 1: 2})
        assert res.swaps_added == 1
        kinds = [g.kind for g in res.circuit.gates]
        assert kinds == [K.SWAP, K.CX]

    def test_l3_under_final_permutation(self):
        c = Circuit(3, (G(K.CX, 0, 2), G(K.H, 1), G(K.CX, 1, 0)))
        res = route_naive(c, self.LINE3, {0: 0, 1: 1, 2: 2})
        # for every basis input, the routed distribution equals the original
        # one with basis bits re-read through the final logical placement
        pr = np.abs(unitary_of(res.circuit)) ** 2
        po = np.abs(unitary_of(c)) ** 2

        def to_phys(b):
            return sum(((b >> logical) & 1) << phys
                       for logical, phys in res.final_assignment.items())

        for col in range(8):
            for b in range(8):
                assert pr[to_phys(b), col] == pytest.approx(po[b, col], abs=1e-9)

    def test_placement_errors(self):
        # the placement is checked as a `Placement` of the wires 0..width-1
        c = Circuit(2, (G(K.CX, 0, 1),))
        with pytest.raises(LayoutError, match=r"^placement does not cover wire 1$"):
            route_naive(c, self.LINE3, {0: 0})
        with pytest.raises(LayoutError, match=r"^placement is not injective: \{0: 0, 1: 0\}$"):
            route_naive(c, self.LINE3, {0: 0, 1: 0})

    @pytest.mark.parametrize("phys", [500, -3])
    def test_placement_off_the_map(self, phys):
        with pytest.raises(LayoutError, match=rf"^placement puts wire 2 on physical qubit {phys}, "
                                              rf"off the 127-qubit map$"):
            route_naive(build_gate("and3"), heavy_hex_127(), {0: 0, 1: 1, 2: phys})

    def test_disconnected_map(self):
        two_pairs = CouplingMap("two pairs", 4, frozenset({(0, 1), (2, 3)}))
        with pytest.raises(LayoutError, match=r"^coupling map is disconnected between 0 and 2$"):
            route_naive(Circuit(2, (G(K.CX, 0, 1),)), two_pairs, {0: 0, 1: 2})

    def test_end_placed_toffoli_costs_more_than_middle_target_core(self):
        # standard Toffoli with its target forced to a line end needs routing
        # SWAPs; the middle-target core needs none
        tof = build_gate("toffoli")  # wires c1, c2, t
        routed = route_naive(tof, self.LINE3, {0: 1, 1: 2, 2: 0})
        lowered_tof = peephole(lower(routed.circuit, NativeBasis.CX_BASIS))
        tof_2q = count_gates(lowered_tof).counts.get("cx", 0)

        and3 = build_gate("and3")  # target already between its controls
        res = route_naive(and3, self.LINE3, {0: 0, 1: 1, 2: 2})
        assert res.swaps_added == 0
        lowered_and3 = peephole(lower(res.circuit, NativeBasis.CX_BASIS))
        and3_2q = count_gates(lowered_and3).counts.get("cx", 0)
        assert routed.swaps_added >= 1
        assert tof_2q > and3_2q


def _rechecked(c):
    """A pass's output rebuilt by the checked constructor."""
    return Circuit(c.width, c.gates, c.roles, c.name, c.wire_names)


class TestPassOutputsPassTheCheck:
    """`parse_text`, `lower`, `peephole` and `route_naive` build their output
    without `Circuit`'s check; the check must accept every such output and
    rebuild it equal (a list where a tuple belongs would compare unequal)."""

    @staticmethod
    def assert_checked(c):
        assert type(c) is Circuit and type(c.gates) is tuple
        assert _rechecked(c) == c

    @pytest.mark.parametrize("basis", list(NativeBasis))
    def test_registry_gates(self, basis):
        assert len(GATES) == 26
        for gate in GATES.values():
            self.assert_checked(parse_text(emit_text(gate)))
            lowered = lower(gate, basis)
            self.assert_checked(lowered)
            self.assert_checked(peephole(lowered))
            self.assert_checked(peephole(gate))

    def test_parsed_random_corpus(self):
        rng = random.Random(2929)
        for _ in range(60):
            c = random_clifford_t_circuit(rng, rng.randint(1, 6), rng.randint(0, 80))
            text = emit_text(c)
            # without its header the width is inferred from the largest index
            headless = parse_text(text.split("\n", 1)[1])
            self.assert_checked(headless)
            assert headless.gates == c.gates
            parsed = parse_text(text)
            self.assert_checked(parsed)
            assert parsed.gates == c.gates
            for basis in NativeBasis:
                lowered = lower(parsed, basis)
                self.assert_checked(lowered)
                self.assert_checked(peephole(lowered))

    def test_routed_family(self):
        lattice = heavy_hex_127()
        region = ishape_brisbane(lattice)
        rng = random.Random(29)
        swaps = 0
        for name in FAMILY_GATES:
            gate = build_gate(name)
            try:
                placed = place(gate, region)
            except LayoutError:
                placed = place(gate, lattice)
            wires = [placed.assignment[w] for w in gate.wire_names]
            placements = [wires, list(range(gate.width)), rng.sample(range(127), gate.width),
                          rng.sample(range(127), gate.width)]
            for spots in placements:
                routed = route_naive(gate, lattice, dict(enumerate(spots)))
                self.assert_checked(routed.circuit)
                self.assert_checked(peephole(lower(routed.circuit, NativeBasis.ECR_BASIS)))
                swaps += routed.swaps_added
        assert swaps > 0  # the scattered placements did route
