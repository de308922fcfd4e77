"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS` line on success (run with -s to see
them); a failing assertion marks the criterion FAIL.  Criterion 3's depth
reference for swap2 is recorded as unattainable: any two-wire circuit with
the required counts (6 one-qubit + 2 two-qubit gates) occupies 10 wire-slots
and therefore needs at least 5 layers, so the reference depth of 3 cannot be
met by any construction; that single check is expected to fail and is kept
faithful rather than loosened.
"""
import random

import numpy as np

from hexsynth.circuit import Circuit, GateKind
from hexsynth.library import BOOLEAN_TABLE, THETA_KINDS, BooleanGateKind, build_core, build_gate
from hexsynth.layout import Placement, heavy_hex_127, ishape_brisbane, place, verify_no_swap
from hexsynth.rules import SearchQuery, count_space, iter_specs, phase_trace, search
from hexsynth.simulator import (EquivalenceLevel, equivalence, pauli_conjugate, truth_table,
                                unitary_of)
from hexsynth.transpiler import NativeBasis, compile_gate, lower, peephole

from conftest import BOOLEAN_TRUTH, random_clifford_t_circuit

K = GateKind

AND_SPEC = BOOLEAN_TABLE[BooleanGateKind.AND]


def report(n, detail=""):
    print(f"[criterion {n}] PASS {detail}".rstrip())


def fidelity(a: Circuit, b: Circuit) -> float:
    ua, ub = unitary_of(a), unitary_of(b)
    return abs(np.trace(ua.conj().T @ ub)) / ua.shape[0]


def test_criterion_01_boolean_truth_tables():
    for kind in BooleanGateKind:
        table = truth_table(build_core(BOOLEAN_TABLE[kind]), target=1, controls=(0, 2))
        assert table == BOOLEAN_TRUTH[kind], (kind.value, table)
    report(1, "(six Boolean gates, all 4 assignments, deterministic targets)")


def test_criterion_02_and_core_stage_trace():
    expected = {
        "00": ["|+>", "7pi/4", "-", "|+>", "-", "7pi/4", "-", "|+>", "|0>"],
        "01": ["|+>", "7pi/4", "-", "|+>", "|+>", "7pi/4", "-", "|+>", "|0>"],
        "10": ["|+>", "7pi/4", "pi/4", "|+i>", "-", "pi/4", "7pi/4", "|+>", "|0>"],
        "11": ["|+>", "7pi/4", "pi/4", "|+i>", "|-i>", "5pi/4", "3pi/4", "|->", "|1>"],
    }
    for controls, want in expected.items():
        got = phase_trace(AND_SPEC, controls)
        assert got == want, (controls, got)
    report(2, "(all four rows, every cell)")


def test_criterion_03_two_bit_counts_and_depths():
    expected = {
        "csx2": ({"sx": 2, "x": 0, "cx": 1, "rz": 4}, 7),
        "csxdg2": ({"sx": 2, "x": 0, "cx": 1, "rz": 4}, 7),
        "swap2": ({"sx": 2, "x": 0, "cx": 2, "rz": 4}, None),  # depth checked separately
    }
    for name, (counts, depth_want) in expected.items():
        rep = compile_gate(build_gate(name), NativeBasis.CX_BASIS).cost
        assert rep.counts == counts, (name, rep.counts)
        if depth_want is not None:
            assert rep.depth == depth_want, (name, rep.depth)
    report(3, "(counts exact for csx2/csxdg2/swap2; depths 7/7 for the controlled gates)")


def test_criterion_03_swap2_depth_reference_value():
    # Kept faithful and expected to fail: the reference depth of 3 is
    # unattainable for ANY circuit with the required counts.  Six one-qubit
    # plus two two-qubit gates occupy 10 wire-slots; on 2 wires that forces
    # at least ceil(10/2) = 5 layers under the defined depth.  The honest
    # computed value also appears as the single FAIL cell of `hexsynth tables`.
    rep = compile_gate(build_gate("swap2"), NativeBasis.CX_BASIS).cost
    assert rep.depth == 3, (
        f"swap2 transpiled depth is {rep.depth}; the reference value 3 cannot be "
        f"met together with the count targets (counting argument above)")


def test_criterion_04_ecr_counts_and_quantum_costs():
    ecr_expected = {"and3": 3, "and4": 6, "and5": 9, "pos5": 9, "sop5": 9,
                    "fredkin3": 5, "fredkin4": 8, "csx3": 4, "miller3": 7}
    standard_qc = {"and3": 55, "and4": 118, "and5": 452, "pos5": 196, "sop5": 196,
                   "fredkin3": 77, "fredkin4": 163, "csx3": 91, "miller3": 102}
    soft_1q = {"and3": {"x": 0, "sx": 14, "rz": 20}, "and4": {"x": 3, "sx": 19, "rz": 29},
               "and5": {"x": 4, "sx": 31, "rz": 46}, "pos5": {"x": 4, "sx": 31, "rz": 46},
               "sop5": {"x": 4, "sx": 31, "rz": 46}, "fredkin3": {"x": 0, "sx": 12, "rz": 23},
               "fredkin4": {"x": 0, "sx": 28, "rz": 44}, "csx3": {"x": 0, "sx": 19, "rz": 31},
               "miller3": {"x": 2, "sx": 16, "rz": 25}}
    reports = {}
    for name, want in ecr_expected.items():
        rep = compile_gate(build_gate(name), NativeBasis.ECR_BASIS).cost
        reports[name] = rep
        assert rep.counts["ecr"] == want, (name, rep.counts["ecr"])
        assert rep.qc < standard_qc[name], (name, rep.qc, standard_qc[name])
    same = {name: reports[name].as_dict() for name in ("and5", "pos5", "sop5")}
    assert same["and5"] == same["pos5"] == same["sop5"]
    # soft target: single-qubit counts within 20 percent (reported, non-blocking)
    for name, refs in soft_1q.items():
        for tag, ref in refs.items():
            have = reports[name].counts.get(tag, 0)
            ok = abs(have - ref) <= 0.2 * max(ref, 1)
            print(f"  soft 1q {name}.{tag}: computed {have} vs reference {ref}"
                  f" -> {'within' if ok else 'outside'} 20%")
    report(4, "(ECR counts exact; qc strictly below the standard-approach costs)")


def test_criterion_05_configuration_space_counts():
    assert count_space(1, 1, 4) == 256
    assert count_space(3, 9, 4) == 186624
    visited = sum(1 for _ in iter_specs(SearchQuery(target="0001", theta_set=THETA_KINDS)))
    assert visited == 256
    report(5, "(256 and 186624; enumeration visits exactly 256)")


def test_criterion_06_rule_search():
    hits = search(SearchQuery(target="0001", symmetric=True))
    assert [h.spec.theta for h in hits] == [
        (K.T, K.TDG, K.T, K.TDG), (K.TDG, K.T, K.TDG, K.T)]
    targets = {BooleanGateKind.AND: "0001", BooleanGateKind.NAND: "1110",
               BooleanGateKind.OR: "0111", BooleanGateKind.NOR: "1000",
               BooleanGateKind.IMPLICATION: "1011", BooleanGateKind.INHIBITION: "0100"}
    for kind, target in targets.items():
        q = SearchQuery(target=target, ax2_set=("i", "z", "-z"),
                        theta_set=THETA_KINDS)
        assert BOOLEAN_TABLE[kind] in [h.spec for h in search(q)], kind.value
    report(6, "(the two AND configurations exactly; every table row rediscovered)")


def test_criterion_07_equivalence_levels():
    and3 = build_gate("and3").relabeled({0: 0, 1: 2, 2: 1})
    level = equivalence(and3, build_gate("toffoli"))
    assert level is EquivalenceLevel.L2_RELATIVE_PHASE
    assert level.at_least(EquivalenceLevel.L3_CLASSICAL)
    assert not level.at_least(EquivalenceLevel.L1_GLOBAL_PHASE)

    assert equivalence(build_gate("fredkin3"),
                       build_gate("fredkin_std")).at_least(
        EquivalenceLevel.L2_RELATIVE_PHASE)
    assert equivalence(build_gate("swap2"),
                       build_gate("swap2_std")).at_least(
        EquivalenceLevel.L2_RELATIVE_PHASE)
    assert equivalence(build_gate("csx2"),
                       build_gate("csx2_std")).at_least(
        EquivalenceLevel.L2_RELATIVE_PHASE)
    report(7, "(and3 L2+L3 not L1; fredkin3/swap2/csx2 at least L2)")


def test_criterion_08_transpiler_soundness():
    rng = random.Random(20240814)
    worst = 1.0
    for _ in range(200):
        width = rng.randint(1, 4)
        circuit = random_clifford_t_circuit(rng, width, rng.randint(0, 40))
        for basis in NativeBasis:
            worst = min(worst, fidelity(circuit, peephole(lower(circuit, basis))))
    assert worst >= 1 - 1e-9, worst

    from hexsynth.circuit import Angle, Gate
    rows = [Circuit(1, (Gate(k, (0,)),)) for k in
            (K.I, K.X, K.Y, K.Z, K.H, K.SX, K.SXDG, K.S, K.SDG, K.T, K.TDG)]
    rows.append(Circuit(1, (Gate(K.RZ, (0,), Angle.pi_frac(1, 4)),)))
    for row in rows:
        for basis in NativeBasis:
            assert fidelity(row, lower(row, basis)) >= 1 - 1e-9, row.gates
    report(8, f"(200 seeded circuits, both bases, worst fidelity {worst:.2e};"
              " every rewrite row L1-verified)")


def test_criterion_09_layout_no_swap_and_displacement():
    cmap = heavy_hex_127()
    shape = ishape_brisbane(cmap)
    family = ("and3", "nand3", "or3", "nor3", "imp3", "inh3", "csx2", "csxdg2", "swap2",
              "and4", "and5", "pos5", "sop5", "fredkin3", "fredkin4", "csx3", "csxdg3",
              "miller3")
    for name in family:
        placement = place(name, shape)
        for basis in NativeBasis:
            ok, violations = verify_no_swap(peephole(lower(build_gate(name), basis)),
                                            cmap, placement)
            assert ok, (name, basis.value, violations)
    # displacing any core target from its triple middle to an end must violate
    displaced = {
        "and3": {"c1": 62, "t": 61, "c2": 63},
        "fredkin3": {"c": 62, "b": 61, "a": 63},
        "and4": {"c1": 62, "anc": 61, "c2": 63, "t": 72, "c3": 81},
        "and5": {"c1": 61, "anc1": 62, "c2": 63, "t": 80, "c3": 72, "anc2": 81, "c4": 82},
    }
    for name, assignment in displaced.items():
        ok, violations = verify_no_swap(build_gate(name), cmap, Placement(assignment))
        assert not ok and violations, name
    for c, p, want in ((K.H, K.Z, (K.X, 1)), (K.S, K.X, (K.Y, 1)), (K.H, K.X, (K.Z, 1)),
                       (K.Z, K.X, (K.X, -1)), (K.Z, K.Y, (K.Y, -1)), (K.X, K.Z, (K.Z, -1))):
        assert pauli_conjugate(c, p) == want
    report(9, "(all placements swap-free in both bases; displaced targets violate)")


def test_criterion_10_pauli_conjugation_rows():
    rows = [
        (K.H, K.Z, K.X, +1),
        (K.S, K.X, K.Y, +1),
        (K.H, K.X, K.Z, +1),
        (K.Z, K.X, K.X, -1),
        (K.Z, K.Y, K.Y, -1),
        (K.X, K.Z, K.Z, -1),
    ]
    for c, p, want, sign in rows:
        assert pauli_conjugate(c, p) == (want, sign), (c.value, p.value)
    report(10, "(all six conjugation rows with correct signs)")
