import dataclasses

import numpy as np
import pytest

from hexsynth.circuit import Circuit, CircuitError, GateKind
from hexsynth.library import (AX_ENTRIES, BOOLEAN_BY_NAME, BOOLEAN_TABLE, FAMILY_GATES, GATES,
                              BooleanGateKind, CoreSpec, build_core, build_gate, core_gates)
from hexsynth.simulator import (EquivalenceLevel, Statevector, apply, equivalence,
                                truth_string, truth_table, unitary_of)

from conftest import (BOOLEAN_TRUTH, SX_MAT, controlled_gate_unitary, fredkin_unitary,
                      swap_unitary, toffoli_unitary)

K = GateKind


def classical_outcome(circuit, bits):
    """Deterministic basis output index, or None when the output is spread."""
    out = apply(circuit, Statevector.basis(circuit.width, bits))
    probs = np.abs(out.amps) ** 2
    top = int(np.argmax(probs))
    return top if probs[top] > 1 - 1e-10 else None


class TestCoreSpec:
    def test_symmetric_flag(self):
        assert CoreSpec(theta=(K.TDG, K.T, K.TDG, K.T)).symmetric
        assert not CoreSpec(theta=(K.T, K.T, K.TDG, K.T)).symmetric

    def test_rejects_bad_slots(self):
        with pytest.raises(CircuitError):
            CoreSpec(sp1=K.X)
        with pytest.raises(CircuitError):
            CoreSpec(theta=(K.T, K.T, K.T, K.H))
        with pytest.raises(CircuitError, match="theta must be four gates"):
            CoreSpec(theta=K.T)

    # theta is four rotation kinds in a tuple or list; an unhashable entry
    # fails the same way as any other non-kind
    @pytest.mark.parametrize("theta", [([K.T], K.T, K.T, K.T), (K.T, K.T, K.T, {}), "tttt",
                                       (K.T, K.T, K.T), (K.T,) * 5, [K.T, K.T, K.H, K.T],
                                       (K.T, K.T, K.T, "t"), ((K.T,), K.T, K.T, K.T), None,
                                       {K.T: 1, K.S: 2, K.TDG: 3, K.SDG: 4}])
    def test_rejects_theta_that_is_not_four_rotation_kinds(self, theta):
        with pytest.raises(CircuitError, match=r"^theta must be four gates from \{s, sdg, t, tdg\}$"):
            CoreSpec(theta=theta)

    def test_fields_are_slots_of_a_frozen_spec(self):
        # no instance dict: the constructor stores each field in its slot
        spec = CoreSpec(sp1=K.SX, ax1="z", theta=[K.T, K.S, K.T, K.S], ax2="-z", sp2=K.SXDG)
        assert not hasattr(spec, "__dict__")
        assert (spec.sp1, spec.ax1, spec.theta, spec.ax2, spec.sp2) == \
            (K.SX, "z", (K.T, K.S, K.T, K.S), "-z", K.SXDG)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.ax1 = "i"
        assert dataclasses.replace(spec, ax1="i") == CoreSpec(K.SX, "i", (K.T, K.S, K.T, K.S), "-z", K.SXDG)
        with pytest.raises(CircuitError, match="^ax2 must name an auxiliary entry"):
            dataclasses.replace(spec, ax2="cx")

    def test_list_theta_is_stored_as_a_tuple(self):
        spec = CoreSpec(theta=[K.TDG, K.T, K.TDG, K.T])
        assert type(spec.theta) is tuple and spec == CoreSpec()
        assert hash(spec) == hash(CoreSpec())

    # an AX slot holds an AX_ENTRIES name: not a kind, a kind tuple or list, or another string
    @pytest.mark.parametrize("slots", [dict(ax1=("x",)), dict(ax2=(K.X, "z")),
                                       dict(ax1=K.X), dict(ax2=(K.X,)), dict(ax1=(K.CX,)),
                                       dict(ax2=[K.Z]), dict(ax1=["x"]), dict(ax1=()),
                                       dict(ax2="cx"), dict(ax1="x+z"), dict(ax2="rz"),
                                       dict(ax1=None)])
    def test_rejects_ax_entries_that_are_not_names(self, slots):
        slot, = slots
        with pytest.raises(CircuitError, match=f"^{slot} must name an auxiliary entry "
                                               r"\(i, x, sx, sxdg, z, s, sdg, t, tdg, -z\), got "):
            CoreSpec(**slots)

    def test_core_wire_shape(self):
        c = build_core(BOOLEAN_TABLE[BooleanGateKind.AND])
        assert c.width == 3
        assert c.wire_names == ("c1", "t", "c2")
        # target wire carries every single-qubit gate; controls only drive CXs
        for g in c.gates:
            if len(g.qubits) == 1:
                assert g.qubits == (1,)

    def test_no_control_control_coupling(self):
        for kind in BooleanGateKind:
            c = build_core(BOOLEAN_TABLE[kind])
            for g in c.gates:
                if len(g.qubits) == 2:
                    assert 1 in g.qubits  # always through the target

    def test_and3_gate_sequence(self):
        kinds = [g.kind for g in build_gate("and3").gates]
        assert kinds == [K.H, K.TDG, K.CX, K.T, K.CX, K.TDG, K.CX, K.T, K.H]


class TestBooleanGates:
    @pytest.mark.parametrize("kind", list(BooleanGateKind))
    def test_truth_table_matches_function(self, kind):
        table = truth_table(build_core(BOOLEAN_TABLE[kind]), target=1, controls=(0, 2))
        assert table == BOOLEAN_TRUTH[kind]

    def test_and_vs_toffoli_levels(self):
        and3 = build_gate("and3").relabeled({0: 0, 1: 2, 2: 1})
        level = equivalence(and3, build_gate("toffoli"))
        assert level is EquivalenceLevel.L2_RELATIVE_PHASE
        assert np.allclose(np.abs(unitary_of(and3)), np.abs(toffoli_unitary()), atol=1e-12)

    def test_nand_core_uses_three_gate_minus_z(self):
        spec = BOOLEAN_TABLE[BooleanGateKind.NAND]
        assert spec.ax2 == "-z" and AX_ENTRIES["-z"] == (K.X, K.Z, K.X)
        assert CoreSpec(theta=(K.TDG, K.T, K.TDG, K.T), ax2="-z") == spec
        # -Z equals Z up to global phase, so NAND == NOT(AND) classically
        table = truth_table(build_gate("nand3"), target=1, controls=(0, 2))
        assert truth_string(table) == "1110"


class TestTwoBitGates:
    def test_csx_vs_exact_oracle(self):
        csx = build_gate("csx2")
        want = controlled_gate_unitary(SX_MAT)
        assert np.allclose(np.abs(unitary_of(csx)), np.abs(want), atol=1e-12)

    def test_csxdg_vs_exact_oracle(self):
        csxdg = build_gate("csxdg2")
        want = controlled_gate_unitary(SX_MAT.conj().T)
        assert np.allclose(np.abs(unitary_of(csxdg)), np.abs(want), atol=1e-12)

    def test_csx_single_cx(self):
        counts = sum(1 for g in build_gate("csx2").gates if g.kind is K.CX)
        assert counts == 1

    def test_swap_bloch_two_cx_and_l2(self):
        sw = build_gate("swap2")
        assert sum(1 for g in sw.gates if g.kind is K.CX) == 2
        assert np.allclose(np.abs(unitary_of(sw)), np.abs(swap_unitary()), atol=1e-12)

    def test_csx_control_off_block_is_phase_only(self):
        # on-control-off, the target experiences a diagonal (basis-preserving) map
        u = unitary_of(build_gate("csx2"))
        for t in (0, 1):
            col = u[:, t << 1]
            assert abs(col[t << 1]) == pytest.approx(1.0)


class TestComposites:
    def test_ancilla_counts(self):
        counts = {"and4": 1, "and5": 2, "pos5": 2, "sop5": 2, "fredkin3": 0,
                  "fredkin4": 1, "csx3": 1, "csxdg3": 1, "miller3": 0}
        for name, m in counts.items():
            assert len(build_gate(name).ancilla_qubits()) == m

    def test_and4_truth(self):
        c = build_gate("and4")
        table = truth_table(c, target=3, controls=(0, 2, 4), ancillas=(1,))
        assert truth_string(table) == "00000001"

    def test_and5_pos5_sop5_truths(self):
        cases = {
            "and5": lambda c1, c2, c3, c4: c1 & c2 & c3 & c4,
            "pos5": lambda c1, c2, c3, c4: (c1 | c2) & (c3 | c4),
            "sop5": lambda c1, c2, c3, c4: (c1 & c2) | (c3 & c4),
        }
        for name, f in cases.items():
            c = build_gate(name)
            table = truth_table(c, target=3, controls=(0, 2, 4, 6), ancillas=(1, 5))
            for key, bit in table.items():
                c4, c3, c2, c1 = (int(ch) for ch in key)
                assert bit == f(c1, c2, c3, c4), (name, key)

    def test_fredkin3_all_eight_cases(self):
        c = build_gate("fredkin3")  # wires (c=0, b=1, a=2)
        for b in range(8):
            got = classical_outcome(c, {q: (b >> q) & 1 for q in range(3)})
            if b & 1:
                want = (b & 1) | (((b >> 2) & 1) << 1) | (((b >> 1) & 1) << 2)
            else:
                want = b
            assert got == want

    def test_fredkin3_vs_exact(self):
        level = equivalence(build_gate("fredkin3"),
                            build_gate("fredkin_std"))
        assert level.at_least(EquivalenceLevel.L2_RELATIVE_PHASE)

    def test_fredkin4_all_sixteen_cases(self):
        c = build_gate("fredkin4")  # wires c1,anc,c2,b,a
        for m in range(16):
            c1, c2, bb, aa = m & 1, (m >> 1) & 1, (m >> 2) & 1, (m >> 3) & 1
            got = classical_outcome(c, {0: c1, 2: c2, 3: bb, 4: aa})
            assert got is not None
            if c1 and c2:
                bb, aa = aa, bb
            assert (got >> 3) & 1 == bb and (got >> 4) & 1 == aa
            assert got & 1 == c1 and (got >> 2) & 1 == c2

    def test_csx3_marginals_match_exact_oracle(self):
        c = build_gate("csx3")  # wires c1,anc,c2,t
        for m in range(8):
            c1, c2, t = m & 1, (m >> 1) & 1, (m >> 2) & 1
            out = apply(c, Statevector.basis(4, {0: c1, 2: c2, 3: t}))
            probs = np.zeros(8)
            for b, amp in enumerate(out.amps):
                probs[(b & 1) | (((b >> 2) & 1) << 1) | (((b >> 3) & 1) << 2)] += abs(amp) ** 2
            want = np.zeros(8)
            if c1 and c2:
                for t2 in (0, 1):
                    want[c1 | (c2 << 1) | (t2 << 2)] = abs(SX_MAT[t2, t]) ** 2
            else:
                want[m] = 1.0
            assert np.allclose(probs, want, atol=1e-9), m

    def test_csx3_twice_gives_toffoli_behavior(self):
        from hexsynth.library import _AND, _csx2_gates

        gates = (core_gates(_AND, c1=0, t=1, c2=2) + _csx2_gates(c=1, t=3)
                 + core_gates(_AND, c1=0, t=4, c2=2) + _csx2_gates(c=4, t=3))
        twice = Circuit(5, tuple(gates))
        for m in range(8):
            c1, c2, t = m & 1, (m >> 1) & 1, (m >> 2) & 1
            got = classical_outcome(twice, {0: c1, 2: c2, 3: t})
            assert got is not None
            assert (got >> 3) & 1 == t ^ (c1 & c2)
            assert got & 1 == c1 and (got >> 2) & 1 == c2

    def test_miller3_is_the_majority_transposition(self):
        c = build_gate("miller3")  # wires c1,t,c2
        u = np.abs(unitary_of(c))
        # a permutation with phases: one unit entry per column
        assert np.allclose(np.sort(u, axis=0)[-1], 1.0, atol=1e-9)
        perm = {b: int(np.argmax(u[:, b])) for b in range(8)}
        # swaps (c1,c2,t) = (1,1,0) <-> (0,0,1); target output is majority
        assert perm == {0: 0, 1: 1, 2: 5, 3: 3, 4: 4, 5: 2, 6: 6, 7: 7}
        for b in range(8):
            maj = int((b & 1) + ((b >> 1) & 1) + ((b >> 2) & 1) >= 2)
            assert (perm[b] >> 1) & 1 == maj

    def test_miller3_cx_budget(self):
        cx = sum(1 for g in build_gate("miller3").gates if g.kind is K.CX)
        assert cx == 7  # 3 in the core + 4 dressing

    def test_unknown_kind(self):
        with pytest.raises(CircuitError):
            build_gate("foo")


class TestStandardOracles:
    def test_toffoli_exact(self):
        assert np.allclose(unitary_of(build_gate("toffoli")),
                           toffoli_unitary(), atol=1e-12)

    def test_swap_exact(self):
        assert np.allclose(unitary_of(build_gate("swap2_std")),
                           swap_unitary(), atol=1e-12)

    def test_fredkin_exact(self):
        assert np.allclose(unitary_of(build_gate("fredkin_std")),
                           fredkin_unitary(), atol=1e-12)

    def test_csx_exact(self):
        assert np.allclose(unitary_of(build_gate("csx2_std")),
                           controlled_gate_unitary(SX_MAT), atol=1e-12)

    def test_csxdg_exact(self):
        assert np.allclose(unitary_of(build_gate("csxdg2_std")),
                           controlled_gate_unitary(SX_MAT.conj().T), atol=1e-12)

    def test_ry_toffoli_is_relative_phase(self):
        # the symmetric RY network reproduces Toffoli magnitudes but carries a
        # -1 on the (c1=1, c2=0) branch, so it lands at L2, not L1
        ry = build_gate("toffoli_ry")
        level = equivalence(ry, build_gate("toffoli"))
        assert level is EquivalenceLevel.L2_RELATIVE_PHASE

    @pytest.mark.parametrize("n", [4, 5])
    def test_toffoli_n_truth(self, n):
        c = build_gate(f"toffoli{n}")
        controls = tuple(range(n - 1))
        target = n - 1
        table = truth_table(c, target=target, controls=controls,
                            ancillas=c.ancilla_qubits())
        for key, bit in table.items():
            assert bit == int(all(ch == "1" for ch in key))

    def test_toffoli_n_uncomputes_ancillas(self):
        c = build_gate("toffoli4")
        for m in range(8):
            out = apply(c, Statevector.basis(5, {q: (m >> q) & 1 for q in range(3)}))
            idx = int(np.argmax(np.abs(out.amps) ** 2))
            assert (idx >> 4) & 1 == 0  # ancilla back to |0>

    def test_toffoli_n_range(self):
        with pytest.raises(CircuitError):
            build_gate("toffoli6")


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(GATES))
    def test_every_entry_builds_under_its_own_name(self, name):
        c = build_gate(name)
        assert c.name == name
        assert len(c.wire_names) == len(c.roles) == c.width
        assert len(set(c.wire_names)) == c.width

    def test_boolean_core_is_the_registry_gate(self):
        for name, kind in BOOLEAN_BY_NAME.items():
            core = build_core(BOOLEAN_TABLE[kind])
            assert core.name == "core" and dataclasses.replace(core, name=name) == build_gate(name)

    def test_names_keep_their_order(self):
        # the benchmark, the goldens and `hexsynth tables` iterate these orders
        assert FAMILY_GATES == ("and3", "nand3", "or3", "nor3", "imp3", "inh3",
                                "csx2", "csxdg2", "swap2", "and4", "and5", "pos5", "sop5",
                                "fredkin3", "fredkin4", "csx3", "csxdg3", "miller3")
        assert list(GATES) == [*FAMILY_GATES, "toffoli", "toffoli4", "toffoli5", "toffoli_ry",
                               "fredkin_std", "csx2_std", "csxdg2_std", "swap2_std"]
        assert list(BOOLEAN_BY_NAME) == list(FAMILY_GATES[:6])
        assert list(BOOLEAN_TABLE) == list(BooleanGateKind)

    def test_each_boolean_member_carries_its_gate_and_spec(self):
        assert [(kind.value, kind.gate) for kind in BooleanGateKind] == [
            ("and", "and3"), ("nand", "nand3"), ("or", "or3"), ("nor", "nor3"),
            ("implication", "imp3"), ("inhibition", "inh3")]
        assert all(BooleanGateKind(kind.value) is BOOLEAN_BY_NAME[kind.gate] is kind
                   and BOOLEAN_TABLE[kind] is kind.spec for kind in BooleanGateKind)

    def test_registry_holds_each_gate_as_one_shared_circuit(self, monkeypatch):
        from hexsynth import library

        assert len(GATES) == 26
        assert all(type(c) is Circuit and c.name == name for name, c in GATES.items())

        def no_build(*args):
            raise AssertionError("build_gate built a circuit")

        monkeypatch.setattr(library, "_circuit", no_build)
        monkeypatch.setattr(library, "Circuit", no_build)
        assert all(build_gate(name) is GATES[name] for name in GATES)
        # one registry: no second module-level table keyed by the gate names
        tables = [v for v in vars(library).values() if isinstance(v, dict) and set(v) == set(GATES)]
        assert tables == [GATES]
