import json
import re
from collections import deque

import pytest

from hexsynth import layout
from hexsynth.circuit import Circuit, CircuitError, Gate, GateKind, emit_text, parse_text
from hexsynth.cli import main
from hexsynth.layout import (CouplingMap, LayoutError, Placement, heavy_hex_127, ishape_brisbane,
                             load_map, place, verify_no_swap)
from hexsynth.library import FAMILY_GATES, GATES, build_gate
from hexsynth.transpiler import NativeBasis, lower, peephole, route_naive

from conftest import map_data

K = GateKind


def load_map_data(tmp_path, data):
    """`load_map` of `data` written to a JSON file."""
    f = tmp_path / "map.json"
    f.write_text(json.dumps(data))
    return load_map(str(f))


class TestCouplingMap:
    def test_tiny_line(self, tmp_path):
        cmap = load_map_data(tmp_path, {"name": "line", "num_qubits": 2, "edges": [[0, 1]]})
        assert cmap.num_qubits == 2 and cmap.has_edge(1, 0)

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(LayoutError):
            load_map_data(tmp_path, {"name": "bad", "num_qubits": 2, "edges": [[0, 0]]})

    def test_dangling_index_rejected(self, tmp_path):
        with pytest.raises(LayoutError):
            load_map_data(tmp_path, {"name": "bad", "num_qubits": 2, "edges": [[0, 5]]})

    def test_malformed_json(self, tmp_path):
        with pytest.raises(LayoutError):
            load_map_data(tmp_path, {"nope": 1})

    @pytest.mark.parametrize("num_qubits", [2.5, 1e400, "2", True, None])
    def test_non_integer_qubit_count_rejected(self, tmp_path, num_qubits):
        with pytest.raises(LayoutError, match="num_qubits must be an integer"):
            load_map_data(tmp_path, {"name": "bad", "num_qubits": num_qubits, "edges": [[0, 1]]})

    @pytest.mark.parametrize("edge", [[0, 1.0], [1e400, 1], [0, "1"], [0, 1, 2], [0], [False, 1]])
    def test_non_integer_or_non_pair_edge_rejected(self, tmp_path, edge):
        with pytest.raises(LayoutError, match="two integer qubits"):
            load_map_data(tmp_path, {"name": "bad", "num_qubits": 3, "edges": [edge]})

    @pytest.mark.parametrize("num_qubits, edge, message",
                             [(3, (0, 1.7), "two integer qubits"),
                              (3, (0, 1, 2), "two integer qubits"),
                              (3.0, (0, 1), "num_qubits must be an integer"),
                              (3, 5, "edges must be a collection of qubit pairs, got 5$"),
                              (0, frozenset(), "^num_qubits must be >= 1, got 0$"),
                              (-5, frozenset(), "^num_qubits must be >= 1, got -5$"),
                              (3, (1, 1), "self-loop edge"),
                              (3, (0, 3), r"outside 0\.\.2")])
    def test_constructor_states_the_rules(self, num_qubits, edge, message):
        # a map built in code meets the same rules as one read from JSON; a
        # bare non-tuple stands for the whole edge collection
        edges = frozenset({edge}) if type(edge) is tuple else edge
        with pytest.raises(LayoutError, match=message):
            CouplingMap("m", num_qubits, edges)

    @pytest.mark.parametrize("num_qubits", [0, -5])
    def test_map_needs_a_qubit(self, tmp_path, num_qubits):
        # an empty map would only fail later, as a qubit "off the -5-qubit map"
        with pytest.raises(LayoutError, match=rf"^num_qubits must be >= 1, got {num_qubits}$"):
            load_map_data(tmp_path, {"num_qubits": num_qubits, "edges": []})
        assert load_map_data(tmp_path, {"num_qubits": 1, "edges": []}).qubits() == ()

    @pytest.mark.parametrize("name", [{"x": 1}, 7, None, ["line"]])
    def test_non_string_name_rejected(self, tmp_path, name):
        # the name is kept as read, so the error shows the JSON value itself
        message = re.escape(f"map name must be a string, got {name!r}")
        with pytest.raises(LayoutError, match=message):
            load_map_data(tmp_path, {"name": name, "num_qubits": 2, "edges": [[0, 1]]})
        with pytest.raises(LayoutError, match=message):
            CouplingMap(name, 2, frozenset({(0, 1)}))

    def test_huge_float_in_a_file_rejected(self, tmp_path):
        f = tmp_path / "map.json"
        f.write_text('{"name": "bad", "num_qubits": 1e400, "edges": [[0, 1]]}')
        with pytest.raises(LayoutError):
            load_map(str(f))

    def test_shortest_path(self, brisbane):
        assert brisbane.shortest_path(61, 61) == [61]
        assert brisbane.shortest_path(61, 63) == [61, 62, 63]
        path = brisbane.shortest_path(62, 81)
        assert path == [62, 72, 81]

    def test_shortest_path_walks_the_per_call_bfs_path(self):
        def per_call_bfs(cmap, src, dst):
            # the early-exit BFS each call ran before the trees were kept
            if src == dst:
                return [src]
            prev, queue = {src: None}, deque([src])
            while queue:
                cur = queue.popleft()
                for nxt in cmap.neighbors(cur):
                    if nxt not in prev:
                        prev[nxt] = cur
                        if nxt == dst:
                            path = [dst]
                            while prev[path[-1]] is not None:
                                path.append(prev[path[-1]])
                            return path[::-1]
                        queue.append(nxt)
            return None

        lattice = heavy_hex_127()
        for src in range(127):
            for dst in range(127):
                assert lattice.shortest_path(src, dst) == per_call_bfs(lattice, src, dst)
        split = CouplingMap("split", 5, frozenset({(0, 1), (1, 2), (3, 4)}))
        assert split.shortest_path(0, 2) == [0, 1, 2]
        assert split.shortest_path(0, 4) is None and split.shortest_path(4, 0) is None
        assert split.shortest_path(3, 4) == [3, 4]

    def test_bundled_map_round_trips(self, brisbane, tmp_path):
        f = tmp_path / "map.json"
        f.write_text(json.dumps(map_data(brisbane)))
        loaded = load_map(str(f))
        assert loaded.num_qubits == 127
        assert loaded.edges == brisbane.edges

    def test_packaged_brisbane_file(self, brisbane):
        from importlib import resources

        with resources.as_file(resources.files("hexsynth.data") / "brisbane.json") as path:
            loaded = load_map(path)
        assert loaded.num_qubits == 127
        assert loaded.edges == brisbane.edges


class TestHeavyHex:
    def test_basic_shape(self, brisbane):
        assert brisbane.num_qubits == 127
        assert len(brisbane.edges) == 144
        assert max(len(brisbane.neighbors(q)) for q in range(127)) == 3

    def test_neighbors_match_edge_scan(self, brisbane):
        for q in range(127):
            scan = sorted(b if a == q else a for a, b in brisbane.edges if q in (a, b))
            assert brisbane.neighbors(q) == tuple(scan)

    def test_documented_region_edges(self, brisbane):
        for a, b in ((61, 62), (62, 63), (80, 81), (81, 82), (62, 72), (72, 81)):
            assert brisbane.has_edge(a, b)
        assert not brisbane.has_edge(61, 63)
        assert not brisbane.has_edge(61, 72)

    def test_known_connector(self, brisbane):
        # the connector column used by the 2-qubit transpilation examples
        assert brisbane.has_edge(79, 91) and brisbane.has_edge(91, 98)


class TestIShape:
    EDGES = ((61, 62), (62, 63), (80, 81), (81, 82), (62, 72), (72, 81))

    def test_brisbane_ishape(self, brisbane):
        assert ishape_brisbane(brisbane).qubits() == (61, 62, 63, 72, 80, 81, 82)

    def test_edges(self, brisbane):
        shape = ishape_brisbane(brisbane)
        assert shape.edges == frozenset(self.EDGES)
        assert all(brisbane.has_edge(a, b) for a, b in shape.edges)

    def test_missing_coupling_rejected(self, brisbane):
        cut = CouplingMap("cut", 127, brisbane.edges - {(62, 72)})
        with pytest.raises(LayoutError, match=r"\(62, 72\) missing"):
            ishape_brisbane(cut)


class TestPlacement:
    def test_injective(self):
        with pytest.raises(LayoutError):
            Placement({"a": 1, "b": 1})

    @pytest.mark.parametrize("qubit", ["x", 1.0, True])
    def test_qubits_are_integers(self, qubit):
        with pytest.raises(LayoutError, match="placement qubits must be integers"):
            Placement({"t": qubit})

    def test_assignment_is_a_mapping(self):
        with pytest.raises(LayoutError, match="placement must map wire names to qubits"):
            Placement([("t", 1)])

    @pytest.mark.parametrize("assignment", [[["c1", 61], ["t", 62], ["c2", 63]], "t"])
    def test_from_dict_reads_the_assignment_as_it_is(self, assignment):
        with pytest.raises(LayoutError, match="placement must map wire names to qubits"):
            Placement.from_dict({"assignment": assignment})

    def test_json_round_trip(self):
        p = Placement({"c1": 61, "t": 62, "c2": 63})
        assert Placement.from_dict({"assignment": p.assignment}).assignment == p.assignment

    def test_and3_placement(self, brisbane):
        p = place("and3", ishape_brisbane(brisbane))
        assert p.assignment == {"c1": 61, "t": 62, "c2": 63}

    def test_and4_and5_placements(self, brisbane):
        shape = ishape_brisbane(brisbane)
        p4 = place("and4", shape).assignment
        assert p4 == {"c1": 61, "anc": 62, "c2": 63, "t": 72, "c3": 81}
        p5 = place("and5", shape).assignment
        assert p5["t"] == 72
        assert {p5["c1"], p5["c2"], p5["c3"], p5["c4"]} == {61, 63, 80, 82}
        assert {p5["anc1"], p5["anc2"]} == {62, 81}

    def test_placement_deterministic(self, brisbane):
        shape = ishape_brisbane(brisbane)
        assert place("fredkin4", shape).assignment == place("fredkin4", shape).assignment

    def test_unplaceable_gate(self, brisbane):
        # each couples three wires pairwise, and heavy-hex has no triangle
        for name in ("toffoli", "toffoli4", "toffoli5", "fredkin_std"):
            with pytest.raises(LayoutError, match="does not fit"):
                place(name, ishape_brisbane(brisbane))

    # every family gate's assignment, in wire order, as the hand table of
    # wire slots gave it: first triple (61, 62, 63), bridge 72, second
    # triple (80, 81, 82)
    CORE = {"c1": 61, "t": 62, "c2": 63}
    FIVE = {"c1": 61, "anc1": 62, "c2": 63, "t": 72, "c3": 80, "anc2": 81, "c4": 82}
    CSX3 = {"c1": 61, "anc": 62, "c2": 63, "t": 72}
    FAMILY = {
        "and3": CORE, "nand3": CORE, "or3": CORE, "nor3": CORE, "imp3": CORE,
        "inh3": CORE, "miller3": CORE,
        "csx2": {"c": 61, "t": 62}, "csxdg2": {"c": 61, "t": 62},
        "swap2": {"a": 61, "b": 62},
        "and4": {"c1": 61, "anc": 62, "c2": 63, "t": 72, "c3": 81},
        "and5": FIVE, "pos5": FIVE, "sop5": FIVE,
        "fredkin3": {"c": 61, "b": 62, "a": 63},
        "fredkin4": {"c1": 61, "anc": 62, "c2": 63, "b": 72, "a": 81},
        "csx3": CSX3, "csxdg3": CSX3,
    }

    @pytest.mark.parametrize("name", FAMILY_GATES)
    def test_family_placement_is_pinned(self, brisbane, name):
        got = place(name, ishape_brisbane(brisbane)).assignment
        want = self.FAMILY[name]
        assert list(got.items()) == list(want.items())

    def test_placement_is_a_fresh_value_each_call(self, brisbane):
        shape = ishape_brisbane(brisbane)
        first = place("and3", shape)
        first.assignment["t"] = 99
        assert place("and3", shape).assignment == {"c1": 61, "t": 62, "c2": 63}

    def test_placement_follows_the_shape(self):
        # a shape on other qubits places the same wires on its own slots
        shape = CouplingMap("shape", 14, frozenset({(1, 2), (2, 3), (11, 12), (12, 13),
                                                    (2, 7), (7, 12)}))
        assert place("and4", shape).assignment == {"c1": 1, "anc": 2, "c2": 3, "t": 7, "c3": 12}

    @pytest.mark.parametrize("name", GATES)
    def test_places_on_the_whole_map(self, brisbane, name):
        # brisbane is heavy_hex_127(); only the triangle gates fit nowhere on it
        if name in ("toffoli", "toffoli4", "toffoli5", "fredkin_std"):
            with pytest.raises(LayoutError, match=f"^gate '{name}' does not fit 'brisbane'$"):
                place(name, brisbane)
            return
        placement = place(name, brisbane)
        for basis in NativeBasis:
            circuit = peephole(lower(build_gate(name), basis))
            ok, violations = verify_no_swap(circuit, brisbane, placement)
            assert ok, (name, basis, violations)

    def test_unknown_gate_is_an_error(self, brisbane):
        with pytest.raises(CircuitError, match="unknown gate"):
            place("nope", ishape_brisbane(brisbane))

    def test_places_the_circuit_it_is_given(self, brisbane):
        # the registry name and the circuit it builds place alike
        shape = ishape_brisbane(brisbane)
        assert place(build_gate("and4"), shape) == place("and4", shape)
        pair = Circuit(2, (Gate(K.CX, (1, 0)),), wire_names=("a", "b"))
        assert place(pair, shape).assignment == {"a": 61, "b": 62}

    def test_the_search_is_memoized_on_the_interaction_graph(self, brisbane):
        # two circuits with one graph, but other names and gates, share a search
        shape = ishape_brisbane(brisbane)
        layout._embedding.cache_clear()
        first = place(Circuit(3, (Gate(K.CX, (0, 1)), Gate(K.CX, (2, 1))), wire_names="xyz"), shape)
        other = Circuit(3, (Gate(K.CZ, (1, 2)), Gate(K.H, (0,)), Gate(K.CX, (1, 0))),
                        name="other", wire_names="uvw")
        assert place(other, shape).assignment == dict(zip("uvw", first.assignment.values()))
        assert layout._embedding.cache_info().hits == 1


class TestVerifyNoSwap:
    def test_empty_circuit(self, brisbane):
        c = Circuit(1, (), wire_names=("t",))
        ok, violations = verify_no_swap(c, brisbane, Placement({"t": 0}))
        assert ok and violations == []

    # plus the standard gates whose two-qubit gates form no triangle
    @pytest.mark.parametrize("name", FAMILY_GATES + ("toffoli_ry", "csx2_std", "csxdg2_std",
                                                     "swap2_std"))
    @pytest.mark.parametrize("basis", list(NativeBasis), ids=lambda b: b.value)
    def test_family_canonical_placements(self, brisbane, name, basis):
        circuit = peephole(lower(build_gate(name), basis))
        placement = place(name, ishape_brisbane(brisbane))
        ok, violations = verify_no_swap(circuit, brisbane, placement)
        assert ok, (name, basis, violations)

    def test_displaced_target_violates(self, brisbane):
        bad = Placement({"c1": 62, "t": 61, "c2": 63})
        ok, violations = verify_no_swap(build_gate("and3"), brisbane, bad)
        assert not ok
        assert any(v["physical"] == [63, 61] for v in violations)

    def test_uncovered_wire_errors(self, brisbane):
        with pytest.raises(LayoutError, match="cover"):
            verify_no_swap(build_gate("and3"), brisbane, Placement({"c1": 61, "t": 62}))

    @pytest.mark.parametrize("qubit", [999, 127, -4])
    def test_off_map_qubit_errors(self, brisbane, qubit):
        off = Placement({"c1": 61, "t": 62, "c2": qubit})
        with pytest.raises(LayoutError, match=f"placement puts wire 'c2' on physical qubit "
                                              f"{qubit}, off the 127-qubit map"):
            verify_no_swap(build_gate("and3"), brisbane, off)

    def test_circuit_without_wire_names_errors(self, brisbane):
        parsed = parse_text(emit_text(build_gate("and3")))
        assert parsed.wire_names is None
        with pytest.raises(LayoutError, match="^circuit has no wire names to match the placement$"):
            verify_no_swap(parsed, brisbane, Placement({"c1": 61, "t": 62, "c2": 63}))

    def test_works_on_any_map(self):
        # square-lattice style map: no heavy-hex assumption in the checker
        square = CouplingMap("square4", 4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
        c = Circuit(2, (Gate(K.CX, (0, 1)),), wire_names=("a", "b"))
        ok, _ = verify_no_swap(c, square, Placement({"a": 0, "b": 1}))
        assert ok
        ok, violations = verify_no_swap(c, square, Placement({"a": 0, "b": 2}))
        assert not ok and violations[0]["physical"] == [0, 2]


class TestOnePlacementRule:
    """Every entry point that takes a placement rejects a bad one with
    `Placement`'s LayoutError text; the CLI prints it and exits 1."""

    INDEX = {"c1": 0, "t": 1, "c2": 2, "x": 3}  # and3's wires, and one it lacks
    CASES = {
        "missing wire": ({"c1": 61, "t": 62}, "placement does not cover wire .+"),
        "extra wire": ({"c1": 61, "t": 62, "c2": 63, "x": 64},
                       "placement names wire .+, which the circuit lacks"),
        "repeated qubit": ({"c1": 61, "t": 61, "c2": 63}, "placement is not injective: .+"),
        "off-map qubit": ({"c1": 61, "t": 62, "c2": 127},
                          "placement puts wire .+ on physical qubit 127, off the 127-qubit map"),
    }

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("entry", ["route_naive", "verify_no_swap", "cost --placement"])
    def test_each_entry_point_rejects(self, entry, case, tmp_path, capsys):
        assignment, message = self.CASES[case]
        and3, lattice = build_gate("and3"), heavy_hex_127()
        if entry == "cost --placement":
            path = tmp_path / "placement.json"
            path.write_text(json.dumps({"assignment": assignment}))
            assert main(["cost", "and3", "--placement", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and re.fullmatch(f"error: {message}\n", captured.err)
            return
        with pytest.raises(LayoutError, match=f"^{message}$"):
            if entry == "route_naive":
                route_naive(and3, lattice, {self.INDEX[w]: q for w, q in assignment.items()})
            else:
                verify_no_swap(and3, lattice, Placement(assignment))
