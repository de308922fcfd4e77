import json

import pytest

from hexsynth.cli import main
from hexsynth.circuit import parse_text
from hexsynth.simulator import equivalence, EquivalenceLevel
from hexsynth.library import build_gate

from conftest import map_data


def run(*argv):
    return main(list(argv))


class TestBuild:
    def test_and3_nine_gate_lines(self, tmp_path, capsys):
        out = tmp_path / "and3.txt"
        assert run("build", "and3", "-o", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "qubits 3"
        assert len(lines[1:]) == 9
        tags = [ln.split()[0] for ln in lines[1:]]
        assert tags == ["h", "tdg", "cx", "t", "cx", "tdg", "cx", "t", "h"]

    def test_fredkin3_round_trips(self, tmp_path):
        out = tmp_path / "fredkin3.txt"
        assert run("build", "fredkin3", "-o", str(out)) == 0
        parsed = parse_text(out.read_text())
        level = equivalence(parsed, build_gate("fredkin3"))
        assert level is EquivalenceLevel.L1_GLOBAL_PHASE

    def test_unknown_gate(self, capsys):
        assert run("build", "foo") == 1
        assert "unknown gate" in capsys.readouterr().err

    def test_help_lists_every_registry_name(self, capsys):
        from hexsynth.library import GATES

        with pytest.raises(SystemExit):
            run("build", "--help")
        listed = capsys.readouterr().out.split("one of:")[1].split("\n\n")[0]
        listed = listed.replace(",", " ").split()
        assert listed == sorted(GATES)


class TestTranspileAndSimulate:
    def test_transpile_to_ecr(self, tmp_path):
        src = tmp_path / "and3.txt"
        run("build", "and3", "-o", str(src))
        dst = tmp_path / "and3_ecr.txt"
        assert run("transpile", str(src), "--basis", "ecr", "--peephole", "-o", str(dst)) == 0
        lowered = parse_text(dst.read_text())
        assert sum(1 for g in lowered.gates if g.kind.value == "ecr") == 3

    def test_simulate_and3_true_branch(self, tmp_path, capsys):
        src = tmp_path / "and3.txt"
        run("build", "and3", "-o", str(src))
        # |q2 q1 q0> = |1 0 1>: both controls on, target off
        assert run("simulate", str(src), "--input", "101", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["points"]) == 1
        assert data["points"][0]["basis"] == "111"

    def test_simulate_bad_input(self, tmp_path, capsys):
        src = tmp_path / "and3.txt"
        run("build", "and3", "-o", str(src))
        assert run("simulate", str(src), "--input", "01") == 1

    @pytest.mark.parametrize("argv", [("simulate", "{src}", "--input", "0"),
                                      ("transpile", "{src}", "--basis", "cx")])
    def test_nan_angle_is_an_error(self, tmp_path, capsys, argv):
        for expr in ("nan", "pi/0", "3*pi/0"):
            src = tmp_path / "bad_angle.txt"
            src.write_text(f"qubits 1\nrz({expr}) q[0]\n")
            assert run(*(a.format(src=src) for a in argv)) == 1
            captured = capsys.readouterr()
            assert f"line 2: bad angle expression: '{expr}'" in captured.err
            assert expr not in captured.out

    def test_simulate_too_wide_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "wide.txt"
        src.write_text("qubits 40\nx q[39]\n")
        assert run("simulate", str(src), "--input", "0" * 40) == 1
        assert "error: statevectors support at most 20 qubits" in capsys.readouterr().err


def _bad_truth(gate, controls, got):
    return (f"--truth for {gate} is {2 ** controls} characters of 0/1, one per assignment "
            f"of its {controls} controls, got {got!r}")


class TestVerify:
    def test_and3_l2_passes(self):
        assert run("verify", "and3", "--against", "toffoli", "--level", "L2") == 0

    def test_and3_l1_fails(self):
        assert run("verify", "and3", "--against", "toffoli", "--level", "L1") == 1

    def test_nor3_truth(self):
        assert run("verify", "nor3", "--truth", "1000") == 0
        assert run("verify", "nor3", "--truth", "0001") == 1

    def test_verify_needs_a_mode(self, capsys):
        assert run("verify", "and3") == 1

    def test_truth_needs_one_target_wire(self, capsys):
        assert run("verify", "swap2", "--truth", "0") == 1
        assert capsys.readouterr().err == "error: swap2 has no single target wire for a truth check\n"

    def test_oracle_with_other_role_counts_is_graded_as_built(self, capsys):
        # equal widths, but swap2 has two targets and csx2 a control and a
        # target, so no role-for-role alignment exists
        from hexsynth import cli

        assert cli._aligned_oracle(build_gate("swap2"), build_gate("csx2")) is build_gate("csx2")
        assert run("verify", "swap2", "--against", "csx2") == 1
        assert capsys.readouterr().out == ("equivalence vs csx2: NONE\n"
                                           "requested L2: NOT ACHIEVED\n")

    def test_verify_width_mismatch_is_an_error(self, capsys):
        assert run("verify", "and4", "--against", "toffoli") == 1
        assert "error: width mismatch: 5 vs 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error",
                             [(("and3", "--truth", "0001", "--against", "nope"),
                               "unknown gate: 'nope'"),
                              (("and4", "--truth", "0001", "--against", "toffoli"),
                               "width mismatch: 5 vs 3"),
                              (("nope",), "verify needs --against or --truth"),
                              (("and3", "--truth", "01"), _bad_truth("and3", 2, "01")),
                              (("and3", "--truth", "00x1"), _bad_truth("and3", 2, "00x1")),
                              (("and3", "--truth", "00010"), _bad_truth("and3", 2, "00010")),
                              (("and4", "--truth", "0001"), _bad_truth("and4", 3, "0001")),
                              (("and3", "--truth", "01", "--against", "toffoli"),
                               _bad_truth("and3", 2, "01"))])
    def test_verify_checks_its_inputs_before_printing(self, capsys, argv, error):
        assert run("verify", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


class TestSearchCostTrace:
    def test_search_and(self, capsys):
        assert run("search", "--target", "0001", "--symmetric", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        thetas = [h["spec"]["theta"] for h in data["hits"]]
        assert ["tdg", "t", "tdg", "t"] in thetas and ["t", "tdg", "t", "tdg"] in thetas

    @pytest.mark.parametrize("flag, value, message", [
        ("--ax1-set", "i,nope", "ax1 must name an auxiliary entry"),
        ("--ax2-set", "z,cx", "ax2 must name an auxiliary entry"),
        ("--sp-set", "h,nope", "unknown gate name 'nope'")])
    def test_search_rejects_unknown_names(self, capsys, flag, value, message):
        assert run("search", "--target", "0001", flag, value) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")

    def test_search_help_lists_the_names(self, capsys):
        with pytest.raises(SystemExit):
            run("search", "--help")
        out = " ".join(capsys.readouterr().out.split())
        assert "{h, sx, sxdg}" in out and "{s, sdg, t, tdg}" in out
        assert out.count("{i, x, sx, sxdg, z, s, sdg, t, tdg, -z}") == 2

    def test_cost_json(self, capsys):
        assert run("cost", "and3", "--basis", "ecr", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["counts"]["ecr"] == 3
        assert data["qc"] == sum(data["counts"].values())

    def test_cost_with_layout(self, tmp_path, capsys):
        from hexsynth.layout import heavy_hex_127

        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(map_data(heavy_hex_127())))
        placement = tmp_path / "p.json"
        placement.write_text(json.dumps({"assignment": {"c1": 61, "t": 62, "c2": 63}}))
        assert run("cost", "and3", "--basis", "ecr", "--layout", str(mapfile),
                   "--placement", str(placement), "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["swap_free"] is True

    @pytest.mark.parametrize("gate, code, placement",
                             [("toffoli_ry", 0, {"c1": 61, "c2": 63, "t": 62}),
                              ("toffoli", 1, None)])
    def test_cost_with_layout_places_from_the_gate(self, tmp_path, capsys, gate, code,
                                                   placement):
        # the RY Toffoli couples c1-t and c2-t only, so it places around the
        # middle qubit; the textbook one also couples c1-c2, a triangle
        from hexsynth.layout import heavy_hex_127

        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(map_data(heavy_hex_127())))
        assert run("cost", gate, "--layout", str(mapfile), "--json") == code
        captured = capsys.readouterr()
        if placement is None:
            assert "does not fit 'brisbane I-shape'" in captured.err
        else:
            data = json.loads(captured.out)
            assert data["swap_free"] is True and data["placement"] == placement

    def test_cost_with_layout_lacking_the_ishape_places_on_the_whole_map(self, tmp_path, capsys):
        from hexsynth.layout import heavy_hex_127

        data = map_data(heavy_hex_127())
        data["edges"].remove([62, 72])
        mapfile = tmp_path / "cut.json"
        mapfile.write_text(json.dumps(data))
        assert run("cost", "and3", "--layout", str(mapfile), "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["swap_free"] is True and data["placement"] == {"c1": 0, "t": 1, "c2": 2}

    def test_cost_names_an_unknown_gate_before_a_bad_layout(self, capsys):
        assert run("cost", "nope", "--layout", "missing.json") == 1
        assert capsys.readouterr().err == "error: unknown gate: 'nope'\n"

    @pytest.mark.parametrize("text", ['{"num_qubits": 1e400, "edges": [[0, 1]]}',
                                      '{"num_qubits": 3, "edges": [[0, 1e400]]}'])
    def test_cost_with_non_integer_layout_is_an_error(self, tmp_path, capsys, text):
        mapfile = tmp_path / "m.json"
        mapfile.write_text(text)
        assert run("cost", "and3", "--layout", str(mapfile)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_cost_lowers_once(self, tmp_path, capsys, monkeypatch):
        # the cost report and the placement check read the same lowered circuit
        from hexsynth import cli, transpiler
        from hexsynth.layout import heavy_hex_127

        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps(map_data(heavy_hex_127())))
        want = transpiler.compile_gate(build_gate("and4"), transpiler.NativeBasis.ECR_BASIS).cost
        calls = []
        real = transpiler.peephole

        def counting(circuit):
            calls.append(circuit.name)
            return real(circuit)

        monkeypatch.setattr(transpiler, "peephole", counting)
        monkeypatch.setattr(cli, "peephole", counting)
        assert run("cost", "and4", "--basis", "ecr", "--layout", str(mapfile), "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert data["swap_free"] is True
        assert {k: data[k] for k in ("counts", "qc", "depth")} == want.as_dict()

    def test_trace_row(self, capsys):
        assert run("trace", "and3", "--controls", "11", "--json") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stages"] == ["|+>", "7pi/4", "pi/4", "|+i>", "|-i>",
                                  "5pi/4", "3pi/4", "|->", "|1>"]

    def test_trace_rejects_composites(self, capsys):
        assert run("trace", "and4", "--controls", "11") == 1

    def test_trace_bad_controls_is_an_error(self, capsys):
        assert run("trace", "and3", "--controls", "2") == 1
        assert capsys.readouterr().err == "error: control_state must be two bits, got '2'\n"


class TestTables:
    def test_tables_writes_reports(self, tmp_path, capsys):
        code = run("tables", "-o", str(tmp_path), "--json")
        data = json.loads(capsys.readouterr().out)
        assert (tmp_path / "tables.json").exists()
        assert (tmp_path / "tables.txt").exists()
        # every cell passes except the known swap2 depth reference
        fails = []

        def walk(node, path):
            if isinstance(node, dict):
                if node.get("pass") is False:
                    fails.append(path)
                for k, v in node.items():
                    walk(v, path + (k,))

        walk(data, ())
        assert fails == [("two_bit_cx_basis", "swap2", "depth")]
        assert code == 1


class TestBadInputFiles:
    # every unreadable input file is an `error: ...` line and exit 1, not a traceback
    NOT_UTF8 = b'{"num_qubits": \xff\xfe}\n'
    TRUNCATED = b'{"num_qubits": 3, "edg'

    def test_transpile_non_utf8_circuit(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"qubits 1\nx q[0]\n\xff\xfe\n")
        assert run("transpile", str(src), "--basis", "ecr") == 1
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [("qubits x\nh q[0]\n", "line 1: bad header 'qubits x'"),
                                             ("h q0\n", "line 1: cannot parse 'h q0'"),
                                             # a digit to str.isdigit that int() cannot read
                                             ("qubits \u00b2\nh q[0]\n",
                                              "line 1: bad header 'qubits \u00b2'")])
    def test_transpile_unparsable_circuit(self, tmp_path, capsys, text, error):
        src = tmp_path / "bad.txt"
        src.write_text(text, encoding="utf-8")
        assert run("transpile", str(src), "--basis", "cx") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {error}\n"

    def test_simulate_non_utf8_circuit(self, tmp_path, capsys):
        src = tmp_path / "bad.txt"
        src.write_bytes(b"\xff qubits 1\n")
        assert run("simulate", str(src), "--input", "0") == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--layout", "--placement"])
    @pytest.mark.parametrize("payload", [NOT_UTF8, TRUNCATED, b"[1, 2]"],
                             ids=["not-utf8", "truncated", "not-an-object"])
    def test_cost_bad_json(self, tmp_path, capsys, flag, payload):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        assert run("cost", "and3", "--basis", "ecr", flag, str(bad)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_cost_placement_qubit_not_an_integer(self, tmp_path, capsys):
        bad = tmp_path / "p.json"
        bad.write_text(json.dumps({"assignment": {"c1": "x", "t": 62, "c2": 63}}))
        assert run("cost", "and3", "--placement", str(bad)) == 1
        assert "placement qubits must be integers" in capsys.readouterr().err

    def test_cost_placement_assignment_not_an_object(self, tmp_path, capsys):
        pairs = tmp_path / "p.json"
        pairs.write_text(json.dumps({"assignment": [["c1", 61], ["t", 62], ["c2", 63]]}))
        assert run("cost", "and3", "--placement", str(pairs)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "placement must map wire names to qubits" in captured.err

    def test_cost_map_name_not_a_string(self, tmp_path, capsys):
        from hexsynth.layout import heavy_hex_127

        mapfile = tmp_path / "map.json"
        mapfile.write_text(json.dumps({**map_data(heavy_hex_127()), "name": {"x": 1}}))
        assert run("cost", "and3", "--layout", str(mapfile)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: map name must be a string, got {'x': 1}\n"

    def test_cost_placement_qubit_off_the_map(self, tmp_path, capsys):
        off = tmp_path / "p.json"
        off.write_text(json.dumps({"assignment": {"c1": 61, "t": 62, "c2": 999}}))
        assert run("cost", "and3", "--placement", str(off)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "physical qubit 999, off the 127-qubit map" in captured.err


class TestRepeatedCalls:
    # `main` keeps one parser for the process; no call may leave anything
    # behind for the next one
    CALLS = [("trace", "and3"),  # --controls missing: argparse exits 2
             ("cost", "and3", "--json"),
             ("cost", "and3", "--basis", "cx"),
             ("trace", "and3", "--controls", "11"),
             ("build", "nope")]

    @staticmethod
    def _outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_back_to_back_calls_print_what_each_prints_alone(self, capsys):
        from hexsynth import cli

        alone = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            alone.append(self._outcome(capsys, argv))
        in_a_row = [self._outcome(capsys, argv) for argv in self.CALLS]
        assert in_a_row == alone
        assert [code for code, _, _ in alone] == [2, 0, 0, 0, 1]
        assert "--controls" in alone[0][2]
        assert json.loads(alone[1][1])["basis"] == "ecr"
        assert alone[2][1].startswith("and3 [cx]")
