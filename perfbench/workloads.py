"""The three workloads, driving hexsynth through its public functions.

A run is a sequence of rounds; `round(k)` makes round k's items from the
seed, `run` does one item inside the timed region and returns the program's
raw outputs, and `check_round` judges a round's outputs with the
independent checker, outside it.  Every call into a layer sits in a span
named after the layer's module and function.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

import hexsynth
from hexsynth import (NativeBasis, build_gate, count_gates, emit_text, equivalence,
                      heavy_hex_127, ishape_brisbane, load_map, lower, parse_text, peephole,
                      phase_trace, place, route_naive, search, truth_table, unitary_of,
                      verify_no_swap)
from hexsynth import cli, reports
from hexsynth.library import BOOLEAN_TABLE, FAMILY_GATES, BooleanGateKind
from hexsynth.rules import query_from_names

import check
import gen

DATA_DIR = os.path.join(os.path.dirname(hexsynth.__file__), "data")
MAP_PATH = os.path.join(DATA_DIR, "brisbane.json")
BASES = {"cx": NativeBasis.CX_BASIS, "ecr": NativeBasis.ECR_BASIS}


class Program:
    """What set-up leaves ready for the first item."""

    def __init__(self, tr):
        with tr.span("bench.setup"):
            with tr.span("layout.heavy_hex_127"):
                self.lattice = heavy_hex_127()
            with tr.span("layout.load_map"):
                self.bundled = load_map(MAP_PATH)
            with tr.span("layout.ishape_brisbane"):
                self.shape = ishape_brisbane(self.bundled)
            with tr.span("library.build_gate"):
                build_gate("and3")


class Search:
    """Seeded `rules.search` queries; an item is one query, counted by its
    configurations."""

    unit = "configuration"
    item_name = "query"
    tail_pct = 90

    def __init__(self, program: Program, seed: int):
        self.seed = seed

    def round(self, k: int) -> list[dict]:
        return [dict(q, query=query_from_names(q["target"], sp=q["sp"], ax1=q["ax1"],
                                               ax2=q["ax2"], theta=q["theta"]))
                for q in gen.search_queries(self.seed, k)]

    def weight(self, item: dict) -> int:
        return gen.space_size(item)

    def run(self, item: dict, tr):
        with tr.span("rules.search", configs_visited=self.weight(item)) as c:
            hits = search(item["query"])
        c["hits"] = len(hits)
        return hits

    def check_round(self, items, outputs) -> list[list[str]]:
        return [check.check_search(item, [dict(h.spec.describe(), level=h.level.name)
                                          for h in hits], gen.AX_ALPHABET)
                for item, hits in zip(items, outputs)]

    def output_counts(self, items, outputs) -> dict:
        return {}


class Transpile:
    """`hexsynth transpile --peephole` in process on seeded 6-qubit circuits."""

    unit = "circuit"
    item_name = "circuit"
    tail_pct = 97

    def __init__(self, program: Program, seed: int):
        self.seed = seed

    def round(self, k: int) -> list[dict]:
        return gen.transpile_inputs(self.seed, k)

    def weight(self, item: dict) -> int:
        return 1

    def run(self, item: dict, tr):
        with tr.span("circuit.parse_text") as c:
            circuit = parse_text(item["text"])
        c["gates"] = len(circuit.gates)
        with tr.span("transpiler.lower", gates_in=len(circuit.gates)) as c:
            lowered = lower(circuit, BASES[item["basis"]])
        c["gates_out"] = len(lowered.gates)
        with tr.span("transpiler.peephole", gates_in=len(lowered.gates)) as c:
            optimized = peephole(lowered)
        c["gates_out"] = len(optimized.gates)
        with tr.span("circuit.count_gates"):
            report = count_gates(optimized)
        with tr.span("circuit.emit_text"):
            text = emit_text(optimized)
        return report, text

    def check_round(self, items, outputs) -> list[list[str]]:
        verdicts = []
        for item, (report, text) in zip(items, outputs):
            errors = check.check_transpile(item["text"], item["basis"], text)
            if not errors:
                own = check.costs(*check.read_text(text))
                errors += _report_errors(report, own, "count_gates")
            verdicts.append(errors)
        return verdicts

    def output_counts(self, items, outputs) -> dict:
        total = {"2q": 0, "1q": 0, "depth": 0}
        for _, text in outputs:
            own = check.out_counts(check.costs(*check.read_text(text)))
            for key in total:
                total[key] += own[key]
        return total


def _report_errors(report, own: dict, what: str) -> list[str]:
    if report.counts != own["counts"] or report.qc != own["qc"] or report.depth != own["depth"]:
        return [f"{what} {report.as_dict()} differs from the circuit's own counts {own}"]
    return []


# Boolean gates checked by truth table: (documented truth string or None).
_TRUTH = {"and3": "0001", "nand3": "1110", "or3": "0111", "nor3": "1000",
          "imp3": "1011", "inh3": "0100", "and4": "0" * 7 + "1", "and5": "0" * 15 + "1",
          "pos5": None, "sop5": None}
# The five criterion-7 pairs: oracle name and the wire relabeling of the gate.
_PAIRS = {"and3": ("toffoli", {0: 0, 1: 2, 2: 1}), "fredkin3": ("fredkin_std", None),
          "swap2": ("swap2_std", None), "csx2": ("csx2_std", None),
          "csxdg2": ("csxdg2_std", None)}
_AND_CORE = BOOLEAN_TABLE[BooleanGateKind.AND]


class Family:
    """The paper's reproduction path: each of the 18 family gates built,
    lowered in both bases, placed, costed through the CLI, routed and
    verified, one item per gate; then one more item, the pass's phase trace
    and report.  The report is an item of its own so that the tail does not
    depend on which gate the seeded order puts last."""

    unit = "gate"
    item_name = "gate or report"
    tail_pct = 99

    def __init__(self, program: Program, seed: int):
        self.program = program
        self.seed = seed
        self.widths = {name: build_gate(name).width for name in FAMILY_GATES}
        with open(os.path.join(DATA_DIR, "expected_values.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)
        with open(MAP_PATH, encoding="utf-8") as fh:
            self.edges = {tuple(sorted(e)) for e in json.load(fh)["edges"]}

    def round(self, k: int) -> list[dict]:
        items = gen.family_round(self.seed, k, self.widths, self.program.lattice.num_qubits)
        return items + [{"name": "report"}]

    def weight(self, item: dict) -> int:
        """Items per second counts gates; the report item weighs nothing."""
        return 0 if item["name"] == "report" else 1

    def run(self, item: dict, tr):
        if item["name"] == "report":
            return self._report(tr)
        p = self.program
        name = item["name"]
        out = {"name": name}
        with tr.span("library.build_gate"):
            gate = out["gate"] = build_gate(name)
        with tr.span("layout.place"):
            placement = out["placement"] = place(name, p.shape)
        for tag, basis in BASES.items():
            with tr.span("transpiler.lower", gates_in=len(gate.gates)) as c:
                lowered = lower(gate, basis)
            c["gates_out"] = len(lowered.gates)
            with tr.span("transpiler.peephole", gates_in=len(lowered.gates)) as c:
                optimized = peephole(lowered)
            c["gates_out"] = len(optimized.gates)
            with tr.span("circuit.count_gates"):
                report = count_gates(optimized)
            with tr.span("layout.verify_no_swap") as c:
                ok, violations = verify_no_swap(optimized, p.bundled, placement)
            c["violations"] = len(violations)
            out[tag] = (optimized, report, ok, violations)
        buf = io.StringIO()
        with tr.span("cli.main"), contextlib.redirect_stdout(buf):
            rc = cli.main(["cost", name, "--basis", "ecr", "--layout", MAP_PATH, "--json"])
        out["cli"] = (rc, buf.getvalue())
        with tr.span("transpiler.route_naive") as c:
            routed = out["routed"] = route_naive(gate, p.lattice, item["placement"])
        c["swaps"] = routed.swaps_added
        with tr.span("simulator.unitary_of"):
            out["unitary"] = unitary_of(gate)
        if name in _TRUTH:
            with tr.span("simulator.truth_table"):
                out["truth"] = truth_table(gate, target=gate.target_qubits()[0],
                                           controls=gate.control_qubits(),
                                           ancillas=gate.ancilla_qubits())
        if name in _PAIRS:
            oracle_name, relabel = _PAIRS[name]
            with tr.span("library.build_gate"):
                oracle = build_gate(oracle_name)
            aligned = gate.relabeled(relabel) if relabel else gate
            with tr.span("simulator.equivalence"):
                out["equivalence"] = (oracle, aligned, equivalence(aligned, oracle))
        return out

    def _report(self, tr) -> dict:
        out = {"name": "report"}
        with tr.span("simulator.phase_trace"):
            out["trace"] = {c: phase_trace(_AND_CORE, c) for c in ("00", "01", "10", "11")}
        with tr.span("reports.generate") as c:
            report = out["report"] = reports.generate()
        c["fail_cells"] = reports.count_failures(report)
        with tr.span("reports.render_text"):
            out["report_text"] = reports.render_text(report)
        return out

    def _own_costs(self, out) -> dict:
        return {tag: check.costs(out["gate"].width, check.gate_tuples(out[tag][0]))
                for tag in BASES}

    def check_round(self, items, outputs) -> list[list[str]]:
        round_costs = {(o["name"], tag): cost for o in outputs if "gate" in o
                       for tag, cost in self._own_costs(o).items()}
        return [self._check_gate(out, round_costs) if "gate" in out
                else self._check_report(out, round_costs) for out in outputs]

    def _check_report(self, out, round_costs: dict) -> list[str]:
        errors = []
        if out["trace"] != self.expected["and_core_stage_trace"]:
            errors.append(f"AND-core phase trace {out['trace']} differs from the reference")
        errors += check.check_report(out["report"], self.expected, round_costs)
        if not out["report_text"].endswith("\n1 FAIL cell(s)\n"):
            errors.append("rendered report does not end with exactly 1 FAIL cell")
        return errors

    def _check_gate(self, out, round_costs: dict) -> list[str]:
        name, gate = out["name"], out["gate"]
        width, source = gate.width, check.gate_tuples(gate)
        own_u = check.unitary(width, source)
        errors = []
        if not np.allclose(out["unitary"], own_u, atol=check.ATOL):
            errors.append(f"{name}: unitary_of differs from the checker's unitary")
        wires = [out["placement"].assignment[w] for w in gate.wire_names]
        for tag in BASES:
            optimized, report, ok, violations = out[tag]
            gates = check.gate_tuples(optimized)
            stray = {g[0] for g in gates} - {"x", "sx", "rz", tag}
            if stray:
                errors.append(f"{name} [{tag}]: gates outside the basis {sorted(stray)}")
            elif not check.same_up_to_phase(own_u, check.unitary(width, gates)):
                errors.append(f"{name} [{tag}]: lowered circuit differs from the gate")
            errors += _report_errors(report, round_costs[(name, tag)], f"{name} [{tag}]")
            physical = [(g[0], tuple(wires[q] for q in g[1]), None) for g in gates]
            errors += check.check_edges(physical, self.edges, f"{name} [{tag}] I-shape placement")
            if not ok or violations:
                errors.append(f"{name} [{tag}]: verify_no_swap reports {violations}")
        rc, text = out["cli"]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = {}
        ecr = round_costs[(name, "ecr")]
        if (rc != 0 or payload.get("swap_free") is not True
                or payload.get("qc") != ecr["qc"] or payload.get("depth") != ecr["depth"]
                or {k: v for k, v in payload.get("counts", {}).items() if v} != ecr["counts"]):
            errors.append(f"{name}: `hexsynth cost` gave exit {rc} and {text.strip()[:200]}")
        routed = out["routed"]
        gates = check.gate_tuples(routed.circuit)
        errors += check.check_edges(gates, self.edges, f"{name} routed")
        swaps = sum(1 for g in gates if g[0] == "swap")
        if swaps != routed.swaps_added:
            errors.append(f"{name}: route reports {routed.swaps_added} swaps, circuit has {swaps}")
        if len(gates) != len(source) + swaps:
            errors.append(f"{name}: routed circuit lost or gained gates")
        if name in _TRUTH:
            own = check.truth_of(own_u, width, gate.target_qubits()[0], gate.control_qubits())
            got = "".join(str(out["truth"][k]) for k in sorted(out["truth"]))
            if got != own or (_TRUTH[name] is not None and got != _TRUTH[name]):
                errors.append(f"{name}: truth table {got}, checker {own}, documented {_TRUTH[name]}")
        if name in _PAIRS:
            oracle, aligned, level = out["equivalence"]
            own = check.grade(check.unitary(width, check.gate_tuples(aligned)),
                              check.unitary(oracle.width, check.gate_tuples(oracle)))
            if level.name != own or own not in ("L1_GLOBAL_PHASE", "L2_RELATIVE_PHASE"):
                errors.append(f"{name}: equivalence {level.name}, checker {own}")
        return errors

    def output_counts(self, items, outputs) -> dict:
        total = {"2q": 0, "1q": 0, "depth": 0, "swaps": 0}
        for out in outputs:
            if "gate" not in out:
                continue
            total["swaps"] += out["routed"].swaps_added
            for cost in self._own_costs(out).values():
                for key, value in check.out_counts(cost).items():
                    total[key] += value
        return total


WORKLOADS = {"search": Search, "transpile": Transpile, "family": Family}
