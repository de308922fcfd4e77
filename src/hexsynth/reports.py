"""Reference-value reports: recompute every headline number and mark PASS/FAIL.

The reference values live in data/expected_values.json so the ground truth
stays auditable and separate from code.  Four blocks are produced:

  two_bit_cx_basis     gate counts and depth of the 2-bit gates, CX basis
  and_core_stage_trace the nine-stage phase trace of the AND core
  native_ecr_costs     ECR counts and quantum cost of the gate family,
                       against the standard-approach cost baseline
  config_space_sizes   closed-form configuration counts vs. real enumeration

Soft targets (single-qubit counts within 20 percent) are reported but never
flip a cell to FAIL; hard targets do.
"""
from __future__ import annotations

import json
from importlib import resources

from .library import THETA_KINDS, BooleanGateKind, build_gate
from .rules import SearchQuery, count_space, iter_specs, phase_trace
from .transpiler import NativeBasis, compile_gate

SOFT_TOLERANCE = 0.20


def expected_values() -> dict:
    with resources.files("hexsynth.data").joinpath("expected_values.json").open("r") as fh:
        return json.load(fh)


def _cell(computed, expected) -> dict:
    return {"computed": computed, "expected": expected, "pass": computed == expected}


def two_bit_block(expected: dict) -> dict:
    block = {}
    for gate, want in expected.items():
        rep = compile_gate(build_gate(gate), NativeBasis.CX_BASIS).cost
        block[gate] = {
            key: _cell(rep.counts.get(key, 0), want[key]) for key in ("sx", "x", "cx", "rz")
        }
        block[gate]["depth"] = _cell(rep.depth, want["depth"])
    return block


def trace_block(expected: dict) -> dict:
    return {controls: _cell(phase_trace(BooleanGateKind.AND.spec, controls), want)
            for controls, want in expected.items()}


def ecr_block(expected: dict) -> dict:
    block = {}
    for gate, want in expected.items():
        rep = compile_gate(build_gate(gate), NativeBasis.ECR_BASIS).cost
        soft = {}
        for key, ref in want["soft_1q"].items():
            have = rep.counts.get(key, 0)
            ok = abs(have - ref) <= SOFT_TOLERANCE * max(ref, 1)
            soft[key] = {"computed": have, "reference": ref, "within_20pct": ok}
        block[gate] = {
            "ecr": _cell(rep.counts.get("ecr", 0), want["ecr"]),
            "qc": {"computed": rep.qc, "standard_qc": want["standard_qc"],
                   "pass": rep.qc < want["standard_qc"]},
            "depth": rep.depth,
            "soft_1q": soft,
        }
    return block


def space_block(expected: dict) -> dict:
    block = {}
    for label, want in expected.items():
        computed = count_space(want["sp"], want["ax"], want["theta"])
        block[label] = _cell(computed, want["count"])
    visited = sum(1 for _ in iter_specs(SearchQuery(target="0001", theta_set=THETA_KINDS)))
    block["restricted_enumeration"] = _cell(visited, expected["restricted"]["count"])
    return block


def generate() -> dict:
    ref = expected_values()
    return {
        "two_bit_cx_basis": two_bit_block(ref["two_bit_cx_basis"]),
        "and_core_stage_trace": trace_block(ref["and_core_stage_trace"]),
        "native_ecr_costs": ecr_block(ref["native_ecr_costs"]),
        "config_space_sizes": space_block(ref["config_space_sizes"]),
    }


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def render_text(report: dict) -> str:
    lines = []
    lines.append("== 2-bit gates, CX basis ==")
    for gate, cells in report["two_bit_cx_basis"].items():
        parts = [f"{key}={c['computed']}({_mark(c['pass'])})" for key, c in cells.items()]
        lines.append(f"  {gate:8s} " + "  ".join(parts))
    lines.append("")
    lines.append("== AND core stage trace ==")
    for controls, cell in report["and_core_stage_trace"].items():
        lines.append(f"  |{controls}>  {' '.join(f'{s:>6s}' for s in cell['computed'])}  {_mark(cell['pass'])}")
    lines.append("")
    lines.append("== gate family, ECR basis ==")
    for gate, cells in report["native_ecr_costs"].items():
        soft = " ".join(
            f"{k}={v['computed']}/{v['reference']}{'~' if v['within_20pct'] else '!'}"
            for k, v in cells["soft_1q"].items())
        lines.append(
            f"  {gate:9s} ecr={cells['ecr']['computed']}({_mark(cells['ecr']['pass'])})"
            f"  qc={cells['qc']['computed']}<{cells['qc']['standard_qc']}({_mark(cells['qc']['pass'])})"
            f"  depth={cells['depth']}  soft: {soft}")
    lines.append("")
    lines.append("== configuration-space sizes ==")
    for label, cell in report["config_space_sizes"].items():
        lines.append(f"  {label:24s} {cell['computed']} ({_mark(cell['pass'])})")
    lines.append("")
    failures = count_failures(report)
    lines.append(f"{failures} FAIL cell(s)" if failures else "all cells PASS")
    return "\n".join(lines) + "\n"


def count_failures(report: dict) -> int:
    failures = 0

    def walk(node):
        nonlocal failures
        if isinstance(node, dict):
            if "pass" in node and node["pass"] is False:
                failures += 1
            for v in node.values():
                walk(v)

    walk(report)
    return failures
