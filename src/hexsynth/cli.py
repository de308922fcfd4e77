"""Command-line front end: build, transpile, simulate, verify, search, cost,
trace, and reference-table regeneration.

Exit status is 0 exactly on full success; domain errors print to stderr and
exit 1.  `--json` switches any command from aligned text to machine output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import reports
from .circuit import (ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET, Circuit, CircuitError, emit_text,
                      parse_text)
from .library import (AX_ENTRIES, BOOLEAN_BY_NAME, GATES, SUPERPOSITION_KINDS, THETA_KINDS,
                      build_gate)
from .layout import Placement, load_map
from .rules import STAGE_NAMES, phase_trace, query_from_names, search
from .simulator import (EquivalenceLevel, Statevector, apply, equivalence, qsphere, truth_string,
                        truth_table)
from .transpiler import NativeBasis, compile_gate, lower, peephole


def _read_text(path: str) -> str:
    """An input file's text; bytes that are not UTF-8 are a CircuitError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise CircuitError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _write_text(text: str, path: str | None) -> None:
    """Write `text` to the file at `path`, or to standard output without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    _write_text(emit_text(build_gate(args.gate)), args.output)
    return 0


def cmd_transpile(args) -> int:
    lowered = lower(parse_text(_read_text(args.file)), NativeBasis(args.basis))
    _write_text(emit_text(peephole(lowered) if args.peephole else lowered), args.output)
    return 0


def cmd_simulate(args) -> int:
    circuit = parse_text(_read_text(args.file))
    bits = args.input
    if len(bits) != circuit.width or any(ch not in "01" for ch in bits):
        raise CircuitError(f"--input must be {circuit.width} bits (|q_n-1 ... q_0>)")
    start = Statevector.basis(circuit.width, {circuit.width - 1 - i: int(ch)
                                              for i, ch in enumerate(bits)})
    points = qsphere(apply(circuit, start))
    if args.json:
        print(json.dumps({"input": bits, "points": points}, indent=2))
    else:
        for p in points:
            print(f"|{p['basis']}>  magnitude={p['magnitude']:.6f}  phase={p['phase']:.6f}")
    return 0


def _aligned_oracle(gate: Circuit, oracle: Circuit) -> Circuit:
    """Permute the oracle so its control/target/ancilla wires line up with
    the gate's (both sides keep their own internal ordering).  Registry
    gates tag every wire with one of the three roles; an oracle of another
    width or role count is graded as built."""
    if gate.width != oracle.width:
        return oracle
    mapping = {}
    for role in (ROLE_CONTROL, ROLE_TARGET, ROLE_ANCILLA):
        src = [i for i, r in enumerate(oracle.roles) if r == role]
        dst = [i for i, r in enumerate(gate.roles) if r == role]
        if len(src) != len(dst):
            return oracle
        mapping.update(dict(zip(src, dst)))
    return oracle.relabeled(mapping)


def cmd_verify(args) -> int:
    if args.truth is None and args.against is None:
        raise CircuitError("verify needs --against or --truth")
    gate = build_gate(args.gate)
    if args.against is not None:
        level = equivalence(gate, _aligned_oracle(gate, build_gate(args.against)))
    ok = True
    if args.truth is not None:
        controls = gate.control_qubits()
        targets = gate.target_qubits()
        if len(targets) != 1:
            raise CircuitError(f"{args.gate} has no single target wire for a truth check")
        rows = 2 ** len(controls)
        if len(args.truth) != rows or not set(args.truth) <= {"0", "1"}:
            raise CircuitError(f"--truth for {args.gate} is {rows} characters of 0/1, one per "
                               f"assignment of its {len(controls)} controls, got {args.truth!r}")
        table = truth_table(gate, target=targets[0], controls=controls,
                            ancillas=gate.ancilla_qubits())
        realized = truth_string(table)
        records = [{"assignment": key, "bit": bit} for key, bit in sorted(table.items())]
        print(f"truth table: {json.dumps(records)}  (string {realized})")
        ok = realized == args.truth
        print("truth:", "MATCH" if ok else f"MISMATCH (wanted {args.truth})")
    if args.against is not None:
        print(f"equivalence vs {args.against}: {level.name}")
        want = {"L1": EquivalenceLevel.L1_GLOBAL_PHASE,
                "L2": EquivalenceLevel.L2_RELATIVE_PHASE,
                "L3": EquivalenceLevel.L3_CLASSICAL}[args.level]
        ok = ok and level.at_least(want)
        print(f"requested {args.level}:", "ACHIEVED" if level.at_least(want) else "NOT ACHIEVED")
    return 0 if ok else 1


def cmd_search(args) -> int:
    query = query_from_names(
        target=args.target,
        sp=args.sp_set.split(","),
        ax1=args.ax1_set.split(","),
        ax2=args.ax2_set.split(","),
        theta=args.theta_set.split(","),
        symmetric=args.symmetric,
    )
    hits = search(query)
    if args.json:
        print(json.dumps({"target": args.target, "hits": [h.as_dict() for h in hits]}, indent=2))
    else:
        print(f"{len(hits)} configuration(s) realize {args.target}")
        for h in hits:
            d = h.spec.describe()
            print(f"  sp1={d['sp1']} ax1={d['ax1']} theta={','.join(d['theta'])} "
                  f"ax2={d['ax2']} sp2={d['sp2']}  [{h.level.name}]")
    return 0


def cmd_cost(args) -> int:
    circuit = build_gate(args.gate)
    cmap = load_map(args.layout) if args.layout else None
    placement = None
    if args.placement:
        text = _read_text(args.placement)
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:  # not JSON, too deep or too many digits
            raise CircuitError(f"{args.placement}: malformed placement JSON: {e}") from None
        placement = Placement.from_dict(data)
    compiled = compile_gate(circuit, NativeBasis(args.basis), cmap, placement)
    payload = {"gate": args.gate, "basis": args.basis, **compiled.as_dict()}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        counts = "  ".join(f"{k}={v}" for k, v in sorted(payload["counts"].items()))
        print(f"{args.gate} [{args.basis}]  {counts}  qc={payload['qc']} depth={payload['depth']}")
        if "swap_free" in payload:
            print("placement:", payload["placement"])
            print("swap-free:", payload["swap_free"],
                  "" if payload["swap_free"] else payload["violations"])
    return 0 if payload.get("swap_free", True) else 1


def cmd_trace(args) -> int:
    kind = BOOLEAN_BY_NAME.get(args.gate)
    if kind is None:
        raise CircuitError(f"trace supports the 3-bit Boolean gates, not {args.gate!r}")
    labels = phase_trace(kind.spec, args.controls)
    if args.json:
        print(json.dumps({"gate": args.gate, "controls": args.controls, "stages": labels}))
    else:
        for name, label in zip(STAGE_NAMES, labels):
            print(f"{name:7s} {label}")
    return 0


def cmd_tables(args) -> int:
    report = reports.generate()
    text = reports.render_text(report)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        _write_text(json.dumps(report, indent=2), os.path.join(args.output, "tables.json"))
        _write_text(text, os.path.join(args.output, "tables.txt"))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(text)
    return 0 if reports.count_failures(report) == 0 else 1


def _one_of(names) -> str:
    """Help text of a search alphabet option: the names it accepts."""
    return f"comma-separated names from {{{', '.join(names)}}}"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused: parsing
    leaves it unchanged, and each call gets a fresh namespace."""
    p = argparse.ArgumentParser(prog="hexsynth",
                                description="layout-aware Clifford+T gate synthesis toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a library gate as circuit text")
    b.add_argument("gate", help=f"one of: {', '.join(sorted(GATES))}")
    b.add_argument("-o", "--output")
    b.set_defaults(fn=cmd_build)

    t = sub.add_parser("transpile", help="lower a circuit file to a native basis")
    t.add_argument("file")
    t.add_argument("--basis", choices=[b.value for b in NativeBasis], required=True)
    t.add_argument("--peephole", action="store_true")
    t.add_argument("-o", "--output")
    t.set_defaults(fn=cmd_transpile)

    s = sub.add_parser("simulate", help="apply a circuit file to a basis state")
    s.add_argument("file")
    s.add_argument("--input", required=True, help="bit string |q_n-1 ... q_0>")
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_simulate)

    v = sub.add_parser("verify", help="check a gate against an oracle or truth table")
    v.add_argument("gate")
    v.add_argument("--against")
    v.add_argument("--level", choices=("L1", "L2", "L3"), default="L2")
    v.add_argument("--truth", help="one bit per control assignment, ascending "
                                   "(00,01,10,11 for two controls)")
    v.set_defaults(fn=cmd_verify)

    se = sub.add_parser("search", help="enumerate core configurations for a truth table")
    se.add_argument("--target", required=True)
    se.add_argument("--symmetric", action="store_true")
    se.add_argument("--sp-set", default="h", help=_one_of(k.value for k in SUPERPOSITION_KINDS))
    se.add_argument("--ax1-set", default="i", help=_one_of(AX_ENTRIES))
    se.add_argument("--ax2-set", default="i", help=_one_of(AX_ENTRIES))
    se.add_argument("--theta-set", default="t,tdg", help=_one_of(k.value for k in THETA_KINDS))
    se.add_argument("--json", action="store_true")
    se.set_defaults(fn=cmd_search)

    c = sub.add_parser("cost", help="native-basis cost report for a library gate")
    c.add_argument("gate")
    c.add_argument("--basis", choices=[b.value for b in NativeBasis], default="ecr")
    c.add_argument("--layout", help="coupling-map JSON file")
    c.add_argument("--placement", help="placement JSON file")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_cost)

    tr = sub.add_parser("trace", help="stage-by-stage target phase trace of a 3-bit core")
    tr.add_argument("gate")
    tr.add_argument("--controls", required=True, help="two bits |c2 c1>")
    tr.add_argument("--json", action="store_true")
    tr.set_defaults(fn=cmd_trace)

    ta = sub.add_parser("tables", help="recompute the reference tables and mark PASS/FAIL")
    ta.add_argument("-o", "--output", help="directory for tables.txt / tables.json")
    ta.add_argument("--json", action="store_true")
    ta.set_defaults(fn=cmd_tables)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CircuitError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
