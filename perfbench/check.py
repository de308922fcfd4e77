"""Independent output checker for the hexsynth benchmark.

Every verdict here comes from this module's own gate matrices and its own
reading of circuit text.  It never imports `hexsynth.simulator` or
`hexsynth.transpiler`; it reads the program's outputs (text, hit lists,
report dicts, gate lists) and recomputes what they must be.

Conventions (the package's documented ones): qubit 0 is the least
significant bit of a basis index; a two-qubit matrix is indexed
(first_qubit_bit << 1) | second_qubit_bit; RZ(g) = diag(e^{-ig/2}, e^{ig/2});
ECR = (IX - XY)/sqrt(2) in first (x) second order.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

ATOL = 1e-9
PROB_ATOL = 1e-10

_R = 1 / math.sqrt(2)
_W = complex(_R, _R)  # e^{i pi/4}
_I2 = np.eye(2, dtype=complex)
_XM = np.array([[0, 1], [1, 0]], dtype=complex)
_YM = np.array([[0, -1j], [1j, 0]], dtype=complex)

ONE_Q = {
    "i": _I2,
    "x": _XM,
    "y": _YM,
    "z": np.diag([1, -1]).astype(complex),
    "h": _R * np.array([[1, 1], [1, -1]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "sxdg": 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]]),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, _W]),
    "tdg": np.diag([1, _W.conjugate()]),
}


def _controlled(block: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = block
    return m


TWO_Q = {
    "cx": _controlled(_XM),
    "cy": _controlled(_YM),
    "cz": _controlled(ONE_Q["z"]),
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "ecr": _R * (np.kron(_I2, _XM) - np.kron(_XM, _YM)),
}

NATIVE_1Q = ("x", "sx", "rz")


def rotation(kind: str, radians: float) -> np.ndarray:
    if kind == "rz":
        return np.diag([np.exp(-0.5j * radians), np.exp(0.5j * radians)])
    c, s = math.cos(radians / 2), math.sin(radians / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


# --- circuit text ------------------------------------------------------------------

_LINE = re.compile(r"^([a-z]+)(?:\(([^)]*)\))?\s+q\[(\d+)\](?:\s*,\s*q\[(\d+)\])?$")
_PI = re.compile(r"^(-)?(?:(\d+)\*)?pi(?:/(\d+))?$")


def parse_angle(expr: str) -> float:
    m = _PI.match(expr.strip())
    if m is None:
        return float(expr)
    frac = Fraction(int(m.group(2) or 1), int(m.group(3) or 1))
    return (-1 if m.group(1) else 1) * float(frac) * math.pi


def read_text(text: str):
    """(width, gates) from circuit text; a gate is (tag, qubits, radians|None)."""
    width, gates = None, []
    for raw in text.splitlines():
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("qubits"):
            width = int(line.split()[1])
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"unreadable line {line!r}")
        qubits = tuple(int(q) for q in m.group(3, 4) if q is not None)
        angle = parse_angle(m.group(2)) if m.group(2) is not None else None
        gates.append((m.group(1), qubits, angle))
    if width is None:
        raise ValueError("missing qubits header")
    return width, gates


def gate_tuples(circuit):
    """(tag, qubits, radians|None) for each gate of a program Circuit object."""
    return [(g.kind.value, tuple(g.qubits), None if g.angle is None else g.angle.radians)
            for g in circuit.gates]


def matrix(tag: str, angle) -> np.ndarray:
    if tag in ONE_Q:
        return ONE_Q[tag]
    if tag in TWO_Q:
        return TWO_Q[tag]
    return rotation(tag, angle)


def unitary(width: int, gates) -> np.ndarray:
    """Dense unitary, applied gate by gate to a (2,)*width x 2**width tensor."""
    dim = 2 ** width
    u = np.eye(dim, dtype=complex).reshape((2,) * width + (dim,))
    for tag, qubits, angle in gates:
        k = len(qubits)
        axes = [width - 1 - q for q in qubits]
        op = matrix(tag, angle).reshape((2,) * (2 * k))
        u = np.tensordot(op, u, axes=(list(range(k, 2 * k)), axes))
        u = np.moveaxis(u, list(range(k)), axes)
    return u.reshape(dim, dim)


def same_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    return abs(np.trace(a.conj().T @ b)) / a.shape[0] >= 1 - ATOL


def grade(a: np.ndarray, b: np.ndarray) -> str:
    """The package's equivalence ladder: L1 global phase, L2 equal moduli,
    L3 equal output distributions, else NONE."""
    if same_up_to_phase(a, b):
        return "L1_GLOBAL_PHASE"
    if np.max(np.abs(np.abs(a) - np.abs(b))) <= ATOL:
        return "L2_RELATIVE_PHASE"
    if np.max(np.abs(np.abs(a) ** 2 - np.abs(b) ** 2)) <= ATOL:
        return "L3_CLASSICAL"
    return "NONE"


def truth_of(u: np.ndarray, width: int, target: int, controls) -> str | None:
    """Target outcome string over ascending control assignments, or None when
    some assignment leaves the target non-deterministic."""
    bits = []
    for m in range(2 ** len(controls)):
        col = sum(((m >> j) & 1) << q for j, q in enumerate(controls))
        probs = np.abs(u[:, col]) ** 2
        p1 = float(probs[(np.arange(2 ** width) >> target) & 1 == 1].sum())
        if p1 >= 1 - PROB_ATOL:
            bits.append("1")
        elif p1 <= PROB_ATOL:
            bits.append("0")
        else:
            return None
    return "".join(bits)


def costs(width: int, gates) -> dict:
    """Per-tag counts, total count and greedy layer depth of a gate list."""
    level = [0] * width
    counts: dict[str, int] = {}
    for tag, qubits, _ in gates:
        counts[tag] = counts.get(tag, 0) + 1
        layer = 1 + max(level[q] for q in qubits)
        for q in qubits:
            level[q] = layer
    return {"counts": counts, "qc": len(gates), "depth": max(level, default=0)}


def out_counts(cost: dict) -> dict:
    """The benchmark's output-cost triple: 2q gates, native 1q gates, depth."""
    counts = cost["counts"]
    return {"2q": counts.get("cx", 0) + counts.get("ecr", 0),
            "1q": sum(counts.get(tag, 0) for tag in NATIVE_1Q),
            "depth": cost["depth"]}


# --- transpile ---------------------------------------------------------------------

def check_transpile(source_text: str, basis: str, output_text: str) -> list[str]:
    """The output is in the basis and equals the source up to global phase."""
    try:
        width, src = read_text(source_text)
        out_width, out = read_text(output_text)
    except ValueError as e:
        return [f"unreadable circuit text: {e}"]
    errors = []
    allowed = {"x", "sx", "rz", basis}
    stray = sorted({g[0] for g in out} - allowed)
    if stray:
        errors.append(f"gates outside the {basis} basis: {stray}")
    if out_width != width:
        errors.append(f"width {out_width} != {width}")
    elif not stray and not same_up_to_phase(unitary(width, src), unitary(width, out)):
        errors.append("output is not equal to the input up to global phase")
    return errors


# --- search ------------------------------------------------------------------------
# The core acts on wires c1=0, t=1, c2=2: SP1, AX1, th1, CX(c2,t), th2,
# CX(c1,t), th3, CX(c2,t), th4, AX2, SP2.  Every configuration's 8x8 unitary
# is built by batched products, one (SP1, AX1) prefix at a time.

def _on_target(m2: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(_I2, m2), _I2)


def _cx_on_target(control: int) -> np.ndarray:
    u = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        u[b ^ 0b010 if (b >> control) & 1 else b, b] = 1
    return u


def _seq(tags) -> np.ndarray:
    m = _I2
    for tag in tags:
        m = ONE_Q[tag] @ m
    return m


def core_unitaries(sp1: str, ax1: tuple, sp, ax2: dict, theta):
    """(configs, unitaries) for one (sp1, ax1) prefix over the product space
    theta^4, ax2, sp2; batching one prefix at a time keeps memory small."""
    sp_m = np.stack([_on_target(ONE_Q[s]) for s in sp])
    ax2_m = np.stack([_on_target(_seq(a)) for a in ax2.values()])
    th_m = np.stack([_on_target(ONE_Q[t]) for t in theta])
    cx2, cx1 = _cx_on_target(2), _cx_on_target(0)
    u = (_on_target(_seq(ax1)) @ _on_target(ONE_Q[sp1]))[None]
    for cx in (cx2, cx1, cx2, None):
        u = np.einsum("aij,bjk->baik", th_m, u).reshape(-1, 8, 8)
        if cx is not None:
            u = cx @ u
    u = np.einsum("aij,bjk->baik", ax2_m, u).reshape(-1, 8, 8)
    u = np.einsum("aij,bjk->baik", sp_m, u).reshape(-1, 8, 8)
    configs = [(list(th), a2, s2) for th in _theta4(theta) for a2 in ax2 for s2 in sp]
    return configs, u


def _theta4(theta):
    return [(a, b, c, d) for a in theta for b in theta for c in theta for d in theta]


def oracle(target: str) -> np.ndarray:
    u = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        c1, c2 = b & 1, (b >> 2) & 1
        u[b ^ (0b010 * int(target[(c2 << 1) | c1])), b] = 1
    return u


def expected_hits(query: dict, ax_alphabet: dict) -> list[dict]:
    """Hits (spec names + level) the program must return for a query given by
    gate names, sorted as the program sorts them."""
    orc = oracle(query["target"])
    want = np.array([int(ch) for ch in query["target"]])
    ax2 = {a: ax_alphabet[a] for a in query["ax2"]}
    hits = []
    for sp1 in query["sp"]:
        for ax1 in query["ax1"]:
            configs, us = core_unitaries(sp1, ax_alphabet[ax1], query["sp"], ax2, query["theta"])
            probs = np.abs(us[:, :, [0, 1, 4, 5]]) ** 2     # inputs t=0, (c2,c1) ascending
            p1 = probs[:, [2, 3, 6, 7], :].sum(axis=1)      # target=1 rows
            determined = np.all((p1 >= 1 - PROB_ATOL) | (p1 <= PROB_ATOL), axis=1)
            match = determined & np.all((p1 >= 0.5) == want, axis=1)
            for i in np.flatnonzero(match):
                theta, a2, sp2 = configs[i]
                hits.append({"sp1": sp1, "ax1": ax1, "theta": theta, "ax2": a2, "sp2": sp2,
                             "level": grade(us[i], orc)})
    return sorted(hits, key=sort_key)


def sort_key(hit: dict):
    return (hit["sp1"], hit["ax1"], tuple(hit["theta"]), hit["ax2"], hit["sp2"])


def check_search(query: dict, got: list[dict], ax_alphabet: dict) -> list[str]:
    want = expected_hits(query, ax_alphabet)
    if got == want:
        return []
    return [f"target {query['target']}: {len(got)} hits returned, {len(want)} expected"
            + ("" if len(got) != len(want) else " (specs or levels differ)")]


# --- family ------------------------------------------------------------------------

def check_edges(gates, edges: set, what: str) -> list[str]:
    bad = [g for g in gates if len(g[1]) == 2 and tuple(sorted(g[1])) not in edges]
    return [f"{what}: {len(bad)} two-qubit gate(s) off the map, first {bad[0][:2]}"] if bad else []


def check_report(report: dict, expected: dict, own_costs: dict) -> list[str]:
    """Every cell carries the reference value from expected_values.json, the
    computed numbers agree with this checker's counts of the emitted
    circuits, and the only FAIL cell is the documented swap2 CX-basis depth."""
    errors = []
    fails = []
    for gate, want in expected["two_bit_cx_basis"].items():
        cells = report["two_bit_cx_basis"][gate]
        own = own_costs[(gate, "cx")]
        for key, ref in want.items():
            have = own["depth"] if key == "depth" else own["counts"].get(key, 0)
            cell = cells[key]
            if cell["expected"] != ref or cell["computed"] != have:
                errors.append(f"two_bit {gate}.{key}: {cell} vs ref {ref}, counted {have}")
            if cell["pass"] != (have == ref):
                errors.append(f"two_bit {gate}.{key}: pass flag is wrong")
            if have != ref:
                fails.append(f"two_bit_cx_basis.{gate}.{key}")
    for controls, ref in expected["and_core_stage_trace"].items():
        cell = report["and_core_stage_trace"][controls]
        if cell["expected"] != ref or cell["computed"] != ref or cell["pass"] is not True:
            errors.append(f"stage trace {controls}: {cell['computed']} vs {ref}")
    for gate, want in expected["native_ecr_costs"].items():
        cells = report["native_ecr_costs"][gate]
        own = own_costs[(gate, "ecr")]
        if cells["ecr"]["expected"] != want["ecr"] or cells["ecr"]["computed"] != own["counts"].get("ecr", 0):
            errors.append(f"ecr {gate}: {cells['ecr']} vs ref {want['ecr']}")
        if cells["qc"]["computed"] != own["qc"] or cells["qc"]["standard_qc"] != want["standard_qc"]:
            errors.append(f"ecr {gate}: qc {cells['qc']}")
        if cells["depth"] != own["depth"]:
            errors.append(f"ecr {gate}: depth {cells['depth']} vs counted {own['depth']}")
        if own["counts"].get("ecr", 0) != want["ecr"]:
            fails.append(f"native_ecr_costs.{gate}.ecr")
        if not own["qc"] < want["standard_qc"]:
            fails.append(f"native_ecr_costs.{gate}.qc")
    for label, want in expected["config_space_sizes"].items():
        cell = report["config_space_sizes"][label]
        closed = want["sp"] ** 2 * want["ax"] ** 2 * want["theta"] ** 4
        if cell["expected"] != want["count"] or cell["computed"] != closed:
            errors.append(f"space {label}: {cell} vs closed form {closed}")
        if closed != want["count"]:
            fails.append(f"config_space_sizes.{label}")
    restricted = report["config_space_sizes"]["restricted_enumeration"]
    if restricted["computed"] != expected["config_space_sizes"]["restricted"]["count"]:
        errors.append(f"restricted enumeration: {restricted}")
    if fails != ["two_bit_cx_basis.swap2.depth"]:
        errors.append(f"FAIL cells {fails}; expected only two_bit_cx_basis.swap2.depth")
    flagged = _count_failed_flags(report)
    if flagged != 1:
        errors.append(f"report marks {flagged} FAIL cell(s), expected 1")
    return errors


def _count_failed_flags(node) -> int:
    if not isinstance(node, dict):
        return 0
    return int(node.get("pass") is False) + sum(_count_failed_flags(v) for v in node.values())
