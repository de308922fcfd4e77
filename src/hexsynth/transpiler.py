"""Lowering to device-native bases, a one-sweep peephole, and naive routing.

Two native bases are supported: {I, X, sqrt(X), RZ, CX} and
{I, X, sqrt(X), RZ, ECR}.  The lowering rules are one table, written in the
package's circuit text (RY, whose expansion depends on its angle, is the one
rule in code).  Lowering is one pass: each gate expands recursively through
the table, and CX maps to a single ECR dressed by fixed native single-qubit
sequences.  Each basis parses the table once and keeps one lowering memo per
process: an angle-free gate, or an RY by a multiple of pi/4, is expanded the
first time it is seen, and every later `lower` call reuses that expansion,
sharing its (immutable) native `Gate` objects.  An RY by any other angle is
expanded on every call.

The peephole is one left-to-right sweep that keeps a stack per wire, only
for the wires that carry a gate.  It merges adjacent RZ with exact
arithmetic, cancels adjacent CX/ECR pairs, and reduces each same-wire run of
{sqrt(X), X} by its value mod 4 (sqrt(X)^2 = X, X^2 = I), kept up to date on
every gate.  An RZ, SX or X is handled in the sweep itself: two multiples of
pi/4 merge by adding their integer indices mod 16 (as `Angle` keeps them),
and only exact angles off that grid (rational-pi) and floats take
`Angle.plus`.  A run of value 0 is the identity, so rotations and two-qubit
gates on either side of it meet through it; that merge and a pair
cancellation are the only paths that call helpers.  Runs and merged
rotations are emitted once, at the end: runs in their shortest form, from
one SX and one X gate shared per wire and process, and a merged rotation on
the grid from one RZ gate shared per wire and angle (so at most 16 per wire
seen; off-grid merges are built fresh).  An X is emitted only against the X
gates of its wire segment (the stretch between two surviving two-qubit
gates), so the peephole never raises a gate count of any tag.  It does no
resynthesis.

`compile_gate` is the one path from a gate to its device cost: it places,
lowers, peepholes and counts the gate, checks its couplings, and returns a
`Compiled` record of the lowered circuit, cost, placement and violations.
`route_naive` takes a logical -> physical dict, checked by `Placement`, and
inserts SWAPs greedily along shortest paths.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .circuit import _GRID, Angle, Circuit, CostReport, Gate, GateKind, count_gates, parse_text
from .layout import (CouplingMap, LayoutError, Placement, heavy_hex_127, ishape_brisbane, place,
                     verify_no_swap)

K = GateKind


class NativeBasis(Enum):
    CX_BASIS = "cx"
    ECR_BASIS = "ecr"

    @property
    def two_qubit_kind(self) -> GateKind:
        return K.CX if self is NativeBasis.CX_BASIS else K.ECR

    @property
    def allowed(self) -> frozenset:
        return frozenset({K.I, K.X, K.SX, K.RZ, self.two_qubit_kind})


# --- lowering rules --------------------------------------------------------------
# Each rule is circuit text on wires q[0] (and q[1]); lowering a gate puts the
# rule's wire i on the gate's qubit i and lowers the result again.  A basis
# skips the row of its own two-qubit kind, which `lower` keeps as it is.  The
# cx row dresses one ECR with fixed native sequences, and the ecr row is its
# inverse; the tests check every row to global phase.

_RULES = {
    K.Y: "rz(pi) q[0]\nx q[0]",
    K.Z: "rz(pi) q[0]",
    K.H: "rz(pi/2) q[0]\nsx q[0]\nrz(pi/2) q[0]",
    K.SXDG: "sx q[0]\nx q[0]",
    K.S: "rz(pi/2) q[0]",
    K.SDG: "rz(-pi/2) q[0]",
    K.T: "rz(pi/4) q[0]",
    K.TDG: "rz(-pi/4) q[0]",
    K.CY: "sdg q[1]\ncx q[0], q[1]\ns q[1]",
    K.CZ: "h q[1]\ncx q[0], q[1]\nh q[1]",
    K.SWAP: "cx q[0], q[1]\ncx q[1], q[0]\ncx q[0], q[1]",
    K.CX: ("sx q[0]\nrz(pi/2) q[0]\nrz(pi/2) q[1]\nsx q[1]\nrz(pi/2) q[1]\necr q[0], q[1]\n"
           "rz(pi/2) q[0]\nsx q[0]\nrz(pi/2) q[0]\nrz(pi) q[1]\nsx q[1]\nrz(-pi/2) q[1]"),
    K.ECR: ("rz(pi/2) q[0]\nsx q[0]\nrz(pi) q[0]\nrz(pi/2) q[1]\nsx q[1]\nrz(pi/2) q[1]\n"
            "cx q[0], q[1]\nrz(pi/2) q[0]\nsx q[0]\nrz(pi/2) q[0]\nrz(-pi/2) q[1]\nsx q[1]"),
}

_PI = Angle.pi_frac(1)
_I, _RZ = K.I, K.RZ  # read per lowered gate: cheaper than a member read off the Enum


def _ry_rule(g: Gate) -> tuple[Gate, ...]:
    """RY(a) = SX RZ(a + pi) SX RZ(pi) up to global phase: the one rule whose
    gates depend on the angle."""
    q = g.qubits
    return Gate(K.SX, q), Gate(K.RZ, q, g.angle.plus(_PI)), Gate(K.SX, q), Gate(K.RZ, q, _PI)


class _Lowering:
    """One basis's rewrite rules, applied recursively.  The expansion of each
    angle-free gate, and of each RY whose angle is on the pi/4 grid, is
    memoized per basis, per process; the grid has 16 angles, so the memo is
    bounded by the kinds and grid angles times the wires and wire pairs seen.
    An RY by any other angle is expanded on every call and never stored."""

    def __init__(self, basis: NativeBasis):
        self.allowed = basis.allowed
        self.rules = {kind: parse_text(text).gates
                      for kind, text in _RULES.items() if kind not in self.allowed}
        self.memo: dict[Gate, tuple[Gate, ...]] = {}

    def native(self, g: Gate) -> tuple[Gate, ...]:
        if g.kind in self.allowed:
            identity = g.kind is _I or (g.kind is _RZ and g.angle.is_zero_mod_2pi())
            return () if identity else (g,)
        if g.angle is not None and not g.angle.on_grid:
            return self._expand(g)
        native = self.memo.get(g)
        if native is None:
            native = self.memo[g] = self._expand(g)
        return native

    def _expand(self, g: Gate) -> tuple[Gate, ...]:
        if g.kind is K.RY:
            rhs = _ry_rule(g)
        else:
            rhs = (Gate(r.kind, tuple(g.qubits[i] for i in r.qubits), r.angle)
                   for r in self.rules[g.kind])
        return tuple(n for r in rhs for n in self.native(r))


_LOWERINGS = {basis: _Lowering(basis) for basis in NativeBasis}


def rule_table_text(basis: NativeBasis) -> str:
    """The rules `lower` applies in a basis, one line per kind (RY shown for
    angle pi/4)."""
    rows = {kind.value: rule for kind, rule in _LOWERINGS[basis].rules.items()}
    rows[K.RY.value] = _ry_rule(Gate(K.RY, (0,), Angle.pi_frac(1, 4)))
    width = max(map(len, rows))
    lines = [f"{tag:<{width}} -> {' '.join(g.text() for g in rule)}" for tag, rule in rows.items()]
    return "\n".join(lines) + "   [shown for angle pi/4]"


def lower(circuit: Circuit, basis: NativeBasis) -> Circuit:
    """Rewrite to the native basis in one pass; equivalent to the input up to
    global phase."""
    lowering = _LOWERINGS[basis]
    return circuit.with_gates(n for g in circuit.gates for n in lowering.native(g))


# --- peephole ------------------------------------------------------------------

class _Run:
    """A same-wire run of SX and X gates, kept as counts.

    SX and X commute, SX^2 = X and X^2 = I, so the run is SX^value with
    value = (sx + 2*x) mod 4, updated on every gate it takes.  A run of
    value 0 is the identity: rotations and two-qubit gates on either side
    of it meet through it.
    """

    __slots__ = ("sx", "x", "value", "out")

    def __init__(self):
        self.sx = self.x = self.value = 0
        self.out: tuple[Gate, ...] = ()


class _Rz:
    """An RZ, with the angle of every rotation merged into it so far."""

    __slots__ = ("gate", "angle", "out")

    def __init__(self, gate: Gate):
        self.gate = gate
        self.angle = gate.angle
        self.out: tuple[Gate, ...] | None = None  # None: the gate itself


class _Fixed:
    """A gate the sweep keeps as it is: a two-qubit gate, or any gate
    outside {RZ, SX, X}.  It ends the wire segment on each of its qubits."""

    __slots__ = ("gate", "out")

    def __init__(self, gate: Gate):
        self.gate = gate
        self.out: tuple[Gate, ...] | None = None  # None: the gate itself


def _under_identity(stack: list):
    """The top item of a wire, looking through an identity run, and that run."""
    top = stack[-1] if stack else None
    if type(top) is _Run and top.value == 0:
        return (stack[-2] if len(stack) > 1 else None), top
    return top, None


def _remove_under(stack: list, identity: _Run | None) -> None:
    """Pop the item below an optional top identity run; the identity run then
    joins the run it now follows, if any, so their X gates stay together
    (its value is 0, so the joined run's value stays)."""
    if identity is not None:
        stack.pop()
    stack.pop().out = ()
    if identity is None:
        return
    if stack and type(stack[-1]) is _Run:
        stack[-1].sx += identity.sx
        stack[-1].x += identity.x
    else:
        stack.append(identity)


def _merge_rz(stack: list, angle: Angle) -> bool:
    """Merge a rotation into the one it meets on the wire, looking through an
    identity run; False when it meets none."""
    below, identity = _under_identity(stack)
    if type(below) is not _Rz:
        return False
    below.angle = below.angle.plus(angle)
    if below.angle.is_zero_mod_2pi():
        _remove_under(stack, identity)
    return True


def _cancel_pending(stacks: dict, pending: dict, later: _Fixed) -> None:
    """Cancel a waiting CX/ECR with its partner below the identity runs.

    A rotation that landed on the waiting gate falls through to the wire
    below, as it would once the pair is gone.
    """
    for q in later.gate.qubits:
        del pending[q]
        stack = stacks[q]
        landed = stack.pop() if stack[-1] is not later else None
        stack.pop().out = ()
        _remove_under(stack, _under_identity(stack)[1])
        if landed is None:
            continue
        if _merge_rz(stack, landed.angle):
            landed.out = ()
        else:
            stack.append(landed)


@functools.cache
def _wire_outputs(q: int) -> tuple[tuple, tuple, tuple]:
    """The outputs on wire q: of a run of value 0..3, X-free and X-using,
    and of a merged rotation by k*pi/4 for each k in 0..15.  They are built
    once per wire, per process, so one gate per form is shared (and its text
    rendered once); the memo is bounded by the wires seen.  A merged angle
    off the grid has no entry."""
    sx, x = Gate(K.SX, (q,)), Gate(K.X, (q,))
    return (((), (sx,), (sx, sx), (sx, sx, sx)), ((), (sx,), (x,), (sx, x)),
            tuple((Gate(K.RZ, (q,), angle),) for angle in _GRID))


def _emit_wire(stack: list, q: int) -> None:
    """Fix the output of every rotation and run left on one wire.

    A run of value 0 emits nothing, 1 emits SX, 2 emits X or SX SX, and 3
    emits SX X or SX SX SX.  X may be emitted only against the X gates its
    segment (the wire between two surviving fixed gates) held at input, so
    no tag count rises.  Runs with too few SX for the X-free form draw on
    that budget first; what is left goes to the other runs in wire order.
    """
    x_free, with_x, rz = _wire_outputs(q)
    segment: list[_Run] = []
    for item in stack + [None]:
        if type(item) is _Rz:
            angle = item.angle
            if angle is not item.gate.angle:
                k = angle._k
                item.out = (Gate(K.RZ, (q,), angle),) if k is None else rz[k]
        elif type(item) is _Run:
            segment.append(item)
        elif segment:  # a fixed gate or the end of the wire closes the segment
            spare = 0
            for r in segment:
                spare += r.x - (r.sx < r.value)
            for r in segment:
                value = r.value
                if r.sx < value:
                    r.out = with_x[value]
                elif value >= 2 and spare:
                    spare -= 1
                    r.out = with_x[value]
                else:
                    r.out = x_free[value]
            segment = []


def peephole(circuit: Circuit) -> Circuit:
    """One left-to-right sweep over per-wire stacks (no resynthesis).

    Adjacent RZ merge with exact arithmetic, adjacent CX/ECR pairs cancel,
    and {SX, X} runs reduce by their value mod 4.  No gate count of any tag
    rises above the input's.
    """
    # Per-wire state only for the wires that carry a gate.  An RZ, SX or X
    # calls no helper: only a merge through an identity run and a pair
    # cancellation do.  The kinds are locals because reading an Enum member
    # off its class costs several times a local read.
    RZ, SX, X, I, CX, ECR = K.RZ, K.SX, K.X, K.I, K.CX, K.ECR
    stacks: dict[int, list] = defaultdict(list)
    pending: dict[int, _Fixed] = {}  # a CX/ECR that cancels through identity runs
    items: list = []
    for g in circuit.gates:
        kind = g.kind
        if kind is RZ:
            angle = g.angle
            k = angle._k
            if k is None:
                if angle.is_zero_mod_2pi():
                    continue
            elif k == 0 or k == 8:
                continue
            stack = stacks[g.qubits[0]]
            top = stack[-1] if stack else None
            if type(top) is _Rz:
                held = top.angle
                if k is not None and held._k is not None:  # on the grid: add indices
                    k = (held._k + k) % 16
                    if k == 0 or k == 8:
                        stack.pop().out = ()
                    else:
                        top.angle = _GRID[k]
                else:
                    top.angle = held.plus(angle)
                    if top.angle.is_zero_mod_2pi():
                        stack.pop().out = ()
            elif not (type(top) is _Run and top.value == 0 and _merge_rz(stack, angle)):
                item = _Rz(g)
                stack.append(item)
                items.append(item)
        elif kind is SX or kind is X:
            q = g.qubits[0]
            if q in pending:
                _cancel_pending(stacks, pending, pending[q])
            stack = stacks[q]
            run = stack[-1] if stack else None
            if type(run) is not _Run:
                run = _Run()
                stack.append(run)
                items.append(run)
            if kind is SX:
                run.sx += 1
                run.value = (run.value + 1) % 4
            else:
                run.x += 1
                run.value = (run.value + 2) % 4
        elif kind is not I:
            qubits = g.qubits
            if pending:
                for q in qubits:
                    later = pending.get(q)
                    if later is not None and not (later.gate == g and all(stacks[r][-1] is later
                                                                         for r in qubits)):
                        _cancel_pending(stacks, pending, later)
            item = _Fixed(g)
            if kind is CX or kind is ECR:
                a, b = qubits
                below, identity = _under_identity(stacks[a])
                if type(below) is _Fixed and below.gate == g:
                    other, other_identity = _under_identity(stacks[b])
                    if other is below:
                        if identity is None and other_identity is None:  # adjacent: cancel now
                            stacks[a].pop().out = ()
                            stacks[b].pop()  # the same item
                            pending.pop(a, None)
                            pending.pop(b, None)
                            continue
                        # Only identity runs lie between.  The pair cancels, unless an
                        # equal gate follows this one directly and cancels it first.
                        pending[a] = pending[b] = item
            for q in qubits:
                stacks[q].append(item)
            items.append(item)
    for q in list(pending):
        later = pending.get(q)
        if later is not None:
            _cancel_pending(stacks, pending, later)
    for q, stack in stacks.items():
        _emit_wire(stack, q)
    gates: list[Gate] = []
    for item in items:
        if item.out is None:
            gates.append(item.gate)
        else:
            gates.extend(item.out)
    return circuit.with_gates(gates)


# --- the device compile path ----------------------------------------------------

@dataclass(frozen=True)
class Compiled:
    """A gate's lowered circuit and cost; with a map, also its placement and
    the two-qubit gates that miss a coupling (none: the gate needs no SWAP)."""

    circuit: Circuit
    cost: CostReport
    placement: Placement | None
    violations: tuple

    def as_dict(self) -> dict:
        out = self.cost.as_dict()
        if self.placement is not None:
            out.update(placement=dict(self.placement.assignment),
                       swap_free=not self.violations, violations=list(self.violations))
        return out


def compile_gate(circuit: Circuit, basis: NativeBasis, cmap: CouplingMap | None = None,
                 placement: Placement | None = None) -> Compiled:
    """Compile a gate in device order.  With a map (the 127-qubit lattice when
    only `placement` is given) it is placed first: at `placement`, else on the
    map's I-shape, else on the whole map.  It is then lowered, peepholed and
    counted (every basis tag, absent ones as 0), and its couplings checked."""
    if placement is not None and cmap is None:
        cmap = heavy_hex_127()
    if cmap is not None and placement is None:
        try:
            region = ishape_brisbane(cmap)
        except LayoutError:
            region = cmap
        placement = place(circuit, region)
    lowered = peephole(lower(circuit, basis))
    report = count_gates(lowered)
    zeros = {k.value: 0 for k in (K.X, K.SX, K.RZ, basis.two_qubit_kind)}
    cost = CostReport(counts=zeros | report.counts, depth=report.depth)
    violations = () if cmap is None else tuple(verify_no_swap(lowered, cmap, placement)[1])
    return Compiled(lowered, cost, placement, violations)


# --- naive baseline routing ------------------------------------------------------

@dataclass(frozen=True)
class RouteResult:
    """Routed circuit over physical qubits plus the final logical placement."""

    circuit: Circuit
    final_assignment: dict
    swaps_added: int


def route_naive(circuit: Circuit, cmap, placement: dict) -> RouteResult:
    """Greedy shortest-path SWAP insertion for non-adjacent two-qubit gates.

    `placement` maps logical index -> physical index; it is checked as a
    `Placement` of the wires 0..width-1 on `cmap`, so a bad one is a
    LayoutError.  The output circuit is indexed by physical qubits; the
    final qubit permutation is left in place and reported.
    """
    log2phys = dict(placement)
    Placement(log2phys).physical(range(circuit.width), cmap)
    phys2log = {phys: logical for logical, phys in log2phys.items()}
    out: list[Gate] = []
    swaps = 0
    for g in circuit.gates:
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (log2phys[g.qubits[0]],), g.angle))
            continue
        a, b = (log2phys[q] for q in g.qubits)
        path = cmap.shortest_path(a, b)
        if path is None:
            raise LayoutError(f"coupling map is disconnected between {a} and {b}")
        # walk the first qubit along the path until it is next to the second
        for p, q in zip(path, path[1:-1]):
            out.append(Gate(K.SWAP, (p, q)))
            swaps += 1
            moved, other = phys2log.pop(p), phys2log.pop(q, None)
            log2phys[moved], phys2log[q] = q, moved
            if other is not None:
                log2phys[other], phys2log[p] = p, other
        out.append(Gate(g.kind, (log2phys[g.qubits[0]], log2phys[g.qubits[1]]), g.angle))
    routed = Circuit(width=cmap.num_qubits, gates=tuple(out), name=circuit.name + "@routed")
    return RouteResult(routed, log2phys, swaps)
