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

The peephole is one left-to-right sweep that keeps a stack per wire.  It
merges adjacent RZ with exact arithmetic (on integers mod 16 for multiples
of pi/4, as `Angle` keeps them; rational-pi otherwise), cancels adjacent
CX/ECR pairs, and reduces each same-wire run of {sqrt(X), X} by its value
mod 4 (sqrt(X)^2 = X, X^2 = I).  A run of value 0 is the identity, so
rotations and two-qubit gates on either side of it meet through it.  Runs
are emitted once, at the end, in their shortest form; an X is emitted only
against the X gates of its wire segment (the stretch between two surviving
two-qubit gates), so the peephole never raises a gate count of any tag.  It
does no resynthesis.

`route_naive` takes a logical -> physical dict and inserts SWAPs greedily
along shortest paths.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .circuit import (Angle, Circuit, CircuitError, CostReport, Gate, GateKind, count_gates,
                      parse_text)

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


class TranspileError(CircuitError):
    pass


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
            identity = g.kind is K.I or (g.kind is K.RZ and g.angle.is_zero_mod_2pi())
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

_SELF_INVERSE_2Q = (K.CX, K.ECR)


class _Run:
    """A same-wire run of SX and X gates, kept as counts.

    SX and X commute, SX^2 = X and X^2 = I, so the run is SX^value with
    value = (sx + 2*x) mod 4.  A run of value 0 is the identity: rotations
    and two-qubit gates on either side of it meet through it.
    """

    __slots__ = ("sx", "x", "out")

    def __init__(self):
        self.sx = self.x = 0
        self.out: tuple[Gate, ...] = ()

    @property
    def value(self) -> int:
        return (self.sx + 2 * self.x) % 4


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
    joins the run it now follows, if any, so their X gates stay together."""
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
        pending[q] = None
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


def _emit_wire(stack: list, q: int) -> None:
    """Fix the output of every rotation and run left on one wire.

    A run of value 0 emits nothing, 1 emits SX, 2 emits X or SX SX, and 3
    emits SX X or SX SX SX.  X may be emitted only against the X gates its
    segment (the wire between two surviving fixed gates) held at input, so
    no tag count rises.  Runs with too few SX for the X-free form draw on
    that budget first; what is left goes to the other runs in wire order.
    """
    sx, x = Gate(K.SX, (q,)), Gate(K.X, (q,))
    x_free = ((), (sx,), (sx, sx), (sx, sx, sx))
    with_x = ((), (sx,), (x,), (sx, x))
    segment: list[_Run] = []
    for item in stack + [None]:
        if type(item) is _Rz:
            if item.angle is not item.gate.angle:
                item.out = (Gate(K.RZ, (q,), item.angle),)
        elif type(item) is _Run:
            segment.append(item)
        else:  # a fixed gate or the end of the wire closes the segment
            spare = sum(r.x for r in segment) - sum(r.sx < r.value for r in segment)
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
    # per-wire state only for the wires that carry a gate
    stacks: dict[int, list] = defaultdict(list)
    pending: dict[int, _Fixed | None] = {}
    items: list = []
    for g in circuit.gates:
        kind = g.kind
        if kind is K.RZ:
            stack = stacks[g.qubits[0]]
            if not g.angle.is_zero_mod_2pi() and not _merge_rz(stack, g.angle):
                item = _Rz(g)
                stack.append(item)
                items.append(item)
        elif kind is K.SX or kind is K.X:
            q = g.qubits[0]
            if pending.get(q) is not None:
                _cancel_pending(stacks, pending, pending[q])
            stack = stacks[q]
            run = stack[-1] if stack else None
            if type(run) is not _Run:
                run = _Run()
                stack.append(run)
                items.append(run)
            if kind is K.SX:
                run.sx += 1
            else:
                run.x += 1
        elif kind is not K.I:
            for q in g.qubits:
                later = pending.get(q)
                if later is not None and not (later.gate == g and all(stacks[r][-1] is later
                                                                     for r in g.qubits)):
                    _cancel_pending(stacks, pending, later)
            tops = [_under_identity(stacks[q]) for q in g.qubits]
            prev = tops[0][0]
            item = _Fixed(g)
            if (kind in _SELF_INVERSE_2Q and type(prev) is _Fixed and prev.gate == g
                    and tops[1][0] is prev):
                if tops[0][1] is None and tops[1][1] is None:  # adjacent: cancel now
                    for q in g.qubits:
                        stacks[q].pop().out = ()
                        pending[q] = None
                    continue
                # Only identity runs lie between.  The pair cancels, unless an
                # equal gate follows this one directly and cancels it first.
                for q in g.qubits:
                    pending[q] = item
            for q in g.qubits:
                stacks[q].append(item)
            items.append(item)
    for later in pending.values():
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


def lower_and_optimize(circuit: Circuit, basis: NativeBasis) -> Circuit:
    return peephole(lower(circuit, basis))


def cost_report(circuit: Circuit, basis: NativeBasis) -> CostReport:
    """Counts, quantum cost, and depth of the lowered and peepholed circuit."""
    return _cost_of_lowered(lower_and_optimize(circuit, basis), basis)


def _cost_of_lowered(lowered: Circuit, basis: NativeBasis) -> CostReport:
    """cost_report of a circuit already lowered to `basis`; every basis tag
    is counted, absent ones as 0."""
    report = count_gates(lowered)
    counts = {k.value: 0 for k in (K.X, K.SX, K.RZ, basis.two_qubit_kind)}
    counts.update(report.counts)
    return CostReport(counts=counts, qc=report.qc, depth=report.depth)


# --- naive baseline routing ------------------------------------------------------

@dataclass(frozen=True)
class RouteResult:
    """Routed circuit over physical qubits plus the final logical placement."""

    circuit: Circuit
    final_assignment: dict
    swaps_added: int


def route_naive(circuit: Circuit, cmap, placement: dict) -> RouteResult:
    """Greedy shortest-path SWAP insertion for non-adjacent two-qubit gates.

    `placement` maps logical index -> physical index.  The output circuit is
    indexed by physical qubits; the final qubit permutation is left in place
    and reported.
    """
    log2phys = dict(placement)
    if sorted(log2phys) != list(range(circuit.width)):
        raise TranspileError("placement must cover every circuit qubit")
    if len(set(log2phys.values())) != circuit.width:
        raise TranspileError("placement collision: physical qubits must be distinct")
    for logical, phys in log2phys.items():
        if phys not in range(cmap.num_qubits):
            raise TranspileError(f"placement puts qubit {logical} on physical qubit {phys}, "
                                 f"off the {cmap.num_qubits}-qubit map")
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
            raise TranspileError(f"coupling map is disconnected between {a} and {b}")
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
