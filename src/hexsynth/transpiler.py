"""Lowering to device-native bases, a one-sweep peephole, and naive routing.

Two native bases are supported: {I, X, sqrt(X), RZ, CX} and
{I, X, sqrt(X), RZ, ECR}.  Lowering is one pass: each gate expands
recursively through the usual phase-gate-to-RZ table, and CX maps to a single
ECR dressed by fixed native single-qubit sequences (derived once by solving
the conjugation algebra and verified to global-phase accuracy by the test
suite).  Each basis has one lowering table per process: an angle-free gate
is expanded the first time it is seen, and every later `lower` call reuses
that expansion, sharing its (immutable) native `Gate` objects.

The peephole is one left-to-right sweep that keeps a stack per wire.  It
merges adjacent RZ with exact rational-pi arithmetic, cancels adjacent
CX/ECR pairs, and reduces each same-wire run of {sqrt(X), X} by its value
mod 4 (sqrt(X)^2 = X, X^2 = I).  A run of value 0 is the identity, so
rotations and two-qubit gates on either side of it meet through it.  Runs
are emitted once, at the end, in their shortest form; an X is emitted only
against the X gates of its wire segment (the stretch between two surviving
two-qubit gates), so the peephole never raises a gate count of any tag.  It
does no resynthesis.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum

from .circuit import Angle, Circuit, CircuitError, CostReport, Gate, GateKind, count_gates

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


def _rz(q: int, num: int, den: int = 1) -> Gate:
    return Gate(K.RZ, (q,), Angle.pi_frac(num, den))


# --- single-qubit rewrite table ------------------------------------------------

def _rule_h(q, angle):
    return [_rz(q, 1, 2), Gate(K.SX, (q,)), _rz(q, 1, 2)]


_SINGLE_QUBIT_RULES = {
    K.I: lambda q, a: [],
    K.X: lambda q, a: [Gate(K.X, (q,))],
    K.SX: lambda q, a: [Gate(K.SX, (q,))],
    K.RZ: lambda q, a: [] if a.is_zero_mod_2pi() else [Gate(K.RZ, (q,), a)],
    K.Y: lambda q, a: [_rz(q, 1), Gate(K.X, (q,))],
    K.Z: lambda q, a: [_rz(q, 1)],
    K.H: _rule_h,
    K.SXDG: lambda q, a: [Gate(K.SX, (q,)), Gate(K.X, (q,))],
    K.S: lambda q, a: [_rz(q, 1, 2)],
    K.SDG: lambda q, a: [_rz(q, -1, 2)],
    K.T: lambda q, a: [_rz(q, 1, 4)],
    K.TDG: lambda q, a: [_rz(q, -1, 4)],
    K.RY: lambda q, a: [Gate(K.SX, (q,)), Gate(K.RZ, (q,), a.plus(Angle.pi_frac(1))),
                        Gate(K.SX, (q,)), _rz(q, 1)],
}


# --- the frozen CX <-> ECR dressing --------------------------------------------
# CX(c,t) equals (up to global phase) the ECR conjugated by:
#   control: pre  [SX, RZ(pi/2)]      post [RZ(pi/2), SX, RZ(pi/2)]
#   target:  pre  [RZ(pi/2), SX, RZ(pi/2)]   post [RZ(pi), SX, RZ(-pi/2)]
# All sequences are in temporal order and use native gates only (no X).

def _cx_to_ecr(c: int, t: int) -> list[Gate]:
    return [
        Gate(K.SX, (c,)), _rz(c, 1, 2),
        _rz(t, 1, 2), Gate(K.SX, (t,)), _rz(t, 1, 2),
        Gate(K.ECR, (c, t)),
        _rz(c, 1, 2), Gate(K.SX, (c,)), _rz(c, 1, 2),
        _rz(t, 1), Gate(K.SX, (t,)), _rz(t, -1, 2),
    ]


def _ecr_to_cx(c: int, t: int) -> list[Gate]:
    # inverse of the dressing above (daggered sequences, rewritten X-free)
    return [
        _rz(c, 1, 2), Gate(K.SX, (c,)), _rz(c, 1),
        _rz(t, 1, 2), Gate(K.SX, (t,)), _rz(t, 1, 2),
        Gate(K.CX, (c, t)),
        _rz(c, 1, 2), Gate(K.SX, (c,)), _rz(c, 1, 2),
        _rz(t, -1, 2), Gate(K.SX, (t,)),
    ]


def _two_qubit_rules(basis: NativeBasis) -> dict:
    rules = {
        K.CY: lambda c, t: [Gate(K.SDG, (t,)), Gate(K.CX, (c, t)), Gate(K.S, (t,))],
        K.CZ: lambda c, t: [Gate(K.H, (t,)), Gate(K.CX, (c, t)), Gate(K.H, (t,))],
        K.SWAP: lambda a, b: [Gate(K.CX, (a, b)), Gate(K.CX, (b, a)), Gate(K.CX, (a, b))],
    }
    if basis is NativeBasis.ECR_BASIS:
        rules[K.CX] = _cx_to_ecr
    else:
        rules[K.ECR] = _ecr_to_cx
    return rules


@dataclass(frozen=True)
class RewriteRule:
    """A lowering rule: source gate kind and its native-gate template."""

    lhs: GateKind
    rhs_text: str


def rule_table(basis: NativeBasis) -> list[RewriteRule]:
    """Human-readable dump of every rewrite used for a basis (for audit)."""
    rules = []
    for kind, fn in _SINGLE_QUBIT_RULES.items():
        angle = Angle.pi_frac(1, 4) if kind.takes_angle else None
        rhs = fn(0, angle)
        text = " ".join(g.text() for g in rhs) or "(removed)"
        if kind.takes_angle:
            text += "   [shown for angle pi/4]"
        rules.append(RewriteRule(kind, text))
    for kind, fn in _two_qubit_rules(basis).items():
        rules.append(RewriteRule(kind, " ".join(g.text() for g in fn(0, 1))))
    return rules


def rule_table_text(basis: NativeBasis) -> str:
    width = max(len(r.lhs.value) for r in rule_table(basis))
    return "\n".join(f"{r.lhs.value:<{width}} -> {r.rhs_text}" for r in rule_table(basis))


class _Lowering:
    """One basis's rewrite rules, applied recursively.  The expansion of each
    angle-free gate is memoized per basis, per process; a gate with an angle
    (RY) is expanded on every call and never stored."""

    def __init__(self, basis: NativeBasis):
        self.basis, self.allowed = basis, basis.allowed
        self.two_q = _two_qubit_rules(basis)
        self.memo: dict[Gate, tuple[Gate, ...]] = {}

    def native(self, g: Gate) -> tuple[Gate, ...]:
        if g.kind in self.allowed:
            identity = g.kind is K.I or (g.kind is K.RZ and g.angle.is_zero_mod_2pi())
            return () if identity else (g,)
        if g.angle is not None:
            return self._expand(g)
        native = self.memo.get(g)
        if native is None:
            native = self.memo[g] = self._expand(g)
        return native

    def _expand(self, g: Gate) -> tuple[Gate, ...]:
        if g.kind in _SINGLE_QUBIT_RULES:
            rhs = _SINGLE_QUBIT_RULES[g.kind](g.qubits[0], g.angle)
        elif g.kind in self.two_q:
            rhs = self.two_q[g.kind](*g.qubits)
        else:
            raise TranspileError(f"no rewrite for {g.kind.value} in {self.basis.value} basis")
        return tuple(n for r in rhs for n in self.native(r))


_LOWERINGS = {basis: _Lowering(basis) for basis in NativeBasis}


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

    Adjacent RZ merge with exact rational-pi arithmetic, adjacent CX/ECR
    pairs cancel, and {SX, X} runs reduce by their value mod 4.  No gate
    count of any tag rises above the input's.
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


def route_naive(circuit: Circuit, cmap, placement, restore: bool = False) -> RouteResult:
    """Greedy shortest-path SWAP insertion for non-adjacent two-qubit gates.

    `placement` maps logical index -> physical index (a dict, or a Placement
    whose roles align with the circuit's wire names).  The output circuit is
    indexed by physical qubits; unless `restore` is set the final qubit
    permutation is left in place and reported.
    """
    log2phys = _as_logical_map(circuit, placement)
    if sorted(log2phys) != list(range(circuit.width)):
        raise TranspileError("placement must cover every circuit qubit")
    if len(set(log2phys.values())) != circuit.width:
        raise TranspileError("placement collision: physical qubits must be distinct")
    for logical, phys in log2phys.items():
        if phys not in range(cmap.num_qubits):
            raise TranspileError(f"placement puts qubit {logical} on physical qubit {phys}, "
                                 f"off the {cmap.num_qubits}-qubit map")
    initial = dict(log2phys)
    out: list[Gate] = []
    swaps = 0

    def swap_physical(p: int, q: int):
        nonlocal swaps
        out.append(Gate(K.SWAP, (p, q)))
        swaps += 1
        phys2log = {phys: logical for logical, phys in log2phys.items()}
        if p in phys2log:
            log2phys[phys2log[p]] = q
        if q in phys2log:
            log2phys[phys2log[q]] = p

    def walk(src: int, dst_exclusive_path: list[int]):
        cur = src
        for step in dst_exclusive_path:
            swap_physical(cur, step)
            cur = step

    for g in circuit.gates:
        if len(g.qubits) == 1:
            out.append(Gate(g.kind, (log2phys[g.qubits[0]],), g.angle))
            continue
        a, b = (log2phys[q] for q in g.qubits)
        path = cmap.shortest_path(a, b)
        if path is None:
            raise TranspileError(f"coupling map is disconnected between {a} and {b}")
        walk(a, path[1:-1])
        out.append(Gate(g.kind, (log2phys[g.qubits[0]], log2phys[g.qubits[1]]), g.angle))
    if restore:
        for logical in sorted(initial):
            want, have = initial[logical], log2phys[logical]
            if want != have:
                walk(have, cmap.shortest_path(have, want)[1:])
    routed = Circuit(width=cmap.num_qubits, gates=tuple(out), name=circuit.name + "@routed")
    return RouteResult(routed, dict(log2phys), swaps)


def _as_logical_map(circuit: Circuit, placement) -> dict:
    if isinstance(placement, dict):
        return dict(placement)
    assignment = placement.assignment
    if circuit.wire_names is None:
        raise TranspileError("circuit has no wire names; pass a logical->physical dict")
    try:
        return {i: assignment[name] for i, name in enumerate(circuit.wire_names)}
    except KeyError as e:
        raise TranspileError(f"placement is missing wire {e.args[0]!r}") from None

