"""The gate registry: the layout-aware Clifford+T family and standard oracles.

The centerpiece is the symmetric 3-qubit core: on the target wire
SP1, AX1, th1, CX, th2, CX, th3, CX, th4, AX2, SP2, each CX from the
control that `CORE_CX` names, with no gate ever connecting the two
controls.  Six Boolean gates arise
from fixed core configurations; larger gates chain cores through ancilla
wires that are left dirty (no uncompute).  Standard textbook circuits
(Toffoli, Fredkin, exact controlled-sqrt(X), ...) are provided as
comparison oracles.

A `CoreSpec` names each auxiliary slot by its `AX_ENTRIES` key and checks
every slot when built.  Each `BooleanGateKind` member is the one statement
of a Boolean core: its function name, registry gate and `CoreSpec`.
`GATES` maps every gate name to its circuit, built once at import from its
wires with their roles and its gate list, the family half first, then the
oracle half; `FAMILY_GATES` is the family half's names, and `build_gate`
looks a name up.  `build_core` builds a core from any `CoreSpec`.
Each core's target sits between its two controls, so the family places on
heavy-hex qubits without SWAP insertion (`layout.place` finds where from
the gate list alone).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import (Angle, Circuit, CircuitError, Gate, GateKind,
                      ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET)

K = GateKind

SUPERPOSITION_KINDS = (K.H, K.SX, K.SXDG)
THETA_KINDS = (K.S, K.SDG, K.T, K.TDG)
# the control wire of each of the core's three CX gates onto the target, in
# order, the i-th between rotations i and i + 1
CORE_CX = ("c2", "c1", "c2")
_THETA_SET = frozenset(THETA_KINDS)

# auxiliary-slot entries are short gate sequences applied to the target wire;
# the minus-Z entry uses the conjugation X.Z.X, which equals Z up to a global
# phase of -1 and therefore leaves Boolean behavior untouched
AX_ENTRIES: dict[str, tuple[GateKind, ...]] = {
    "i": (),
    "x": (K.X,),
    "sx": (K.SX,),
    "sxdg": (K.SXDG,),
    "z": (K.Z,),
    "s": (K.S,),
    "sdg": (K.SDG,),
    "t": (K.T,),
    "tdg": (K.TDG,),
    "-z": (K.X, K.Z, K.X),
}


def _theta_kinds(theta) -> bool:
    """Whether every entry is a rotation kind, by set membership; an
    unhashable entry is none, and answers False rather than TypeError."""
    try:
        return _THETA_SET.issuperset(theta)
    except TypeError:
        return False


def _not_an_entry(slot: str, name) -> CircuitError:
    return CircuitError(f"{slot} must name an auxiliary entry ({', '.join(AX_ENTRIES)}), got {name!r}")


@dataclass(frozen=True, slots=True, init=False)
class CoreSpec:
    """Configuration of the symmetric 3-bit core, every slot checked here:
    superposition kinds, auxiliary `AX_ENTRIES` names, four rotation kinds.
    Like `Gate`, it has slots and one hand-written constructor."""

    sp1: GateKind = K.H
    ax1: str = "i"
    theta: tuple[GateKind, GateKind, GateKind, GateKind] = (K.TDG, K.T, K.TDG, K.T)
    ax2: str = "i"
    sp2: GateKind = K.H

    def __init__(self, sp1: GateKind = K.H, ax1: str = "i",
                 theta: tuple[GateKind, GateKind, GateKind, GateKind] = (K.TDG, K.T, K.TDG, K.T),
                 ax2: str = "i", sp2: GateKind = K.H):
        # the checks, then each slot stored through its member descriptor,
        # which skips the frozen __setattr__; an AX slot is tested as a str
        # first, so an unhashable entry never reaches the dict lookup
        if not isinstance(ax1, str) or ax1 not in AX_ENTRIES:
            raise _not_an_entry("ax1", ax1)
        if not isinstance(ax2, str) or ax2 not in AX_ENTRIES:
            raise _not_an_entry("ax2", ax2)
        if sp1 not in SUPERPOSITION_KINDS or sp2 not in SUPERPOSITION_KINDS:
            raise CircuitError("sp1/sp2 must be superposition gates (h, sx, sxdg)")
        if not isinstance(theta, (tuple, list)) or len(theta) != 4 or not _theta_kinds(theta):
            raise CircuitError("theta must be four gates from {s, sdg, t, tdg}")
        if type(theta) is not tuple:
            theta = tuple(theta)
        _SET_SP1(self, sp1)
        _SET_AX1(self, ax1)
        _SET_THETA(self, theta)
        _SET_AX2(self, ax2)
        _SET_SP2(self, sp2)

    @property
    def symmetric(self) -> bool:
        return self.theta[0] == self.theta[2] and self.theta[1] == self.theta[3]

    def describe(self) -> dict:
        return {"sp1": self.sp1.value, "ax1": self.ax1,
                "theta": [t.value for t in self.theta],
                "ax2": self.ax2, "sp2": self.sp2.value}


_SET_SP1, _SET_AX1, _SET_THETA, _SET_AX2, _SET_SP2 = (
    CoreSpec.__dict__[name].__set__ for name in ("sp1", "ax1", "theta", "ax2", "sp2"))


class BooleanGateKind(Enum):
    """A Boolean core: its value is the function name; `gate` (its registry
    name) and `spec` (its `CoreSpec`) are plain attributes of each member."""

    AND = "and", "and3", CoreSpec(theta=(K.TDG, K.T, K.TDG, K.T))
    NAND = "nand", "nand3", CoreSpec(theta=(K.TDG, K.T, K.TDG, K.T), ax2="-z")
    OR = "or", "or3", CoreSpec(theta=(K.T, K.T, K.T, K.T), ax2="z")
    NOR = "nor", "nor3", CoreSpec(theta=(K.T, K.T, K.T, K.T))
    IMPLICATION = "implication", "imp3", CoreSpec(theta=(K.TDG, K.TDG, K.T, K.T), ax2="-z")
    INHIBITION = "inhibition", "inh3", CoreSpec(theta=(K.TDG, K.TDG, K.T, K.T))

    def __new__(cls, function: str, gate: str, spec: CoreSpec):
        kind = object.__new__(cls)
        kind._value_ = function
        kind.gate = gate
        kind.spec = spec
        return kind


BOOLEAN_TABLE: dict[BooleanGateKind, CoreSpec] = {kind: kind.spec for kind in BooleanGateKind}
BOOLEAN_BY_NAME: dict[str, BooleanGateKind] = {kind.gate: kind for kind in BooleanGateKind}


def core_gates(spec: CoreSpec, c1: int, t: int, c2: int) -> list[Gate]:
    """Core gate sequence instantiated on arbitrary wires (ax slots of I emit nothing)."""
    wire = {"c1": c1, "c2": c2}
    middle = [Gate(spec.theta[0], (t,))]
    for control, theta in zip(CORE_CX, spec.theta[1:]):
        middle += [Gate(K.CX, (wire[control], t)), Gate(theta, (t,))]
    return ([Gate(k, (t,)) for k in (spec.sp1, *AX_ENTRIES[spec.ax1])] + middle
            + [Gate(k, (t,)) for k in (*AX_ENTRIES[spec.ax2], spec.sp2)])


def _circuit(name: str, wires, gates) -> Circuit:
    return Circuit(len(wires), tuple(gates), roles=tuple(role for _, role in wires),
                   name=name, wire_names=tuple(wire for wire, _ in wires))


_C, _T, _A = ROLE_CONTROL, ROLE_TARGET, ROLE_ANCILLA
_CORE_WIRES = (("c1", _C), ("t", _T), ("c2", _C))


def build_core(spec: CoreSpec) -> Circuit:
    """3-qubit core, named 'core', on wires (c1=0, t=1, c2=2): the target in the middle."""
    return _circuit("core", _CORE_WIRES, core_gates(spec, c1=0, t=1, c2=2))


_AND = BooleanGateKind.AND.spec
_OR = BooleanGateKind.OR.spec


# ---------------------------------------------------------------------------
# gate sequences shared by several registry entries

def _csx2_gates(c: int, t: int) -> list[Gate]:
    # single-CX relative-phase controlled-sqrt(X): the control-off block is Z
    # (a pure phase), the control-on block has sqrt(X) magnitudes, and its
    # square flips the target exactly, so chained 3-bit versions compose to
    # Toffoli behavior
    return [
        Gate(K.T, (t,)), Gate(K.SX, (t,)), Gate(K.T, (t,)),
        Gate(K.CX, (c, t)),
        Gate(K.S, (t,)), Gate(K.T, (t,)), Gate(K.SX, (t,)), Gate(K.TDG, (t,)),
    ]


def _csxdg2_gates(c: int, t: int) -> list[Gate]:
    return [
        Gate(K.TDG, (t,)), Gate(K.SX, (t,)), Gate(K.TDG, (t,)),
        Gate(K.CX, (c, t)),
        Gate(K.Z, (t,)), Gate(K.T, (t,)), Gate(K.SX, (t,)), Gate(K.T, (t,)),
    ]


def _three_core_gates(left: CoreSpec, right: CoreSpec, out: CoreSpec) -> list[Gate]:
    # wires read like the physical I-shape: (c1, anc1, c2) | t | (c3, anc2, c4)
    return (core_gates(left, c1=0, t=1, c2=2) + core_gates(right, c1=4, t=5, c2=6)
            + core_gates(out, c1=1, t=3, c2=5))


def _fredkin3_gates(c: int, b: int, a: int) -> list[Gate]:
    # conjugating the relative-phase core with CX(b->a) turns the conditional
    # flip of b into a conditional exchange of a and b
    return ([Gate(K.CX, (b, a))]
            + core_gates(_AND, c1=c, t=b, c2=a)
            + [Gate(K.CX, (b, a))])


def _toffoli_gates(a: int, b: int, t: int) -> list[Gate]:
    """Textbook 6-CX Clifford+T Toffoli with controls a, b and target t."""
    return [
        Gate(K.H, (t,)),
        Gate(K.CX, (b, t)), Gate(K.TDG, (t,)),
        Gate(K.CX, (a, t)), Gate(K.T, (t,)),
        Gate(K.CX, (b, t)), Gate(K.TDG, (t,)),
        Gate(K.CX, (a, t)),
        Gate(K.T, (b,)), Gate(K.T, (t,)),
        Gate(K.H, (t,)), Gate(K.CX, (a, b)),
        Gate(K.T, (a,)), Gate(K.TDG, (b,)),
        Gate(K.CX, (a, b)),
    ]


_PI_4 = Angle.pi_frac(1, 4)
_CT_WIRES = (("c", _C), ("t", _T))
_AB_WIRES = (("a", _T), ("b", _T))
_FREDKIN_WIRES = (("c", _C), ("b", _T), ("a", _T))
_ANC_CORE_WIRES = (("c1", _C), ("anc", _A), ("c2", _C))
_FIVE_WIRES = (("c1", _C), ("anc1", _A), ("c2", _C), ("t", _T),
               ("c3", _C), ("anc2", _A), ("c4", _C))
_TOFFOLI_WIRES = (("c1", _C), ("c2", _C), ("t", _T))

# ---------------------------------------------------------------------------
# the registry in two halves, name -> ((wire name, role) per wire, gate list
# on those wires).  The paper's layout-aware family leaves its ancilla wires
# dirty (no uncompute); the standard n-bit Toffolis leave theirs clean.
_FAMILY = {
    **{kind.gate: (_CORE_WIRES, core_gates(kind.spec, 0, 1, 2)) for kind in BooleanGateKind},
    "csx2": (_CT_WIRES, _csx2_gates(c=0, t=1)),
    "csxdg2": (_CT_WIRES, _csxdg2_gates(c=0, t=1)),
    # two-CX relative-phase swap derived from the iSWAP circuit shape
    "swap2": (_AB_WIRES, [Gate(K.H, (0,)), Gate(K.CX, (0, 1)), Gate(K.CX, (1, 0)),
                          Gate(K.H, (1,))]),
    "and4": (_ANC_CORE_WIRES + (("t", _T), ("c3", _C)),
             core_gates(_AND, c1=0, t=1, c2=2) + core_gates(_AND, c1=1, t=3, c2=4)),
    "and5": (_FIVE_WIRES, _three_core_gates(_AND, _AND, _AND)),
    "pos5": (_FIVE_WIRES, _three_core_gates(_OR, _OR, _AND)),
    "sop5": (_FIVE_WIRES, _three_core_gates(_AND, _AND, _OR)),
    "fredkin3": (_FREDKIN_WIRES, _fredkin3_gates(c=0, b=1, a=2)),
    "fredkin4": (_ANC_CORE_WIRES + (("b", _T), ("a", _T)),
                 core_gates(_AND, c1=0, t=1, c2=2) + _fredkin3_gates(c=1, b=3, a=4)),
    "csx3": (_ANC_CORE_WIRES + (("t", _T),),
             core_gates(_AND, c1=0, t=1, c2=2) + _csx2_gates(c=1, t=3)),
    "csxdg3": (_ANC_CORE_WIRES + (("t", _T),),
               core_gates(_AND, c1=0, t=1, c2=2) + _csxdg2_gates(c=1, t=3)),
    # CX dressing around one core: computes the majority of all three wires
    # onto the target and swaps the |110> and |001> populations
    "miller3": (_CORE_WIRES, [Gate(K.CX, (1, 0)), Gate(K.CX, (1, 2))]
                + core_gates(_AND, c1=0, t=1, c2=2)
                + [Gate(K.CX, (1, 0)), Gate(K.CX, (1, 2))]),
}
_ORACLES = {  # the standard-approach oracles
    "toffoli": (_TOFFOLI_WIRES, _toffoli_gates(0, 1, 2)),
    # exact (n-1)-controlled X through clean, uncomputed ancillas
    "toffoli4": ((("c1", _C), ("c2", _C), ("c3", _C), ("t", _T), ("anc", _A)),
                 _toffoli_gates(0, 1, 4) + _toffoli_gates(4, 2, 3) + _toffoli_gates(0, 1, 4)),
    "toffoli5": ((("c1", _C), ("c2", _C), ("c3", _C), ("c4", _C), ("t", _T),
                  ("anc1", _A), ("anc2", _A)),
                 _toffoli_gates(0, 1, 5) + _toffoli_gates(2, 3, 6) + _toffoli_gates(5, 6, 4)
                 + _toffoli_gates(2, 3, 6) + _toffoli_gates(0, 1, 5)),
    # symmetric 3-CX network of RY(+-pi/4); matches Toffoli up to the
    # relative phase -1 on the control branch (c1=1, c2=0)
    "toffoli_ry": (_TOFFOLI_WIRES, [
        Gate(K.RY, (2,), _PI_4), Gate(K.CX, (1, 2)),
        Gate(K.RY, (2,), _PI_4), Gate(K.CX, (0, 2)),
        Gate(K.RY, (2,), _PI_4.negated()), Gate(K.CX, (1, 2)),
        Gate(K.RY, (2,), _PI_4.negated())]),
    "fredkin_std": (_FREDKIN_WIRES,
                    [Gate(K.CX, (2, 1))] + _toffoli_gates(0, 1, 2) + [Gate(K.CX, (2, 1))]),
    "csx2_std": (_CT_WIRES, [
        Gate(K.H, (1,)), Gate(K.T, (0,)), Gate(K.T, (1,)),
        Gate(K.CX, (0, 1)), Gate(K.TDG, (1,)), Gate(K.CX, (0, 1)),
        Gate(K.H, (1,))]),
    "csxdg2_std": (_CT_WIRES, [
        Gate(K.H, (1,)), Gate(K.CX, (0, 1)), Gate(K.T, (1,)),
        Gate(K.CX, (0, 1)), Gate(K.TDG, (1,)), Gate(K.TDG, (0,)),
        Gate(K.H, (1,))]),
    "swap2_std": (_AB_WIRES, [Gate(K.CX, (0, 1)), Gate(K.CX, (1, 0)), Gate(K.CX, (0, 1))]),
}

# every gate's circuit, built once: circuits are frozen, so callers share them
GATES: dict[str, Circuit] = {name: _circuit(name, wires, gates)
                             for name, (wires, gates) in (_FAMILY | _ORACLES).items()}
FAMILY_GATES = tuple(_FAMILY)


def build_gate(name: str) -> Circuit:
    """The registry gate `name`, looked up: one shared circuit per name."""
    try:
        return GATES[name]
    except KeyError:
        raise CircuitError(f"unknown gate: {name!r}") from None
