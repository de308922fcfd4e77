"""The gate registry: the layout-aware Clifford+T family and standard oracles.

The centerpiece is the symmetric 3-qubit core: on the target wire
SP1, AX1, th1, CX(c2->t), th2, CX(c1->t), th3, CX(c2->t), th4, AX2, SP2,
with no gate ever connecting the two controls.  Six Boolean gates arise
from fixed core configurations; larger gates chain cores through ancilla
wires that are left dirty (no uncompute).  Standard textbook circuits
(Toffoli, Fredkin, exact controlled-sqrt(X), ...) are provided as
comparison oracles.

`GATES` names every gate once: its wires with their roles, and its gate
list.  `build_gate(name)` turns an entry into a circuit of that name;
`build_core` builds a core from any `CoreSpec`.  Each core's target sits
between its two controls, so the family places on heavy-hex qubits without
SWAP insertion (`layout.place` finds where from the gate list alone).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .circuit import (Angle, Circuit, CircuitError, Gate, GateKind,
                      ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET)

K = GateKind

SUPERPOSITION_KINDS = (K.H, K.SX, K.SXDG)
THETA_KINDS = (K.S, K.SDG, K.T, K.TDG)

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


def ax_name(entry: tuple[GateKind, ...]) -> str:
    for name, seq in AX_ENTRIES.items():
        if seq == tuple(entry):
            return name
    return "+".join(g.value for g in entry)


@dataclass(frozen=True)
class CoreSpec:
    """Configuration of the symmetric 3-bit core: superposition gates,
    auxiliary gate sequences, and the four rotation slots."""

    sp1: GateKind = K.H
    ax1: tuple[GateKind, ...] = ()
    theta: tuple[GateKind, GateKind, GateKind, GateKind] = (K.TDG, K.T, K.TDG, K.T)
    ax2: tuple[GateKind, ...] = ()
    sp2: GateKind = K.H

    def __post_init__(self):
        for slot in ("ax1", "ax2"):
            entry = getattr(self, slot)
            if not isinstance(entry, (tuple, list)) or not all(isinstance(k, GateKind) for k in entry):
                raise CircuitError(f"{slot} must be a tuple of gate kinds, got {entry!r}")
            object.__setattr__(self, slot, tuple(entry))
        if self.sp1 not in SUPERPOSITION_KINDS or self.sp2 not in SUPERPOSITION_KINDS:
            raise CircuitError("sp1/sp2 must be superposition gates (h, sx, sxdg)")
        if (not isinstance(self.theta, (tuple, list)) or len(self.theta) != 4
                or any(t not in THETA_KINDS for t in self.theta)):
            raise CircuitError("theta must be four gates from {s, sdg, t, tdg}")
        object.__setattr__(self, "theta", tuple(self.theta))

    @property
    def symmetric(self) -> bool:
        return self.theta[0] == self.theta[2] and self.theta[1] == self.theta[3]

    def sort_key(self):
        return (self.sp1.value, ax_name(self.ax1), tuple(t.value for t in self.theta),
                ax_name(self.ax2), self.sp2.value)

    def describe(self) -> dict:
        return {"sp1": self.sp1.value, "ax1": ax_name(self.ax1),
                "theta": [t.value for t in self.theta],
                "ax2": ax_name(self.ax2), "sp2": self.sp2.value}


class BooleanGateKind(Enum):
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    IMPLICATION = "implication"
    INHIBITION = "inhibition"


BOOLEAN_TABLE: dict[BooleanGateKind, CoreSpec] = {
    BooleanGateKind.AND: CoreSpec(theta=(K.TDG, K.T, K.TDG, K.T)),
    BooleanGateKind.NAND: CoreSpec(theta=(K.TDG, K.T, K.TDG, K.T), ax2=AX_ENTRIES["-z"]),
    BooleanGateKind.OR: CoreSpec(theta=(K.T, K.T, K.T, K.T), ax2=AX_ENTRIES["z"]),
    BooleanGateKind.NOR: CoreSpec(theta=(K.T, K.T, K.T, K.T)),
    BooleanGateKind.IMPLICATION: CoreSpec(theta=(K.TDG, K.TDG, K.T, K.T), ax2=AX_ENTRIES["-z"]),
    BooleanGateKind.INHIBITION: CoreSpec(theta=(K.TDG, K.TDG, K.T, K.T)),
}

# Boolean functions realized, as f(c1, c2)
BOOLEAN_FUNCTIONS = {
    BooleanGateKind.AND: lambda a, b: a & b,
    BooleanGateKind.NAND: lambda a, b: 1 - (a & b),
    BooleanGateKind.OR: lambda a, b: a | b,
    BooleanGateKind.NOR: lambda a, b: 1 - (a | b),
    BooleanGateKind.IMPLICATION: lambda a, b: (1 - a) | b,
    BooleanGateKind.INHIBITION: lambda a, b: 1 - ((1 - a) | b),
}


def core_gates(spec: CoreSpec, c1: int, t: int, c2: int) -> list[Gate]:
    """Core gate sequence instantiated on arbitrary wires (ax slots of I emit nothing)."""
    return [g for _, gates in core_stage_gates(spec, c1, t, c2) for g in gates]


def core_stage_gates(spec: CoreSpec, c1: int, t: int, c2: int):
    """The nine canonical stages with their gates (AX folded into the SP stages)."""
    return [
        ("SP1", [Gate(spec.sp1, (t,))] + [Gate(k, (t,)) for k in spec.ax1]),
        ("theta1", [Gate(spec.theta[0], (t,))]),
        ("CX_c2", [Gate(K.CX, (c2, t))]),
        ("theta2", [Gate(spec.theta[1], (t,))]),
        ("CX_c1", [Gate(K.CX, (c1, t))]),
        ("theta3", [Gate(spec.theta[2], (t,))]),
        ("CX_c2", [Gate(K.CX, (c2, t))]),
        ("theta4", [Gate(spec.theta[3], (t,))]),
        ("SP2", [Gate(k, (t,)) for k in spec.ax2] + [Gate(spec.sp2, (t,))]),
    ]


STAGE_NAMES = tuple(name for name, _ in core_stage_gates(CoreSpec(), 0, 1, 2))


def _circuit(name: str, wires, gates) -> Circuit:
    return Circuit(len(wires), tuple(gates), roles=tuple(role for _, role in wires),
                   name=name, wire_names=tuple(wire for wire, _ in wires))


_C, _T, _A = ROLE_CONTROL, ROLE_TARGET, ROLE_ANCILLA
_CORE_WIRES = (("c1", _C), ("t", _T), ("c2", _C))


def build_core(spec: CoreSpec) -> Circuit:
    """3-qubit core, named 'core', on wires (c1=0, t=1, c2=2): the target in the middle."""
    return _circuit("core", _CORE_WIRES, core_gates(spec, c1=0, t=1, c2=2))


BOOLEAN_BY_NAME = {
    "and3": BooleanGateKind.AND, "nand3": BooleanGateKind.NAND,
    "or3": BooleanGateKind.OR, "nor3": BooleanGateKind.NOR,
    "imp3": BooleanGateKind.IMPLICATION, "inh3": BooleanGateKind.INHIBITION,
}

_AND = BOOLEAN_TABLE[BooleanGateKind.AND]
_OR = BOOLEAN_TABLE[BooleanGateKind.OR]


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
# the registry: name -> ((wire name, role) per wire, gate list on those wires).
# Ancilla wires of the family are left dirty (no uncompute); those of the
# standard n-bit Toffolis are clean.

GATES: dict[str, tuple[tuple[tuple[str, str], ...], list[Gate]]] = {
    **{name: (_CORE_WIRES, core_gates(BOOLEAN_TABLE[kind], c1=0, t=1, c2=2))
       for name, kind in BOOLEAN_BY_NAME.items()},
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
    # standard-approach oracles
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

# the paper's layout-aware family; the other entries are standard-approach oracles
FAMILY_GATES = ("and3", "nand3", "or3", "nor3", "imp3", "inh3",
                "csx2", "csxdg2", "swap2",
                "and4", "and5", "pos5", "sop5",
                "fredkin3", "fredkin4", "csx3", "csxdg3", "miller3")


def build_gate(name: str) -> Circuit:
    """The registry gate `name` as a circuit of that name."""
    try:
        wires, gates = GATES[name]
    except KeyError:
        raise CircuitError(f"unknown gate: {name!r}") from None
    return _circuit(name, wires, gates)
