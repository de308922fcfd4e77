"""Builders for the layout-aware Clifford+T gate family and standard oracles.

The centerpiece is the symmetric 3-qubit core: on the target wire
SP1, AX1, th1, CX(c2->t), th2, CX(c1->t), th3, CX(c2->t), th4, AX2, SP2,
with no gate ever connecting the two controls.  Six Boolean gates arise
from fixed core configurations; larger gates chain cores through ancilla
wires that are left dirty (no uncompute).  Standard textbook circuits
(Toffoli, Fredkin, exact controlled-sqrt(X), ...) are provided as
comparison oracles.

Wire layouts mirror the physical placement: each core's target sits between
its two controls, so every builder output maps onto linear qubit triples
without SWAP insertion.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
        object.__setattr__(self, "ax1", tuple(self.ax1))
        object.__setattr__(self, "ax2", tuple(self.ax2))
        object.__setattr__(self, "theta", tuple(self.theta))
        if self.sp1 not in SUPERPOSITION_KINDS or self.sp2 not in SUPERPOSITION_KINDS:
            raise CircuitError("sp1/sp2 must be superposition gates (h, sx, sxdg)")
        if len(self.theta) != 4 or any(t not in THETA_KINDS for t in self.theta):
            raise CircuitError("theta must be four gates from {s, sdg, t, tdg}")

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


def build_core(spec: CoreSpec, name: str = "core") -> Circuit:
    """3-qubit core on wires (c1=0, t=1, c2=2); the target sits in the middle."""
    return Circuit(
        width=3,
        gates=tuple(core_gates(spec, c1=0, t=1, c2=2)),
        roles=(ROLE_CONTROL, ROLE_TARGET, ROLE_CONTROL),
        name=name,
        wire_names=("c1", "t", "c2"),
    )


def build_boolean(kind: BooleanGateKind) -> Circuit:
    return build_core(BOOLEAN_TABLE[kind], name=kind.value + "3")


# ---------------------------------------------------------------------------
# 2-bit gates

class TwoBitKind(Enum):
    CSX = "csx"
    CSXDG = "csxdg"
    SWAP_BLOCH = "swap_bloch"


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


def build_2bit(kind: TwoBitKind) -> Circuit:
    if kind is TwoBitKind.CSX:
        return Circuit(2, tuple(_csx2_gates(0, 1)), roles=(ROLE_CONTROL, ROLE_TARGET),
                       name="csx2", wire_names=("c", "t"))
    if kind is TwoBitKind.CSXDG:
        return Circuit(2, tuple(_csxdg2_gates(0, 1)), roles=(ROLE_CONTROL, ROLE_TARGET),
                       name="csxdg2", wire_names=("c", "t"))
    if kind is TwoBitKind.SWAP_BLOCH:
        # two-CX relative-phase swap derived from the iSWAP circuit shape
        gates = (Gate(K.H, (0,)), Gate(K.CX, (0, 1)), Gate(K.CX, (1, 0)), Gate(K.H, (1,)))
        return Circuit(2, gates, roles=(ROLE_TARGET, ROLE_TARGET),
                       name="swap2", wire_names=("a", "b"))
    raise CircuitError(f"unknown 2-bit gate kind: {kind}")


# ---------------------------------------------------------------------------
# composites

class CompositeKind(Enum):
    AND4 = "and4"
    AND5 = "and5"
    POS5 = "pos5"
    SOP5 = "sop5"
    FREDKIN3 = "fredkin3"
    FREDKIN4 = "fredkin4"
    CSX3 = "csx3"
    CSXDG3 = "csxdg3"
    MILLER3 = "miller3"


ANCILLA_COUNT = {
    CompositeKind.AND4: 1, CompositeKind.AND5: 2, CompositeKind.POS5: 2,
    CompositeKind.SOP5: 2, CompositeKind.FREDKIN3: 0, CompositeKind.FREDKIN4: 1,
    CompositeKind.CSX3: 1, CompositeKind.CSXDG3: 1, CompositeKind.MILLER3: 0,
}


@dataclass(frozen=True)
class CompositeSpec:
    kind: CompositeKind
    m: int = field(default=-1)

    def __post_init__(self):
        expected = ANCILLA_COUNT[self.kind]
        if self.m == -1:
            object.__setattr__(self, "m", expected)
        elif self.m != expected:
            raise CircuitError(f"{self.kind.value} uses m={expected} ancillas, not {self.m}")


_AND = BOOLEAN_TABLE[BooleanGateKind.AND]
_OR = BOOLEAN_TABLE[BooleanGateKind.OR]


def _three_core_5bit(spec_left: CoreSpec, spec_right: CoreSpec, spec_out: CoreSpec, name: str) -> Circuit:
    # wires read like the physical I-shape: (c1, anc1, c2) | t | (c3, anc2, c4)
    gates = []
    gates += core_gates(spec_left, c1=0, t=1, c2=2)
    gates += core_gates(spec_right, c1=4, t=5, c2=6)
    gates += core_gates(spec_out, c1=1, t=3, c2=5)
    return Circuit(
        7, tuple(gates),
        roles=(ROLE_CONTROL, ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET,
               ROLE_CONTROL, ROLE_ANCILLA, ROLE_CONTROL),
        name=name,
        wire_names=("c1", "anc1", "c2", "t", "c3", "anc2", "c4"),
    )


def _fredkin3_gates(c: int, b: int, a: int) -> list[Gate]:
    # conjugating the relative-phase core with CX(b->a) turns the conditional
    # flip of b into a conditional exchange of a and b
    return ([Gate(K.CX, (b, a))]
            + core_gates(_AND, c1=c, t=b, c2=a)
            + [Gate(K.CX, (b, a))])


def build_composite(spec: CompositeSpec | CompositeKind) -> Circuit:
    kind = spec.kind if isinstance(spec, CompositeSpec) else spec
    if kind is CompositeKind.AND4:
        gates = core_gates(_AND, c1=0, t=1, c2=2) + core_gates(_AND, c1=1, t=3, c2=4)
        return Circuit(5, tuple(gates),
                       roles=(ROLE_CONTROL, ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET, ROLE_CONTROL),
                       name="and4", wire_names=("c1", "anc", "c2", "t", "c3"))
    if kind is CompositeKind.AND5:
        return _three_core_5bit(_AND, _AND, _AND, "and5")
    if kind is CompositeKind.POS5:
        return _three_core_5bit(_OR, _OR, _AND, "pos5")
    if kind is CompositeKind.SOP5:
        return _three_core_5bit(_AND, _AND, _OR, "sop5")
    if kind is CompositeKind.FREDKIN3:
        return Circuit(3, tuple(_fredkin3_gates(c=0, b=1, a=2)),
                       roles=(ROLE_CONTROL, ROLE_TARGET, ROLE_TARGET),
                       name="fredkin3", wire_names=("c", "b", "a"))
    if kind is CompositeKind.FREDKIN4:
        gates = core_gates(_AND, c1=0, t=1, c2=2) + _fredkin3_gates(c=1, b=3, a=4)
        return Circuit(5, tuple(gates),
                       roles=(ROLE_CONTROL, ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET, ROLE_TARGET),
                       name="fredkin4", wire_names=("c1", "anc", "c2", "b", "a"))
    if kind in (CompositeKind.CSX3, CompositeKind.CSXDG3):
        two_bit = _csx2_gates if kind is CompositeKind.CSX3 else _csxdg2_gates
        gates = core_gates(_AND, c1=0, t=1, c2=2) + two_bit(c=1, t=3)
        return Circuit(4, tuple(gates),
                       roles=(ROLE_CONTROL, ROLE_ANCILLA, ROLE_CONTROL, ROLE_TARGET),
                       name=kind.value, wire_names=("c1", "anc", "c2", "t"))
    if kind is CompositeKind.MILLER3:
        # CX dressing around one core: computes the majority of all three
        # wires onto the target and swaps the |110> and |001> populations
        pre = [Gate(K.CX, (1, 0)), Gate(K.CX, (1, 2))]
        post = [Gate(K.CX, (1, 0)), Gate(K.CX, (1, 2))]
        gates = pre + core_gates(_AND, c1=0, t=1, c2=2) + post
        return Circuit(3, tuple(gates),
                       roles=(ROLE_CONTROL, ROLE_TARGET, ROLE_CONTROL),
                       name="miller3", wire_names=("c1", "t", "c2"))
    raise CircuitError(f"unknown composite kind: {kind}")


# ---------------------------------------------------------------------------
# standard-approach oracle circuits

class StandardKind(Enum):
    TOFFOLI = "toffoli"
    TOFFOLI_BARENCO_RY = "toffoli_ry"
    FREDKIN = "fredkin"
    CSX_EXACT = "csx_exact"
    CSXDG_EXACT = "csxdg_exact"
    SWAP_EXACT = "swap_exact"
    TOFFOLI_N = "toffoli_n"


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


def build_standard(kind: StandardKind, n: int = 3) -> Circuit:
    if kind is StandardKind.TOFFOLI:
        return Circuit(3, tuple(_toffoli_gates(0, 1, 2)),
                       roles=(ROLE_CONTROL, ROLE_CONTROL, ROLE_TARGET),
                       name="toffoli", wire_names=("c1", "c2", "t"))
    if kind is StandardKind.TOFFOLI_BARENCO_RY:
        # symmetric 3-CX network of RY(+-pi/4); matches Toffoli up to the
        # relative phase -1 on the control branch (c1=1, c2=0)
        q = Angle.pi_frac(1, 4)
        gates = (
            Gate(K.RY, (2,), q), Gate(K.CX, (1, 2)),
            Gate(K.RY, (2,), q), Gate(K.CX, (0, 2)),
            Gate(K.RY, (2,), q.negated()), Gate(K.CX, (1, 2)),
            Gate(K.RY, (2,), q.negated()),
        )
        return Circuit(3, gates, roles=(ROLE_CONTROL, ROLE_CONTROL, ROLE_TARGET),
                       name="toffoli_ry", wire_names=("c1", "c2", "t"))
    if kind is StandardKind.FREDKIN:
        gates = [Gate(K.CX, (2, 1))] + _toffoli_gates(0, 1, 2) + [Gate(K.CX, (2, 1))]
        return Circuit(3, tuple(gates), roles=(ROLE_CONTROL, ROLE_TARGET, ROLE_TARGET),
                       name="fredkin", wire_names=("c", "b", "a"))
    if kind is StandardKind.CSX_EXACT:
        gates = (
            Gate(K.H, (1,)), Gate(K.T, (0,)), Gate(K.T, (1,)),
            Gate(K.CX, (0, 1)), Gate(K.TDG, (1,)), Gate(K.CX, (0, 1)),
            Gate(K.H, (1,)),
        )
        return Circuit(2, gates, roles=(ROLE_CONTROL, ROLE_TARGET),
                       name="csx_exact", wire_names=("c", "t"))
    if kind is StandardKind.CSXDG_EXACT:
        gates = (
            Gate(K.H, (1,)), Gate(K.CX, (0, 1)), Gate(K.T, (1,)),
            Gate(K.CX, (0, 1)), Gate(K.TDG, (1,)), Gate(K.TDG, (0,)),
            Gate(K.H, (1,)),
        )
        return Circuit(2, gates, roles=(ROLE_CONTROL, ROLE_TARGET),
                       name="csxdg_exact", wire_names=("c", "t"))
    if kind is StandardKind.SWAP_EXACT:
        gates = (Gate(K.CX, (0, 1)), Gate(K.CX, (1, 0)), Gate(K.CX, (0, 1)))
        return Circuit(2, gates, roles=(ROLE_TARGET, ROLE_TARGET),
                       name="swap_exact", wire_names=("a", "b"))
    if kind is StandardKind.TOFFOLI_N:
        return _toffoli_n(n)
    raise CircuitError(f"unknown standard kind: {kind}")


def _toffoli_n(n: int) -> Circuit:
    """Exact (n-1)-controlled X via clean uncomputed ancillas, n <= 5."""
    if n < 3 or n > 5:
        raise CircuitError("toffoli_n supports 3 <= n <= 5")
    if n == 3:
        return build_standard(StandardKind.TOFFOLI)
    if n == 4:
        # controls 0,1,2, target 3, ancilla 4
        gates = (_toffoli_gates(0, 1, 4) + _toffoli_gates(4, 2, 3) + _toffoli_gates(0, 1, 4))
        return Circuit(5, tuple(gates),
                       roles=(ROLE_CONTROL,) * 3 + (ROLE_TARGET, ROLE_ANCILLA),
                       name="toffoli4", wire_names=("c1", "c2", "c3", "t", "anc"))
    gates = (_toffoli_gates(0, 1, 5) + _toffoli_gates(2, 3, 6) + _toffoli_gates(5, 6, 4)
             + _toffoli_gates(2, 3, 6) + _toffoli_gates(0, 1, 5))
    return Circuit(7, tuple(gates),
                   roles=(ROLE_CONTROL,) * 4 + (ROLE_TARGET, ROLE_ANCILLA, ROLE_ANCILLA),
                   name="toffoli5", wire_names=("c1", "c2", "c3", "c4", "t", "anc1", "anc2"))


# ---------------------------------------------------------------------------
# name registry shared by the CLI and the layout placements

def _builders() -> dict:
    reg = {
        "and3": lambda: build_boolean(BooleanGateKind.AND),
        "nand3": lambda: build_boolean(BooleanGateKind.NAND),
        "or3": lambda: build_boolean(BooleanGateKind.OR),
        "nor3": lambda: build_boolean(BooleanGateKind.NOR),
        "imp3": lambda: build_boolean(BooleanGateKind.IMPLICATION),
        "inh3": lambda: build_boolean(BooleanGateKind.INHIBITION),
        "csx2": lambda: build_2bit(TwoBitKind.CSX),
        "csxdg2": lambda: build_2bit(TwoBitKind.CSXDG),
        "swap2": lambda: build_2bit(TwoBitKind.SWAP_BLOCH),
        "toffoli": lambda: build_standard(StandardKind.TOFFOLI),
        "toffoli4": lambda: build_standard(StandardKind.TOFFOLI_N, 4),
        "toffoli5": lambda: build_standard(StandardKind.TOFFOLI_N, 5),
        "toffoli_ry": lambda: build_standard(StandardKind.TOFFOLI_BARENCO_RY),
        "fredkin_std": lambda: build_standard(StandardKind.FREDKIN),
        "csx2_std": lambda: build_standard(StandardKind.CSX_EXACT),
        "csxdg2_std": lambda: build_standard(StandardKind.CSXDG_EXACT),
        "swap2_std": lambda: build_standard(StandardKind.SWAP_EXACT),
    }
    for kind in CompositeKind:
        reg[kind.value] = (lambda k=kind: build_composite(k))
    return reg


GATE_BUILDERS = _builders()

# the layout-aware family (everything the placement rules cover)
FAMILY_GATES = ("and3", "nand3", "or3", "nor3", "imp3", "inh3",
                "csx2", "csxdg2", "swap2",
                "and4", "and5", "pos5", "sop5",
                "fredkin3", "fredkin4", "csx3", "csxdg3", "miller3")

BOOLEAN_BY_NAME = {
    "and3": BooleanGateKind.AND, "nand3": BooleanGateKind.NAND,
    "or3": BooleanGateKind.OR, "nor3": BooleanGateKind.NOR,
    "imp3": BooleanGateKind.IMPLICATION, "inh3": BooleanGateKind.INHIBITION,
}


def build_gate(name: str) -> Circuit:
    try:
        return GATE_BUILDERS[name]()
    except KeyError:
        raise CircuitError(f"unknown gate: {name!r}") from None
