"""Gate and circuit intermediate representation with cost and depth metrics.

Conventions used throughout the package:
  - Qubit 0 is the least significant qubit: basis index b encodes
    |q_{n-1} ... q_1 q_0> with bit i of b holding the state of qubit i.
  - For two-qubit gates, qubits[0] is the control and qubits[1] the target
    (SWAP is symmetric).
  - Rotation angles are exact rational multiples of pi whenever possible so
    that adjacent rotations merge losslessly; a float fallback exists for
    angles that are not rational multiples of pi.  An Angle is normalized
    to (-2*pi, 2*pi] once, when it is constructed; gates keep it as given.
    Clifford+T needs only the 16 multiples of pi/4 in that window: an
    Angle on that grid adds and tests for zero as an integer mod 16, and
    grid sums are 16 shared instances.  Other exact angles use Fraction
    arithmetic, and float angles float arithmetic.

Circuits are immutable values; builders and transforms return new circuits.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from operator import attrgetter


class GateKind(Enum):
    """A gate kind: its value is the text tag; `arity` and `takes_angle` are
    plain attributes of each member, so reading them runs no Python code."""

    I = "i"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    SX = "sx"
    SXDG = "sxdg"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    RZ = "rz", 1, True
    RY = "ry", 1, True
    CX = "cx", 2
    CY = "cy", 2
    CZ = "cz", 2
    SWAP = "swap", 2
    ECR = "ecr", 2

    def __new__(cls, tag: str, arity: int = 1, takes_angle: bool = False):
        kind = object.__new__(cls)
        kind._value_ = tag
        kind.arity = arity
        kind.takes_angle = takes_angle
        return kind

    # Members are singletons compared by identity, so the identity hash
    # agrees with == and is computed in C (Enum's own hashes the name).
    __hash__ = object.__hash__


class CircuitError(ValueError):
    """Raised for structurally invalid gates, circuits, or circuit text."""


def _as_tuple(items, what: str) -> tuple:
    if type(items) is tuple:
        return items
    try:
        return tuple(items)
    except TypeError:
        raise CircuitError(f"{what} must be a sequence, got {items!r}") from None


@dataclass(frozen=True)
class Angle:
    """A rotation angle, stored as a rational multiple of pi when exact.

    `frac` is the multiple of pi (e.g. Fraction(1, 4) for pi/4); `value`
    carries plain radians only when `frac` is None.  The constructor
    normalizes every angle to the half-open interval (-2*pi, 2*pi] and
    rejects a non-finite one, so no other code repeats either rule.

    An exact angle on the pi/4 grid also keeps its index k = 4*frac mod 16
    (outside the fields, so `==`, `hash` and `repr` read only `frac` and
    `value`): `plus` and `negated` of grid angles add indices and return
    one of 16 shared instances, and `is_zero_mod_2pi` tests k in {0, 8}.
    An exact sum is then always a Fraction multiple of pi.  Other exact
    angles take Fraction arithmetic; floats take float arithmetic.
    """

    frac: Fraction | None = None
    value: float = 0.0

    def __post_init__(self):
        if self.frac is not None:
            frac = self.frac
            if type(frac) is bool or not isinstance(frac, (int, Fraction)):
                raise CircuitError(f"an exact angle is an int or Fraction multiple of pi, got "
                                   f"{frac!r}; use Angle.from_radians for radians")
            if self.value:
                raise CircuitError("an exact angle carries no radians")
            if not -2 < frac <= 2:
                r = frac % 4
                frac = r - 4 if r > 2 else r
                object.__setattr__(self, "frac", frac)
            den = frac.denominator  # on the grid when it divides 4
            object.__setattr__(self, "_k", frac.numerator * (4 // den) % 16 if 4 % den == 0 else None)
            return
        object.__setattr__(self, "_k", None)
        if not math.isfinite(self.value):
            raise CircuitError(f"angle must be finite, got {self.value!r}")
        r = math.fmod(self.value, 4 * math.pi)
        if r <= -2 * math.pi:
            r += 4 * math.pi
        elif r > 2 * math.pi:
            r -= 4 * math.pi
        object.__setattr__(self, "value", r)

    @staticmethod
    def pi_frac(num: int, den: int = 1) -> "Angle":
        if type(num) is int and type(den) is int and den and 4 % den == 0:
            return _GRID[num * (4 // den) % 16]
        return Angle(Fraction(num, den))

    @staticmethod
    def from_radians(radians: float) -> "Angle":
        return Angle(value=float(radians))

    @property
    def on_grid(self) -> bool:
        """True for an exact multiple of pi/4: one of 16 angles, the only ones
        Clifford+T needs."""
        return self._k is not None

    @property
    def radians(self) -> float:
        return float(self.frac) * math.pi if self.frac is not None else self.value

    def plus(self, other: "Angle") -> "Angle":
        if self._k is not None and other._k is not None:
            return _GRID[(self._k + other._k) % 16]
        if self.frac is not None and other.frac is not None:
            return Angle(self.frac + other.frac)
        return Angle(value=self.radians + other.radians)

    def negated(self) -> "Angle":
        if self._k is not None:
            return _GRID[-self._k % 16]
        return Angle(-self.frac) if self.frac is not None else Angle(value=-self.value)

    def is_zero_mod_2pi(self) -> bool:
        """True when the rotation is the identity up to global phase."""
        if self.frac is not None:
            return self._k == 0 or self._k == 8  # 0 and 2*pi lie on the grid
        r = math.fmod(self.value, 2 * math.pi)
        return min(abs(r), abs(abs(r) - 2 * math.pi)) < 1e-12

    def text(self) -> str:
        if self.frac is None:
            return repr(self.value)
        num, den = self.frac.numerator, self.frac.denominator
        if num == 0:
            return "0"
        sign = "-" if num < 0 else ""
        num = abs(num)
        head = "pi" if num == 1 else f"{num}*pi"
        tail = "" if den == 1 else f"/{den}"
        return sign + head + tail


# the grid angles k*pi/4 by index k mod 16, with frac in (-2, 2]
_GRID = tuple(Angle(Fraction(k if k <= 8 else k - 16, 4)) for k in range(16))


_ANGLE_RE = re.compile(r"^(?P<sign>-)?(?:(?P<num>\d+)\*)?pi(?:/(?P<den>\d+))?$")


def parse_angle(expr: str) -> Angle:
    expr = expr.strip()
    if expr == "0":
        return Angle.pi_frac(0)
    m = _ANGLE_RE.match(expr)
    if m:
        num = int(m.group("num") or 1)
        den = int(m.group("den") or 1)
        if m.group("sign"):
            num = -num
        if den:  # pi/0 is no angle: it falls to the float parse, which rejects it
            return Angle.pi_frac(num, den)
    try:
        return Angle.from_radians(float(expr))
    except ValueError:
        raise CircuitError(f"bad angle expression: {expr!r}") from None


@dataclass(frozen=True)
class Gate:
    """One gate instance: a kind, its qubits, and an angle for RZ/RY."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: Angle | None = None

    def __post_init__(self):
        kind, qubits = self.kind, self.qubits
        if type(qubits) is not tuple:
            qubits = _as_tuple(qubits, "gate qubits")
            object.__setattr__(self, "qubits", qubits)
        if not isinstance(kind, GateKind):
            raise CircuitError(f"gate kind must be a GateKind, got {kind!r}")
        if len(qubits) != kind.arity:
            raise CircuitError(f"{kind.value} expects {kind.arity} qubit(s), got {qubits}")
        if kind.arity == 2 and qubits[0] == qubits[1]:
            raise CircuitError(f"repeated qubit in {kind.value} {qubits}")
        if kind.takes_angle:
            if not isinstance(self.angle, Angle):
                raise CircuitError(f"{kind.value} requires an Angle, got {self.angle!r}")
        elif self.angle is not None:
            raise CircuitError(f"{kind.value} takes no angle")

    def text(self) -> str:
        """The gate's line of circuit text.  It is rendered once and kept in
        the instance `__dict__` (as `functools.cached_property` does), outside
        the fields that `==`, `hash` and `repr` read."""
        line = self.__dict__.get("_text")
        if line is None:
            args = ", ".join(f"q[{q}]" for q in self.qubits)
            if self.angle is None:
                line = f"{self.kind.value} {args}"
            else:
                line = f"{self.kind.value}({self.angle.text()}) {args}"
            self.__dict__["_text"] = line
        return line


ROLE_CONTROL = "control"
ROLE_TARGET = "target"
ROLE_ANCILLA = "ancilla"


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over `width` qubits.

    `roles` optionally tags each qubit as control/target/ancilla; ancilla
    qubits are assumed initialized to |0>.  `wire_names` optionally labels
    wires (c1, t, anc, ...) for layout placement and reporting.
    """

    width: int
    gates: tuple[Gate, ...] = ()
    roles: tuple[str, ...] | None = None
    name: str = ""
    wire_names: tuple[str, ...] | None = None

    def __post_init__(self):
        gates = _as_tuple(self.gates, "circuit gates")
        object.__setattr__(self, "gates", gates)
        if type(self.width) is not int:
            raise CircuitError(f"circuit width must be an integer, got {self.width!r}")
        if self.width < 1:
            raise CircuitError("circuit width must be >= 1")
        # a range tests an int in O(1); 1.0 and True pass it, so the types are checked too
        wires = range(self.width)
        try:
            qubits = [*chain.from_iterable(map(attrgetter("qubits"), gates))]
            fits = {*map(type, qubits)} <= {int} and all(q in wires for q in set(qubits))
        except (AttributeError, TypeError):  # an item that is no Gate
            fits = False
        if not fits:
            for g in gates:
                if not isinstance(g, Gate):
                    raise CircuitError(f"circuit gates must be Gate instances, got {g!r}")
                if any(type(q) is not int or q not in wires for q in g.qubits):
                    raise CircuitError(f"gate {g.kind.value} {g.qubits} outside width {self.width}")
        for attr in ("roles", "wire_names"):
            v = getattr(self, attr)
            if v is not None:
                v = _as_tuple(v, attr)
                object.__setattr__(self, attr, v)
                if len(v) != self.width:
                    raise CircuitError(f"{attr} length {len(v)} != width {self.width}")

    def with_gates(self, gates) -> "Circuit":
        return Circuit(self.width, tuple(gates), self.roles, self.name, self.wire_names)

    def relabeled(self, mapping) -> "Circuit":
        """Apply a qubit permutation, a dict: old index i moves to mapping[i]."""
        if sorted(mapping) != list(range(self.width)) or sorted(mapping.values()) != list(range(self.width)):
            raise CircuitError(f"not a permutation of 0..{self.width - 1}: {mapping}")
        gates = tuple(Gate(g.kind, tuple(mapping[q] for q in g.qubits), g.angle) for g in self.gates)
        roles = wire_names = None
        if self.roles is not None:
            roles = tuple(self.roles[i] for i in sorted(mapping, key=mapping.get))
        if self.wire_names is not None:
            wire_names = tuple(self.wire_names[i] for i in sorted(mapping, key=mapping.get))
        return Circuit(self.width, gates, roles, self.name, wire_names)

    def control_qubits(self) -> tuple[int, ...]:
        return self._role_qubits(ROLE_CONTROL)

    def target_qubits(self) -> tuple[int, ...]:
        return self._role_qubits(ROLE_TARGET)

    def ancilla_qubits(self) -> tuple[int, ...]:
        return self._role_qubits(ROLE_ANCILLA)

    def _role_qubits(self, role: str) -> tuple[int, ...]:
        if self.roles is None:
            return ()
        return tuple(i for i, r in enumerate(self.roles) if r == role)


@dataclass(frozen=True)
class CostReport:
    """Per-gate-tag counts plus total quantum cost and circuit depth."""

    counts: dict
    qc: int
    depth: int

    def __post_init__(self):
        if self.qc != sum(self.counts.values()):
            raise CircuitError("qc must equal the sum of counts")

    def as_dict(self) -> dict:
        return {"counts": dict(self.counts), "qc": self.qc, "depth": self.depth}


def depth(circuit: Circuit) -> int:
    """Greedy layering depth; every gate occupies all its qubits for one step."""
    level = dict.fromkeys(chain.from_iterable(g.qubits for g in circuit.gates), 0)
    for g in circuit.gates:
        if len(g.qubits) == 1:
            level[g.qubits[0]] += 1
        else:
            layer = 1 + max(level[q] for q in g.qubits)
            for q in g.qubits:
                level[q] = layer
    return max(level.values(), default=0)


def count_gates(circuit: Circuit) -> CostReport:
    """Count gates by tag (RZ counts once per instance regardless of angle)."""
    kinds = Counter(map(attrgetter("kind"), circuit.gates))
    return CostReport(counts={kind.value: n for kind, n in kinds.items()}, qc=len(circuit.gates),
                      depth=depth(circuit))


def emit_text(circuit: Circuit) -> str:
    """Render the line-oriented circuit text format (round-trips via parse_text)."""
    lines = [f"qubits {circuit.width}"]
    lines.extend(g.text() for g in circuit.gates)
    return "\n".join(lines) + "\n"


_LINE_RE = re.compile(
    r"^(?P<tag>[a-z]+)(?:\((?P<angle>[^)]*)\))?\s+q\[(?P<q0>\d+)\](?:\s*,\s*q\[(?P<q1>\d+)\])?$"
)
_KIND_BY_TAG = {k.value: k for k in GateKind}


def parse_text(text: str) -> Circuit:
    """Parse the circuit text format; inverse of emit_text.

    The `qubits N` header is optional and comes at most once, before any
    gate; without it the width is inferred from the largest qubit index.
    This reader checks only what needs a line number (the header, the gate
    tag and the declared width); `Gate` and `parse_angle` check the rest,
    and every error carries the `line N:` prefix.
    """
    width: int | None = None
    gates: list[Gate] = []
    max_q = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("qubits"):
            if width is not None or gates:
                raise CircuitError(f"line {lineno}: the qubits header comes once, before any gate")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise CircuitError(f"line {lineno}: bad header {line!r}")
            width = int(parts[1])
            if width < 1:
                raise CircuitError(f"line {lineno}: circuit width must be >= 1")
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise CircuitError(f"line {lineno}: cannot parse {line!r}")
        tag, angle, q0, q1 = m.group("tag", "angle", "q0", "q1")
        kind = _KIND_BY_TAG.get(tag)
        if kind is None:
            raise CircuitError(f"line {lineno}: unknown gate tag {tag!r}")
        qubits = (int(q0),) if q1 is None else (int(q0), int(q1))
        if width is not None and max(qubits) >= width:
            raise CircuitError(f"line {lineno}: qubit index beyond declared width {width}")
        max_q = max(max_q, *qubits)
        try:
            gates.append(Gate(kind, qubits, None if angle is None else parse_angle(angle)))
        except CircuitError as e:
            raise CircuitError(f"line {lineno}: {e}") from None
    if width is None:
        width = max_q + 1 if max_q >= 0 else 1
    return Circuit(width=width, gates=tuple(gates))
