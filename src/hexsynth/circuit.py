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
A circuit is checked once, where it comes in: `Circuit(...)` checks every
gate against the width for outside input (registry literals, user code,
`dataclasses.replace`, `relabeled`).  The four passes that build a circuit
only from parts already checked (`parse_text`, whose per-line checks are
complete; `lower` and `peephole`, which emit gates on their input's wires;
and `route_naive`, on checked placement and map qubits) build it through
`_unchecked_circuit` and are correct by construction.
A Gate has slots and no instance dict, and renders its line of circuit
text once, into a slot of its own, so a shared gate pays for its line once
and reads its fields at full speed however often it is emitted.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
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

    The hash is the one the dataclass would generate, `hash((frac, value))`,
    taken once by the constructor: `Fraction.__hash__` runs in Python, and
    the lowering memo hashes an angle on every RZ/RY lookup.
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
            object.__setattr__(self, "_hash", hash((frac, self.value)))
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
        object.__setattr__(self, "_hash", hash((None, r)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def pi_frac(num: int, den: int = 1) -> "Angle":
        if type(num) is int and type(den) is int and den and 4 % den == 0:
            return _GRID[num * (4 // den) % 16]
        try:
            return Angle(Fraction(num, den))
        except (TypeError, ZeroDivisionError):  # a float term, or pi over zero
            raise CircuitError(f"pi_frac needs integer terms and a nonzero denominator, "
                               f"got pi*{num!r}/{den!r}") from None

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
    try:
        if m:
            sign, num, den = m.groups()
            num = int(num or 1)  # more digits than int() converts is a ValueError
            den = int(den or 1)
            if sign:
                num = -num
            if den:  # pi/0 is no angle: it falls to the float parse, which rejects it
                return Angle.pi_frac(num, den)
        return Angle.from_radians(float(expr))
    except ValueError:
        raise CircuitError(f"bad angle expression: {expr!r}") from None


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """One gate instance: a kind, its qubits, and an angle for RZ/RY.

    A gate has slots and no instance `__dict__`: its fields and its rendered
    line (see `text`) are slots, and only the three fields take part in
    `==`, `hash` and `repr`."""

    kind: GateKind
    qubits: tuple[int, ...]
    angle: Angle | None = None
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, kind: GateKind, qubits: tuple[int, ...], angle: Angle | None = None):
        # one hand-written constructor checks, then stores each slot through
        # its member descriptor, which skips the frozen __setattr__ and is
        # faster than object.__setattr__
        if type(qubits) is not tuple:
            qubits = _as_tuple(qubits, "gate qubits")
        if not isinstance(kind, GateKind):
            raise CircuitError(f"gate kind must be a GateKind, got {kind!r}")
        arity = kind.arity
        if len(qubits) != arity:
            raise CircuitError(f"{kind.value} expects {arity} qubit(s), got {qubits}")
        if arity == 2 and qubits[0] == qubits[1]:
            raise CircuitError(f"repeated qubit in {kind.value} {qubits}")
        if kind.takes_angle:
            if not isinstance(angle, Angle):
                raise CircuitError(f"{kind.value} requires an Angle, got {angle!r}")
        elif angle is not None:
            raise CircuitError(f"{kind.value} takes no angle")
        _SET_KIND(self, kind)
        _SET_QUBITS(self, qubits)
        _SET_ANGLE(self, angle)
        _SET_TEXT(self, None)

    def text(self) -> str:
        """The gate's line of circuit text.  It is rendered once and kept in
        the `_text` slot, which `==`, `hash` and `repr` do not read.  A slot,
        not the instance `__dict__` that `functools.cached_property` writes:
        in CPython, reading an object's `__dict__` makes it a real dict, which
        turns off the inline attribute values that make every later read of
        `kind`, `qubits` and `angle` fast."""
        line = self._text
        if line is None:
            args = ", ".join(f"q[{q}]" for q in self.qubits)
            if self.angle is None:
                line = f"{self.kind.value} {args}"
            else:
                line = f"{self.kind.value}({self.angle.text()}) {args}"
            _SET_TEXT(self, line)
        return line


_SET_KIND, _SET_QUBITS, _SET_ANGLE, _SET_TEXT = (
    Gate.__dict__[name].__set__ for name in ("kind", "qubits", "angle", "_text"))


ROLE_CONTROL = "control"
ROLE_TARGET = "target"
ROLE_ANCILLA = "ancilla"


@dataclass(frozen=True)
class Circuit:
    """An ordered gate sequence over `width` qubits.

    `roles` optionally tags each qubit as control/target/ancilla; ancilla
    qubits are assumed initialized to |0>.  `wire_names` optionally labels
    wires (c1, t, anc, ...) for layout placement and reporting.

    The constructor checks the width, that every gate is a `Gate` on int
    qubits in range(width), and the lengths of `roles` and `wire_names`.
    Only `parse_text`, `lower`, `peephole` and `route_naive` skip it, through
    `_unchecked_circuit`: they guarantee the same by construction.
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

    def relabeled(self, mapping) -> "Circuit":
        """Apply a qubit permutation, a dict of int wires: old index i moves
        to mapping[i]."""
        if not isinstance(mapping, dict):
            raise CircuitError(f"a relabel mapping is a dict of wires, got {mapping!r}")
        wires, keys, values = list(range(self.width)), list(mapping), list(mapping.values())
        # 1.0 and True sort and compare like 1, so the types are checked first
        if (any(type(w) is not int for w in keys + values)
                or sorted(keys) != wires or sorted(values) != wires):
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


def _unchecked_circuit(width: int, gates: tuple, roles=None, name: str = "",
                       wire_names=None) -> Circuit:
    """A Circuit of these five fields, built without `__post_init__`.

    The caller guarantees everything the constructor would check: `width`
    is an int >= 1; `gates` is a tuple of `Gate`s whose qubits are ints in
    range(width); `roles` and `wire_names` are None or tuples of length
    `width`.  The fields are stored as the frozen dataclass's `__init__`
    stores them, never through the instance `__dict__` (reading it turns
    off CPython's inline attribute values)."""
    c = object.__new__(Circuit)
    object.__setattr__(c, "width", width)
    object.__setattr__(c, "gates", gates)
    object.__setattr__(c, "roles", roles)
    object.__setattr__(c, "name", name)
    object.__setattr__(c, "wire_names", wire_names)
    return c


@dataclass(frozen=True)
class CostReport:
    """Per-gate-tag counts plus total quantum cost and circuit depth."""

    counts: dict
    depth: int

    @property
    def qc(self) -> int:
        return sum(self.counts.values())

    def as_dict(self) -> dict:
        return {"counts": dict(self.counts), "qc": self.qc, "depth": self.depth}


def depth(circuit: Circuit) -> int:
    """Greedy layering depth; every gate occupies all its qubits for one step.

    One pass keeps the layer each wire has reached, only for the wires that
    carry a gate, and the deepest layer so far."""
    level: dict[int, int] = {}
    get = level.get
    deepest = 0
    for g in circuit.gates:
        qubits = g.qubits
        if len(qubits) == 1:
            q = qubits[0]
            layer = level[q] = get(q, 0) + 1
        else:
            a, b = qubits
            layer = level[a] = level[b] = max(get(a, 0), get(b, 0)) + 1
        if layer > deepest:
            deepest = layer
    return deepest


def count_gates(circuit: Circuit) -> CostReport:
    """Count gates by tag (RZ counts once per instance regardless of angle)."""
    kinds = Counter(map(attrgetter("kind"), circuit.gates))
    return CostReport(counts={kind.value: n for kind, n in kinds.items()}, depth=depth(circuit))


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
    This reader checks what needs a line number (the header, the gate tag
    and the declared width); `Gate` and `parse_angle` check the rest, and
    one handler per line gives every error, an integer of more digits than
    `int()` converts included, the `line N:` prefix; so does an index whose
    inferred width max + 1 has more digits than `str()` converts.  These
    are the only checks a parsed circuit gets: every index is `int()` of
    decimal digits below the declared width (>= 1) or below the inferred
    width max + 1, so the circuit is built without `Circuit`'s own re-check.
    """
    width: int | None = None
    gates: list[Gate] = []
    max_q = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("qubits"):
                if width is not None or gates:
                    raise CircuitError("the qubits header comes once, before any gate")
                parts = line.split()
                # the word is `qubits` itself, and isdecimal() takes the digits int() reads
                if len(parts) != 2 or parts[0] != "qubits" or not parts[1].isdecimal():
                    raise CircuitError(f"bad header {line!r}")
                width = int(parts[1])
                if width < 1:
                    raise CircuitError("circuit width must be >= 1")
                continue
            m = _LINE_RE.match(line)
            if not m:
                raise CircuitError(f"cannot parse {line!r}")
            tag, angle, q0, q1 = m.groups()
            kind = _KIND_BY_TAG.get(tag)
            if kind is None:
                raise CircuitError(f"unknown gate tag {tag!r}")
            a = int(q0)
            if q1 is None:
                qubits, top = (a,), a
            else:
                b = int(q1)
                qubits, top = (a, b), (b if b > a else a)
            # the header precedes every gate, so a qubit that raises no maximum
            # already lies within the declared width
            if top > max_q:
                if width is None:
                    # emit_text writes the inferred width, max + 1, in its header:
                    # str() raises here if that has more digits than it converts
                    str(top + 1)
                elif top >= width:
                    raise CircuitError(f"qubit index beyond declared width {width}")
                max_q = top
            gates.append(Gate(kind, qubits, None if angle is None else parse_angle(angle)))
        except ValueError as e:  # a CircuitError, or int() of more digits than Python converts
            raise CircuitError(f"line {lineno}: {e}") from None
    if width is None:
        width = max_q + 1 if max_q >= 0 else 1
    return _unchecked_circuit(width, tuple(gates))
