import dataclasses
import math
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hexsynth.circuit import (_KIND_BY_TAG, _LINE_RE, Angle, Circuit, CircuitError, Gate,
                              GateKind, count_gates, depth, emit_text, parse_angle, parse_text)
from hexsynth.layout import LayoutError, heavy_hex_127
from hexsynth.library import GATES, build_gate
from hexsynth.transpiler import NativeBasis, lower, peephole, route_naive

K = GateKind


def G(kind, *qubits, angle=None):
    return Gate(kind, tuple(qubits), angle)


_KINDS_1Q = [K.I, K.X, K.Y, K.Z, K.H, K.SX, K.SXDG, K.S, K.SDG, K.T, K.TDG]
_KINDS_2Q = [K.CX, K.CY, K.CZ, K.SWAP, K.ECR]
# exact multiples of pi with non-dyadic denominators and numerators beyond
# +-2*pi (9*pi/4, -7*pi/2, ...), and plain radians of any finite size
_ANGLES = st.one_of(
    st.builds(Angle.pi_frac, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12))),
    st.builds(Angle.from_radians, st.floats(-1e6, 1e6, allow_nan=False)),
)


@st.composite
def _circuits(draw):
    w = draw(st.integers(1, 5))
    qubit = st.integers(0, w - 1)
    gates = [st.builds(lambda k, q: G(k, q), st.sampled_from(_KINDS_1Q), qubit),
             st.builds(lambda k, q, a: G(k, q, angle=a), st.sampled_from([K.RZ, K.RY]), qubit,
                       _ANGLES)]
    if w >= 2:
        gates.append(st.builds(lambda k, qs: G(k, *qs), st.sampled_from(_KINDS_2Q),
                               st.lists(qubit, min_size=2, max_size=2, unique=True)))
    return Circuit(w, tuple(draw(st.lists(st.one_of(*gates), max_size=30))))


class TestAngle:
    def test_rational_arithmetic(self):
        a = Angle.pi_frac(1, 4)
        b = Angle.pi_frac(1, 2)
        assert a.plus(b).frac == Angle.pi_frac(3, 4).frac
        assert a.plus(a.negated()).is_zero_mod_2pi()

    def test_normalization_window(self):
        assert float(Angle.pi_frac(9, 4).frac) == -1.75  # (-2, 2] in pi units
        assert float(Angle.pi_frac(5, 2).frac) == -1.5
        assert float(Angle.pi_frac(2).frac) == 2.0
        assert float(Angle.pi_frac(-2).frac) == 2.0

    def test_constructor_normalizes(self):
        # the window is (-2*pi, 2*pi]: RZ has period 4*pi, so 9*pi/4 is -7*pi/4, not pi/4
        assert Angle(Fraction(9, 4)) == Angle.pi_frac(9, 4) == Angle.pi_frac(-7, 4)
        assert Angle(Fraction(-7, 2)) == Angle.pi_frac(1, 2)
        assert Angle(value=5 * math.pi).value == pytest.approx(math.pi)

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_constructor_rejects_non_finite(self, value):
        with pytest.raises(CircuitError, match="finite"):
            Angle(value=value)

    def test_exact_angle_carries_no_radians(self):
        # both set, the text would say pi/4 but the parsed angle would differ
        with pytest.raises(CircuitError, match="no radians"):
            Angle(Fraction(1, 4), 0.5)

    @pytest.mark.parametrize("frac", [1.5, "1/4", complex(1), True])
    def test_inexact_frac_rejected(self, frac):
        # a float meant as radians goes through from_radians, not frac
        with pytest.raises(CircuitError, match="from_radians"):
            Angle(frac)

    @pytest.mark.parametrize("num, den", [(1.5, 2), (1, 0.5), ("1", 4)])
    def test_pi_frac_rejects_a_term_that_is_not_an_integer(self, num, den):
        with pytest.raises(CircuitError, match=re.escape(f"got pi*{num!r}/{den!r}")):
            Angle.pi_frac(num, den)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(_ANGLES, _ANGLES)
    def test_sum_matches_fraction_arithmetic(self, a, b):
        # grid angles add as integers mod 16; the result must be the value
        # Fraction arithmetic gives, down to its hash and text
        s = a.plus(b)
        if a.frac is not None and b.frac is not None:
            fresh = Angle(a.frac + b.frac)
            assert s == fresh and hash(s) == hash(fresh) and s.text() == fresh.text()
            assert a.negated() == Angle(-a.frac) and hash(a.negated()) == hash(Angle(-a.frac))
        else:
            assert s == Angle.from_radians(a.radians + b.radians)
        for x in (a, s):
            if x.frac is not None:
                assert x.is_zero_mod_2pi() == (x.frac in (0, 2))
                assert x.on_grid == ((4 * x.frac).denominator == 1)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.integers(-40, 40))
    def test_shared_grid_angle_is_a_plain_value(self, k):
        # a shared instance stands in for a fresh one as a dict key (the
        # lowering memo, any dict keyed by Gate)
        shared, fresh = Angle.pi_frac(k, 4), Angle(Fraction(k, 4))
        assert shared is Angle.pi_frac(k, 4) and shared is not fresh
        assert shared == fresh and hash(shared) == hash(fresh) and repr(shared) == repr(fresh)
        assert hash(Gate(K.RZ, (0,), shared)) == hash(Gate(K.RZ, (0,), fresh))
        # the hash is taken once, by the constructor, for every angle: equal
        # angles off the grid (exact or float) hash alike, and as the
        # dataclass's own hash of (frac, value) would
        pairs = [(Angle.pi_frac(k, 3), Angle(Fraction(k + 12, 3))),
                 (Angle(Fraction(k, 7)), Angle(Fraction(2 * k, 14))),
                 (Angle.from_radians(k / 7), Angle(value=k / 7)),
                 (Angle.from_radians(0.0), Angle(value=-0.0))]
        for a, b in pairs + [(shared, fresh)]:
            assert a == b and hash(a) == hash(b) == hash((a.frac, a.value))

    def test_two_pi_is_identity_mod_phase(self):
        assert Angle.pi_frac(2).is_zero_mod_2pi()
        assert not Angle.pi_frac(1).is_zero_mod_2pi()

    def test_float_fallback(self):
        a = Angle.from_radians(0.5)
        assert a.frac is None
        assert a.plus(Angle.pi_frac(1, 4)).radians == pytest.approx(0.5 + 0.7853981633974483)

    @pytest.mark.parametrize("expr", ["nan", "-nan", "inf", "-inf", "1e400", "pi/0", "3*pi/0"])
    def test_non_finite_rejected(self, expr):
        if "pi" not in expr:  # pi over zero has no float form to pass
            with pytest.raises(CircuitError, match="finite"):
                Angle.from_radians(float(expr))
        else:  # nor an exact one
            num = int(expr.split("*")[0]) if "*" in expr else 1
            with pytest.raises(CircuitError, match=re.escape(f"got pi*{num}/0")):
                Angle.pi_frac(num, 0)
        with pytest.raises(CircuitError, match=re.escape(f"bad angle expression: {expr!r}")):
            parse_angle(expr)

    @pytest.mark.parametrize("num,den,text", [
        (1, 1, "pi"), (-1, 1, "-pi"), (1, 4, "pi/4"), (-1, 4, "-pi/4"),
        (3, 4, "3*pi/4"), (-3, 4, "-3*pi/4"), (2, 1, "2*pi"),
    ])
    def test_text_round_trip(self, num, den, text):
        a = Angle.pi_frac(num, den)
        assert a.text() == text
        assert parse_angle(text).frac == a.frac


class TestGateAndCircuit:
    def test_arity_checked(self):
        with pytest.raises(CircuitError):
            G(K.CX, 0)
        with pytest.raises(CircuitError):
            G(K.H, 0, 1)

    def test_circuit_shape_checked(self):
        with pytest.raises(CircuitError, match="^circuit width must be >= 1$"):
            Circuit(0)
        with pytest.raises(CircuitError, match="^roles length 1 != width 2$"):
            Circuit(2, roles=("control",))

    def test_relabel_needs_a_permutation(self):
        with pytest.raises(CircuitError, match=r"^not a permutation of 0..2: \{0: 0, 1: 0, 2: 2\}$"):
            build_gate("and3").relabeled({0: 0, 1: 0, 2: 2})

    def test_distinct_qubits(self):
        with pytest.raises(CircuitError):
            G(K.CX, 1, 1)

    def test_angle_presence(self):
        with pytest.raises(CircuitError):
            G(K.RZ, 0)
        with pytest.raises(CircuitError):
            G(K.H, 0, angle=Angle.pi_frac(1))

    @pytest.mark.parametrize("angle", [0.5, Fraction(1, 4), "pi/4"])
    def test_angle_must_be_an_angle(self, angle):
        with pytest.raises(CircuitError, match="requires an Angle"):
            Gate(K.RZ, (0,), angle)

    @pytest.mark.parametrize("kind", ["x", None, 3])
    def test_kind_must_be_a_gate_kind(self, kind):
        with pytest.raises(CircuitError, match="must be a GateKind"):
            Gate(kind, (0,))

    @pytest.mark.parametrize("width", [2.5, "3", None, True])
    def test_width_must_be_an_int(self, width):
        with pytest.raises(CircuitError, match="width must be an integer"):
            Circuit(width)

    @pytest.mark.parametrize("qubits", [5, None])
    def test_qubits_must_be_a_sequence(self, qubits):
        with pytest.raises(CircuitError, match="qubits must be a sequence"):
            Gate(K.X, qubits)
        assert Gate(K.CX, [0, 1]).qubits == (0, 1)

    def test_gate_keeps_its_angle(self):
        a = Angle.pi_frac(9, 4)
        assert Gate(K.RZ, (0,), a).angle is a

    def test_gate_must_fit_width(self):
        with pytest.raises(CircuitError):
            Circuit(2, (G(K.H, 5),))
        # the first offending gate is named
        with pytest.raises(CircuitError, match=r"^gate cx \(1, 3\) outside width 2$"):
            Circuit(2, (G(K.H, 0), G(K.CX, 1, 3), G(K.H, 4)))
        with pytest.raises(CircuitError, match=r"^gate h \(-1,\) outside width 2$"):
            Circuit(2, (G(K.H, 1), G(K.H, -1)))
        with pytest.raises(CircuitError, match=r"^gate h \(0.5,\) outside width 2$"):
            Circuit(2, (G(K.H, 1), G(K.H, 0.5)))

    def test_gates_must_be_a_sequence(self):
        with pytest.raises(CircuitError, match=r"^circuit gates must be a sequence, got 5$"):
            Circuit(2, 5)

    def test_roles_must_be_a_sequence(self):
        with pytest.raises(CircuitError, match=r"^roles must be a sequence, got 3$"):
            Circuit(2, roles=3)

    def test_gates_must_be_gates(self):
        with pytest.raises(CircuitError, match=r"^circuit gates must be Gate instances, got 5$"):
            Circuit(2, (G(K.H, 0), 5))

    def test_an_item_with_qubits_is_no_gate(self):
        # it passes a check that reads only `.qubits`, yet no Gate method works on it
        fake = SimpleNamespace(qubits=(0,), kind=K.X, angle=None)
        with pytest.raises(CircuitError, match=r"^circuit gates must be Gate instances, got namespace"):
            Circuit(2, [G(K.H, 1), fake])

    def test_a_gate_subclass_is_a_gate(self):
        class Tagged(Gate):
            pass

        circuit = Circuit(2, [Tagged(K.CX, (0, 1)), G(K.H, 1)])
        assert emit_text(circuit) == emit_text(Circuit(2, [G(K.CX, 0, 1), G(K.H, 1)]))
        with pytest.raises(CircuitError, match=r"^gate cx \(0, 2\) outside width 2$"):
            Circuit(2, [Tagged(K.CX, (0, 2))])

    @pytest.mark.parametrize("build, error, message", [
        (lambda: Circuit(2, (G(K.H, 0), G(K.X, 1.0))), CircuitError,
         r"^gate x \(1\.0,\) outside width 2$"),
        (lambda: Circuit(2, (G(K.H, 0), G(K.X, True))), CircuitError,
         r"^gate x \(True,\) outside width 2$"),
        (lambda: route_naive(Circuit(2, (G(K.CX, 0, 1),)), heavy_hex_127(), {0: 61, 1: 62.0}),
         LayoutError, r"^placement qubits must be integers: \{0: 61, 1: 62\.0\}$"),
        (lambda: Circuit(2, (G(K.H, 1), G(K.X, 1.0))), CircuitError,
         r"^gate x \(1\.0,\) outside width 2$"),
        (lambda: Circuit(2, (G(K.CX, 0, 1), G(K.X, True))), CircuitError,
         r"^gate x \(True,\) outside width 2$"),
        (lambda: Circuit(2, (G(K.CX, 0, 1), G(K.CX, 0, 1.0))), CircuitError,
         r"^gate cx \(0, 1\.0\) outside width 2$"),
    ], ids=["float", "bool", "float placement", "float after equal int", "bool after equal int",
            "float in a tuple equal to an earlier one"])
    def test_qubits_must_be_integers(self, build, error, message):
        # 1.0 and True lie in range(2) yet are no wire: neither emits readable circuit text;
        # the router checks its placement as a `Placement` before it builds a circuit.
        # (1.0,) and (True,) also equal (1,), so a check that dedups qubit tuples before
        # it tests their types would miss them after an earlier int
        with pytest.raises(error, match=message):
            build()

    def test_unhashable_qubits_are_outside_the_width(self):
        with pytest.raises(CircuitError, match=r"^gate cx \(\[0\], \[1\]\) outside width 2$"):
            Circuit(2, (Gate(K.CX, ([0], [1])),))

    def test_relabeled_permutes_everything(self):
        c = Circuit(3, (G(K.CX, 0, 1), G(K.H, 2)), roles=("control", "target", "control"),
                    wire_names=("c1", "t", "c2"))
        r = c.relabeled({0: 2, 1: 0, 2: 1})
        assert r.gates[0].qubits == (2, 0)
        assert r.wire_names == ("t", "c2", "c1")
        assert r.roles == ("target", "control", "control")


def _fresh_text(g):
    args = ", ".join(f"q[{q}]" for q in g.qubits)
    return f"{g.kind.value} {args}" if g.angle is None else f"{g.kind.value}({g.angle.text()}) {args}"


_TEXT_ANGLES = [Angle.pi_frac(1, 4), Angle.pi_frac(-3, 2), Angle.from_radians(0.25),
                Angle.pi_frac(0), Angle.from_radians(0.0)]


class TestGateText:
    def test_text_is_the_gates_own_line(self):
        # one kind on several wires and angles: a line kept under the wrong
        # key would come back for the wrong gate
        for kind in K:
            angles = _TEXT_ANGLES if kind.takes_angle else [None]
            for qubits in ([(0,), (3,)] if kind.arity == 1 else [(0, 1), (2, 0)]):
                for angle in angles:
                    g = Gate(kind, qubits, angle)
                    assert g.text() == _fresh_text(g)
                    assert g.text() == _fresh_text(g)

    def test_rendered_gate_is_still_a_plain_value(self):
        g = G(K.RZ, 1, angle=Angle.pi_frac(1, 4))
        before = hash(g), repr(g)
        text = g.text()
        assert (hash(g), repr(g)) == before
        fresh = G(K.RZ, 1, angle=Angle.pi_frac(1, 4))
        assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
        assert fresh.text() == text
        assert repr(g) == "Gate(kind=<GateKind.RZ: 'rz'>, qubits=(1,), angle=Angle(frac=Fraction(1, 4), value=0.0))"
        assert g != G(K.RZ, 1, angle=Angle.pi_frac(1, 2))

    def test_text_is_rendered_once(self):
        g = G(K.CX, 0, 2)
        assert g.text() is g.text()

    def test_no_gate_has_an_instance_dict(self):
        # the line lives in a slot: a gate with a `__dict__` reads its fields
        # slower.  Cover fresh gates, rendered ones, and every gate the
        # transpile path builds, shares or renders
        gates = [Gate(kind, (0,) if kind.arity == 1 else (0, 1),
                      Angle.pi_frac(1, 4) if kind.takes_angle else None) for kind in K]
        for g in gates:
            assert not hasattr(g, "__dict__")
            g.text()
            assert not hasattr(g, "__dict__")
        for circuit in GATES.values():
            for basis in NativeBasis:
                for c in (circuit, lower(circuit, basis), peephole(lower(circuit, basis))):
                    emit_text(c)
                    assert not any(hasattr(g, "__dict__") for g in c.gates)

    def test_replace_renders_its_own_line(self):
        g = G(K.RZ, 1, angle=Angle.pi_frac(1, 4))
        assert g.text() == "rz(pi/4) q[1]"
        moved = dataclasses.replace(g, qubits=(3,))
        turned = dataclasses.replace(g, angle=Angle.from_radians(0.5))
        assert moved.text() == "rz(pi/4) q[3]" and turned.text() == "rz(0.5) q[1]"
        assert dataclasses.replace(g) == g and dataclasses.replace(g).text() == g.text()


class TestDepth:
    def test_empty_circuit(self):
        assert depth(Circuit(2)) == 0

    def test_single_wire_chain(self):
        c = Circuit(1, (G(K.H, 0), G(K.T, 0), G(K.H, 0)))
        assert depth(c) == 3

    def test_parallel_wires(self):
        c = Circuit(2, (G(K.H, 0), G(K.H, 1), G(K.CX, 0, 1)))
        assert depth(c) == 2

    def test_relabeling_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            w = rng.randint(2, 5)
            gates = []
            for _ in range(rng.randint(0, 25)):
                if rng.random() < 0.4:
                    a, b = rng.sample(range(w), 2)
                    gates.append(G(K.CX, a, b))
                else:
                    gates.append(G(K.H, rng.randrange(w)))
            c = Circuit(w, tuple(gates))
            perm = list(range(w))
            rng.shuffle(perm)
            assert depth(c) == depth(c.relabeled(dict(enumerate(perm))))


class TestDeclaredWidth:
    def test_idle_wires_cost_nothing(self):
        # checking, counting and depth keep state only for wires with gates;
        # a per-wire set or list would peak at tens of MB here
        wide = 10 ** 6
        tracemalloc.start()
        try:
            report = count_gates(Circuit(wide, (G(K.X, 0), G(K.CX, 3, wide - 1), G(K.H, 3))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.qc, report.depth) == (3, 2)
        assert peak < 100_000
        with pytest.raises(CircuitError, match=r"^gate x \(1000000,\) outside width 1000000$"):
            Circuit(wide, (G(K.X, 0), G(K.X, wide)))


class TestCountGates:
    def test_empty(self):
        rep = count_gates(Circuit(1))
        assert rep.counts == {} and rep.qc == 0 and rep.depth == 0

    def test_rz_counts_once_per_instance(self):
        c = Circuit(1, (G(K.RZ, 0, angle=Angle.pi_frac(1, 4)),
                        G(K.RZ, 0, angle=Angle.pi_frac(1, 2))))
        assert count_gates(c).counts == {"rz": 2}

    def test_reorder_invariance(self):
        gates = (G(K.H, 0), G(K.CX, 0, 1), G(K.T, 1))
        a = count_gates(Circuit(2, gates))
        b = count_gates(Circuit(2, gates[::-1]))
        assert a.counts == b.counts and a.qc == b.qc


class TestTextFormat:
    def test_emit_single_gate_lines(self):
        assert emit_text(Circuit(3, (G(K.H, 2),))).splitlines()[1] == "h q[2]"
        assert emit_text(Circuit(3, (G(K.CX, 0, 2),))).splitlines()[1] == "cx q[0], q[2]"
        line = emit_text(Circuit(2, (G(K.RZ, 1, angle=Angle.pi_frac(1, 4)),))).splitlines()[1]
        assert line == "rz(pi/4) q[1]"

    def test_parse_basics(self):
        c = parse_text("h q[0]")
        assert c.width == 1 and c.gates[0].kind is K.H

        c = parse_text("rz(-pi/4) q[3]")
        assert c.width == 4
        assert c.gates[0].angle.frac == Angle.pi_frac(-1, 4).frac

    def test_parse_errors(self):
        with pytest.raises(CircuitError, match="line 1"):
            parse_text("cx q[5]")
        with pytest.raises(CircuitError, match="unknown gate"):
            parse_text("foo q[0]")
        with pytest.raises(CircuitError, match="declared width"):
            parse_text("qubits 2\nh q[4]")
        with pytest.raises(CircuitError, match=r"^line 2: repeated qubit in cx"):
            parse_text("qubits 2\ncx q[0], q[0]")
        with pytest.raises(CircuitError, match=r"^line 1: circuit width must be >= 1"):
            parse_text("qubits 0")
        # the header comes once, before any gate
        for text in ("qubits 3\nh q[2]\nqubits 1", "qubits 2\nh q[0]\nqubits 5"):
            with pytest.raises(CircuitError, match=r"^line 3: the qubits header"):
                parse_text(text)
        with pytest.raises(CircuitError, match=r"^line 2: the qubits header"):
            parse_text("h q[4]\nqubits 2")
        with pytest.raises(CircuitError, match=r"^line 1: bad header 'qubits x'$"):
            parse_text("qubits x\nh q[0]")
        # the header word is `qubits` itself, not a word that starts with it
        for text in ("qubitsfoo 3\nh q[0]", "qubits_ 2\nh q[0]", "qubitss 2"):
            line = text.split("\n")[0]
            with pytest.raises(CircuitError, match=f"^line 1: bad header '{line}'$"):
                parse_text(text)
        # digits that str.isdigit accepts and int() cannot read
        for digit in ("\u00b2", "\u2460"):  # superscript two, circled one
            with pytest.raises(CircuitError, match=f"^line 1: bad header 'qubits {digit}'$"):
                parse_text(f"qubits {digit}\nh q[0]")
        with pytest.raises(CircuitError, match=r"^line 1: cannot parse 'h q0'$"):
            parse_text("h q0")
        # Gate states the arity and angle rules; the parser adds the line
        for text, message in (("cx q[0]", "cx expects 2 qubit"), ("h q[0], q[1]", "h expects 1 qubit"),
                              ("h(pi) q[0]", "h takes no angle"), ("rz q[0]", "rz requires an Angle")):
            with pytest.raises(CircuitError, match=f"^line 2: {message}"):
                parse_text("qubits 2\n" + text)

    def test_header_takes_any_decimal_digits(self):
        # int() reads every Unicode decimal digit, Arabic-Indic three included
        assert parse_text("qubits \u0663\nh q[2]").width == 3

    def test_comments_and_blanks(self):
        c = parse_text("// a comment\nqubits 2\n\nh q[0] // trailing\ncx q[0], q[1]\n")
        assert [g.kind for g in c.gates] == [K.H, K.CX]

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(_circuits())
    def test_round_trip_random(self, c):
        text = emit_text(c)
        back = parse_text(text)
        assert back.width == c.width
        assert back.gates == c.gates
        assert emit_text(back) == text


def reference_parse_text(text: str) -> Circuit:
    """The former per-line loop of `parse_text`: four named group lookups,
    a declared-width test on every gate line, and `str.isdigit` on the
    header (which lets through digits `int()` cannot read)."""
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


_HEADER_DIGITS = ("0", "1", "3", "5", "12", "x", "2 3", "\u00b2", "\u2460", "\u0663")
_ANGLE_TEXTS = ("pi/4", "-3*pi/2", "0", "0.5", "-1e-3", "2*pi/3", "9*pi/4")
_BAD_ANGLE_TEXTS = ("pi/0", "bad", "")
_TAGS = tuple(_KIND_BY_TAG) + ("foo", "cnot")


@st.composite
def _text_lines(draw):
    """One line of circuit text: mostly a well-formed gate, else a header,
    a comment, a blank, a malformed line or a gate that breaks a rule."""
    form = draw(st.sampled_from(("gate",) * 6 + ("odd gate", "header", "comment", "blank",
                                                 "garbage")))
    if form == "header":
        line = "qubits " + draw(st.sampled_from(_HEADER_DIGITS))
    elif form == "comment":
        line = "// " + draw(st.sampled_from(("a note", "h q[0]", "")))
    elif form == "blank":
        line = draw(st.sampled_from(("", "   ", "\t")))
    elif form == "garbage":
        line = draw(st.sampled_from(("h q0", "h(pi q[0]", "q[0]", "cx q[0] q[1]", "H q[0]")))
    else:
        if form == "gate":
            kind = draw(st.sampled_from(list(K)))
            qubits = draw(st.lists(st.integers(0, 9), min_size=kind.arity, max_size=kind.arity,
                                   unique=True))
            tag = kind.value
            if kind.takes_angle:
                tag += f"({draw(st.sampled_from(_ANGLE_TEXTS))})"
        else:  # any tag, angle and qubit count
            tag = draw(st.sampled_from(_TAGS))
            if draw(st.booleans()):
                tag += f"({draw(st.sampled_from(_ANGLE_TEXTS + _BAD_ANGLE_TEXTS))})"
            qubits = draw(st.lists(st.integers(0, 9), min_size=1, max_size=2))
        sep = draw(st.sampled_from((", ", ",", " , ")))
        line = f"{tag}{draw(st.sampled_from((' ', '  ')))}" + sep.join(f"q[{q}]" for q in qubits)
    pad = draw(st.sampled_from(("", " ", "  ")))
    tail = draw(st.sampled_from(("", "", " // trailing")))
    return pad + line + tail


def _outcome(parse, text):
    try:
        c = parse(text)
    except Exception as e:  # the type is compared too: a bare ValueError is a bug
        return type(e), str(e)
    return c.width, c.gates


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(st.one_of(st.none(), st.sampled_from(("3", "5", "12")), st.sampled_from(_HEADER_DIGITS)),
       st.lists(_text_lines(), max_size=12), st.sampled_from(("\n", "\r\n")))
def test_parse_text_equals_reference(header, lines, newline):
    text = newline.join(lines if header is None else ["qubits " + header] + lines)
    got, want = _outcome(parse_text, text), _outcome(reference_parse_text, text)
    if want[0] is ValueError:  # the former header test let through `qubits \u00b2`
        assert got[0] is CircuitError
        assert re.fullmatch(r"line \d+: bad header 'qubits [\u00b2\u2460]'", got[1])
    else:
        assert got == want
