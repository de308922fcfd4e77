"""Geometrical design rules: the search over core configurations and the
stage-by-stage phase trace, both read from the per-branch block of the core.

The circle of equatorial target states splits into semicircles (Z), quadrants
(S, S-dagger), and octants (T, T-dagger).  Six successive restriction rules
shrink the gate set allowed in the four rotation slots of the symmetric
core down to {T, T-dagger} on octants; the final rule is realized here as an
exhaustive search over the remaining configuration space.

No core gate touches a control wire except as the control of a CX, so on
each control branch c = (c2 << 1) | c1 the core acts on the target alone, as
the 2x2 block B_c = SP2.AX2.th4.X^b3.th3.X^b2.th2.X^b1.th1.AX1.SP1, b_i the
branch's bit of the control `library.CORE_CX` names for the i-th CX, and its
unitary is block-diagonal over the branches.  The search factors each block
as B_c = L[ax2, sp2] . T[theta, c] . F[sp1, ax1].  F = AX1.SP1 and
L = SP2.AX2 are module constants, `_FIRST` and `_LAST`, over all three SP
kinds and ten `AX_ENTRIES`, built at import; the theta/X middle T depends
only on the rotation tuple and the branch, and one table, `_middles`,
built on first use, holds it for all 256 tuples of the four rotation kinds.

So the whole space is 30 (sp1, ax1) rows of 256 theta tuples by 30
(ax2, sp2) columns, 7,680 configurations a row.  `_row_table` decides and
grades a row the first time a query reads it and keeps it for the
process, one byte per configuration: the function it realizes and its
equivalence level, or a byte that matches no function.  All 30 rows are
230,400 bytes.  A row is filled from one product: T.F, for all 256 theta
tuples and four branches.  The target starts in |0>, so row 1 of each L
times column 0 of T.F is the amplitude of target=1, and `target_bits`,
the simulator's rule that `truth_table` applies too, decides each
configuration from p(target=1) on its four branches.  Only the
deterministic configurations get their full blocks L.(T.F).  Every
product is formed entry by entry, as the sum of two broadcast products of
a column by a row (the term-wise form of the simulator's ECR), and no
step of the fill calls BLAS.  The blocks are graded with one call of the
package's one grader, `simulator.equivalence_levels`, each against the
oracle blocks of its own function (I or X per target bit).

A `SearchQuery` checks its alphabets and stores each as a set in
enumeration order (distinct entries; kinds by value, AX entries by name),
so its space is the C-order grid of its (sp1, ax1) rows by its theta
tuples by its (ax2, sp2) columns, which `iter_specs` yields.  `search`
gathers that grid's bytes from the row tables, row after row, and each
byte that holds the target's function is a hit, at the level the byte
holds, in the grid's order.

`phase_trace` walks one branch through the same factors, stage by stage:
`_FIRST`'s column 0, each theta, X for each CX whose control is 1, then
`_LAST`, naming the target's equatorial octant after every stage, and the
last stage's |0> or |1> by `target_bits`.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitError, GateKind
from .library import AX_ENTRIES, CORE_CX, SUPERPOSITION_KINDS, THETA_KINDS, CoreSpec
from .simulator import (ATOL_EQUIV, EquivalenceLevel, SimulationError, equivalence_levels,
                        gate_matrix, target_bits)

K = GateKind

SEG_SEMICIRCLES = "semicircles"
SEG_QUADRANTS = "quadrants"
SEG_OCTANTS = "octants"

SEARCH_SPACE_GUARD = 10 ** 7


@dataclass(frozen=True)
class GateSetStage:
    """Gate set and segment set after one restriction stage."""

    stage: int
    ctg: tuple[str, ...]
    seg: tuple[str, ...]


def apply_rules() -> list[GateSetStage]:
    """The five successive restriction stages of the design rules."""
    all_gates = ("i", "x", "y", "z", "h", "sx", "sxdg", "s", "sdg", "t", "tdg",
                 "cx", "cy", "cz", "swap")
    single = all_gates[:11]
    all_segs = (SEG_SEMICIRCLES, SEG_QUADRANTS, SEG_OCTANTS)
    return [
        GateSetStage(0, all_gates, all_segs),
        GateSetStage(1, single, all_segs),                                  # target controls nothing
        GateSetStage(2, ("z", "s", "sdg", "t", "tdg"), all_segs),           # Z-axis rotations only
        GateSetStage(3, ("s", "sdg", "t", "tdg"), (SEG_QUADRANTS, SEG_OCTANTS)),
        GateSetStage(4, ("t", "tdg"), (SEG_OCTANTS,)),
    ]


def count_space(sp_set_size: int, ax_set_size: int, theta_set_size: int) -> int:
    """Number of core configurations: ||SP||^2 * ||AX||^2 * ||theta_set||^4."""
    sizes = (sp_set_size, ax_set_size, theta_set_size)
    if any(type(n) is not int for n in sizes):
        raise CircuitError(f"set sizes must be integers, got {sizes}")
    if min(sizes) < 1:
        raise CircuitError("set sizes must be >= 1")
    return sp_set_size ** 2 * ax_set_size ** 2 * theta_set_size ** 4


DEFAULT_SP = (K.H,)
DEFAULT_AX = ("i",)
DEFAULT_THETA = (K.T, K.TDG)


@dataclass(frozen=True)
class SearchQuery:
    """Target truth table plus the allowed gate sets for each core slot.

    `target` is the 4-character outcome string over ascending control
    assignments 00, 01, 10, 11 (control 1 is the low bit), e.g. and='0001'.
    The SP and theta sets hold gate kinds, the AX sets `AX_ENTRIES` names.
    Every alphabet entry is checked here, once, by building its one-slot
    CoreSpec, with the CircuitError that CoreSpec raises.  Each alphabet is
    then stored as a set in enumeration order: its distinct entries, kinds
    sorted by value and AX entries by name.  This is the input boundary of
    `search` and `iter_specs`, and the one place the order of hits is set.
    """

    target: str
    sp_set: tuple = DEFAULT_SP
    ax1_set: tuple = DEFAULT_AX
    ax2_set: tuple = DEFAULT_AX
    theta_set: tuple = DEFAULT_THETA
    symmetric: bool = False

    def __post_init__(self):
        if (not isinstance(self.target, str) or len(self.target) != 4
                or any(ch not in "01" for ch in self.target)):
            raise CircuitError("target must be 4 bits over assignments 00,01,10,11")
        if type(self.symmetric) is not bool:
            raise CircuitError(f"symmetric must be True or False, got {self.symmetric!r}")
        for name in ("sp_set", "ax1_set", "ax2_set", "theta_set"):
            vals = getattr(self, name)
            # a string would split into characters: "sx" into the names s and x
            if isinstance(vals, str):
                raise CircuitError(f"{name} must be a collection, not the string {vals!r}")
            try:
                vals = tuple(vals)
            except TypeError:
                raise CircuitError(f"{name} must be a collection of entries") from None
            if not vals:
                raise CircuitError(f"{name} must not be empty")
            object.__setattr__(self, name, vals)
        for s in self.sp_set:
            CoreSpec(sp1=s, sp2=s)
        for a in self.ax1_set:
            CoreSpec(ax1=a)
        for a in self.ax2_set:
            CoreSpec(ax2=a)
        for t in self.theta_set:
            CoreSpec(theta=(t,) * 4)
        for name in ("sp_set", "ax1_set", "ax2_set", "theta_set"):
            key = None if name.startswith("ax") else (lambda kind: kind.value)
            object.__setattr__(self, name, tuple(sorted(set(getattr(self, name)), key=key)))


@dataclass(frozen=True)
class SearchHit:
    spec: CoreSpec
    level: EquivalenceLevel

    def as_dict(self) -> dict:
        return {"spec": self.spec.describe(), "level": self.level.name}


def iter_specs(query: SearchQuery):
    """The query's configuration space in enumeration order: the C order of
    its alphabets as stored, sp1, ax1, theta1..theta4, ax2, sp2."""
    sp = query.sp_set
    for sp1, a1, th, a2, sp2 in itertools.product(
            sp, query.ax1_set, itertools.product(query.theta_set, repeat=4), query.ax2_set, sp):
        spec = CoreSpec(sp1=sp1, ax1=a1, theta=th, ax2=a2, sp2=sp2)
        if query.symmetric and not spec.symmetric:
            continue
        yield spec


def _space_size(query: SearchQuery) -> int:
    return (len(query.sp_set) ** 2 * len(query.ax1_set) * len(query.ax2_set)
            * len(query.theta_set) ** 4)


# X**0 and X**1 on the target: the CX flips of the theta/X middle, and the
# oracle's block on a branch whose target bit is 0 or 1
_FLIP = np.array([gate_matrix(K.I), gate_matrix(K.X)])


def _target_matrix(kinds) -> np.ndarray:
    """2x2 matrix of single-qubit gates applied to the target in order."""
    m = _FLIP[0]
    for k in kinds:
        m = gate_matrix(k) @ m
    return m


# F = AX1.SP1 as _FIRST[sp1, ax1] and L = SP2.AX2 as _LAST[ax2, sp2], over
# every SP kind and AX entry, at their positions in SUPERPOSITION_KINDS and
# AX_ENTRIES
_SP_INDEX = {k: i for i, k in enumerate(SUPERPOSITION_KINDS)}
_AX_INDEX = {a: i for i, a in enumerate(AX_ENTRIES)}
_FIRST = np.array([[_target_matrix((s, *AX_ENTRIES[a])) for a in AX_ENTRIES]
                   for s in SUPERPOSITION_KINDS])
_LAST = np.array([[_target_matrix((*AX_ENTRIES[a], s)) for s in SUPERPOSITION_KINDS]
                  for a in AX_ENTRIES])
_FIRST.setflags(write=False)
_LAST.setflags(write=False)


# a row table's byte is (function << 2) | level, the function the target's
# four bits in branch order, read as a binary number like the query's
# target, and the level `EquivalenceLevel` value; or one byte that no
# function code matches, for a configuration that realizes no function
_UNDECIDED = 0xFF
_LEVEL_OF = tuple(EquivalenceLevel(value) for value in range(4))  # by value


@functools.cache
def _middles() -> np.ndarray:
    """T[theta, c] = th4.X^b3.th3.X^b2.th2.X^b1.th1 for all 256 theta
    tuples over THETA_KINDS in C order, shape (256, 4, 2, 2), branch
    (c2 << 1) | c1 on axis 1, b_i the branch's bit of the control that
    `CORE_CX` names for the i-th CX.  Every rotation is diagonal, so each T
    is a monomial matrix whose two nonzero entries are powers of
    omega = exp(i pi/4): column k of T is a walk from row k over the
    rotations, taking each one's diagonal entry at the current row, and
    over `CORE_CX` between them, flipping the row where the CX's control
    is 1.  Built on first use; read-only."""
    index = np.array(list(itertools.product(range(4), repeat=4)))
    first, *rest = np.array([gate_matrix(k).diagonal() for k in THETA_KINDS])[index.T]
    middles = np.zeros((256, 4, 2, 2), dtype=complex)
    for c2, c1, k in itertools.product((0, 1), repeat=3):
        bit, row, entry = {"c1": c1, "c2": c2}, k, first[:, k]
        for control, diagonal in zip(CORE_CX, rest):
            row ^= bit[control]
            entry = diagonal[:, row] * entry
        middles[:, c2 << 1 | c1, row, k] = entry
    middles.setflags(write=False)
    return middles


# bound: the 15 alphabets of the four rotation kinds, symmetric or not
@functools.lru_cache(maxsize=30)
def _theta_index(thetas: tuple, symmetric: bool):
    """The theta tuples `iter_specs` enumerates over the stored alphabet
    `thetas`, in C order, only the `CoreSpec.symmetric` ones when
    `symmetric`, and their rows in `_middles` and in every row table, as a
    read-only index array.  Cached."""
    tuples = tuple(th for th in itertools.product(thetas, repeat=4)
                   if not symmetric or CoreSpec(theta=th).symmetric)
    digit = {k: i for i, k in enumerate(THETA_KINDS)}
    index = np.array([((digit[a] * 4 + digit[b]) * 4 + digit[c]) * 4 + digit[d]
                      for a, b, c, d in tuples], dtype=np.intp)
    index.setflags(write=False)
    return tuples, index


# bound: the 3 SP kinds by the 10 AX entries, the whole space
@functools.lru_cache(maxsize=30)
def _row_table(sp1: GateKind, ax1: str) -> np.ndarray:
    """The (sp1, ax1) row of the core space, decided and graded once: a
    read-only uint8 array of shape (256 theta tuples over THETA_KINDS,
    10 AX2 entries, 3 SP2 kinds), in `_middles` and `AX_ENTRIES` and
    `SUPERPOSITION_KINDS` order, of 7,680 bytes.  Each byte is
    (function << 2) | level for a deterministic configuration, else
    _UNDECIDED.  Filled by the first query that reads the row and kept for
    the process: 30 rows of the whole space are 230,400 bytes.

    T.F is formed once, for all 256 theta tuples, as (c, i, k, t); row 1
    of each L times its column 0 gives the amplitudes of target=1, as
    (c, j, t), which `target_bits` decides; and the deterministic
    configurations alone get their blocks L[j].(T.F), as (c, r, k, n),
    which one `equivalence_levels` call grades, each against the oracle
    blocks `_FLIP[bits]` of its own target bits.  Each product is the sum
    of two broadcast products of a column by a row, e.g.
    (T.F)[i, k] = T[i, 0] F[0, k] + T[i, 1] F[1, k], along the long last
    axis of configurations; stacked 2x2 matmuls cost several times more."""
    f, l = _FIRST[_SP_INDEX[sp1], _AX_INDEX[ax1]], _LAST.reshape(30, 2, 2)
    m = _middles().transpose(1, 2, 3, 0)
    mf = m[:, :, :1] * f[0, :, None] + m[:, :, 1:] * f[1, :, None]
    amp = mf[:, None, 0, 0] * l[:, 1, 0, None]
    amp += mf[:, None, 1, 0] * l[:, 1, 1, None]
    bits, ok = target_bits(amp.real ** 2 + amp.imag ** 2)
    j, t = np.nonzero(ok[0] & ok[1] & ok[2] & ok[3])
    bits = bits[:, j, t]
    mf, l = mf[..., t], l[j].transpose(1, 2, 0)
    blocks = l[None, :, 0, None] * mf[:, None, 0]
    blocks += l[None, :, 1, None] * mf[:, None, 1]
    levels = equivalence_levels(blocks.transpose(3, 0, 1, 2).reshape(-1, 8, 2),
                                _FLIP[bits.T.astype(np.intp)].reshape(-1, 8, 2))
    table = np.full((256, 10, 3), _UNDECIDED, dtype=np.uint8)
    table.reshape(256, 30)[t, j] = (bits * [[8], [4], [2], [1]]).sum(axis=0) << 2 | levels
    table.setflags(write=False)
    return table


def search(query: SearchQuery) -> list[SearchHit]:
    """All configurations in the query space realizing the target function,
    in `iter_specs` order.

    From the `_row_table` of each (sp1, ax1) row of the query, in stored
    order, the bytes of the query's theta tuples (`_theta_index`, the
    symmetric restriction included) by its (ax2, sp2) columns are
    gathered: row after row, they are in the order `iter_specs` yields.
    Each byte that holds the target's code is a hit, at the level the byte
    holds.
    """
    if _space_size(query) > SEARCH_SPACE_GUARD:
        raise CircuitError(f"search space exceeds {SEARCH_SPACE_GUARD} configurations")
    code = int(query.target, 2)
    tuples, theta_rows = _theta_index(query.theta_set, query.symmetric)
    cols = list(itertools.product(query.ax2_set, query.sp_set))
    cells = (theta_rows[:, None] * 30 + [_AX_INDEX[a] * 3 + _SP_INDEX[s] for a, s in cols]).ravel()
    rows = list(itertools.product(query.sp_set, query.ax1_set))
    found = np.concatenate([_row_table(sp1, ax1).take(cells) for sp1, ax1 in rows])
    at, = (found >> 2 == code).nonzero()
    n_j, n_row = len(cols), len(cells)
    return [SearchHit(CoreSpec(*rows[k // n_row], tuples[k % n_row // n_j], *cols[k % n_j]),
                      _LEVEL_OF[b & 3])
            for k, b in zip(at.tolist(), found[at].tolist())]


def query_from_names(target: str, sp, ax1, ax2, theta, symmetric: bool = False) -> SearchQuery:
    """Build a query from CLI-style tokens, one list per alphabet (AX sets by name)."""
    kind = {k.value: k for k in GateKind}
    try:
        sp_set, theta_set = tuple(kind[s] for s in sp), tuple(kind[t] for t in theta)
    except KeyError as e:
        raise CircuitError(f"unknown gate name {e.args[0]!r}") from None
    return SearchQuery(target=target, sp_set=sp_set, ax1_set=ax1, ax2_set=ax2,
                       theta_set=theta_set, symmetric=symmetric)


# ---------------------------------------------------------------------------
# phase trace of the symmetric 3-bit core

STAGE_NAMES = ("SP1", "theta1", *itertools.chain.from_iterable(
    (f"CX_{control}", f"theta{i}") for i, control in enumerate(CORE_CX, 2)), "SP2")
PHASE_STEP_LABELS = {0: "|+>", 1: "pi/4", 2: "|+i>", 3: "3pi/4",
                     4: "|->", 5: "5pi/4", 6: "|-i>", 7: "7pi/4"}
TRACE_SKIP = "-"
_SQ2 = 1.0 / math.sqrt(2.0)


def _equatorial_label(psi: np.ndarray) -> str:
    a0, a1 = psi
    if not (abs(abs(a0) - _SQ2) < ATOL_EQUIV and abs(abs(a1) - _SQ2) < ATOL_EQUIV):
        raise SimulationError("target is not in equatorial form")
    phi = cmath.phase(a1 / a0) % (2 * math.pi)
    k = round(phi / (math.pi / 4)) % 8
    if abs(phi - k * (math.pi / 4)) > ATOL_EQUIV and abs(phi - 2 * math.pi) > ATOL_EQUIV:
        raise SimulationError(f"phase {phi} is not a multiple of pi/4")
    return PHASE_STEP_LABELS[k]


def phase_trace(core: CoreSpec, control_state: str) -> list[str]:
    """Target-qubit label after each of the core's nine stages (`STAGE_NAMES`).

    `control_state` is the two-bit string 'c2 c1' (control 1 rightmost),
    which picks the branch: the target starts in |0>, F = AX1.SP1 takes it
    to the equator, each theta turns it, a CX whose control is 1 swaps its
    two amplitudes and one whose control is 0 does not fire and reports
    '-', and L = SP2.AX2 ends the branch, at |0> or |1> when the branch is
    deterministic.
    """
    if (not isinstance(control_state, str) or len(control_state) != 2
            or any(ch not in "01" for ch in control_state)):
        raise SimulationError(f"control_state must be two bits, got {control_state!r}")
    bit = {"c2": int(control_state[0]), "c1": int(control_state[1])}
    psi = _FIRST[_SP_INDEX[core.sp1], _AX_INDEX[core.ax1], :, 0]
    labels = [_equatorial_label(psi)]
    for control, theta in zip((None, *CORE_CX), core.theta):
        if control is not None:
            psi = psi[::-1] if bit[control] else psi
            labels.append(_equatorial_label(psi) if bit[control] else TRACE_SKIP)
        psi = gate_matrix(theta) @ psi
        labels.append(_equatorial_label(psi))
    psi = _LAST[_AX_INDEX[core.ax2], _SP_INDEX[core.sp2]] @ psi
    one, deterministic = target_bits(abs(psi[1]) ** 2)
    labels.append(("|1>" if one else "|0>") if deterministic else _equatorial_label(psi))
    return labels
