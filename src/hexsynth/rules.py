"""Geometrical design rules: the search over core configurations and the
stage-by-stage phase trace, both read from the per-branch block of the core.

The circle of equatorial target states splits into semicircles (Z), quadrants
(S, S-dagger), and octants (T, T-dagger).  Six successive restriction rules
shrink the gate set allowed in the four rotation slots of the symmetric
core down to {T, T-dagger} on octants; the final rule is realized here as an
exhaustive search over the remaining configuration space.

No core gate touches a control wire except as the control of a CX, so on
each control branch c = (c2 << 1) | c1 the core acts on the target alone, as
the 2x2 block B_c = SP2.AX2.th4.X^c2.th3.X^c1.th2.X^c2.th1.AX1.SP1, and its
unitary is block-diagonal over the branches.  The search factors each block
as B_c = L[ax2, sp2] . T[theta, c] . F[sp1, ax1]: the theta/X middle T
depends only on the rotation tuple and the branch, so one cached table per
theta alphabet serves every query.  The table lists the theta tuples the
query enumerates, only the symmetric ones for a symmetric query, so the
one pass walks exactly the space `iter_specs` yields, repeated alphabet
entries included, in the same order.  A configuration is a hit when
p(target=1) = |B_c[1, 0]|^2 lies within ATOL_NORM of the target bit on
every branch, the rule `truth_table` applies; the target starts in |0>, so
this needs only column 0 of F and row 1 of L, and two small contractions
give it for every configuration.  Only a hit's full blocks are formed, and
each block of hits is graded from its four 2x2 blocks in one call of the
package's one grader, `simulator.equivalence_levels`, against the oracle's
blocks (I or X per target bit).  A query's alphabets, of gate kinds and AX
names, are checked once, when the `SearchQuery` is built.

`phase_trace` walks one branch through the same factors, stage by stage:
F's column 0, each theta, X for each CX whose control is 1, then L, naming
the target's equatorial octant after every stage.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitError, GateKind
from .library import AX_ENTRIES, CoreSpec
from .simulator import (ATOL_EQUIV, ATOL_NORM, EquivalenceLevel, SimulationError,
                        equivalence_levels, gate_matrix)

K = GateKind

SEG_SEMICIRCLES = "semicircles"
SEG_QUADRANTS = "quadrants"
SEG_OCTANTS = "octants"

SEARCH_SPACE_GUARD = 10 ** 7
# Configurations per numpy block of the batch; bounds its peak memory.
BLOCK_CONFIGS = 1 << 15


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
    if min(sp_set_size, ax_set_size, theta_set_size) < 1:
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
    CoreSpec, with the CircuitError that CoreSpec raises.  This is the
    input boundary of `search` and `iter_specs`.
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


@dataclass(frozen=True)
class SearchHit:
    spec: CoreSpec
    level: EquivalenceLevel

    def as_dict(self) -> dict:
        return {"spec": self.spec.describe(), "level": self.level.name}


def _alphabets(query: SearchQuery):
    """The query's gate sets in enumeration order (duplicates kept)."""
    return (sorted(query.sp_set, key=lambda g: g.value),
            sorted(query.ax1_set),
            sorted(query.theta_set, key=lambda g: g.value),
            sorted(query.ax2_set))


def iter_specs(query: SearchQuery):
    """Deterministic (sorted) enumeration of the query's configuration space."""
    sp, ax1, thetas, ax2 = _alphabets(query)
    for sp1, a1, th, a2, sp2 in itertools.product(
            sp, ax1, itertools.product(thetas, repeat=4), ax2, sp):
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


# bound: the 15 repeat-free alphabets of the four rotation kinds, symmetric or not
@functools.lru_cache(maxsize=30)
def _theta_table(thetas: tuple, symmetric: bool):
    """The theta tuples `iter_specs` enumerates over the alphabet `thetas`,
    in C order, keeping only those with theta1 = theta3 and theta2 = theta4
    when `symmetric`, and their middles
    T[theta, c] = th4.X^c2.th3.X^c1.th2.X^c2.th1 of shape (tuples, 4, 2, 2),
    branch (c2 << 1) | c1 on axis 1.

    Every rotation is diagonal, so each T[theta, c] is a monomial matrix
    whose two nonzero entries are powers of omega = exp(i pi/4).  Cached and
    read-only.
    """
    tuples = tuple(th for th in itertools.product(thetas, repeat=4)
                   if not symmetric or (th[0] == th[2] and th[1] == th[3]))
    index = np.array([[thetas.index(t) for t in th] for th in tuples]).T
    mats = np.array([gate_matrix(k) for k in thetas])
    th1, th2, th3, th4 = mats[index]
    middles = np.stack([th4 @ _FLIP[c2] @ th3 @ _FLIP[c1] @ th2 @ _FLIP[c2] @ th1
                        for c2 in (0, 1) for c1 in (0, 1)], axis=1)
    middles.setflags(write=False)
    return tuples, middles


def _blocks(pairs: int, cols: int):
    """Tile the C-order grid of `pairs` (sp1, ax1, theta) pairs by `cols`
    (ax2, sp2) columns with blocks of at most BLOCK_CONFIGS configurations:
    (pair indices, column slice) of whole rows while a row fits, else of one
    pair's columns in pieces."""
    pair_step, col_step = max(1, BLOCK_CONFIGS // cols), min(cols, BLOCK_CONFIGS)
    for p0 in range(0, pairs, pair_step):
        for c0 in range(0, cols, col_step):
            yield np.arange(p0, min(p0 + pair_step, pairs)), slice(c0, min(c0 + col_step, cols))


def _hit_blocks(query: SearchQuery, bits: np.ndarray):
    """Per block of the space `iter_specs` yields, in its order, the
    CoreSpecs of the configurations whose p(target=1) lies within ATOL_NORM
    of the target bit (`bits`, one per branch) on all four branches, with
    their target blocks of shape (hits, 4, 2, 2).

    Each block factors as B_c = L[j] . T[t, c] . F[r]: F = AX1.SP1 has one
    row r per (sp1, ax1) in `rows`, L = SP2.AX2 one column j per (ax2, sp2)
    in `cols`, and T is the cached table of the query's theta tuples.
    Configuration (r * len(tuples) + t) * len(cols) + j is the C order of
    `iter_specs`.  The target starts in |0>, so p(target=1) on branch c is
    |L[j][1] . w|^2 with w = T[t, c] . F[r][:, 0]: w is formed per (r, t)
    pair and one product with row 1 of every column gives the whole
    (4, pairs, cols) grid.  Only hits get their full blocks."""
    sp, ax1, thetas, ax2 = _alphabets(query)
    rows, cols = list(itertools.product(sp, ax1)), list(itertools.product(ax2, sp))
    tuples, middles = _theta_table(tuple(thetas), query.symmetric)
    sps = np.array([gate_matrix(s) for s in sp])
    first = (np.array([_target_matrix(AX_ENTRIES[a]) for a in ax1]) @ sps[:, None]).reshape(-1, 2, 2)
    last = (sps @ np.array([_target_matrix(AX_ENTRIES[a]) for a in ax2])[:, None]).reshape(-1, 2, 2)
    for pairs, span in _blocks(len(rows) * len(tuples), len(cols)):
        r, t = np.divmod(pairs, len(tuples))
        # branch-major, so the test over branches reduces the outer axis
        w = np.einsum("pbij,pj->bpi", middles[t], first[r, :, 0]).reshape(-1, 2)
        amp = (w @ last[span, 1].T).reshape(4, len(r), -1)
        keep = np.all(np.abs(np.abs(amp) ** 2 - bits[:, None, None]) <= ATOL_NORM, axis=0)
        i_pair, i_col = np.nonzero(keep)
        if len(i_pair):
            r, t, j = r[i_pair], t[i_pair], i_col + span.start
            specs = [CoreSpec(sp1=rows[a][0], ax1=rows[a][1], theta=tuples[b],
                              ax2=cols[c][0], sp2=cols[c][1])
                     for a, b, c in zip(r.tolist(), t.tolist(), j.tolist())]
            yield specs, last[j, None] @ middles[t] @ first[r, None]


def search(query: SearchQuery) -> list[SearchHit]:
    """All configurations in the query space realizing the target function.

    One numpy pass, `_hit_blocks`, decides every configuration `iter_specs`
    yields, repeated alphabet entries and the symmetric restriction
    included, by the `truth_table` rule (p(target=1) within ATOL_NORM of
    the target bit on every branch).  Each block of hits is graded in one
    `equivalence_levels` call: the four 2x2 blocks of a hit's block-diagonal
    unitary, stacked row-wise, against the phase-exact oracle's blocks.
    Results are sorted by configuration for determinism.
    """
    if _space_size(query) > SEARCH_SPACE_GUARD:
        raise CircuitError(f"search space exceeds {SEARCH_SPACE_GUARD} configurations")
    bits = np.array([int(ch) for ch in query.target])
    oracle = _FLIP[bits].reshape(8, 2)
    hits = []
    for specs, blocks in _hit_blocks(query, bits):
        hits += map(SearchHit, specs, equivalence_levels(blocks.reshape(-1, 8, 2), oracle))
    hits.sort(key=lambda h: h.spec.sort_key())
    return hits


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

STAGE_NAMES = ("SP1", "theta1", "CX_c2", "theta2", "CX_c1", "theta3", "CX_c2", "theta4", "SP2")
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
    if len(control_state) != 2 or any(ch not in "01" for ch in control_state):
        raise SimulationError(f"control_state must be two bits, got {control_state!r}")
    c2, c1 = int(control_state[0]), int(control_state[1])
    psi = _target_matrix((core.sp1, *AX_ENTRIES[core.ax1]))[:, 0]
    labels = [_equatorial_label(psi)]
    for theta, control in zip(core.theta, (c2, c1, c2, None)):
        psi = gate_matrix(theta) @ psi
        labels.append(_equatorial_label(psi))
        if control == 1:
            psi = psi[::-1]
            labels.append(_equatorial_label(psi))
        elif control == 0:
            labels.append(TRACE_SKIP)
    psi = _target_matrix((*AX_ENTRIES[core.ax2], core.sp2)) @ psi
    if abs(psi[0]) > 1 - ATOL_EQUIV:
        labels.append("|0>")
    elif abs(psi[1]) > 1 - ATOL_EQUIV:
        labels.append("|1>")
    else:
        labels.append(_equatorial_label(psi))
    return labels
