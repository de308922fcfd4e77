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
as B_c = L[ax2, sp2] . T[theta, c] . F[sp1, ax1].  F = AX1.SP1 and
L = SP2.AX2 are module constants, `_FIRST` and `_LAST`, over all three SP
kinds and ten `AX_ENTRIES`, built at import; the theta/X middle T depends
only on the rotation tuple and the branch, so one cached table per theta
alphabet serves every query.

A `SearchQuery` checks its alphabets and stores each as a set in
enumeration order (distinct entries; kinds by value, AX entries by name),
so the space is the C-order grid of (sp1, ax1) rows by theta tuples by
(ax2, sp2) columns, which `iter_specs` yields and the one pass walks, in
tiles of whole rows.  A configuration is a hit when
p(target=1) = |B_c[1, 0]|^2 lies within ATOL_NORM of the target bit on
every branch, the rule `truth_table` applies; the target starts in |0>, so
this needs only column 0 of F and row 1 of L, and one matmul per tile
gives it for every configuration.  Only a hit's full blocks are formed,
entry by entry: T.F, then L.(T.F), each the sum of two broadcast products
of a column by a row (the term-wise form of the simulator's ECR), so a
tile's hits cost a few numpy calls however many there are.  Each tile's
hits are graded from their four 2x2 blocks in one call of the package's
one grader, `simulator.equivalence_levels`, against the oracle's blocks
(I or X per target bit), and come out in the grid's order.

`phase_trace` walks one branch through the same factors, stage by stage:
`_FIRST`'s column 0, each theta, X for each CX whose control is 1, then
`_LAST`, naming the target's equatorial octant after every stage.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitError, GateKind
from .library import AX_ENTRIES, SUPERPOSITION_KINDS, CoreSpec
from .simulator import (ATOL_EQUIV, ATOL_NORM, EquivalenceLevel, SimulationError,
                        equivalence_levels, gate_matrix)

K = GateKind

SEG_SEMICIRCLES = "semicircles"
SEG_QUADRANTS = "quadrants"
SEG_OCTANTS = "octants"

SEARCH_SPACE_GUARD = 10 ** 7
# Configurations per numpy tile of the search grid, in whole rows and at
# least one; bounds its peak memory.
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


# bound: the 15 alphabets of the four rotation kinds, symmetric or not
@functools.lru_cache(maxsize=30)
def _theta_table(thetas: tuple, symmetric: bool):
    """The theta tuples `iter_specs` enumerates over the stored alphabet
    `thetas`, in C order, keeping only those with theta1 = theta3 and
    theta2 = theta4 when `symmetric`, and their middles
    T[theta, c] = th4.X^c2.th3.X^c1.th2.X^c2.th1 of shape (tuples, 4, 2, 2),
    branch (c2 << 1) | c1 on axis 1.

    Every rotation is diagonal, so each T[theta, c] is a monomial matrix
    whose two nonzero entries are powers of omega = exp(i pi/4).  Cached and
    read-only.
    """
    index = [ix for ix in itertools.product(range(len(thetas)), repeat=4)
             if not symmetric or (ix[0] == ix[2] and ix[1] == ix[3])]
    th1, th2, th3, th4 = np.array([gate_matrix(k) for k in thetas])[np.array(index).T]
    middles = np.stack([th4 @ _FLIP[c2] @ th3 @ _FLIP[c1] @ th2 @ _FLIP[c2] @ th1
                        for c2 in (0, 1) for c1 in (0, 1)], axis=1)
    middles.setflags(write=False)
    return tuple(tuple(thetas[i] for i in ix) for ix in index), middles


def _hit_blocks(query: SearchQuery, bits: np.ndarray):
    """Per tile of the space `iter_specs` yields, tiles in its order, the
    CoreSpecs of the configurations whose p(target=1) lies within ATOL_NORM
    of the target bit (`bits`, one per branch) on all four branches, in
    `iter_specs` order, and their target blocks of shape (hits, 4, 2, 2).

    Each block factors as B_c = L[j] . T[t, c] . F[r]: F = AX1.SP1 is read
    from `_FIRST` for each row r of `product(sp, ax1)`, L = SP2.AX2 from
    `_LAST` for each column j of `product(ax2, sp)`, and T is the cached
    table of the query's theta tuples.  A tile is as many whole rows as fit
    in BLOCK_CONFIGS configurations, and at least one: a row of distinct
    entries holds at most 4**4 * 10 * 3 = 7,680.  The target starts in |0>,
    so the amplitude of target=1 on branch c is L[j][1] . T[t, c] . F[r][:, 0],
    the sum over i, k of T[t, c][i, k] times L[j][1, i] F[r][k, 0]: one
    matmul of those products, per (r, j) of a tile, by the flattened
    middles gives every amplitude of the tile, as (r, j, t, c).  The hit
    mask is read as (r, t, j), the order `iter_specs` yields.  Only hits
    get their full blocks, formed entry by entry:
    (T.F)[i, k] = T[i, 0] F[0, k] + T[i, 1] F[1, k] over all of a tile's
    hits and branches at once, as a column of T times a row of F plus the
    next, then L.(T.F) the same way; two broadcast matmuls of such small
    stacks cost several times more."""
    sp = query.sp_set
    tuples, middles = _theta_table(query.theta_set, query.symmetric)
    row_entries = list(itertools.product(sp, query.ax1_set))
    col_entries = list(itertools.product(query.ax2_set, sp))
    first = _FIRST[[_SP_INDEX[s] for s, _ in row_entries], [_AX_INDEX[a] for _, a in row_entries]]
    last = _LAST[[_AX_INDEX[a] for a, _ in col_entries], [_SP_INDEX[s] for _, s in col_entries]]
    f0, l1, flat = first[:, :, 0], last[:, 1], middles.reshape(-1, 4).T
    n_t, n_j = len(tuples), len(col_entries)
    step = max(1, BLOCK_CONFIGS // (n_t * n_j))
    for start in range(0, len(row_entries), step):
        f0_tile = f0[start:start + step]
        amp = (f0_tile[:, None, None, :] * l1[None, :, :, None]).reshape(-1, 4) @ flat
        p = (amp.real ** 2 + amp.imag ** 2).reshape(-1, 4)
        # a configuration's four branch tests are four adjacent bytes: it is
        # a hit where they read, as one uint32, as four 1s
        ok = np.abs(p - bits) <= ATOL_NORM
        hit = (ok.view(np.uint32) == 0x01010101).reshape(len(f0_tile), n_j, n_t)
        r, t, j = np.nonzero(hit.transpose(0, 2, 1))
        if len(r):
            r += start
            specs = [CoreSpec(*row_entries[a], tuples[b], *col_entries[c])
                     for a, b, c in zip(r.tolist(), t.tolist(), j.tolist())]
            m, f, l = middles[t], first[r, None], last[j, None]
            mf = m[..., :1] * f[..., :1, :] + m[..., 1:] * f[..., 1:, :]
            yield specs, l[..., :1] * mf[..., :1, :] + l[..., 1:] * mf[..., 1:, :]


def search(query: SearchQuery) -> list[SearchHit]:
    """All configurations in the query space realizing the target function,
    in `iter_specs` order.

    One numpy pass, `_hit_blocks`, decides every configuration `iter_specs`
    yields, the symmetric restriction included, by the `truth_table` rule
    (p(target=1) within ATOL_NORM of the target bit on every branch), tile
    by tile in that order.  A hit's four branch blocks are formed entry by
    entry, by multiply-adds over all of a tile's hits.  Each tile's hits are
    graded in one `equivalence_levels` call: the four 2x2 blocks of a hit's
    block-diagonal unitary, stacked row-wise, against the phase-exact
    oracle's blocks.
    """
    if _space_size(query) > SEARCH_SPACE_GUARD:
        raise CircuitError(f"search space exceeds {SEARCH_SPACE_GUARD} configurations")
    bits = [int(ch) for ch in query.target]
    oracle = _FLIP[bits].reshape(8, 2)
    hits = []
    for specs, blocks in _hit_blocks(query, np.array(bits, dtype=float)):
        hits += map(SearchHit, specs, equivalence_levels(blocks.reshape(-1, 8, 2), oracle))
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
    psi = _FIRST[_SP_INDEX[core.sp1], _AX_INDEX[core.ax1], :, 0]
    labels = [_equatorial_label(psi)]
    for theta, control in zip(core.theta, (c2, c1, c2, None)):
        psi = gate_matrix(theta) @ psi
        labels.append(_equatorial_label(psi))
        if control == 1:
            psi = psi[::-1]
            labels.append(_equatorial_label(psi))
        elif control == 0:
            labels.append(TRACE_SKIP)
    psi = _LAST[_AX_INDEX[core.ax2], _SP_INDEX[core.sp2]] @ psi
    if abs(psi[0]) > 1 - ATOL_EQUIV:
        labels.append("|0>")
    elif abs(psi[1]) > 1 - ATOL_EQUIV:
        labels.append("|1>")
    else:
        labels.append(_equatorial_label(psi))
    return labels
