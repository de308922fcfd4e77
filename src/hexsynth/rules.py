"""Geometrical design rules as an executable search over core configurations.

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
set of rotation kinds serves every query.  The pass runs once, on a plain
grid over the distinct entries of each alphabet; duplicate entries and the
symmetric restriction are applied to its hits.  A configuration is a hit when
p(target=1) = |B_c[1, 0]|^2 lies within ATOL_NORM of the target bit on
every branch, the rule `truth_table` applies; the target starts in |0>, so
this needs only column 0 of F and row 1 of L, and two small contractions
give it for every configuration.  Only a hit's full blocks are formed, and
each block of hits is graded from its four 2x2 blocks in one call of the
package's one grader, `simulator.equivalence_levels`, against the oracle's
blocks (I or X per target bit).  A query's gate alphabets are checked once,
when the `SearchQuery` is built.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitError, Gate, GateKind
from .library import AX_ENTRIES, CoreSpec, ax_name
from .simulator import ATOL_NORM, EquivalenceLevel, equivalence_levels, gate_matrix

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
DEFAULT_AX = ((),)
DEFAULT_THETA = (K.T, K.TDG)


@dataclass(frozen=True)
class SearchQuery:
    """Target truth table plus the allowed gate sets for each core slot.

    `target` is the 4-character outcome string over ascending control
    assignments 00, 01, 10, 11 (control 1 is the low bit), e.g. and='0001'.
    Every alphabet entry is checked here, once, with the CircuitError that
    CoreSpec (superposition and rotation kinds) or Gate (auxiliary kinds)
    raises; an AX entry must be a tuple of kinds.  This is the input
    boundary of `search` and `iter_specs`.
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
            try:
                vals = tuple(getattr(self, name))
            except TypeError:
                raise CircuitError(f"{name} must be a collection of gate kinds") from None
            if not vals:
                raise CircuitError(f"{name} must not be empty")
            if name.startswith("ax"):
                if not all(isinstance(entry, (tuple, list)) for entry in vals):
                    raise CircuitError(f"{name} entries must be tuples of gate kinds")
                vals = tuple(tuple(entry) for entry in vals)
                for kind in itertools.chain.from_iterable(vals):
                    Gate(kind, (0,))
            object.__setattr__(self, name, vals)
        for s in self.sp_set:
            CoreSpec(sp1=s, sp2=s)
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
            sorted(query.ax1_set, key=ax_name),
            sorted(query.theta_set, key=lambda g: g.value),
            sorted(query.ax2_set, key=ax_name))


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


@functools.cache
def _theta_middles(kinds: tuple) -> np.ndarray:
    """T[theta, c] = th4.X^c2.th3.X^c1.th2.X^c2.th1 for every theta tuple over
    the distinct rotation kinds `kinds`, of shape (len(kinds)**4, 4, 2, 2):
    theta tuples in C order, branch (c2 << 1) | c1 on axis 1.

    Every rotation is diagonal, so each T[theta, c] is a monomial matrix
    whose two nonzero entries are powers of omega = exp(i pi/4).  Cached per
    set of kinds (at most 15 sets) and read-only.
    """
    n = len(kinds)
    th = np.array([gate_matrix(k) for k in kinds])
    th1, th2, th3, th4 = (th.reshape(tuple(n if i == slot else 1 for i in range(4)) + (2, 2))
                          for slot in range(4))
    table = np.stack([th4 @ _FLIP[c2] @ th3 @ _FLIP[c1] @ th2 @ _FLIP[c2] @ th1
                      for c2 in (0, 1) for c1 in (0, 1)], axis=-3).reshape(n ** 4, 4, 2, 2)
    table.setflags(write=False)
    return table


def _blocks(pairs: int, cols: int):
    """Tile the C-order grid of `pairs` (sp1, ax1, theta) pairs by `cols`
    (ax2, sp2) columns with blocks of at most BLOCK_CONFIGS configurations:
    (pair indices, column slice) of whole rows while a row fits, else of one
    pair's columns in pieces."""
    pair_step, col_step = max(1, BLOCK_CONFIGS // cols), min(cols, BLOCK_CONFIGS)
    for p0 in range(0, pairs, pair_step):
        for c0 in range(0, cols, col_step):
            yield np.arange(p0, min(p0 + pair_step, pairs)), slice(c0, min(c0 + col_step, cols))


def _hit_blocks(sp, ax1, thetas, ax2, bits: np.ndarray):
    """Per block of the plain grid over the distinct alphabets, the
    CoreSpecs, in enumeration order, of the configurations whose
    p(target=1) lies within ATOL_NORM of the target bit (`bits`, one per
    branch) on all four branches, with their target blocks of shape
    (hits, 4, 2, 2).

    Each block factors as B_c = L[col] . T[theta, c] . F[r]: F = AX1.SP1
    has one row r per (sp1, ax1) pair, L = SP2.AX2 one column per
    (ax2, sp2) pair, and T is the cached table of the rotation kinds.
    Configuration (r * len(thetas)**4 + theta) * cols + col is the C order
    of `iter_specs` over these alphabets.  The target starts in |0>, so
    p(target=1) on branch c is |L[col][1] . w|^2 with
    w = T[theta, c] . F[r][:, 0]: w is formed per (r, theta) pair and one
    product with row 1 of every column gives the whole (4, pairs, cols)
    grid.  Only hits get their full blocks."""
    middles = _theta_middles(tuple(thetas))
    sps = np.array([gate_matrix(s) for s in sp])
    first = (np.array([_target_matrix(a) for a in ax1]) @ sps[:, None]).reshape(-1, 2, 2)
    last = (sps @ np.array([_target_matrix(a) for a in ax2])[:, None]).reshape(-1, 2, 2)
    for pairs, cols in _blocks(len(first) * len(middles), len(last)):
        r, theta = np.divmod(pairs, len(middles))
        # branch-major, so the test over branches reduces the outer axis
        w = np.einsum("pbij,pj->bpi", middles[theta], first[r, :, 0]).reshape(-1, 2)
        amp = (w @ last[cols, 1].T).reshape(4, len(r), -1)
        keep = np.all(np.abs(np.abs(amp) ** 2 - bits[:, None, None]) <= ATOL_NORM, axis=0)
        i_pair, i_col = np.nonzero(keep)
        if len(i_pair):
            r, theta, col = r[i_pair], theta[i_pair], i_col + cols.start
            slots = np.stack([*np.divmod(r, len(ax1)), *np.divmod(col, len(sp)),
                              *np.unravel_index(theta, (len(thetas),) * 4)], axis=1)
            specs = [CoreSpec(sp1=sp[s1], ax1=ax1[a1],
                              theta=(thetas[t1], thetas[t2], thetas[t3], thetas[t4]),
                              ax2=ax2[a2], sp2=sp[s2])
                     for s1, a1, a2, s2, t1, t2, t3, t4 in slots.tolist()]
            yield specs, last[col, None] @ middles[theta] @ first[r, None]


def search(query: SearchQuery) -> list[SearchHit]:
    """All configurations in the query space realizing the target function.

    One numpy pass, `_hit_blocks`, decides every configuration of the plain
    grid over the distinct entries of each alphabet by the `truth_table`
    rule (p(target=1) within ATOL_NORM of the target bit on every branch).
    Each block of hits is graded in one `equivalence_levels` call: the four
    2x2 blocks of a hit's block-diagonal unitary, stacked row-wise, against
    the phase-exact oracle's blocks.  Symmetry and duplicates apply to the
    hits: a symmetric query drops the others, and a hit is reported once
    per way its nine slots' entries occur in the query's alphabets, as
    `iter_specs` enumerates it.  Results are sorted by configuration for
    determinism.
    """
    if _space_size(query) > SEARCH_SPACE_GUARD:
        raise CircuitError(f"search space exceeds {SEARCH_SPACE_GUARD} configurations")
    sp, ax1, thetas, ax2 = alphabets = _alphabets(query)
    bits = np.array([int(ch) for ch in query.target])
    oracle = _FLIP[bits].reshape(8, 2)
    hits = []
    for specs, blocks in _hit_blocks(*(tuple(dict.fromkeys(a)) for a in alphabets), bits):
        for spec, level in zip(specs, equivalence_levels(blocks.reshape(-1, 8, 2), oracle)):
            if query.symmetric and not spec.symmetric:
                continue
            ways = (sp.count(spec.sp1) * ax1.count(spec.ax1) * ax2.count(spec.ax2)
                    * sp.count(spec.sp2) * math.prod(thetas.count(t) for t in spec.theta))
            hits += [SearchHit(spec, level)] * ways
    hits.sort(key=lambda h: h.spec.sort_key())
    return hits


def query_from_names(target: str, sp, ax1, ax2, theta, symmetric: bool = False) -> SearchQuery:
    """Build a query from CLI-style gate-name tokens, one list per alphabet."""
    kind = {k.value: k for k in GateKind}
    try:
        return SearchQuery(
            target=target,
            sp_set=tuple(kind[s] for s in sp),
            ax1_set=tuple(AX_ENTRIES[a] for a in ax1),
            ax2_set=tuple(AX_ENTRIES[a] for a in ax2),
            theta_set=tuple(kind[t] for t in theta),
            symmetric=symmetric,
        )
    except KeyError as e:
        raise CircuitError(f"unknown gate name {e.args[0]!r}") from None
