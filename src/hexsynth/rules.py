"""Geometrical design rules as an executable search over core configurations.

The circle of equatorial target states splits into semicircles (Z), quadrants
(S, S-dagger), and octants (T, T-dagger).  Six successive restriction rules
shrink the gate set allowed in the four rotation slots of the symmetric
core down to {T, T-dagger} on octants; the final rule is realized here as an
exhaustive search over the remaining configuration space.

No core gate touches a control wire except as the control of a CX, so on
each control branch (c1, c2) the core acts on the target alone, as the 2x2
block B_c = SP2.AX2.th4.X^c2.th3.X^c1.th2.X^c2.th1.AX1.SP1, and its unitary
is block-diagonal over the branches.  The search computes the four branch
products of every configuration as one numpy batch.  A configuration is a
hit when p(target=1) = |B_c[1, 0]|^2 lies within ATOL_NORM of the target bit
on every branch, the rule `truth_table` applies; only a hit's full blocks
are formed, placed on the diagonal of its 8x8 unitary and graded against a
phase-exact oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitError, Gate, GateKind
from .library import AX_ENTRIES, CoreSpec, ax_name
from .simulator import ATOL_NORM, EquivalenceLevel, equivalence_of_unitaries, gate_matrix

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
    """

    target: str
    sp_set: tuple = DEFAULT_SP
    ax1_set: tuple = DEFAULT_AX
    ax2_set: tuple = DEFAULT_AX
    theta_set: tuple = DEFAULT_THETA
    symmetric: bool = False

    def __post_init__(self):
        if len(self.target) != 4 or any(ch not in "01" for ch in self.target):
            raise CircuitError("target must be 4 bits over assignments 00,01,10,11")
        for name in ("sp_set", "ax1_set", "ax2_set", "theta_set"):
            vals = tuple(getattr(self, name))
            if not vals:
                raise CircuitError(f"{name} must not be empty")
            object.__setattr__(self, name, vals)


@dataclass(frozen=True)
class SearchHit:
    spec: CoreSpec
    level: EquivalenceLevel

    def as_dict(self) -> dict:
        return {"spec": self.spec.describe(), "level": self.level.name}


def _alphabets(query: SearchQuery):
    """The query's gate sets in enumeration order (duplicates kept)."""
    return (sorted(query.sp_set, key=lambda g: g.value),
            sorted((tuple(a) for a in query.ax1_set), key=ax_name),
            sorted(query.theta_set, key=lambda g: g.value),
            sorted((tuple(a) for a in query.ax2_set), key=ax_name))


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


# basis index of (c2, t, c1) on the core's wires (c1=0, t=1, c2=2), per
# branch (c2 << 1) | c1 and target bit t
_BRANCH_INDEX = np.array([[((b >> 1) << 2) | (t << 1) | (b & 1) for t in (0, 1)]
                          for b in range(4)])


def _block_unitary(blocks: np.ndarray) -> np.ndarray:
    """8x8 unitaries from target blocks of shape (..., 4, 2, 2), indexed by
    branch (c2 << 1) | c1; wires follow the core layout (c1=0, t=1, c2=2)."""
    u = np.zeros(blocks.shape[:-3] + (8, 8), dtype=complex)
    u[..., _BRANCH_INDEX[:, :, None], _BRANCH_INDEX[:, None, :]] = blocks
    return u


def _oracle_unitary(target: str) -> np.ndarray:
    """Phase-exact unitary flipping the target wire exactly where f=1."""
    return _block_unitary(np.array([gate_matrix(K.X if f == "1" else K.I) for f in target]))


def _target_matrix(kinds) -> np.ndarray:
    """2x2 matrix of single-qubit gates applied to the target in order."""
    m = np.eye(2, dtype=complex)
    for k in kinds:
        Gate(k, (0,))  # raises the CircuitError build_core would for this kind
        m = gate_matrix(k) @ m
    return m


class _BranchBatch:
    """A query's configurations and the target block B_c on each of their
    four control branches.

    Every theta kind is diagonal, so a theta slot scales the rows of the
    running product, and an X swaps them.  Configurations are flat indices
    in C order over the shape (sp1, ax1, theta tuple, ax2, sp2), which is
    iter_specs' order."""

    def __init__(self, query: SearchQuery):
        self.sp, self.ax1, self.thetas, self.ax2 = sp, ax1, thetas, ax2 = _alphabets(query)
        # no CoreSpec is built for a miss, so check every superposition and
        # rotation entry here as CoreSpec would
        for s in sp:
            CoreSpec(sp1=s, sp2=s)
        for t in thetas:
            CoreSpec(theta=(t,) * 4)
        self.first = np.array([[_target_matrix(a) @ _target_matrix((s,)) for a in ax1]
                               for s in sp])
        self.last = np.array([[_target_matrix((s,)) @ _target_matrix(a) for s in sp]
                              for a in ax2])
        self.theta_diags = np.array([_target_matrix((t,)).diagonal() for t in thetas])
        # equal kinds share an id, so symmetry holds across duplicate entries
        self.theta_ids = np.array([thetas.index(t) for t in thetas])
        self.shape = (len(sp), len(ax1), len(thetas) ** 4, len(ax2), len(sp))
        self.size = int(np.prod(self.shape))

    def theta_digits(self, i_th):
        return np.unravel_index(i_th, (len(self.thetas),) * 4)

    def products(self, flat: np.ndarray):
        """SP2.AX2 of shape (len(flat), 2, 2), and the rest of each block,
        M_c = th4.X^c2.th3.X^c1.th2.X^c2.th1.AX1.SP1, of shape
        (len(flat), 4, 2, 2) with branch (c2 << 1) | c1 on axis 1."""
        i_sp1, i_ax1, i_th, i_ax2, i_sp2 = np.unravel_index(flat, self.shape)
        slots = [self.theta_diags[d][:, :, None] for d in self.theta_digits(i_th)]
        start = self.first[i_sp1, i_ax1]
        middles = np.empty((len(flat), 4, 2, 2), dtype=complex)
        for branch in range(4):
            c1, c2 = branch & 1, branch >> 1
            m = start
            for theta, flip in zip(slots, (c2, c1, c2, 0)):
                m = theta * m
                if flip:
                    m = m[:, ::-1]
            middles[:, branch] = m
        return self.last[i_ax2, i_sp2], middles

    def symmetric(self, flat: np.ndarray) -> np.ndarray:
        d1, d2, d3, d4 = (self.theta_ids[d] for d in
                          self.theta_digits(np.unravel_index(flat, self.shape)[2]))
        return (d1 == d3) & (d2 == d4)

    def hits(self, target: str, symmetric: bool):
        """(flat index, 8x8 unitary) of each configuration, in enumeration
        order, whose p(target=1) lies within ATOL_NORM of the target bit on
        all four branches."""
        bits = np.array([int(ch) for ch in target])
        for start in range(0, self.size, BLOCK_CONFIGS):
            flat = np.arange(start, min(start + BLOCK_CONFIGS, self.size))
            if symmetric:
                flat = flat[self.symmetric(flat)]
            ends, middles = self.products(flat)
            # row 1 of SP2.AX2 times column 0 of M_c: the target starts in |0>
            p1 = np.abs(np.einsum("nj,nbj->nb", ends[:, 1], middles[..., 0])) ** 2
            keep = np.all(np.abs(p1 - bits) <= ATOL_NORM, axis=1)
            blocks = ends[keep, None] @ middles[keep]
            yield from zip(flat[keep].tolist(), _block_unitary(blocks))

    def spec(self, flat: int) -> CoreSpec:
        i_sp1, i_ax1, i_th, i_ax2, i_sp2 = np.unravel_index(flat, self.shape)
        return CoreSpec(sp1=self.sp[i_sp1], ax1=self.ax1[i_ax1],
                        theta=tuple(self.thetas[d] for d in self.theta_digits(i_th)),
                        ax2=self.ax2[i_ax2], sp2=self.sp[i_sp2])


def search(query: SearchQuery) -> list[SearchHit]:
    """All configurations in the query space realizing the target function.

    One numpy pass over every configuration's four branch products decides
    the hits by the `truth_table` rule (p(target=1) within ATOL_NORM of the
    target bit on every branch); each hit's block-diagonal unitary is graded
    against the phase-exact oracle.  Results are sorted by configuration for
    determinism.
    """
    if _space_size(query) > SEARCH_SPACE_GUARD:
        raise CircuitError(f"search space exceeds {SEARCH_SPACE_GUARD} configurations")
    batch = _BranchBatch(query)
    oracle = _oracle_unitary(query.target)
    hits = [SearchHit(batch.spec(flat), equivalence_of_unitaries(u, oracle))
            for flat, u in batch.hits(query.target, query.symmetric)]
    hits.sort(key=lambda h: h.spec.sort_key())
    return hits


def query_from_names(target: str, sp=("h",), ax1=("i",), ax2=("i",),
                     theta=("t", "tdg"), symmetric: bool = False) -> SearchQuery:
    """Build a query from CLI-style gate-name tokens."""
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
