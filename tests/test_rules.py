import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import permutation_unitary
from hexsynth import rules
from hexsynth.circuit import CircuitError, GateKind
from hexsynth.library import (AX_ENTRIES, BOOLEAN_TABLE, SUPERPOSITION_KINDS, THETA_KINDS,
                              BooleanGateKind, CoreSpec, build_core)
from hexsynth.rules import (SearchHit, SearchQuery, apply_rules, count_space, iter_specs,
                            query_from_names, search)
from hexsynth.simulator import (EquivalenceLevel, SimulationError, equivalence_levels,
                                truth_string, truth_table, unitary_of)

K = GateKind
TARGETS = tuple(format(m, "04b") for m in range(16))
# the CLI's default alphabets, as names
DEFAULT_NAMES = dict(sp=("h",), ax1=("i",), ax2=("i",), theta=("t", "tdg"))


def oracle_unitary(target: str):
    """Flip the target (wire 1) exactly where f[(c2 << 1) | c1] is 1, with
    the controls on wires 0 and 2."""
    return permutation_unitary(3, lambda b: b ^ (int(target[((b >> 2) << 1) | (b & 1)]) << 1))


def reference_search(query: SearchQuery, targets=None) -> dict[str, list[SearchHit]]:
    """The per-configuration loop: build, simulate and grade every
    configuration of the query's space.  Returns the sorted hits for each
    of `targets` (default: the query's own target) from one pass."""
    found = {t: [] for t in (targets or (query.target,))}
    for spec in iter_specs(query):
        circuit = build_core(spec)
        try:
            table = truth_table(circuit, target=1, controls=(0, 2))
        except SimulationError:
            continue
        realized = truth_string(table)
        if realized in found:
            level = equivalence_levels(unitary_of(circuit)[None], oracle_unitary(realized))[0]
            found[realized].append(SearchHit(spec, level))
    for hits in found.values():
        hits.sort(key=lambda h: h.spec.sort_key())
    return found


# superposition gates other than H leave many branches non-deterministic
MIXED = SearchQuery(target="0000", sp_set=(K.H, K.SX, K.SXDG), ax1_set=((), (K.X,)),
                    ax2_set=((), (K.Z,), (K.SXDG,)), theta_set=(K.S, K.TDG))


@pytest.fixture(scope="module")
def mixed_reference():
    return reference_search(MIXED, TARGETS)


class TestRuleStages:
    def test_stage_progression(self):
        stages = apply_rules()
        assert [s.stage for s in stages] == [0, 1, 2, 3, 4]
        for earlier, later in zip(stages, stages[1:]):
            assert set(later.ctg) <= set(earlier.ctg)
            assert set(later.seg) <= set(earlier.seg)

    def test_verbatim_sets(self):
        stages = {s.stage: s for s in apply_rules()}
        assert stages[0].ctg == ("i", "x", "y", "z", "h", "sx", "sxdg",
                                 "s", "sdg", "t", "tdg", "cx", "cy", "cz", "swap")
        assert stages[0].seg == ("semicircles", "quadrants", "octants")
        assert stages[1].ctg == ("i", "x", "y", "z", "h", "sx", "sxdg", "s", "sdg", "t", "tdg")
        assert stages[2].ctg == ("z", "s", "sdg", "t", "tdg")
        assert stages[3].ctg == ("s", "sdg", "t", "tdg")
        assert stages[3].seg == ("quadrants", "octants")
        assert stages[4].ctg == ("t", "tdg")
        assert stages[4].seg == ("octants",)


class TestCountSpace:
    def test_reference_counts(self):
        assert count_space(1, 1, 4) == 256
        assert count_space(3, 9, 4) == 186624
        assert count_space(1, 1, 1) == 1

    def test_rejects_empty(self):
        with pytest.raises(CircuitError):
            count_space(0, 1, 4)

    def test_matches_enumeration(self):
        q = SearchQuery(target="0001", theta_set=THETA_KINDS)
        assert sum(1 for _ in iter_specs(q)) == count_space(1, 1, 4)

    def test_matches_enumeration_mixed_sets(self):
        q = SearchQuery(target="0001", sp_set=(K.H, K.SX),
                        ax1_set=((), (K.Z,)), ax2_set=((), (K.Z,)),
                        theta_set=(K.T, K.TDG))
        assert sum(1 for _ in iter_specs(q)) == count_space(2, 2, 2)


class TestSearch:
    def test_and_symmetric_two_solutions(self):
        hits = search(SearchQuery(target="0001", symmetric=True))
        specs = [h.spec.theta for h in hits]
        assert specs == [(K.T, K.TDG, K.T, K.TDG), (K.TDG, K.T, K.TDG, K.T)]
        assert all(h.level is EquivalenceLevel.L2_RELATIVE_PHASE for h in hits)

    def test_or_search_contains_table_row(self):
        q = SearchQuery(target="0111", ax2_set=((), AX_ENTRIES["z"], AX_ENTRIES["-z"]),
                        theta_set=THETA_KINDS)
        hits = search(q)
        assert any(h.spec.theta == (K.T, K.T, K.T, K.T) and h.spec.ax2 == (K.Z,)
                   for h in hits)

    @pytest.mark.parametrize("kind,target", [
        (BooleanGateKind.AND, "0001"), (BooleanGateKind.NAND, "1110"),
        (BooleanGateKind.OR, "0111"), (BooleanGateKind.NOR, "1000"),
        (BooleanGateKind.IMPLICATION, "1011"), (BooleanGateKind.INHIBITION, "0100"),
    ])
    def test_every_table_row_rediscovered(self, kind, target):
        q = SearchQuery(target=target, ax2_set=((), AX_ENTRIES["z"], AX_ENTRIES["-z"]),
                        theta_set=THETA_KINDS)
        hits = search(q)
        assert BOOLEAN_TABLE[kind] in [h.spec for h in hits]

    def test_search_is_sound(self):
        # every hit reproduces the target when rebuilt and re-simulated
        q = SearchQuery(target="0000", theta_set=(K.T, K.TDG))
        for hit in search(q):
            table = truth_table(build_core(hit.spec), target=1, controls=(0, 2))
            assert truth_string(table) == "0000"

    def test_constant_zero_has_cancelling_solutions(self):
        # over the quadrant set, opposite rotations cancel on every branch
        hits = search(SearchQuery(target="0000", symmetric=True, theta_set=THETA_KINDS))
        assert (K.S, K.SDG, K.S, K.SDG) in [h.spec.theta for h in hits]
        for hit in hits:
            table = truth_table(build_core(hit.spec), target=1, controls=(0, 2))
            assert truth_string(table) == "0000"

    def test_guard_rejects_huge_spaces(self):
        entries = tuple(AX_ENTRIES.values())
        sp = (K.H, K.SX, K.SXDG)
        # 9 * 100 * 100 * 256 > 10^7 configurations
        q = SearchQuery(target="0001", sp_set=sp, ax1_set=entries * 10,
                        ax2_set=entries * 10, theta_set=THETA_KINDS)
        with pytest.raises(CircuitError, match="exceeds"):
            search(q)

    def test_bad_target_rejected(self):
        with pytest.raises(CircuitError):
            SearchQuery(target="012")
        with pytest.raises(CircuitError, match="target must be 4 bits"):
            SearchQuery(target=1)

    def test_query_from_names(self):
        q = query_from_names("0001", sp=("h",), ax1=("i",), ax2=("i", "z", "-z"),
                             theta=("t", "tdg"), symmetric=True)
        assert q.sp_set == (K.H,)
        assert q.ax2_set == ((), (K.Z,), (K.X, K.Z, K.X))
        with pytest.raises(CircuitError):
            query_from_names("0001", **dict(DEFAULT_NAMES, sp=("nope",)))


class TestBatchedSearchMatchesReference:
    def test_all_targets_mixed_alphabet(self, mixed_reference):
        for target in TARGETS:
            assert search(dataclasses.replace(MIXED, target=target)) == mixed_reference[target]
        assert sum(1 for hits in mixed_reference.values() if hits) >= 4

    def test_blocks_smaller_than_the_space(self, mixed_reference, monkeypatch):
        monkeypatch.setattr(rules, "BLOCK_CONFIGS", 100)  # 864 configurations: 9 blocks
        for target in TARGETS:
            assert search(dataclasses.replace(MIXED, target=target)) == mixed_reference[target]

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
    def test_blocks_tile_the_space_within_the_bound(self, monkeypatch, block):
        monkeypatch.setattr(rules, "BLOCK_CONFIGS", block)
        for pairs, cols in [(1, 1), (3, 5), (10, 7), (4, 64), (2, 100)]:
            blocks = [(pair.tolist(), range(cols)[col]) for pair, col in rules._blocks(pairs, cols)]
            assert all(len(pair) * len(col) <= block for pair, col in blocks)
            assert [(p, c) for pair, col in blocks for p in pair for c in col] == \
                [(p, c) for p in range(pairs) for c in range(cols)]

    def test_symmetric_query(self):
        # the duplicated T makes symmetry a matter of kinds, not of alphabet positions
        q = SearchQuery(target="0001", sp_set=(K.H, K.SX), theta_set=(K.T, K.TDG, K.T),
                        symmetric=True)
        hits = search(q)
        assert hits and hits == reference_search(q)[q.target]
        assert all(h.spec.symmetric for h in hits)

    def test_minus_z_and_duplicated_ax2_entries(self):
        q = SearchQuery(target="0111", ax2_set=((), AX_ENTRIES["z"], AX_ENTRIES["-z"], AX_ENTRIES["z"]),
                        theta_set=(K.T, K.TDG, K.T))
        hits = search(q)
        assert hits and hits == reference_search(q)[q.target]
        assert len(hits) > len(set(h.spec for h in hits))  # duplicates reported, as enumerated

    def test_full_space_and(self):
        ax = ("i", "x", "sx", "sxdg", "z", "s", "sdg", "t", "tdg")
        q = query_from_names("0001", sp=("h", "sx", "sxdg"), ax1=ax, ax2=ax,
                             theta=("s", "sdg", "t", "tdg"))
        assert rules._space_size(q) == 186624
        hits = search(q)
        assert len(hits) == 538
        assert all(h.level.at_least(EquivalenceLevel.L2_RELATIVE_PHASE) for h in hits)

    def test_symmetric_is_a_filter_of_the_full_cli_space(self):
        ax = tuple(AX_ENTRIES)
        for target in TARGETS:
            q = query_from_names(target, sp=("h", "sx", "sxdg"), ax1=ax, ax2=ax,
                                 theta=("s", "sdg", "t", "tdg"))
            assert rules._space_size(q) == 230400
            symmetric = search(dataclasses.replace(q, symmetric=True))
            assert symmetric == [h for h in search(q) if h.spec.symmetric]

    BAD_ENTRIES = [(dict(sp_set=(K.H, K.T)), "superposition"),
                   (dict(theta_set=(K.T, K.H)), "theta"),
                   (dict(ax1_set=((), (K.RZ,))), "requires an Angle"),
                   (dict(ax2_set=((K.CX,),)), "expects 2 qubit"),
                   (dict(ax1_set=(("x",),)), "must be a GateKind"),
                   (dict(ax2_set=((), (K.X, "z"))), "must be a GateKind"),
                   (dict(ax1_set=(K.X,)), "tuples of gate kinds"),
                   (dict(ax2_set=((), K.Z)), "tuples of gate kinds"),
                   (dict(theta_set=K.T), "theta_set must be a collection"),
                   (dict(sp_set=K.H), "sp_set must be a collection")]

    def test_bad_alphabet_entries_rejected(self):
        # each twice: the theta-table cache must not keep a bad entry
        for bad, match in self.BAD_ENTRIES:
            for _ in range(2):
                with pytest.raises(CircuitError, match=match):
                    search(SearchQuery(target="0001", **bad))

    def test_bad_alphabet_entries_rejected_at_construction(self):
        for bad, match in self.BAD_ENTRIES:
            with pytest.raises(CircuitError, match=match):
                SearchQuery(target="0001", **bad)
        # every AX name resolves to a valid entry, so only sp and theta can be bad by name
        for bad, match in [(dict(sp=("h", "t")), "superposition"),
                           (dict(theta=("t", "h")), "theta")]:
            with pytest.raises(CircuitError, match=match):
                query_from_names("0001", **dict(DEFAULT_NAMES, **bad))

    def test_grades_hand_made_blocks(self, monkeypatch):
        # No query space holds an L1 hit, so the grading of search's oracle
        # blocks is checked on blocks cut from the oracle itself: they grade
        # L1, and with a factor i on the branches that flip the target, L2.
        # The target has both bit values, else the factor is a global phase.
        target, spec = "0001", CoreSpec()
        u = oracle_unitary(target)
        wires = [[c & 1 | t << 1 | (c >> 1) << 2 for t in (0, 1)] for c in range(4)]
        blocks = np.array([[u[np.ix_(w, w)] for w in wires]])
        flips = np.array([int(b) for b in target]) == 1
        for phase, level in ((1, EquivalenceLevel.L1_GLOBAL_PHASE),
                             (1j, EquivalenceLevel.L2_RELATIVE_PHASE)):
            graded = blocks.astype(complex)
            graded[:, flips] *= phase
            monkeypatch.setattr(rules, "_hit_blocks",
                                lambda sp, ax1, thetas, ax2, bits, b=graded: iter([([spec], b)]))
            assert search(SearchQuery(target=target)) == [SearchHit(spec, level)]

    def test_theta_table_cached_per_distinct_kinds(self):
        rules._theta_middles.cache_clear()
        base = SearchQuery(target="0001", theta_set=(K.T, K.TDG))
        doubled = dataclasses.replace(base, theta_set=(K.TDG, K.T) * 4)  # 4,096 theta tuples
        # every theta tuple over the kinds occurs 4**4 times among the duplicates
        assert search(doubled) == [h for h in search(base) for _ in range(4 ** 4)]
        assert rules._theta_middles.cache_info().currsize == 1
        assert rules._theta_middles((K.T, K.TDG)).shape == (16, 4, 2, 2)
        assert rules._theta_middles.cache_info().currsize == 1


@st.composite
def small_queries(draw):
    """Queries over small alphabets with duplicates in every slot, in any order."""
    def alphabet(entries, most):
        return tuple(draw(st.lists(st.sampled_from(entries), min_size=1, max_size=most)))

    q = SearchQuery(target=draw(st.sampled_from(TARGETS)),
                    sp_set=alphabet(SUPERPOSITION_KINDS, 2),
                    ax1_set=alphabet(list(AX_ENTRIES.values()), 2),
                    ax2_set=alphabet(list(AX_ENTRIES.values()), 3),
                    theta_set=alphabet(THETA_KINDS, 3),
                    symmetric=draw(st.booleans()))
    assume(rules._space_size(q) <= 324)
    return q


class TestSearchProperty:
    @pytest.mark.parametrize("block", ["one configuration", "part of a row", "default"])
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(small_queries())
    def test_search_equals_reference(self, block, q):
        cols = len(q.ax2_set) * len(q.sp_set)  # configurations per (sp1, ax1, theta) pair
        size = {"one configuration": 1, "part of a row": cols - 1,
                "default": rules.BLOCK_CONFIGS}[block]
        assume(size >= 1)
        reference = reference_search(q, TARGETS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rules, "BLOCK_CONFIGS", size)
            for target in TARGETS:
                assert search(dataclasses.replace(q, target=target)) == reference[target]
