import dataclasses
import itertools

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
MIXED = SearchQuery(target="0000", sp_set=(K.H, K.SX, K.SXDG), ax1_set=("i", "x"),
                    ax2_set=("i", "z", "sxdg"), theta_set=(K.S, K.TDG))


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

    @pytest.mark.parametrize("sizes", [(1.5, 1, 4), (1, 2.0, 4), (1, 1, "4"), (True, 1, 4)])
    def test_rejects_non_integers(self, sizes):
        with pytest.raises(CircuitError, match="set sizes must be integers"):
            count_space(*sizes)

    def test_matches_enumeration(self):
        q = SearchQuery(target="0001", theta_set=THETA_KINDS)
        assert sum(1 for _ in iter_specs(q)) == count_space(1, 1, 4)

    def test_matches_enumeration_mixed_sets(self):
        q = SearchQuery(target="0001", sp_set=(K.H, K.SX),
                        ax1_set=("i", "z"), ax2_set=("i", "z"),
                        theta_set=(K.T, K.TDG))
        assert sum(1 for _ in iter_specs(q)) == count_space(2, 2, 2)


class TestSearch:
    def test_and_symmetric_two_solutions(self):
        hits = search(SearchQuery(target="0001", symmetric=True))
        specs = [h.spec.theta for h in hits]
        assert specs == [(K.T, K.TDG, K.T, K.TDG), (K.TDG, K.T, K.TDG, K.T)]
        assert all(h.level is EquivalenceLevel.L2_RELATIVE_PHASE for h in hits)

    def test_or_search_contains_table_row(self):
        q = SearchQuery(target="0111", ax2_set=("i", "z", "-z"),
                        theta_set=THETA_KINDS)
        hits = search(q)
        assert any(h.spec.theta == (K.T, K.T, K.T, K.T) and h.spec.ax2 == "z"
                   for h in hits)

    @pytest.mark.parametrize("kind,target", [
        (BooleanGateKind.AND, "0001"), (BooleanGateKind.NAND, "1110"),
        (BooleanGateKind.OR, "0111"), (BooleanGateKind.NOR, "1000"),
        (BooleanGateKind.IMPLICATION, "1011"), (BooleanGateKind.INHIBITION, "0100"),
    ])
    def test_every_table_row_rediscovered(self, kind, target):
        q = SearchQuery(target=target, ax2_set=("i", "z", "-z"),
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
        entries = tuple(AX_ENTRIES)
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

    @pytest.mark.parametrize("symmetric", ["no", 1, 0, None, np.bool_(True)])
    def test_symmetric_must_be_a_bool(self, symmetric):
        # "no" is truthy: it ran a symmetric search
        with pytest.raises(CircuitError, match="symmetric must be True or False"):
            SearchQuery(target="0001", symmetric=symmetric)

    def test_query_from_names(self):
        q = query_from_names("0001", sp=("h",), ax1=("i",), ax2=("i", "z", "-z"),
                             theta=("t", "tdg"), symmetric=True)
        assert q.sp_set == (K.H,)
        assert q.ax2_set == ("i", "z", "-z")
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
        for shape in [(1, 1, 1), (3, 1, 5), (10, 2, 7), (4, 16, 4), (2, 3, 100), (5, 7, 3)]:
            blocks = [[range(n)[s] for n, s in zip(shape, tile)] for tile in rules._tiles(*shape)]
            assert all(len(r) * len(t) * len(c) <= block for r, t, c in blocks)
            assert [cfg for r, t, c in blocks for cfg in itertools.product(r, t, c)] == \
                list(itertools.product(*map(range, shape)))

    def test_symmetric_query(self):
        # the duplicated T makes symmetry a matter of kinds, not of alphabet positions
        q = SearchQuery(target="0001", sp_set=(K.H, K.SX), theta_set=(K.T, K.TDG, K.T),
                        symmetric=True)
        hits = search(q)
        assert hits and hits == reference_search(q)[q.target]
        assert all(h.spec.symmetric for h in hits)

    def test_minus_z_and_duplicated_ax2_entries(self):
        q = SearchQuery(target="0111", ax2_set=("i", "z", "-z", "z"),
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
                   (dict(ax1_set=((), (K.RZ,))), "auxiliary entry"),
                   (dict(ax2_set=((K.CX,),)), "auxiliary entry"),
                   (dict(ax1_set=(("x",),)), "auxiliary entry"),
                   (dict(ax2_set=((), (K.X, "z"))), "auxiliary entry"),
                   (dict(ax1_set=(K.X,)), "auxiliary entry"),
                   (dict(ax2_set=((), K.Z)), "auxiliary entry"),
                   (dict(ax1_set=("i", "cx")), "^ax1 must name an auxiliary entry"),
                   (dict(ax2_set=("z", ["z"])), "^ax2 must name an auxiliary entry"),
                   # tuple("sx") would be the two valid names s and x
                   (dict(ax1_set="sx"), "ax1_set must be a collection, not the string 'sx'"),
                   (dict(sp_set=()), "sp_set must not be empty"),
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
        for bad, match in [(dict(sp=("h", "t")), "superposition"),
                           (dict(theta=("t", "h")), "theta"),
                           (dict(ax1=("i", "nope")), "ax1 must name an auxiliary entry"),
                           (dict(ax2=("-z", "cx")), "ax2 must name an auxiliary entry")]:
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
                                lambda query, bits, b=graded: iter([([spec], np.zeros(1), b)]))
            assert search(SearchQuery(target=target)) == [SearchHit(spec, level)]

    def test_factor_tables_hold_every_sp_kind_and_ax_entry(self):
        assert rules._FIRST.shape == (3, 10, 2, 2) and rules._LAST.shape == (10, 3, 2, 2)
        for s, sp in enumerate(rules._SP_KINDS):
            for a, name in enumerate(rules._AX_NAMES):
                assert np.array_equal(rules._FIRST[s, a], rules._target_matrix((sp, *AX_ENTRIES[name])))
                assert np.array_equal(rules._LAST[a, s], rules._target_matrix((*AX_ENTRIES[name], sp)))
        assert set(rules._SP_KINDS) == set(SUPERPOSITION_KINDS) and set(rules._AX_NAMES) == set(AX_ENTRIES)
        assert not rules._FIRST.flags.writeable and not rules._LAST.flags.writeable

    def test_ranks_follow_sort_key(self):
        # over the full alphabets every configuration's rank is its sort_key position
        q = query_from_names("0000", sp=("sxdg", "h", "sx"), ax1=tuple(AX_ENTRIES),
                             ax2=tuple(AX_ENTRIES), theta=("tdg", "s", "t", "sdg"))
        hits = [(spec, rank) for specs, ranks, _ in rules._hit_blocks(q, np.zeros(4))
                for spec, rank in zip(specs, ranks.tolist())]
        assert len(hits) > 100
        by_key = sorted(hits, key=lambda h: h[0].sort_key())
        assert [h[1] for h in by_key] == sorted(h[1] for h in hits)

    def test_hit_blocks_are_the_factor_products(self):
        # every hit of the full CLI space, on every target: the entry-wise
        # blocks equal L . T . F by matmul, with L, T and F read off the
        # hit's rank (over the full alphabets a theta tuple's table row is
        # its rank)
        ax = tuple(AX_ENTRIES)
        first, last = rules._FIRST.reshape(-1, 2, 2), rules._LAST.reshape(-1, 2, 2)
        n_cols, n_theta = len(last), len(rules._THETA_KINDS) ** 4
        _, middles, _ = rules._theta_table(tuple(rules._THETA_KINDS), False)
        checked = 0
        for target in TARGETS:
            q = query_from_names(target, sp=("h", "sx", "sxdg"), ax1=ax, ax2=ax,
                                 theta=("s", "sdg", "t", "tdg"))
            bits = np.array([int(b) for b in target], dtype=float)
            for specs, ranks, blocks in rules._hit_blocks(q, bits):
                r, rest = np.divmod(ranks, n_theta * n_cols)
                t, j = np.divmod(rest, n_cols)
                expected = last[j][:, None] @ middles[t] @ first[r][:, None]
                assert blocks.shape == (len(specs), 4, 2, 2)
                assert np.abs(blocks - expected).max() <= 1e-12
                assert [rules._SP_KINDS[i] for i in r // len(rules._AX_NAMES)] == [s.sp1 for s in specs]
                checked += len(specs)
        assert checked > 1000

    def test_theta_table_cached_per_distinct_kinds(self):
        rules._theta_table.cache_clear()
        base = SearchQuery(target="0001", theta_set=(K.T, K.TDG))
        doubled = dataclasses.replace(base, theta_set=(K.TDG, K.T) * 4)  # 4,096 theta tuples
        # every theta tuple over the kinds occurs 4**4 times among the duplicates
        assert search(doubled) == [h for h in search(base) for _ in range(4 ** 4)]
        assert rules._theta_table.cache_info().currsize == 2
        # n**4 rows, n**2 when symmetric over n distinct kinds; symmetry is a
        # matter of kinds, so 4 copies of each of 2 kinds give (2 * 4**2)**2
        for thetas, plain, sym in (((K.T, K.TDG), 2 ** 4, 2 ** 2),
                                   ((K.T,) * 4 + (K.TDG,) * 4, 8 ** 4, (2 * 4 ** 2) ** 2)):
            for symmetric, rows in ((False, plain), (True, sym)):
                tuples, middles, ranks = rules._theta_table(thetas, symmetric)
                assert len(tuples) == rows and middles.shape == (rows, 4, 2, 2) and ranks.shape == (rows,)
                assert not symmetric or all(CoreSpec(theta=th).symmetric for th in tuples)
        assert rules._theta_table.cache_info().currsize == 4
        assert rules._theta_table.cache_info().maxsize == 30

    def test_symmetric_query_grades_only_symmetric_rows(self, monkeypatch):
        graded = []

        def counting(blocks, oracle):
            graded.append(len(blocks))
            return equivalence_levels(blocks, oracle)

        monkeypatch.setattr(rules, "equivalence_levels", counting)
        q = query_from_names("0001", sp=("h", "sx", "sxdg"), ax1=tuple(AX_ENTRIES),
                             ax2=tuple(AX_ENTRIES), theta=("s", "sdg", "t", "tdg"),
                             symmetric=True)
        hits = search(q)
        assert hits and all(h.spec.symmetric for h in hits)
        assert sum(graded) == len(hits)


@st.composite
def small_queries(draw):
    """Queries over small alphabets with duplicates in every slot, in any order."""
    def alphabet(entries, most):
        return tuple(draw(st.lists(st.sampled_from(entries), min_size=1, max_size=most)))

    q = SearchQuery(target=draw(st.sampled_from(TARGETS)),
                    sp_set=alphabet(SUPERPOSITION_KINDS, 2),
                    ax1_set=alphabet(list(AX_ENTRIES), 2),
                    ax2_set=alphabet(list(AX_ENTRIES), 3),
                    theta_set=alphabet(THETA_KINDS, 3),
                    symmetric=draw(st.booleans()))
    assume(rules._space_size(q) <= 324)
    return q


class TestSearchProperty:
    @pytest.mark.parametrize("block", ["one configuration", "part of a row", "tuples of a row",
                                       "one row", "one row and one configuration", "default"])
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(small_queries())
    def test_search_equals_reference(self, block, q):
        cols = len(q.ax2_set) * len(q.sp_set)  # configurations per (sp1, ax1, theta) pair
        row = sum(1 for _ in iter_specs(q)) // (len(q.sp_set) * len(q.ax1_set))  # per (sp1, ax1)
        size = {"one configuration": 1, "part of a row": cols - 1, "tuples of a row": 2 * cols + 1,
                "one row": row, "one row and one configuration": row + 1,
                "default": rules.BLOCK_CONFIGS}[block]
        assume(size >= 1)
        reference = reference_search(q, TARGETS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rules, "BLOCK_CONFIGS", size)
            for target in TARGETS:
                assert search(dataclasses.replace(q, target=target)) == reference[target]
