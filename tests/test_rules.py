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


def enumeration_key(spec: CoreSpec):
    """A configuration's place in enumeration order: kinds by value, AX
    entries by name, slot by slot."""
    return (spec.sp1.value, spec.ax1, tuple(t.value for t in spec.theta), spec.ax2, spec.sp2.value)


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
        hits.sort(key=lambda h: enumeration_key(h.spec))
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

    def test_guard_rejects_huge_spaces(self, monkeypatch):
        # the alphabets are sets, so no query exceeds the full CLI space of
        # 230,400 configurations; the guard is checked below it
        entries = tuple(AX_ENTRIES)
        q = SearchQuery(target="0001", sp_set=SUPERPOSITION_KINDS, ax1_set=entries * 10,
                        ax2_set=entries * 10, theta_set=THETA_KINDS)
        assert rules._space_size(q) == 230400
        monkeypatch.setattr(rules, "SEARCH_SPACE_GUARD", 230399)
        with pytest.raises(CircuitError, match="exceeds 230399 configurations"):
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
        assert q.ax2_set == ("-z", "i", "z")  # a set, stored in enumeration order
        with pytest.raises(CircuitError):
            query_from_names("0001", **dict(DEFAULT_NAMES, sp=("nope",)))


class TestBatchedSearchMatchesReference:
    def test_all_targets_mixed_alphabet(self, mixed_reference):
        for target in TARGETS:
            assert search(dataclasses.replace(MIXED, target=target)) == mixed_reference[target]
        assert sum(1 for hits in mixed_reference.values() if hits) >= 4

    def test_blocks_smaller_than_the_space(self, mixed_reference, monkeypatch):
        monkeypatch.setattr(rules, "BLOCK_CONFIGS", 100)  # 6 rows of 144 configurations: 6 tiles
        for target in TARGETS:
            assert search(dataclasses.replace(MIXED, target=target)) == mixed_reference[target]

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
    def test_blocks_tile_the_space_within_the_bound(self, monkeypatch, block):
        # a tolerance past every probability makes every configuration a hit,
        # so each tile's specs are all of its configurations
        default = rules.BLOCK_CONFIGS
        monkeypatch.setattr(rules, "BLOCK_CONFIGS", block)
        monkeypatch.setattr(rules, "ATOL_NORM", 2.0)
        for q in [SearchQuery(target="0001", theta_set=(K.T,)),
                  SearchQuery(target="0001", sp_set=(K.H, K.SX), ax1_set=("i", "x", "z"),
                              ax2_set=("z",), theta_set=(K.T,)),
                  SearchQuery(target="0110", sp_set=(K.SX,), ax1_set=("i", "x", "s"),
                              ax2_set=("i", "-z"), theta_set=(K.T, K.S), symmetric=True),
                  dataclasses.replace(MIXED, theta_set=(K.T,))]:
            rows = list(itertools.product(q.sp_set, q.ax1_set))
            specs = list(iter_specs(q))
            row = len(specs) // len(rows)  # configurations per (sp1, ax1) row
            per_tile = max(1, block // row) * row  # as many whole rows as fit, at least one
            tiles = [tile for tile, _ in rules._hit_blocks(q, np.zeros(4))]
            assert [spec for tile in tiles for spec in tile] == specs
            assert [len(tile) for tile in tiles] == \
                [min(per_tile, len(specs) - start) for start in range(0, len(specs), per_tile)]
        # entries are distinct, so a row of the widest space is 4**4 theta
        # tuples by 10 AX entries by 3 SP kinds, within the default bound
        ax = tuple(AX_ENTRIES)
        q = query_from_names("0001", sp=("h", "sx", "sxdg") * 2, ax1=ax, ax2=ax * 2,
                             theta=("s", "sdg", "t", "tdg") * 3)
        assert rules._space_size(q) // (len(q.sp_set) * len(q.ax1_set)) == 4 ** 4 * 10 * 3 == 7680
        assert 7680 <= default

    def test_symmetric_query(self):
        # the repeated T is stored once, so symmetry is a matter of kinds
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
        # a repeated entry is stored once: the query is the one without it
        assert q == SearchQuery(target="0111", ax2_set=("i", "z", "-z"), theta_set=(K.T, K.TDG))
        assert len(hits) == len(set(h.spec for h in hits))

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
                                lambda query, bits, b=graded: iter([([spec], b)]))
            assert search(SearchQuery(target=target)) == [SearchHit(spec, level)]

    def test_factor_tables_hold_every_sp_kind_and_ax_entry(self):
        assert rules._FIRST.shape == (3, 10, 2, 2) and rules._LAST.shape == (10, 3, 2, 2)
        for sp in SUPERPOSITION_KINDS:
            for name in AX_ENTRIES:
                s, a = rules._SP_INDEX[sp], rules._AX_INDEX[name]
                assert np.array_equal(rules._FIRST[s, a], rules._target_matrix((sp, *AX_ENTRIES[name])))
                assert np.array_equal(rules._LAST[a, s], rules._target_matrix((*AX_ENTRIES[name], sp)))
        assert sorted(rules._SP_INDEX.values()) == list(range(3))
        assert sorted(rules._AX_INDEX.values()) == list(range(10))
        assert not rules._FIRST.flags.writeable and not rules._LAST.flags.writeable

    def test_iter_specs_yields_in_enumeration_order(self):
        # alphabets given out of order: every configuration once, in ascending
        # enumeration_key order, and search's hits in the same order
        q = query_from_names("0000", sp=("sxdg", "h", "sx"), ax1=tuple(AX_ENTRIES)[::-1],
                             ax2=tuple(AX_ENTRIES), theta=("tdg", "s", "t", "sdg", "t"))
        keys = [enumeration_key(spec) for spec in iter_specs(q)]
        assert len(keys) == 230400 and keys == sorted(set(keys))
        hits = [enumeration_key(h.spec) for h in search(q)]
        assert len(hits) > 100 and hits == sorted(set(hits))

    def test_hit_blocks_are_the_factor_products(self):
        # every hit of the full CLI space, on every target: the entry-wise
        # blocks equal L . T . F by matmul, with L, T and F read off the
        # hit's spec
        ax = tuple(AX_ENTRIES)
        thetas = tuple(sorted(THETA_KINDS, key=lambda k: k.value))
        tuples, middles = rules._theta_table(thetas, False)
        row = {th: i for i, th in enumerate(tuples)}
        checked = 0
        for target in TARGETS:
            q = query_from_names(target, sp=("h", "sx", "sxdg"), ax1=ax, ax2=ax,
                                 theta=("s", "sdg", "t", "tdg"))
            assert q.theta_set == thetas
            bits = np.array([int(b) for b in target], dtype=float)
            for specs, blocks in rules._hit_blocks(q, bits):
                first = rules._FIRST[[rules._SP_INDEX[s.sp1] for s in specs],
                                     [rules._AX_INDEX[s.ax1] for s in specs]]
                last = rules._LAST[[rules._AX_INDEX[s.ax2] for s in specs],
                                   [rules._SP_INDEX[s.sp2] for s in specs]]
                expected = last[:, None] @ middles[[row[s.theta] for s in specs]] @ first[:, None]
                assert blocks.shape == (len(specs), 4, 2, 2)
                assert np.abs(blocks - expected).max() <= 1e-12
                checked += len(specs)
        assert checked > 1000

    def test_theta_table_cached_per_distinct_kinds(self):
        rules._theta_table.cache_clear()
        base = SearchQuery(target="0001", theta_set=(K.T, K.TDG))
        # a repeated entry is stored once: the query is the one without it
        doubled = dataclasses.replace(base, theta_set=(K.TDG, K.T) * 4)
        assert doubled == base and doubled.theta_set == (K.T, K.TDG)
        assert search(doubled) == search(base)
        assert rules._theta_table.cache_info().currsize == 1
        # n**4 rows, n**2 when symmetric, over n distinct kinds
        for thetas, plain, sym in (((K.T, K.TDG), 2 ** 4, 2 ** 2),
                                   ((K.S, K.SDG, K.T, K.TDG), 4 ** 4, 4 ** 2)):
            for symmetric, rows in ((False, plain), (True, sym)):
                tuples, middles = rules._theta_table(thetas, symmetric)
                assert len(tuples) == rows and middles.shape == (rows, 4, 2, 2)
                assert not middles.flags.writeable
                assert list(tuples) == [th for th in itertools.product(thetas, repeat=4)
                                        if not symmetric or CoreSpec(theta=th).symmetric]
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
