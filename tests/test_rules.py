import dataclasses
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import permutation_unitary
import hexsynth
from hexsynth import rules, simulator
from hexsynth.circuit import CircuitError, GateKind
from hexsynth.library import (AX_ENTRIES, BOOLEAN_TABLE, SUPERPOSITION_KINDS, THETA_KINDS,
                              BooleanGateKind, CoreSpec, build_core, core_gates)
from hexsynth.rules import (SearchHit, SearchQuery, apply_rules, count_space, iter_specs,
                            query_from_names, search)
from hexsynth.simulator import (EquivalenceLevel, SimulationError, equivalence_levels,
                                gate_matrix, truth_string, truth_table, unitary_of)

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
            level = EquivalenceLevel(int(
                equivalence_levels(unitary_of(circuit)[None], oracle_unitary(realized))[0]))
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


@pytest.fixture
def cold_rows():
    """No row of the table is filled when the test starts, and none that
    it filled, under a patched tolerance or grader, outlives it."""
    rules._row_table.cache_clear()
    yield
    rules._row_table.cache_clear()


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

    def test_blocks_smaller_than_the_space(self, mixed_reference, cold_rows):
        # MIXED spans 6 rows; each is filled by a one-row query first, in
        # reverse order, and the query reads them in its own order
        for sp1, ax1 in reversed(list(itertools.product(MIXED.sp_set, MIXED.ax1_set))):
            search(dataclasses.replace(MIXED, sp_set=(sp1,), ax1_set=(ax1,)))
        assert rules._row_table.cache_info().currsize == 6
        for target in TARGETS:
            assert search(dataclasses.replace(MIXED, target=target)) == mixed_reference[target]

    @pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
    def test_blocks_tile_the_space_within_the_bound(self, monkeypatch, cold_rows, block):
        # the table's blocks are its (sp1, ax1) rows: the first `block` rows
        # of the space (all 30 when it has fewer) are filled before the
        # queries.  A tolerance of one half decides every configuration as
        # some function, so each query's hits over the 16 targets are its
        # whole space, each configuration once, and it fills only those of
        # its own rows not filled yet, each of 7,680 bytes.  The rule reads
        # the tolerance where it is stated, in the simulator
        monkeypatch.setattr(simulator, "ATOL_NORM", 0.5)
        space = list(itertools.product(SUPERPOSITION_KINDS, AX_ENTRIES))
        for sp1, ax1 in space[:block]:
            rules._row_table(sp1, ax1)
        filled = set(space[:block])
        assert rules._row_table.cache_info().currsize == len(filled)
        for q in [SearchQuery(target="0001", theta_set=(K.T,)),
                  SearchQuery(target="0001", sp_set=(K.H, K.SX), ax1_set=("i", "x", "z"),
                              ax2_set=("z",), theta_set=(K.T,)),
                  SearchQuery(target="0110", sp_set=(K.SX,), ax1_set=("i", "x", "s"),
                              ax2_set=("i", "-z"), theta_set=(K.T, K.S), symmetric=True),
                  dataclasses.replace(MIXED, theta_set=(K.T,))]:
            hits = [h.spec for target in TARGETS
                    for h in search(dataclasses.replace(q, target=target))]
            assert sorted(hits, key=enumeration_key) == list(iter_specs(q))
            rows = list(itertools.product(q.sp_set, q.ax1_set))
            filled.update(rows)
            assert rules._row_table.cache_info().currsize == len(filled)
            assert all(rules._row_table(sp1, ax1).shape == (4 ** 4, 10, 3) for sp1, ax1 in rows)
        info = rules._row_table.cache_info()
        assert info.maxsize == 30 and info.currsize <= info.maxsize
        # entries are distinct, so no query has more configurations per
        # (sp1, ax1) row than the 4**4 theta tuples by 10 AX entries by 3
        # SP kinds of a row of the table
        ax = tuple(AX_ENTRIES)
        widest = query_from_names("0001", sp=("h", "sx", "sxdg") * 2, ax1=ax, ax2=ax * 2,
                                  theta=("s", "sdg", "t", "tdg") * 3)
        assert rules._space_size(widest) // (len(widest.sp_set) * len(widest.ax1_set)) == 7680

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

    def test_grades_hand_made_blocks(self, monkeypatch, cold_rows):
        # No query space holds an L1 hit, so the grading of the table's
        # oracle blocks is checked on blocks cut from each function's oracle
        # itself: they grade L1, and with a factor i on the branches that
        # flip the target, L2.  The target has both bit values, else the
        # factor is a global phase.  Then each configuration of a row is
        # graded on those blocks of the function its own blocks realize,
        # against the oracle blocks the row fill passes, and the search
        # reads back the level they were given.
        grade, target = equivalence_levels, "0001"
        wires = [[c & 1 | t << 1 | (c >> 1) << 2 for t in (0, 1)] for c in range(4)]

        def oracle_blocks(bits, phase):
            u = oracle_unitary(bits).astype(complex)
            return np.array([u[np.ix_(w, w)] * (phase if b == "1" else 1)
                             for w, b in zip(wires, bits)]).reshape(8, 2)

        def hand_made(us, phase):
            # a block's target bit is 1 where it takes |0> to |1>
            flips = np.abs(us.reshape(-1, 4, 2, 2)[:, :, 1, 0]) > 0.5
            return np.array([oracle_blocks("".join("01"[f] for f in row), phase)
                             for row in flips.tolist()])

        hits = search(SearchQuery(target=target))
        assert hits
        own = rules._FLIP[[int(b) for b in target]].reshape(8, 2)
        for phase, level in ((1, EquivalenceLevel.L1_GLOBAL_PHASE),
                             (1j, EquivalenceLevel.L2_RELATIVE_PHASE)):
            assert grade(oracle_blocks(target, phase)[None], own).tolist() == [level.value]
            monkeypatch.setattr(rules, "equivalence_levels",
                                lambda us, refs, p=phase: grade(hand_made(us, p), refs))
            rules._row_table.cache_clear()
            assert search(SearchQuery(target=target)) == [SearchHit(h.spec, level) for h in hits]

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
        # every row of the space: the configurations its table decides are
        # exactly those whose p(target=1), from L . T . F by matmul, lies
        # within ATOL_NORM of 0 or 1 on every branch, and each decided
        # byte's function is those bits
        middles, last = rules._middles(), rules._LAST.reshape(30, 2, 2)
        checked = 0
        for sp1, ax1 in itertools.product(SUPERPOSITION_KINDS, AX_ENTRIES):
            first = rules._FIRST[rules._SP_INDEX[sp1], rules._AX_INDEX[ax1]]
            dense = last[:, None, None] @ middles[None] @ first  # (j, t, c, 2, 2)
            p = np.abs(dense[..., 1, 0]) ** 2
            deterministic = (np.minimum(p, np.abs(1 - p)) <= simulator.ATOL_NORM).all(axis=2)
            table = rules._row_table(sp1, ax1).reshape(256, 30)
            t, j = np.nonzero(table != rules._UNDECIDED)
            assert sorted(zip(j.tolist(), t.tolist())) == list(zip(*np.nonzero(deterministic)))
            assert (table[t, j] >> 2).tolist() == [int("".join(str(round(x)) for x in p[b, a]), 2)
                                                   for a, b in zip(t, j)]
            checked += len(t)
        assert checked == 14912

    def test_theta_table_cached_per_distinct_kinds(self):
        rules._theta_index.cache_clear()
        base = SearchQuery(target="0001", theta_set=(K.T, K.TDG))
        # a repeated entry is stored once: the query is the one without it
        doubled = dataclasses.replace(base, theta_set=(K.TDG, K.T) * 4)
        assert doubled == base and doubled.theta_set == (K.T, K.TDG)
        assert search(doubled) == search(base)
        assert rules._theta_index.cache_info().currsize == 1
        # the one full table: each theta tuple's middles by matmul over the
        # core's own gate list between its SP gates, at its C-order place
        # over THETA_KINDS: each rotation's matrix, and X for a CX on the
        # branches where its control wire is 1
        middles = rules._middles()
        assert middles.shape == (256, 4, 2, 2) and not middles.flags.writeable
        flip = [gate_matrix(K.I), gate_matrix(K.X)]
        for row, th in enumerate(itertools.product(THETA_KINDS, repeat=4)):
            gates = core_gates(CoreSpec(theta=th), c1=0, t=1, c2=2)[1:-1]
            assert [g.kind for g in gates if g.kind is not K.CX] == list(th)
            for c2, c1 in itertools.product((0, 1), repeat=2):
                expected = flip[0]
                control = {0: c1, 2: c2}
                for g in gates:
                    m = flip[control[g.qubits[0]]] if g.kind is K.CX else gate_matrix(g.kind)
                    expected = m @ expected
                assert np.abs(middles[row, c2 << 1 | c1] - expected).max() <= 1e-15
        # n**4 tuples, n**2 when symmetric, over n distinct kinds, each
        # indexing its own row of the full table
        full = list(itertools.product(THETA_KINDS, repeat=4))
        for thetas, plain, sym in (((K.T, K.TDG), 2 ** 4, 2 ** 2),
                                   ((K.S, K.SDG, K.T, K.TDG), 4 ** 4, 4 ** 2)):
            for symmetric, rows in ((False, plain), (True, sym)):
                tuples, index = rules._theta_index(thetas, symmetric)
                assert len(tuples) == rows and index.shape == (rows,)
                assert not index.flags.writeable
                assert list(tuples) == [th for th in itertools.product(thetas, repeat=4)
                                        if not symmetric or CoreSpec(theta=th).symmetric]
                assert [full[k] for k in index.tolist()] == list(tuples)
        assert rules._theta_index.cache_info().currsize == 4
        assert rules._theta_index.cache_info().maxsize == 30

    def test_a_row_is_graded_once_per_process(self, monkeypatch, cold_rows):
        graded = []

        def counting(blocks, oracle):
            graded.append(len(blocks))
            return equivalence_levels(blocks, oracle)

        monkeypatch.setattr(rules, "equivalence_levels", counting)
        ax = tuple(AX_ENTRIES)
        q = query_from_names("0001", sp=("h", "sx"), ax1=ax[:4], ax2=ax, theta=("s", "sdg", "t", "tdg"),
                             symmetric=True)
        hits = search(q)
        assert hits and all(h.spec.symmetric for h in hits)
        # every deterministic configuration of the query's 8 rows, once, in
        # one call a row
        assert len(graded) == 8 and sum(graded) == sum(int((rules._row_table(sp1, ax1) != rules._UNDECIDED).sum())
                                  for sp1, ax1 in itertools.product(q.sp_set, q.ax1_set))
        graded.clear()
        # the same rows again, for every target and not only symmetric
        # tuples: read from the table, graded by no call
        for target in TARGETS:
            search(dataclasses.replace(q, target=target, symmetric=False))
        assert graded == []
        assert rules._row_table.cache_info().currsize == 8

    def test_table_is_lazy_and_bounded(self):
        # a fresh interpreter: the imports, a cost report and the tables
        # report fill no row; a search fills exactly the rows of its
        # (sp1, ax1) pairs, and its repeat none
        script = textwrap.dedent("""
            import contextlib, io, json
            import hexsynth, hexsynth.cli
            from hexsynth import cli, reports, rules
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["cost", "and3", "--json"])
            reports.generate()
            seen = [rules._row_table.cache_info().currsize, rules._middles.cache_info().currsize]
            q = rules.query_from_names("0001", sp=["sxdg", "sx"], ax1=["z", "t", "-z"], ax2=["i"],
                                       theta=["t", "tdg"])
            rules.search(q)
            seen.append(rules._row_table.cache_info().currsize)
            rules.search(q)
            info = rules._row_table.cache_info()
            rows = [rules._row_table(sp1, ax1) for sp1 in q.sp_set for ax1 in q.ax1_set]
            print(json.dumps(dict(seen=seen, misses=info.misses, maxsize=info.maxsize,
                                  rows=[[str(r.dtype), r.size, r.flags.writeable] for r in rows])))
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(hexsynth.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        out = json.loads(done.stdout)
        assert out["seen"] == [0, 0, 6] and out["misses"] == 6 and out["maxsize"] == 30
        assert out["rows"] == [["uint8", 7680, False]] * 6

    def test_every_row_equals_the_dense_path(self, cold_rows):
        # a small theta alphabet over each AX1 entry: all three SP kinds,
        # so every (sp1, ax1) row of the space, against every column
        for k, ax1 in enumerate(AX_ENTRIES):
            q = SearchQuery(target="0000", sp_set=SUPERPOSITION_KINDS, ax1_set=(ax1,),
                            ax2_set=tuple(AX_ENTRIES),
                            theta_set=(THETA_KINDS[k % 4], THETA_KINDS[(k + 1) % 4]), symmetric=True)
            reference = reference_search(q, TARGETS)
            for target in TARGETS:
                assert search(dataclasses.replace(q, target=target)) == reference[target]
        assert rules._row_table.cache_info().currsize == 30


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
    @pytest.mark.parametrize("table", ["cold", "one configuration", "part of a row",
                                       "tuples of a row", "one row",
                                       "one row and one configuration", "warm"])
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(small_queries())
    def test_search_equals_reference(self, table, q):
        # cold: every search fills the rows it reads; warm: every row of the
        # space is filled before the first.  The other cases start every
        # search from a table filled only by smaller queries cut from q,
        # named for the part of its space they cover: a row is filled whole,
        # whatever part of it its first query reads, and then serves all of q
        reference = reference_search(q, TARGETS)
        row = SearchQuery(target=q.target, sp_set=q.sp_set[:1], ax1_set=q.ax1_set[:1],
                          ax2_set=q.ax2_set, theta_set=q.theta_set, symmetric=q.symmetric)
        one = dataclasses.replace(row, ax2_set=q.ax2_set[:1], theta_set=q.theta_set[:1])
        last_one = dataclasses.replace(one, sp_set=q.sp_set[-1:], ax1_set=q.ax1_set[-1:])
        before = {"cold": [], "one configuration": [one],
                  "part of a row": [dataclasses.replace(row, theta_set=q.theta_set[:1])],
                  "tuples of a row": [dataclasses.replace(row, ax2_set=q.ax2_set[:1])],
                  "one row": [row], "one row and one configuration": [row, last_one]}
        if table == "warm":
            for sp1, ax1 in itertools.product(SUPERPOSITION_KINDS, AX_ENTRIES):
                rules._row_table(sp1, ax1)
        for target in TARGETS:
            if table != "warm":
                rules._row_table.cache_clear()
                for part in before[table]:
                    # each part reads its own configurations of the reference
                    specs = set(iter_specs(part))
                    assert search(part) == [h for h in reference[q.target] if h.spec in specs]
                assert rules._row_table.cache_info().currsize == \
                    len({(p.sp_set, p.ax1_set) for p in before[table]})
            assert search(dataclasses.replace(q, target=target)) == reference[target]
