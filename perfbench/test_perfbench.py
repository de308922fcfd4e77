"""Tests of the benchmark's own parts: the seeded generators, the independent
checker (it must catch corrupted outputs), span accounting, and the exact
counts that must repeat for a seed."""
import ast
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _inputs(seed, rnd):
    return json.dumps({
        "search": gen.search_queries(seed, rnd),
        "transpile": gen.transpile_inputs(seed, rnd),
        "family": gen.family_round(seed, rnd, {"and5": 7, "swap2": 2, "csx2": 2}),
    }, sort_keys=True).encode()


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(7, 0) == _inputs(7, 0)
    assert _inputs(7, 0) != _inputs(8, 0)
    assert _inputs(7, 0) != _inputs(7, 1)


def test_every_round_has_the_same_shape():
    for rnd in range(3):
        queries = gen.search_queries(3, rnd)
        assert len({q["target"] for q in queries}) == len(gen.SEARCH_LADDER)
        assert sorted((q["sp"], q["ax1"], q["ax2"], q["theta"]) for q in queries) == sorted(
            gen.SEARCH_LADDER)
        circuits = gen.transpile_inputs(3, rnd)
        assert sorted((c["length"], c["basis"]) for c in circuits) == sorted(gen.CIRCUIT_LADDER)


def test_checker_imports_no_program_module():
    tree = ast.parse((HERE / "check.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name and name.startswith("hexsynth") for name in imported)


def test_layer_self_time_excludes_children():
    recs = [{"name": "a", "start": 0.0, "end": 10.0, "parent": None, "counts": {"n": 2}},
            {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "counts": {}},
            {"name": "b", "start": 5.0, "end": 6.0, "parent": 0, "counts": {}}]
    m = spans.layer_metrics(recs)
    assert m["a"] == {"calls": 1, "self_s": 6.0, "n": 2}
    assert m["b"] == {"calls": 2, "self_s": 4.0}


def test_scaling_to_the_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scaled(0.2, ref, ref) == 0.2
    assert abs(speed.scaled(0.2, 2 * ref, 2 * ref) - 0.1) < 1e-12
    assert abs(speed.scaled(0.2, ref, 3 * ref) - 0.1) < 1e-12
    assert speed.probe() > 0


def _play(wl, items, tr=None):
    tr = tr or spans.NullTracer()
    return [wl.run(item, tr) for item in items]


def _short_transpile(seed):
    wl = workloads.Transpile(workloads.Program(spans.NullTracer()), seed)
    return wl, [item for item in wl.round(0) if item["length"] <= 60]


def test_transpile_checker_accepts_output_and_catches_corruption():
    wl, items = _short_transpile(5)
    outputs = _play(wl, items)
    assert wl.check_round(items, outputs) == [[]] * len(items)
    report, text = outputs[0]
    lines = text.splitlines(keepends=True)
    idx = next(i for i, line in enumerate(lines) if line.startswith("sx "))
    dropped = "".join(lines[:idx] + lines[idx + 1:])
    assert wl.check_round(items, [(report, dropped)] + outputs[1:])[0]
    foreign = text + "h q[0]\n"
    assert wl.check_round(items, [(report, foreign)] + outputs[1:])[0]


def test_search_checker_catches_a_wrong_grade_and_a_lost_hit():
    query = {"target": "0001", "sp": ["h"], "ax1": ["i"], "ax2": ["i", "z"],
             "theta": ["t", "tdg"]}
    from hexsynth.rules import query_from_names, search
    hits = search(query_from_names(query["target"], sp=query["sp"], ax1=query["ax1"],
                                   ax2=query["ax2"], theta=query["theta"]))
    got = [dict(h.spec.describe(), level=h.level.name) for h in hits]
    assert got and check.check_search(query, got, gen.AX_ALPHABET) == []
    regraded = [dict(got[0], level="L3_CLASSICAL")] + got[1:]
    assert check.check_search(query, regraded, gen.AX_ALPHABET)
    assert check.check_search(query, got[1:], gen.AX_ALPHABET)


def test_family_checker_accepts_a_round_and_catches_corruption():
    wl = workloads.Family(workloads.Program(spans.NullTracer()), 2)
    items = wl.round(0)
    outputs = _play(wl, items)
    assert wl.check_round(items, outputs) == [[]] * len(items)

    def corrupt(idx, **changes):
        return wl.check_round(items, outputs[:idx] + [dict(outputs[idx], **changes)]
                              + outputs[idx + 1:])[idx]

    report = json.loads(json.dumps(outputs[-1]["report"]))
    report["native_ecr_costs"]["and3"]["ecr"]["computed"] = 2
    assert corrupt(len(items) - 1, report=report)
    and3 = next(i for i, o in enumerate(outputs) if o["name"] == "and3")
    assert corrupt(and3, truth={"00": 1, "01": 0, "10": 0, "11": 1})
    rc, text = outputs[0]["cli"]
    assert corrupt(0, cli=(rc, text.replace('"swap_free": true', '"swap_free": false')))


def test_routed_gate_off_the_map_is_caught():
    edges = {(0, 1), (1, 2)}
    assert check.check_edges([("cx", (0, 1), None)], edges, "r") == []
    assert check.check_edges([("cx", (0, 2), None)], edges, "r")


def test_exact_counts_repeat_for_a_seed():
    def counts():
        program = workloads.Program(spans.NullTracer())
        fam = workloads.Family(program, 4)
        family_items = fam.round(0)
        srch = workloads.Search(program, 4)
        search_items = [q for q in srch.round(0) if gen.space_size(q) <= 64]
        tr = spans.Tracer()
        _play(srch, search_items, tr)
        search_layer = spans.layer_metrics(tr.spans)["rules.search"]
        search_layer.pop("self_s")
        wl, items = _short_transpile(4)
        return (fam.output_counts(family_items, _play(fam, family_items)), search_layer,
                wl.output_counts(items, _play(wl, items)))

    first = counts()
    assert first == counts()
    assert first[0]["2q"] > 0 and first[0]["swaps"] > 0 and first[2]["2q"] > 0
    assert first[1]["configs_visited"] > 0
