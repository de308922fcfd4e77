"""hexsynth benchmark: one closed-loop caller, one thread, seeded workloads.

    python3 perfbench/run.py --workload search|transpile|family|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --reference      # full 186,624-configuration AND query

Run from the repository root.  The program is imported from `src/` of the
checkout this file sits in.  A run plays the workload's seeded rounds until
`--seconds` have passed (whole rounds only, and at least enough items for
the tail percentile), checks every output with the independent checker,
prints one row of metrics with units, and ends with one JSON line.
Every end-to-end timing is scaled to a reference machine speed by the probes
in `speed.py`, run between items and between set-up spawns; the row also
prints the wall-clock values.
`--trace 1` instead runs each round untraced and then traced and reports
the per-layer metrics of the first traced round plus the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """One BLAS thread, set before numpy loads (children inherit it)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def bench_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def spawn_until_ready(args) -> float:
    """Seconds from spawning `python3 <args>` until it prints `ready`."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{args} failed (exit {proc.returncode}, said {line!r})")
    return elapsed


def setup_seconds() -> tuple[list[float], list[float]]:
    """Process start to ready-for-the-first-item, once per fresh process:
    (scaled, wall-clock) samples.  A spawn of `speed.SPAWN_PROBE` runs
    before the first and after each set-up spawn."""
    import speed

    samples, walls = [], []
    before = spawn_until_ready(speed.SPAWN_PROBE)
    for _ in range(SETUP_PROBES):
        walls.append(spawn_until_ready([str(HERE / "run.py"), "--setup-probe"]))
        after = spawn_until_ready(speed.SPAWN_PROBE)
        samples.append(speed.scaled(walls[-1], before, after, speed.REFERENCE_SPAWN_S))
        before = after
    return samples, walls


def min_items(tail_pct: int) -> int:
    """Fewest samples that leave at least ten beyond the tail percentile."""
    return math.ceil(10 / (1 - tail_pct / 100)) + 1


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_round(wl, k: int, items, tr, latencies: list, walls: list) -> list:
    """One closed-loop pass over a round's items, with a speed probe before
    each item and after the last; None marks an item that raised."""
    import speed

    outputs = []
    before = speed.probe()
    for idx, item in enumerate(items):
        tr.item = (k, idx)
        output = None
        start = time.perf_counter()
        try:
            output = wl.run(item, tr)
        except Exception:
            traceback.print_exc()
        walls.append(time.perf_counter() - start)
        after = speed.probe()
        latencies.append(speed.scaled(walls[-1], before, after))
        before = after
        outputs.append(output)
    return outputs


def judge(wl, k: int, items, outputs) -> int:
    """Check a round's outputs; print each error and return the failed count."""
    if any(o is None for o in outputs):
        verdicts = [["the program raised"] if o is None else [] for o in outputs]
    else:
        try:
            verdicts = wl.check_round(items, outputs)
        except Exception:
            verdicts = [[f"the checker could not read the outputs: {traceback.format_exc()}"]]
            verdicts *= len(outputs)
    for idx, errors in enumerate(verdicts):
        for e in errors:
            print(f"round {k} item {idx}: {e}", file=sys.stderr)
    return sum(1 for errors in verdicts if errors)


class Run:
    """Tallies over the rounds of one run.  Each round is checked as soon as
    it ends, outside the timed region; the output counts come from round 0
    alone, so they repeat exactly for a seed.  `latencies` and `rates` are
    scaled to the reference speed, `walls` and `wall_rates` are not."""

    def __init__(self):
        self.latencies, self.rates, self.walls, self.wall_rates = [], [], [], []
        self.rounds = self.failed = 0
        self.counts = {}

    def play(self, wl, tr, items) -> float:
        """Run and check one round; return its item time at the reference speed."""
        k = self.rounds
        first = len(self.latencies)
        outputs = run_round(wl, k, items, tr, self.latencies, self.walls)
        elapsed = sum(self.latencies[first:])
        weight = sum(map(wl.weight, items))
        self.rates.append(weight / elapsed)
        self.wall_rates.append(weight / sum(self.walls[first:]))
        failed = judge(wl, k, items, outputs)
        if k == 0 and not failed:
            self.counts = wl.output_counts(items, outputs)
        self.failed += failed
        self.rounds += 1
        return elapsed


def timed(wl, seconds: float) -> Run:
    """Whole rounds until `seconds` of wall time have passed and the tail
    percentile has ten samples beyond it."""
    from spans import NullTracer

    run, need = Run(), min_items(wl.tail_pct)
    start = time.perf_counter()
    while run.rounds == 0 or time.perf_counter() - start < seconds or len(run.latencies) < need:
        run.play(wl, NullTracer(), wl.round(run.rounds))
    return run


def traced(wl, seconds: float):
    """Each round twice, untraced then traced; per-layer numbers come from
    the first traced round, the overhead from the traced-minus-untraced item
    time of each round at the reference speed (a pair runs back to back, so
    a slow spell of the machine hits both halves)."""
    from spans import NullTracer, Tracer

    run, plain, tracers = Run(), [], []
    start = time.perf_counter()
    while not tracers or time.perf_counter() - start < seconds:
        items = wl.round(len(tracers))
        plain.append(run.play(wl, NullTracer(), items))
        tracer = Tracer()
        tracers.append((tracer, run.play(wl, tracer, items)))
    return run, plain, tracers


def derived(layers: dict, out: dict) -> dict:
    def get(fn, field):
        return layers.get(fn, {}).get(field, 0)

    visited, hits = get("rules.search", "configs_visited"), get("rules.search", "hits")
    p_in, p_out = get("transpiler.peephole", "gates_in"), get("transpiler.peephole", "gates_out")
    return {
        "rules.configs_visited": visited,
        "rules.hits": hits,
        "rules.hit_ratio": hits / visited if visited else 0.0,
        "transpiler.peephole.removed_ratio": (p_in - p_out) / p_in if p_in else 0.0,
        "reports.fail_cells": get("reports.generate", "fail_cells"),
        "out_2q": out.get("2q", 0), "out_1q": out.get("1q", 0),
        "out_depth": out.get("depth", 0), "swaps_added": out.get("swaps", 0),
    }


def per_layer_values(spec: dict, layers: dict, extra: dict) -> dict:
    """Every per_layer metric: `<layer.function>.<field>` from the spans
    (0 for a function the workload never calls) or a derived value."""
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in extra:
            value = extra[name]
        else:
            fn, field = name.rsplit(".", 1)
            value = layers.get(fn, {}).get(field, 0)
        values[name] = {"value": value, "unit": m["unit"]}
    return values


def run_workload(args) -> int:
    import spans
    import workloads

    spec = bench_spec()
    setup, setup_walls = (None, None) if args.trace else setup_seconds()
    setup_tracer = spans.Tracer() if args.trace else spans.NullTracer()
    program = workloads.Program(setup_tracer)
    wl = workloads.WORKLOADS[args.workload](program, args.seed)

    if args.trace:
        run, plain, tracers = traced(wl, args.seconds)
        layers = spans.layer_metrics(setup_tracer.spans + tracers[0][0].spans)
        extra = derived(layers, run.counts)
        untraced = statistics.median(plain)
        overhead = statistics.median(t - p for (_, t), p in zip(tracers, plain))
        extra["trace.overhead_s"] = overhead
        extra["trace.untraced_round_s"] = untraced
        metrics = per_layer_values(spec, layers, extra)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"setup": setup_tracer.spans, "rounds": [tr.spans for tr, _ in tracers]}, fh)
        print(f"{args.workload}: {len(tracers)} round(s) run untraced then traced; tracing "
              f"overhead {overhead:+.4f} s on an untraced round of {untraced:.4f} s at reference speed "
              f"({100 * overhead / untraced:+.2f}%)")
    else:
        run = timed(wl, args.seconds)
        values = {
            "setup_s": statistics.median(setup),
            "items_per_s": statistics.median(run.rates),
            "item_p50_ms": 1000 * statistics.median(run.latencies),
            "item_tail_ms": 1000 * percentile(run.latencies, wl.tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        n, out = len(run.latencies), run.counts
        row = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in metrics.items())
        print(f"{args.workload:9s} {row}  [items/s: {wl.unit}s, median of rounds; "
              f"tail = p{wl.tail_pct} of {n} {wl.item_name} samples over {run.rounds} rounds; "
              f"times at reference speed; wall clock: setup_s={statistics.median(setup_walls):.6g} "
              f"items_per_s={statistics.median(run.wall_rates):.6g} "
              f"item_p50_ms={1000 * statistics.median(run.walls):.6g} "
              f"item_tail_ms={1000 * percentile(run.walls, wl.tail_pct):.6g}]  "
              f"error_rate={run.failed / n:.4g} ({run.failed}/{n})  "
              f"round 0: out_2q={out.get('2q', 0)} out_1q={out.get('1q', 0)} "
              f"out_depth={out.get('depth', 0)} swaps_added={out.get('swaps', 0)} count")
    n = len(run.latencies)
    print(json.dumps({"correct": run.failed == 0, "attempted": n, "failed": run.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one row per workload."""
    results, status = {}, 0
    for name in ("search", "transpile", "family"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def run_reference() -> int:
    """The full-space AND query: 538 hits, and the checker agrees."""
    import check
    import gen
    from hexsynth.rules import query_from_names, search

    q = gen.REFERENCE_QUERY
    start = time.perf_counter()
    hits = search(query_from_names(q["target"], sp=q["sp"], ax1=q["ax1"], ax2=q["ax2"],
                                   theta=q["theta"]))
    elapsed = time.perf_counter() - start
    got = [dict(h.spec.describe(), level=h.level.name) for h in hits]
    errors = check.check_search(q, got, gen.AX_ALPHABET)
    ok = not errors and len(got) == 538
    print(json.dumps({"configurations": gen.space_size(q), "hits": len(got), "expected_hits": 538,
                      "checker_agrees": not errors, "seconds": elapsed, "correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("search", "transpile", "family", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "hexsynth" / "__init__.py").is_file():
        print(f"error: no hexsynth sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import spans
        import workloads
        workloads.Program(spans.NullTracer())
        print("ready", flush=True)
        return 0
    if args.reference:
        return run_reference()
    if args.workload is None:
        p.error("--workload or --reference is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
