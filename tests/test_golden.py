"""Byte-identity of the package's outputs.

`tests/golden/sha256.json` pins, for each command line below and for each
demo script, the sha256 of its standard output and its exit status:
`hexsynth tables` (text and `--json`), `build` and `cost --json` for every
registry gate (the latter in both bases), `verify --truth` for the Boolean
gates and `--against` for the five criterion-7 pairs, `trace` of the six
3-bit Boolean gates under all four control states, `search` for all 16
targets on the default sets and on the full flag space (`FULL_SPACE`),
each with and without `--symmetric`, and demos 01-05.  With input files:
`cost --layout` (text and
`--json`, both bases) for every registry gate on the bundled map and on
that map without coupling [62, 72], which has no I-shape; `cost and3
--placement` with the target displaced to qubit 61; and `transpile` of each
registry gate's `build` text in both bases, with and without `--peephole`,
and `simulate` of that text at its all-0 and all-1 `--input` (text and
`--json`).  A command line names each input file by a placeholder such as
`<brisbane.json>`; the file is written to a temporary directory for the
run, so no key holds a path.  A change that alters an output on purpose
rewrites the file in the same commit, with

    PYTHONPATH=src python tests/test_golden.py --write

and names each changed output and why in its change notes.
"""
import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

from hexsynth import cli
from hexsynth.circuit import emit_text
from hexsynth.library import BOOLEAN_BY_NAME, GATES, build_gate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "sha256.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
BUNDLED_MAP = ROOT / "src" / "hexsynth" / "data" / "brisbane.json"
MAPS = ("<brisbane.json>", "<brisbane-without-62-72.json>")
DISPLACED = "<and3-target-on-61.json>"

# documented truth strings over ascending assignments; pos5 and sop5 have
# none, so sixteen 0s (one per assignment of their four controls) ask for a
# mismatch that prints their whole table
TRUTH = {"and3": "0001", "nand3": "1110", "or3": "0111", "nor3": "1000", "imp3": "1011",
         "inh3": "0100", "and4": "0" * 7 + "1", "and5": "0" * 15 + "1", "pos5": "0" * 16,
         "sop5": "0" * 16}
PAIRS = {"and3": "toffoli", "fredkin3": "fredkin_std", "swap2": "swap2_std", "csx2": "csx2_std",
         "csxdg2": "csxdg2_std"}
PHASES = "i,x,sx,sxdg,z,s,sdg,t,tdg,-z"
FULL_SPACE = ["--sp-set", "h,sx,sxdg", "--ax1-set", PHASES, "--ax2-set", PHASES,
              "--theta-set", "s,sdg,t,tdg"]


def command_lines() -> list[list[str]]:
    runs = [["tables"], ["tables", "--json"]]
    runs += [["build", name] for name in sorted(GATES)]
    runs += [["cost", name, "--basis", basis, "--json"] for name in sorted(GATES)
             for basis in ("cx", "ecr")]
    runs += [["verify", name, "--truth", bits] for name, bits in TRUTH.items()]
    runs += [["verify", name, "--against", oracle] for name, oracle in PAIRS.items()]
    runs += [["trace", name, "--controls", controls] for name in BOOLEAN_BY_NAME
             for controls in ("00", "01", "10", "11")]
    runs += [["search", "--target", format(t, "04b"), *space, *sym] for t in range(16)
             for space in ([], FULL_SPACE) for sym in ([], ["--symmetric"])]
    runs += [["cost", name, "--basis", basis, "--layout", cmap, *fmt] for cmap in MAPS
             for name in sorted(GATES) for basis in ("cx", "ecr") for fmt in ([], ["--json"])]
    runs += [["cost", "and3", "--placement", DISPLACED, *fmt] for fmt in ([], ["--json"])]
    runs += [["cost", "and3", "--layout", MAPS[0], "--placement", DISPLACED, "--json"]]
    runs += [["transpile", f"<{name}.txt>", "--basis", basis, *opt] for name in sorted(GATES)
             for basis in ("cx", "ecr") for opt in ([], ["--peephole"])]
    runs += [["simulate", f"<{name}.txt>", "--input", bit * build_gate(name).width, *fmt]
             for name in sorted(GATES) for bit in "01" for fmt in ([], ["--json"])]
    return runs


def input_files() -> dict[str, str]:
    """The text of each input file, by the placeholder that names it in
    `command_lines()`."""
    bundled = json.loads(BUNDLED_MAP.read_text(encoding="utf-8"))
    cut = dict(bundled, edges=[e for e in bundled["edges"] if e != [62, 72]])
    files = {MAPS[0]: json.dumps(bundled), MAPS[1]: json.dumps(cut),
             DISPLACED: json.dumps({"assignment": {"c1": 62, "t": 61, "c2": 63}})}
    files.update({f"<{name}.txt>": emit_text(build_gate(name)) for name in GATES})
    return files


def _record(run) -> dict:
    """The sha256 of what `run()` prints, and the exit status it returns."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run()
    return {"sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(), "exit": status}


def _run_demo(path: Path) -> int:
    runpy.run_path(str(path), run_name="__main__")
    return 0


def outputs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for placeholder, text in input_files().items():
            path = paths[placeholder] = str(Path(tmp) / placeholder.strip("<>"))
            Path(path).write_text(text, encoding="utf-8")
        records = {"hexsynth " + " ".join(argv):
                   _record(lambda argv=argv: cli.main([paths.get(a, a) for a in argv]))
                   for argv in command_lines()}
    for demo in DEMOS:
        records[f"demos/{demo.name}"] = _record(lambda demo=demo: _run_demo(demo))
    return records


def test_outputs_match_the_goldens():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = outputs()
    changed = sorted(k for k in pinned.keys() | current.keys() if pinned.get(k) != current.get(k))
    assert not changed, f"outputs differ from tests/golden/sha256.json: {changed}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
