"""The package's import layers, read statically from each module's AST,
imports inside function bodies included."""
import ast
from pathlib import Path

import pytest

import hexsynth

SRC = Path(hexsynth.__file__).parent


def imports(path: Path) -> set[str]:
    """What the module at `path` imports anywhere in its source: a package
    module as 'hexsynth.<name>', any other by its top-level name ('numpy')."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            # relative: `from .x import y` names x, `from . import x` names x
            names = [node.module] if node.module else [alias.name for alias in node.names]
            found |= {f"hexsynth.{name.split('.')[0]}" for name in names}
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".")
            found.add(".".join(parts[:2]) if parts[0] == "hexsynth" else parts[0])
    return found


def test_simulator_is_a_leaf_over_circuit():
    package = {name for name in imports(SRC / "simulator.py") if name.startswith("hexsynth")}
    assert package == {"hexsynth.circuit"}


def test_library_reads_only_circuit():
    # the AX name table lives in this bottom layer, read by rules, cli and the tests
    package = {name for name in imports(SRC / "library.py") if name.startswith("hexsynth")}
    assert package == {"hexsynth.circuit"}


def test_rules_reads_only_the_core_layers():
    package = {name for name in imports(SRC / "rules.py") if name.startswith("hexsynth")}
    assert package == {"hexsynth.circuit", "hexsynth.library", "hexsynth.simulator"}


@pytest.mark.parametrize("module, layers", [("layout", {"circuit", "library"}),
                                             ("transpiler", {"circuit", "layout"}),
                                             ("reports", {"library", "rules", "transpiler"})])
def test_upper_layers_read_only_their_inputs(module, layers):
    package = {name for name in imports(SRC / f"{module}.py") if name.startswith("hexsynth")}
    assert package == {f"hexsynth.{layer}" for layer in layers}


@pytest.mark.parametrize("module", ["circuit", "library", "layout", "transpiler"])
def test_numpy_free_layers(module):
    assert "numpy" not in imports(SRC / f"{module}.py")



UNCHECKED = "_unchecked_circuit"


def unchecked_users() -> set[tuple[str, str]]:
    """(module, top-level function) for every use of `circuit._unchecked_circuit`
    in the package: a call, or any other read of the name, since an alias
    would hide a call.  A use outside a function is owned by '<module>'."""
    users = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            if isinstance(top, ast.FunctionDef) and top.name == UNCHECKED:
                continue  # its definition
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == UNCHECKED
                        or isinstance(node, ast.Attribute) and node.attr == UNCHECKED):
                    users.add((path.stem, owner))
                elif isinstance(node, ast.ImportFrom) and any(
                        alias.name == UNCHECKED and alias.asname for alias in node.names):
                    users.add((path.stem, "<renamed import>"))
    return users


def test_only_the_four_passes_build_unchecked_circuits():
    # they build their output from parts already checked; everything else
    # goes through Circuit(...) and its check
    assert unchecked_users() == {("circuit", "parse_text"), ("transpiler", "lower"),
                                 ("transpiler", "peephole"), ("transpiler", "route_naive")}


ORDERING = {"sorted", "sort", "argsort", "lexsort", "unique"}


def ordering_calls(path: Path) -> set[tuple[str, str]]:
    """(top-level owner, callee) for every call in the module that sorts:
    `sorted(...)`, or a `sort`, `argsort`, `lexsort` or `unique` attribute
    (`np.argsort`, `a.sort()`, `np.unique`, which sorts its input); a call
    outside a function or class is owned by '<module>'."""
    calls = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name in ORDERING:
                    calls.add((owner, name))
    return calls


def test_search_order_is_set_once():
    # a SearchQuery stores its alphabets in enumeration order, and the search
    # yields hits in that order: nothing else in rules sorts
    assert {owner for owner, _ in ordering_calls(SRC / "rules.py")} == {"SearchQuery"}


BLAS = {"matmul", "dot", "vdot", "inner", "tensordot"}


def blas_calls(func: ast.FunctionDef) -> list[str]:
    """What in the function's body may call BLAS: each `@` (also `@=`),
    each call of a BLAS-backed name (`np.matmul`, `np.dot`, `a.dot(b)`, …),
    and each `einsum` given `optimize`, which hands its pairs to
    `tensordot`; a plain `np.einsum` loops in C."""
    found = []
    for node in ast.walk(func):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name in BLAS or name == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append(name)
    return found


def reached(path: Path, root: str) -> dict[str, ast.FunctionDef]:
    """`root` and every top-level function of the module that it names
    (calls, or passes on), directly or through another such function."""
    funcs = {top.name: top for top in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(top, ast.FunctionDef)}
    seen, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name in funcs and name not in seen:
            seen[name] = funcs[name]
            todo += [node.id for node in ast.walk(funcs[name]) if isinstance(node, ast.Name)]
    return seen


def test_the_search_path_calls_no_blas():
    # a BLAS call on a few hundred rows woke OpenBLAS's thread pool, which
    # cost milliseconds a call with BLAS threads unpinned; the row fill, the
    # rule and the grader it calls take every product term by term or by
    # einsum
    fill = reached(SRC / "rules.py", "search")
    assert {"_row_table", "_middles", "_theta_index", "_grade"} <= set(fill)
    simulator = {**reached(SRC / "simulator.py", "equivalence_levels"),
                 **reached(SRC / "simulator.py", "target_bits")}
    assert {name: blas_calls(func) for name, func in {**fill, **simulator}.items()
            if blas_calls(func)} == {}
