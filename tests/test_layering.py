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

