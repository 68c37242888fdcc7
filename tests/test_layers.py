"""The package's import layers: one leaf data model, and no loop code below it.

``model`` holds every type a susim document holds and imports only
``errors`` and ``linalg``.  The certificate checker, the oracles, the
instance generators and the codec build on it and on the numeric
primitives, never on the decision loop (the scan, the forest, the
refinement, the solver or the feature reading), so that the checker and
the oracles are independent of the loop by construction.

The edges are read from the source with ``ast``: every import of a package
module counts, also one under ``if TYPE_CHECKING:`` or inside a function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "susim"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
LOOP = {"structure", "graph", "refine", "solver", "canonical"}


def imported_modules(name: str, package: Path = PACKAGE) -> set[str]:
    """Package modules that ``<package>/<name>.py`` imports directly."""
    found = set()
    for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "susim":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            # ``from . import x`` and ``from susim import x`` import module x.
            found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "susim" and len(parts) > 1:
                    found.add(parts[1])
    return found & MODULES


def transitive_imports(name: str) -> set[str]:
    seen: set[str] = set()
    todo = [name]
    while todo:
        for dep in imported_modules(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen - {name}


def test_model_is_a_leaf_over_the_numeric_primitives():
    assert imported_modules("model") == {"errors", "linalg"}
    assert transitive_imports("model") == {"errors", "linalg"}


@pytest.mark.parametrize("name", ["certcheck", "oracles", "instances", "serialize"])
def test_module_imports_no_loop_code(name):
    assert not transitive_imports(name) & LOOP


def test_the_reader_sees_guarded_and_local_imports(tmp_path):
    # A guarded import is an edge too: a cycle hidden behind TYPE_CHECKING
    # still ties the modules together.
    (tmp_path / "structure.py").write_text(
        "from typing import TYPE_CHECKING\n"
        "from .linalg import Matrix\n"
        "if TYPE_CHECKING:\n"
        "    from .graph import PrPaths\n"
        "def f():\n"
        "    from susim import refine\n"
    )
    assert imported_modules("structure", tmp_path) == {"linalg", "graph", "refine"}
