"""Static check: every name a package module imports is used.

One case per module of src/robust_peakload.  A name bound by `import` or
`from ... import` counts as used when the module reads it (a Name node, or
the string of an `__all__` entry), or when another package module imports
it from this one: a re-export such as robust.Infeasible, which the CLI
imports from robust though it lives in solver.  The check reads the source
with `ast` alone and imports nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robust_peakload"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """{bound name: line} of the module-level imports of tree."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    """The names tree reads, and the strings listed in its __all__."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names.update(elt.value for elt in node.value.elts)
    return names


def _imported_from(module):
    """The names other package modules import from robust_peakload.<module>."""
    names = set()
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.module == f"robust_peakload.{module}":
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = set(_imported(tree)) - _read(tree) - _imported_from(path.stem)
    assert not unused, {name: _imported(tree)[name] for name in sorted(unused)}


def test_reexports_count_as_used():
    # robust imports Infeasible and Unbounded from solver for the CLI.
    robust = _tree(PACKAGE / "robust.py")
    assert {"Infeasible", "Unbounded"} <= set(_imported(robust)) - _read(robust)
    assert {"Infeasible", "Unbounded"} <= _imported_from("robust")
