"""Static checks on the package source: imports, exports, removed names.

Stdlib only: each module under src/cliffex is parsed with ast.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import cliffex
from cliffex import axial, cli, clifford, exact, fueter, series

SOURCES = sorted(Path(cliffex.__file__).resolve().parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list:
    """Names a module imports but never reads, and does not list in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_package_has_modules_to_check():
    assert {path.stem for path in SOURCES} >= {"__init__", "axial", "cli", "series"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_has_an_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_detection():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom typing import Iterable, Mapping\n"
        "from .x import a as b\n"
        "__all__ = ['b']\n"
        "def f(m: Mapping) -> int:\n    return math.pi\n"
    )
    assert unused_imports(tree) == [(3, "os"), (4, "Iterable")]


def test_every_exported_name_resolves_once():
    names = cliffex.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cliffex, name)]
    assert missing == []


@pytest.mark.parametrize(
    "owner, name",
    [
        (cliffex, "geometric_product"),
        (cliffex, "omega"),
        (cliffex, "Rational"),
        (clifford, "geometric_product"),
        (clifford, "omega"),
        (clifford.UnitDirection, "square_scalar"),
        (exact, "Rational"),
        (cli, "RunConfig"),
        (cli, "_config_from_args"),
        (series.RecurrenceReport, "to_json_dict"),
        (axial, "_require_odd_dimension"),
        (series, "_require_odd_dimension"),
    ],
    ids=lambda item: getattr(item, "__name__", item),
)
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_shared_checks_have_one_home():
    assert "radius" not in {f.name for f in dataclasses.fields(series.SeriesSpec)}
    assert series.default_alpha is fueter.default_alpha is cliffex.default_alpha
    assert fueter.require_odd_dimension is exact.require_odd_dimension
