"""Static checks on the package source: imports, exports, callers, removed names.

Stdlib only: each module under src/cliffex is parsed with ast.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import cliffex
from cliffex import appell, axial, cli, clifford, exact, fueter, polycheck, series, verify

SOURCES = sorted(Path(cliffex.__file__).resolve().parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
# where a reference to a package name counts as a caller: not tests/, and
# not the re-exports in cliffex/__init__.py
SEARCHED = sorted(
    path
    for folder in ("src", "demos", "benchmarks")
    for path in (REPO / folder).rglob("*.py")
    if path.resolve() != Path(cliffex.__file__).resolve()
)
# declared oracles that only tests call, each with the reason it stays
ORACLES = {
    "diff_r": "BivariatePoly.diff_r, half of the composed-operator Vekua reference in test_integer_routes",
    "divide_r": "BivariatePoly.divide_r, the other half of that composed-operator reference",
    "appell_property_check": "the derivative rule for one n and K in one call, the public form of the suite",
    "cauchy_riemann_apply": "D applied to any coefficients, the reference is_monogenic is tested against",
    "value_at_zero": "BetaTerm at r = 0, read by the beta-operator acceptance criterion",
}


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


def public_definitions(tree: ast.Module) -> list:
    """(line, name) of each public module-level function and class, and of each public method."""
    nodes = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            nodes.append(node)
        if isinstance(node, ast.ClassDef):
            nodes += [item for item in node.body if isinstance(item, ast.FunctionDef)]
    return [(node.lineno, node.name) for node in nodes if not node.name.startswith("_")]


def referenced_names(tree: ast.AST, enclosing: frozenset = frozenset()) -> set:
    """Names read as an ast.Name, an ast.Attribute or an import alias.

    A reference inside the definition of the same name (a recursive
    call, say) does not count.
    """
    names = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        inner = enclosing
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = enclosing | {node.name}
        names |= referenced_names(node, inner)
    return names - enclosing


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


def test_every_public_definition_has_a_caller():
    referenced = set()
    for path in SEARCHED:
        referenced |= referenced_names(ast.parse(path.read_text(), str(path)))
    unreferenced = [
        (path.name, line, name)
        for path in SOURCES
        for line, name in public_definitions(ast.parse(path.read_text(), str(path)))
        if name not in referenced
    ]
    assert [item for item in unreferenced if item[2] not in ORACLES] == []
    # every allowlisted oracle exists and still has no caller outside the tests
    assert sorted({name for _, _, name in unreferenced}) == sorted(ORACLES)


def test_caller_detection():
    tree = ast.parse(
        "import os.path\nfrom .x import used as alias\n"
        "class C:\n    def method(self):\n        return self.other()\n"
        "    def other(self):\n        return 1\n    def _private(self):\n        pass\n"
        "def loop(k):\n    return loop(k - 1) + helper\n"
        "def helper():\n    return C\n"
    )
    assert public_definitions(tree) == [(3, "C"), (4, "method"), (6, "other"), (10, "loop"), (12, "helper")]
    names = referenced_names(tree)
    assert {"os", "path", "used", "other", "helper", "C", "self", "k"} <= names
    assert not names & {"alias", "method", "loop", "_private"}


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
        (cliffex, "UnitDirection"),
        (cliffex, "conjugate"),
        (clifford, "UnitDirection"),
        (clifford, "conjugate"),
        (axial, "_common_denominator"),
        (axial.BivariatePoly, "constant"),
        (axial.AxialPolynomial, "constant"),
        (exact, "Rational"),
        (cli, "RunConfig"),
        (cli, "_config_from_args"),
        (series.RecurrenceReport, "to_json_dict"),
        (axial, "_require_odd_dimension"),
        (series, "_require_odd_dimension"),
        (axial.BivariatePoly, "monomial"),
        (axial.BivariatePoly, "r_degrees"),
        (axial.BivariatePoly, "evaluate_even"),
        (clifford.Paravector, "from_components"),
        (polycheck.CliffordPolynomial, "__add__"),
        (polycheck.CliffordPolynomial, "__sub__"),
        (polycheck.CliffordPolynomial, "__neg__"),
        (appell, "_appell_row"),
        (appell, "_require_nonnegative"),
    ],
    ids=lambda item: getattr(item, "__name__", item),
)
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_shared_checks_have_one_home():
    assert "radius" not in {f.name for f in dataclasses.fields(series.SeriesSpec)}
    assert series.default_alpha is fueter.default_alpha is cliffex.default_alpha
    assert fueter.require_odd_dimension is exact.require_odd_dimension
    for module in (appell, fueter, series, verify):
        assert module.require_nonnegative is exact.require_nonnegative
    with pytest.raises(ValueError, match=r"^coefficient index must be nonnegative, got -1$"):
        exact.require_nonnegative("coefficient index", -1)
    exact.require_nonnegative("K", 0)
