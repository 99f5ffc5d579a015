"""Every name a library or test module imports is used there or
exported by its __all__, and every module-level _helper of a test file
is used in that file, so no import or helper outlives the code that
needed it. Only four test modules sweep answers against the oracle's
distances; every other one leaves that to verify."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted((TESTS.parent / "src" / "sigraph").glob("*.py")) + sorted(TESTS.glob("*.py"))
# verify's tests, the oracle's own, the count contract and the acceptance spec
ORACLE_SWEEPERS = {"test_verify.py", "test_oracle.py", "test_bounds.py", "test_acceptance.py"}


def unused_imports(source: str) -> list[str]:
    """Names that source imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def unused_helpers(source: str) -> list[str]:
    """Module-level functions, classes and assignments named _x that
    nothing in source reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            defined.update((t.id, node.lineno) for t in node.targets if isinstance(t, ast.Name))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in sorted(defined.items())
            if name.startswith("_") and name not in read]


def oracle_sweeps(source: str) -> list[int]:
    """Lines of source that call dists_from, the oracle's BFS that a
    sweep of spath answers needs."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "dists_from"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_test_helpers(path):
    assert unused_helpers(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .errors import GraphInputError, QueryRangeError as QRE\n"
        "from .graph import Structure\n"
        "__all__ = ['Structure']\n"
        "print(sys.argv, GraphInputError)\n"
    )
    assert unused_imports(source) == ["QRE (line 3)", "os (line 2)"]


def test_the_guard_sees_an_unused_helper():
    source = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return _used()\n"
        "class _Counter:\n    pass\n"
        "_SPAN = 64\n_LIMIT = 2\n"
        "def test_it():\n    assert _LIMIT\n"
    )
    assert unused_helpers(source) == ["_Counter (line 5)", "_SPAN (line 7)", "_dead (line 3)"]


def test_only_verify_sweeps_the_oracle():
    sweeps = {path.name: oracle_sweeps(path.read_text(encoding="utf-8"))
              for path in TESTS.glob("*.py") if path.name not in ORACLE_SWEEPERS}
    assert {name: lines for name, lines in sweeps.items() if lines} == {}


def test_the_guard_sees_an_oracle_sweep():
    source = (
        "def sweep(g, o):\n"
        "    dists = o.dists_from(1)\n"
        "    note = 'o.dists_from(2)'\n"
        "    return dists, OracleGraph.dists_from(o, 3), dists_from\n"
    )
    assert oracle_sweeps(source) == [2, 4]
