"""Every name a library or test module imports is used there or
exported by its __all__, and every module-level _helper of a test file
is used in that file, so no import or helper outlives the code that
needed it. Only four test modules sweep answers against the oracle's
distances; every other one leaves that to verify. Only serial.py looks
at the host's byte order or packs fields with struct, and only its le
and from_le read the byte order it found. Only from_bytes and the query
command load a circular blob without its degree table."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sigraph"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = SOURCES + sorted(TESTS.glob("*.py"))
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


def byte_order_code(source: str) -> list[str]:
    """Lines of source that read the host's byte order, byteswap an
    array or import struct."""
    words = ("sys.byteorder", ".byteswap(", "import struct", "from struct import")
    return [f"{word} (line {i})" for i, line in enumerate(source.splitlines(), 1)
            for word in words if word in line]


def readers(source: str, name: str) -> list[str]:
    """The functions of source that read name, as a variable or as an
    attribute, "<module>" for a read outside every function."""
    tree = ast.parse(source)
    inside = {
        id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    return sorted({
        inside.get(id(node), "<module>") for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and name in (getattr(node, "id", None), getattr(node, "attr", None))
    })


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


def test_only_serial_knows_the_byte_order():
    found = {path.name: byte_order_code(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "serial.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert readers((SRC / "serial.py").read_text(encoding="utf-8"), "_SWAP") == ["from_le", "le"]


def test_the_guard_sees_byte_order_code():
    source = (
        "import struct, sys\n"
        "from struct import pack\n"
        "_SWAP = sys.byteorder == 'big'\n"
        "def le(a):\n    return a if not _SWAP else a.byteswap()\n"
        "def text(a):\n    byteswap = a.byteswap\n    return _SWAP and byteswap\n"
        "FLIP = not _SWAP\n"
    )
    assert byte_order_code(source) == [
        "import struct (line 1)", "from struct import (line 2)",
        "sys.byteorder (line 3)", ".byteswap( (line 5)",
    ]
    assert readers(source, "_SWAP") == ["<module>", "le", "text"]


def test_only_the_query_command_loads_without_the_table():
    found = {path.name: readers(path.read_text(encoding="utf-8"), "_load_tableless")
             for path in SOURCES}
    assert {name: fns for name, fns in found.items() if fns} == {
        "circular.py": ["from_bytes"], "cli.py": ["cmd_query"],
    }


def test_the_guard_sees_a_tableless_load():
    source = (
        "from .circular import CircularArcGraph\n"
        "def cmd_query(args):\n    return CircularArcGraph._load_tableless(args.data)[0]\n"
        "def load(data):\n    loader = CircularArcGraph._load_tableless\n    return loader(data)\n"
        "def _load_tableless(data):\n    return data\n"
        "def note():\n    return '_load_tableless'\n"
        "FAST = _load_tableless(b'')\n"
    )
    assert readers(source, "_load_tableless") == ["<module>", "cmd_query", "load"]
