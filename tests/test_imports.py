"""Every module of the package reads every name it imports, and none
uses ``assert``.

A refactor that moves work between functions easily leaves an import
behind.  This guard parses each module of ``src/nlpoly`` and fails on an
imported name that the module never reads.  ``__init__.py`` is exempt:
its imports are the package's re-exports.

``python -O`` strips ``assert`` statements, so the package states its
invariants as checks that raise ``ContractViolation`` instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nlpoly"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_reports_unread_imports():
    source = "import os.path\nimport sys\nfrom .x import a, b as c\nprint(a, sys.argv)\n"
    assert unused_imports(source) == ["c", "os"]


def assert_lines(source: str) -> list:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_guard_reports_asserts():
    assert assert_lines("x = 1\nif x:\n    assert x, 'never'\n") == [3]
