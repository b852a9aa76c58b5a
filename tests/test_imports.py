"""Every module of the package reads every name it imports, every
module-level private function is read somewhere in the package, and no
module uses ``assert``.

A refactor that moves work between functions easily leaves an import or
a private helper behind.  This guard parses each module of
``src/nlpoly`` and fails on an imported name that the module never
reads, and on a ``_private`` function that no module reads.
``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.

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


def _names_read(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def unread_private_functions(sources: dict) -> list:
    """``module:function`` for each module-level ``_private`` function of
    ``sources`` (module name -> text) that no other top-level statement
    of any of them reads, by name or as an attribute.  A helper that only
    calls itself is unread."""
    statements = [
        (name, node) for name, text in sources.items() for node in ast.parse(text).body
    ]
    reads = [(node, _names_read(node)) for _, node in statements]
    return sorted(
        f"{name}:{node.name}"
        for name, node in statements
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for other, names in reads if other is not node)
    )


def test_package_reads_every_private_function():
    assert unread_private_functions({p.name: p.read_text() for p in SOURCES}) == []


def test_guard_reports_unread_private_functions():
    sources = {
        "a.py": (
            "def _used():\n    pass\n\n"
            "def _called_as_attribute():\n    pass\n\n"
            "def _recursive(n):\n    return n and _recursive(n - 1)\n\n"
            "def __getattr__(name):\n    pass\n\n"
            "class C:\n    def _method(self):\n        pass\n"
        ),
        "b.py": "from .a import _used\nfrom . import a\n\n_used()\na._called_as_attribute()\n",
    }
    assert unread_private_functions(sources) == ["a.py:_recursive"]
    sources["b.py"] = "from . import a\n\na._called_as_attribute()\n"
    assert unread_private_functions(sources) == ["a.py:_recursive", "a.py:_used"]


def assert_lines(source: str) -> list:
    """Line numbers of the ``assert`` statements in ``source``."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []


def test_guard_reports_asserts():
    assert assert_lines("x = 1\nif x:\n    assert x, 'never'\n") == [3]
