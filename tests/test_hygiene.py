"""Source hygiene: every imported name is used, and every private
module-level name of the package is read.

The import scan covers the package modules and the test modules. A name
counts as used when the module reads it, or, for a test module, when a
test takes it as an argument (a pytest fixture). The package's
``__init__.py`` imports its names to re-export them, and ``__future__``
imports are directives, so neither is scanned.

The private-name scan covers the package alone: a module-level function,
class or constant whose name starts with one underscore is private, and
some package module must read it (as a name or an attribute) besides the
statement that defines it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "gmoical").glob("*.py"))
FILES = sorted(
    [p for p in (ROOT / "src" / "gmoical").glob("*.py")
     if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("test_*.py")),
    key=lambda p: (p.parent.name, p.name))


def unused_imports(source):
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/"
                         f"{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    src = ("from __future__ import annotations\n\n"
           "import os\nimport sys as system\nfrom math import pi, tau\n\n"
           "def f(tmp_path):\n    return system.argv, tau\n")
    assert unused_imports(src) == [(3, "os"), (5, "pi")]
    assert unused_imports("from conftest import tmp_path\n\n"
                          "def test(tmp_path):\n    pass\n") == []


def unread_private_names(sources):
    """(module, line, name) of each private module-level name defined in
    the ``sources`` (module name to source text) that none of them
    reads."""
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.setdefault(name, (module, node.lineno))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted((*where, name) for name, where in defined.items()
                  if name not in read)


def test_every_private_name_is_read():
    assert unread_private_names(
        {p.stem: p.read_text() for p in PACKAGE}) == []


def test_the_scan_sees_an_unread_private_name():
    sources = {
        "a": ("import b\n\n_LIMIT = 3\n__all__ = []\n\n\n"
              "def _helper():\n    return b._shared()\n\n\n"
              "class _Unused:\n    pass\n\n\n"
              "def _dead():\n    return _LIMIT\n"),
        "b": ("from a import _helper\n\n\n"
              "def _shared():\n    return _helper\n"),
    }
    assert unread_private_names(sources) == [("a", 11, "_Unused"),
                                              ("a", 15, "_dead")]
