"""Source hygiene: every imported name is used.

The scan covers the package modules and the test modules. A name counts
as used when the module reads it, or, for a test module, when a test
takes it as an argument (a pytest fixture). The package's ``__init__.py``
imports its names to re-export them, and ``__future__`` imports are
directives, so neither is scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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
