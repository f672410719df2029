"""Every name a library module imports is used in that module, and no
library module imports numpy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "spiderweb"


def unused_imports(source):
    """(line, name) for each imported name the module never reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_unused_import_detection():
    src = ("from __future__ import annotations\nimport os, sys as system\n"
           "import a.b\nfrom .m import f, g as h\nsystem.exit(f(a.b))\n")
    assert unused_imports(src) == [(2, "os"), (4, "h")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source):
    """The top-level names of every module the source imports, lazy
    imports inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module and \
                not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_module_detection():
    src = ("import numpy.linalg as la\nfrom .oracle import np\n"
           "def f():\n    from numpy import zeros\n    import os\n")
    assert imported_modules(src) == {"numpy", "os"}


def test_no_module_imports_numpy():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    assert [p.name for p in paths
            if "numpy" in imported_modules(p.read_text())] == []
