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


def private_definitions(sources):
    """{(file, name, line): used} for each single-underscore function,
    method or class in the sources ({file: text}).  It is used when some
    ast.Name, ast.Attribute or import in the sources names it outside its
    own definition; docstrings and comments do not count."""
    defs, refs = [], []
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if node.name.startswith("_") and \
                        not node.name.startswith("__"):
                    defs.append((path, node.name, node.lineno,
                                 node.end_lineno))
            elif isinstance(node, ast.Name):
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.attr, node.lineno))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs += [(path, part, node.lineno) for a in node.names
                         for part in a.name.split(".")]
    return {(path, name, first): any(
                n == name and not (p == path and first <= line <= last)
                for p, n, line in refs)
            for path, name, first, last in defs}


def test_private_definition_detection():
    sources = {
        "a.py": "def _used():\n    pass\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "class _C:\n    def _m(self):\n        return self._m()\n\n"
                "    def __init__(self):\n        '''_gone'''\n"
                "        _used()\n\n"
                "def _gone():\n    pass\n",
        "b.py": "from a import _C\n"}
    assert private_definitions(sources) == {
        ("a.py", "_used", 1): True, ("a.py", "_recursive", 4): False,
        ("a.py", "_C", 7): True, ("a.py", "_m", 8): False,
        ("a.py", "_gone", 15): False}


def test_no_test_only_helpers_in_the_library():
    # every private function, method or class of the library has a
    # caller in the library itself, not only in the tests
    sources = {str(p.relative_to(SRC)): p.read_text()
               for p in sorted(SRC.rglob("*.py"))}
    defs = private_definitions(sources)
    assert len(defs) > 80
    assert [key for key, used in defs.items() if not used] == []
