"""Every module-level private function or class of the library is reached
from its public code.  `test_imports.py` asks that each private name be
referenced somewhere outside its own definition; this asks that the
reference be reached: from a public definition or a module-level
statement, through the names that each reached definition reads.  A
helper that only the tests, or only other unreached helpers, call fails."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spiderweb"


def reads(node):
    """The names a node reads: names and attribute names, not imports."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached_helpers(sources):
    """(file, name, line) for each module-level private function or class
    in the sources ({file: text}) that no public code reaches.  Names are
    matched across modules by spelling alone; a private module-level
    assignment reads its value only once its name is reached."""
    body, roots, helpers = {}, set(), []
    for path, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if len(names) != len(targets):
                    names = []
            else:
                names = []
            if names and all(n.startswith("_") and not n.startswith("__")
                             for n in names):
                for n in names:
                    body.setdefault(n, set()).update(reads(node) - {n})
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    helpers.append((path, names[0], node.lineno))
            else:
                roots |= reads(node)
    reached, todo = set(), list(roots)
    while todo:
        n = todo.pop()
        if n not in reached:
            reached.add(n)
            todo += body.get(n, ())
    return [h for h in helpers if h[1] not in reached]


def test_unreached_helper_detection():
    sources = {
        "a.py": "def public():\n    return _used()\n\n"
                "def _used():\n    return _B\n\n"
                "class _B:\n    def _m(self):\n        return _in_method()\n\n"
                "def _in_method():\n    pass\n\n"
                "def _loop_a():\n    return _loop_b()\n\n"
                "def _loop_b():\n    return _loop_a()\n\n"
                "_TABLE = {'x': _tabled}\n\n"
                "def _tabled():\n    pass\n\n"
                "TABLE = {'y': _listed}\n\n"
                "def _listed():\n    pass\n",
        "b.py": "from a import _gone, _loop_a\n\n"
                "def _gone():\n    '''_used_too'''\n"}
    assert unreached_helpers(sources) == [
        ("a.py", "_loop_a", 14), ("a.py", "_loop_b", 17),
        ("a.py", "_tabled", 22), ("b.py", "_gone", 3)]


def test_library_helpers_are_reached_from_public_code():
    sources = {str(p.relative_to(SRC)): p.read_text()
               for p in sorted(SRC.rglob("*.py"))}
    assert sum(isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               for text in sources.values()
               for node in ast.parse(text).body) > 60
    assert unreached_helpers(sources) == []
