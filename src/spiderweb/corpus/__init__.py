"""The shipped corpus: named webs with expected-value sidecars.

Each entry is a pair of files, NAME.web (canonical web text) and
NAME.json (frozen expected values recomputed by the test suite).
"""

from __future__ import annotations

import json
from importlib import resources

from ..webs import parse_web

__all__ = ["names", "load_web", "web_text", "expected"]


def _root():
    return resources.files(__name__)


def names():
    """Sorted names of all corpus entries."""
    return sorted(p.name[:-4] for p in _root().iterdir()
                  if p.name.endswith(".web"))


def web_text(name):
    """The raw .web text of a corpus entry."""
    return (_root() / (name + ".web")).read_text()


def load_web(name):
    """The parsed corpus web."""
    return parse_web(web_text(name))


def expected(name):
    """The frozen expected values of a corpus entry, as a dict."""
    return json.loads((_root() / (name + ".json")).read_text())
