"""Shared fixtures: basis catalogs are expensive, so they are built once
per session and shared by the unit and acceptance suites."""

import itertools

import pytest

from spiderweb.basis import enumerate_basis
from spiderweb.generate import random_signature, random_web
from spiderweb.webs import Web, glue, mirror
from spiderweb.weights import W1, W2

SIG12 = (W1, W2, W2, W1) * 3

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

MU = ((0, 0), (1, 0), (1, 1), (1, 2), (0, 3), (1, 3), (2, 2), (3, 1),
      (3, 0), (2, 1), (1, 1), (0, 1), (0, 0))
NU = ((0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (1, 0), (0, 0), (0, 1),
      (0, 0), (1, 0), (0, 0), (0, 1), (0, 0))


def all_signatures(max_n=8):
    for n in range(1, max_n + 1):
        yield from itertools.product((W1, W2), repeat=n)


def is_gluable(sig):
    n1 = sum(1 for x in sig if x == W1)
    return (2 * n1 - len(sig)) % 3 == 0


@pytest.fixture(scope="session")
def catalogs_le8():
    """Catalog for every signature of length <= 8 (empty when no webs
    exist, i.e. nonzero mod-3 charge)."""
    return {sig: enumerate_basis(sig) for sig in all_signatures(8)}


@pytest.fixture(scope="session")
def catalog12():
    return enumerate_basis(SIG12)


def random_closed_web(rng, max_legs=6, max_vertices=6):
    """glue(a, mirror(b)) for random webs a, b of one random signature;
    sometimes with a second such web beside it (glue of two closed webs
    is their disjoint union) and sometimes with free circles."""
    def pairing():
        sig = random_signature(rng, max_legs=max_legs)
        a = random_web(sig, rng, max_vertices=max_vertices)
        b = random_web(sig, rng, max_vertices=max_vertices)
        return glue(a, mirror(b))

    g = pairing()
    if rng.random() < 0.3:
        g = glue(g, pairing())
    if rng.random() < 0.3:
        g = Web(g.mode, g.theta, g.vertices, g.boundary, g.heads,
                g.circles + rng.randrange(1, 3), check=False)
    return g


def relabelled(w, rng):
    """w with every dart renamed by a random bijection, the dart and
    vertex lists shuffled and each vertex triple rotated cyclically."""
    names = list(w.theta)
    rng.shuffle(names)
    m = {d: ("x", k) for k, d in enumerate(names)}
    verts = []
    for tri in w.vertices:
        i = rng.randrange(3)
        verts.append(tuple(m[d] for d in tri[i:] + tri[:i]))
    rng.shuffle(verts)
    return Web(w.mode, {m[d]: m[w.theta[d]] for d in names}, verts,
               [m[d] for d in w.boundary], {m[d] for d in w.heads},
               w.circles)
