"""Shared fixtures: basis catalogs are expensive, so they are built once
per session and shared by the unit and acceptance suites."""

import itertools

import pytest

from spiderweb.basis import enumerate_basis
from spiderweb.generate import random_signature, random_web
from spiderweb.webs import Web, glue, mirror
from spiderweb.weights import W1, W2, dual

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


def dual_reverse_signature(sig, mode="a2"):
    """The signature a web must carry to glue onto one of signature sig:
    entry j is the dual of entry (-j mod n) of sig, matching the
    reflection used by gluing (base stays at position 0)."""
    n = len(sig)
    return tuple(dual(sig[(-j) % n], mode) for j in range(n))


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


# ----------------------------------------------------------------------
# generic web surgery, the reference for the library's in-place rewrites

def splice(w, remove_vertices, joints, closed=False):
    """Remove the given vertices, concatenating edges through the joints.

    ``joints`` pairs darts whose edges become one; every jointed dart is
    deleted, as is every dart of a removed vertex and (for closed=True)
    every boundary dart.  Fully deleted edges vanish; chains of joints
    that close up become free circles.  The w1 flow must agree across
    every joint.
    """
    rm = set(remove_vertices)
    deleted = set()
    for i in rm:
        deleted.update(w.vertices[i])
    jp = {}
    for a, b in joints:
        jp[a] = b
        jp[b] = a
        deleted.add(a)
        deleted.add(b)
    if closed:
        deleted.update(w.boundary)

    theta = {d: e for d, e in w.theta.items() if d not in deleted and e not in deleted}
    heads = {d for d in w.heads if d in theta}
    circles = w.circles
    new_edges = []
    visited = set()
    # open chains: start from surviving darts whose partner was deleted
    for e0 in list(w.theta):
        if e0 in deleted:
            continue
        d = w.theta[e0]
        if d not in deleted:
            continue
        # walk e0 -> d -> joint -> ... -> far end
        forward = d in w.heads  # the w1 flow runs along the walk
        visited.add(d)
        while True:
            assert d in jp, "dangling deleted dart %r" % (d,)
            d2 = jp[d]
            visited.add(d2)
            nxt = w.theta[d2]
            if w.mode == "a2":
                assert (nxt in w.heads) == forward, "flow breaks at a joint"
            if nxt not in deleted:
                new_edges.append((e0, nxt, forward))
                break
            visited.add(nxt)
            d = nxt
    # closed chains become circles
    for a in jp:
        if a in visited:
            continue
        d = a
        while d not in visited:
            visited.add(d)
            d2 = jp[d]
            visited.add(d2)
            d = w.theta[d2]
        circles += 1
    for a, b, forward in new_edges:
        theta[a] = b
        theta[b] = a
        if w.mode == "a2":
            heads.add(b if forward else a)
    verts = tuple(tri for i, tri in enumerate(w.vertices) if i not in rm)
    bd = () if closed else tuple(d for d in w.boundary if d not in deleted)
    return Web(w.mode, theta, verts, bd, heads, circles, check=False)


def web_fields(w):
    """Every stored field of w, theta in its insertion order."""
    return (w.mode, list(w.theta.items()), w.vertices, w.boundary, w.heads,
            w.circles)


def reference_glue(w, wp):
    """glue(w, wp) as one splice: both webs side by side with darts
    renamed by position (dart d of w to its index in w.theta, dart d of
    wp to len(w.theta) plus its index in wp.theta), leg k of w jointed to
    leg -k mod n of wp, and every boundary dart deleted."""
    def ren(offset, web):
        name = {d: offset + i for i, d in enumerate(web.theta)}
        return ({name[a]: name[b] for a, b in web.theta.items()},
                [tuple(name[d] for d in tri) for tri in web.vertices],
                [name[d] for d in web.boundary],
                {name[d] for d in web.heads})

    th1, v1, b1, h1 = ren(0, w)
    th2, v2, b2, h2 = ren(len(w.theta), wp)
    n = len(b1)
    base = Web(w.mode, {**th1, **th2}, v1 + v2, b1 + b2, h1 | h2,
               w.circles + wp.circles, check=False)
    joints = [(b1[k], b2[(-k) % n]) for k in range(n)]
    return splice(base, (), joints, closed=True)
