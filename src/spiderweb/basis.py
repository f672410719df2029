"""Minuscule paths, invariant dimensions, and the non-elliptic basis.

The non-elliptic webs with a fixed boundary signature form a basis of
the invariant space, one web per minuscule path: the path of a web is
its tag, the distance vector of its dual diskoid read from the base
region.  ``web_from_path`` grows the web of a path by Khovanov and
Kuperberg's algorithm, and ``enumerate_basis`` certifies each web by
its tag.
"""

from __future__ import annotations

from .weights import is_dominant, minuscule_orbit, rotate_signature, sub
from .webs import Web, WebError, rotate
from .diskoid import dual_diskoid, mu_vector
from .generate import Grower
from .skein import WebSum, normal_form


def minuscule_paths(signature, mode="a2", factor=None):
    """All dominant walks 0 = mu_0, ..., mu_n = 0 with mu_k - mu_{k-1} in
    the minuscule orbit of the k-th leg label lam_k, sorted by construction
    (walks extended in order, each by steps of increasing end weight); given
    factor, a dict from each walk to the product of factor(mu_{k-1}, lam_k,
    mu_k) over its steps bar the last, carried along its prefix."""
    walks, n = [(((0, 0),), 1)], len(signature)
    for k, lam in enumerate(signature, 1):
        steps, left, grown = sorted(minuscule_orbit(lam, mode)), n - k, []
        for p, c in walks:
            a, b = mu = p[-1]
            for da, db in steps:  # a step moves a + b by at most 1
                x, y = nu = a + da, b + db
                if x >= 0 and y >= 0 and x + y <= left:
                    grown.append((p + (nu,), c * factor(mu, lam, nu)
                                  if factor and left else c))
        walks = grown
    return dict(walks) if factor else [p for p, _c in walks]


def path_steps(signature, path, mode="a2"):
    """For each leg k, the index of mu_k - mu_(k-1) in its minuscule
    orbit; None unless the path is a minuscule path of the signature.
    One pass over the steps, with no enumeration."""
    path = tuple(path)
    if len(path) != len(signature) + 1 or not path[0] == path[-1] == (0, 0):
        return None
    out = []
    for lam, a, b in zip(signature, path, path[1:]):
        orbit = minuscule_orbit(lam, mode)
        if sub(b, a) not in orbit or not is_dominant(b):
            return None
        out.append(orbit.index(sub(b, a)))
    return out


def dim_invariants(signature, mode="a2"):
    """The invariant-space dimension |minuscule_paths(signature)|."""
    return len(minuscule_paths(signature, mode))


class BasisCatalog:
    """The non-elliptic basis for one boundary signature, tagged by
    minuscule paths."""

    def __init__(self, signature, mode, entries):
        self.signature = tuple(signature)
        self.mode = mode
        self.entries = sorted(entries, key=lambda t: t[0])
        self.by_path = {p: w for p, w, _k in self.entries}
        self.by_key = {k: (p, w) for p, w, k in self.entries}

    def __len__(self):
        return len(self.entries)

    def paths(self):
        return [p for p, _w, _k in self.entries]

    def webs(self):
        return [w for _p, w, _k in self.entries]

    def path_of(self, w):
        hit = self.by_key.get(w.canonical_key())
        if hit is None:
            raise WebError("web is not in the catalog")
        return hit[0]


def path_tag(w):
    """The minuscule path attached to a non-elliptic web: 0 followed by
    the base-region distance vector of its dual diskoid."""
    if not w.boundary:
        return ((0, 0),)
    return ((0, 0),) + mu_vector(dual_diskoid(w), 0)


def enumerate_basis(signature, mode="a2", max_boundary=12):
    """The non-elliptic basis: ``web_from_path`` of each minuscule path.
    Certificate: every web is non-elliptic and tagged by its own path
    (else ``WebError``), so the tags are the paths, one each, and the
    catalog is the whole basis."""
    if len(signature) > max_boundary:
        raise WebError("boundary budget exceeded (%d > %d)"
                       % (len(signature), max_boundary))
    entries = []
    for p in minuscule_paths(signature, mode):
        w = web_from_path(signature, p, mode)
        if path_tag(w) != p or not w.is_nonelliptic():
            raise WebError("the web grown from path %r is not its basis web"
                           % (p,))
        entries.append((p, w, w.canonical_key()))
    return BasisCatalog(signature, mode, entries)


def web_from_path(signature, path, mode="a2"):
    """The non-elliptic web tagged by a minuscule path, grown by Khovanov
    and Kuperberg's algorithm ("Web bases for sl(3) are not dual
    canonical", Pacific J. Math. 188, 1999).

    Leg k has the state 1, 0 or -1 as mu_k - mu_{k-1} is the first,
    second or third weight of its minuscule orbit.  Until the frontier
    is empty, the leftmost adjacent states a > b get a cap in A1 or when
    the flags differ and a + b = 0 (both go), a merge when the flags
    agree (one state a + b), and an H otherwise (the states swap).
    Raises ``WebError`` unless the path is a minuscule path of the
    signature."""
    g = Grower(mode, signature)
    steps = path_steps(signature, path, mode)
    if steps is None:
        raise WebError("path is not a minuscule path of this signature")
    state = [1 - i for i in steps]
    while state:
        i = next((i for i in range(len(state) - 1)
                  if state[i] > state[i + 1]), None)
        if i is None:
            raise WebError("growth stuck at states %r" % (state,))
        a, b = state[i], state[i + 1]
        same = g.frontier[i][1] == g.frontier[i + 1][1]
        if mode == "a1" or (not same and a + b == 0):
            g.cap(i)
            del state[i:i + 2]
        elif same:
            g.merge(i)
            state[i:i + 2] = [a + b]
        else:
            g.aitch(i)
            state[i:i + 2] = [b, a]
    return g.build()


def expand_in_basis(s, catalog=None):
    """Exact coordinates of a web or WebSum in the non-elliptic basis,
    as a map from minuscule path to Laurent coefficient."""
    if isinstance(s, Web):
        s = WebSum.single(s)
    nf = normal_form(s)
    sig = None
    for w in nf.terms:
        sig = w.boundary_signature()
        break
    if catalog is None:
        if sig is None:
            return {}
        catalog = enumerate_basis(sig, s.mode)
    out = {}
    for w, c in nf.items():
        out[catalog.path_of(w)] = c
    return out


def rotated_catalog_check(catalog, i=1):
    """Rotation by i maps the catalog onto the rotated signature's
    catalog with tags transformed mu -> mu^(i); returns the rotated
    catalog (raises on any mismatch).

    The rotated catalog is certified without a second enumeration: the
    rotated webs are non-elliptic with pairwise-distinct tags, and the
    tags exhaust the rotated signature's minuscule paths, so they are
    the whole basis."""
    sig2 = rotate_signature(catalog.signature, i)
    entries2 = []
    for p, w, _k in catalog.entries:
        w2 = rotate(w, i)
        if w2.boundary_signature() != sig2 or not w2.is_nonelliptic():
            raise WebError("rotation left the catalog")
        p2 = path_tag(w2)
        expect = ((0, 0),) + mu_vector(dual_diskoid(w), i)
        if p2 != expect:
            raise WebError("rotated tag differs from mu^(%d)" % i)
        entries2.append((p2, w2, w2.canonical_key()))
    tagset = {t for t, _w, _k in entries2}
    if len(tagset) != len(entries2) or \
            tagset != set(minuscule_paths(sig2, catalog.mode)):
        raise WebError("rotated tags are not a bijection onto the paths")
    return BasisCatalog(sig2, catalog.mode, entries2)
