"""Skein reduction of webs to non-elliptic normal form.

Reduction applies the defining local relations with exact Laurent
coefficients:

    A1 circle   ->  (-q - q^-1) * (web minus the circle)
    A2 loop     ->  (q^2 + 1 + q^-2) * (web minus the loop)
    A2 bigon    ->  (-q - q^-1) * (edge-smoothed web)
    A2 square   ->  (one smoothing) + (other smoothing)

Every relation strictly decreases (vertex count, edge count + circles)
lexicographically, so reduction terminates.  The relations are
consistent and the non-elliptic webs form a basis (Kuperberg, "Spiders
for rank 2 Lie algebras", Comm. Math. Phys. 180, 1996), so the order in
which sites are reduced cannot change a normal form or a closed web's
value; the "alternate" strategy is kept to cross-check this.

A reduction copies its web once into a mutable dart map and rewrites
circles, loops and bigons there in place; a square copies the map once
for its second smoothing.  Only a smoothing that reaches another
square, where two branches can meet, becomes a ``Web`` keyed by
canonical key in the memo of one reduction, and a leaf becomes a
``Web`` once, as its term.  ``find_elliptic`` and ``rewrite`` are the
one-step API on the same map.
"""

from __future__ import annotations

import json

from .laurent import Laurent, ONE, ZERO, LOOP_A1, LOOP_A2, BIGON_A2
from .webs import (Web, WebError, empty_web, glue, join_chains,
                   serialize_web)


class WebSum:
    """A formal Laurent-coefficient combination of webs on one boundary."""

    __slots__ = ("mode", "terms")

    def __init__(self, mode, terms=()):
        self.mode = mode
        self.terms = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for w, c in items:
            self._bump(w, c)

    @classmethod
    def single(cls, w, coeff=ONE):
        return cls(w.mode, [(w, coeff)])

    def _bump(self, w, c):
        if isinstance(c, int):
            c = Laurent.const(c)
        cur = self.terms.get(w)
        new = c if cur is None else cur + c
        if new:
            self.terms[w] = new
        elif cur is not None:
            del self.terms[w]

    def items(self):
        return self.terms.items()

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        out = WebSum(self.mode, self.terms)
        for w, c in other.terms.items():
            out._bump(w, c)
        return out

    def scale(self, c):
        return WebSum(self.mode, [(w, c0 * c) for w, c0 in self.terms.items()])

    def __eq__(self, other):
        return (isinstance(other, WebSum) and self.mode == other.mode
                and self.terms == other.terms)

    def __repr__(self):
        return "<WebSum %s: %d terms>" % (self.mode, len(self.terms))


def websum_to_text(s):
    """Serialize as JSON: a list of (coefficient string, .web text) pairs."""
    return json.dumps({
        "mode": s.mode,
        "terms": [[str(c), serialize_web(w)] for w, c in
                  sorted(s.items(), key=lambda t: t[0].canonical_key())],
    }, indent=1)


# ----------------------------------------------------------------------
# the dart map

class _DartMap:
    """A web under reduction, edited in place.  ``theta`` pairs the live
    darts.  The input's vertices, their counterclockwise successors
    ``sigma`` and its flow heads do not change on the darts a rewrite
    keeps, so they are shared.  ``small`` holds the orbit of each
    internal face of degree below six, keyed by its dart set: a rewrite
    changes only the faces that meet the darts it deletes, and the faces
    it makes run through the ends of the edges it joins."""

    __slots__ = ("mode", "boundary", "vertices", "heads", "circles",
                 "theta", "sigma", "small")

    def __init__(self, w):
        self.mode, self.boundary, self.circles = w.mode, w.boundary, w.circles
        self.vertices, self.heads = w.vertices, w.heads
        self.theta = dict(w.theta)
        self.sigma = {d: tri[(i + 1) % 3]
                      for tri in w.vertices for i, d in enumerate(tri)}
        self.small, seen = {}, set()
        for d in self.sigma:
            if d not in seen:
                seen.update(self._grow(d))

    def web(self):
        """The web this map holds; the shared empty web when it is empty."""
        theta = self.theta
        if not theta and not self.circles:
            return empty_web(self.mode)
        return Web(self.mode, theta,
                   [tri for tri in self.vertices if tri[0] in theta],
                   self.boundary, [d for d in self.heads if d in theta],
                   self.circles, check=False)

    def _grow(self, d):
        """Walk the face to the right of dart d until d or a boundary dart,
        record it if it is internal and of degree below six, and return
        the darts walked."""
        theta, sigma = self.theta, self.sigma
        orbit = [d]
        x = sigma.get(theta[d]) if d in sigma else None
        while x is not None and x != d:
            orbit.append(x)
            x = sigma.get(theta[x])
        if x == d and len(orbit) < 6:
            self.small[frozenset(orbit)] = tuple(orbit)
        return orbit

    def site(self, strategy):
        """Free circles first, then the internal face of least degree; the
        "alternate" strategy takes the largest face, circles last."""
        if strategy not in ("default", "alternate"):
            raise ValueError("unknown strategy %r" % (strategy,))
        faces = self.small.values()
        if self.circles and (strategy == "default" or not faces):
            return ("circle",)
        if not faces:
            return None
        pick = min if strategy == "default" else max
        return ("face", pick(faces, key=len))

    def rewrite(self, site):
        """Apply one relation at a site of this map, in place: returns its
        terms as (map, Laurent) pairs, this map first.  A square copies
        the map once for its second smoothing."""
        if site[0] == "circle":
            self.circles -= 1
            return [(self, LOOP_A1 if self.mode == "a1" else LOOP_A2)]
        face = site[1]
        if len(face) == 2:
            self.splice(face, ((0, 1),))
            return [(self, BIGON_A2)]
        other = object.__new__(_DartMap)
        for slot in self.__slots__:
            setattr(other, slot, getattr(self, slot))
        other.theta, other.small = dict(self.theta), dict(self.small)
        self.splice(face, ((0, 1), (2, 3)))
        other.splice(face, ((1, 2), (3, 0)))
        return [(self, ONE), (other, ONE)]

    def splice(self, face, joints):
        """Delete the vertices of an internal face and join its external
        darts e_i = sigma(f_i) in the given pairs of indices: the edge
        beyond each joint runs on to the far end of its chain of joints,
        and a chain that closes up is a free circle.  The w1 flow of a
        valid web agrees across every joint, so no kept dart changes its
        head."""
        theta, sigma, small = self.theta, self.sigma, self.small
        ext = [sigma[f] for f in face]
        outer = {e: theta[e] for e in ext}
        jp = {}
        for i, j in joints:
            jp[ext[i]], jp[ext[j]] = ext[j], ext[i]
        gone = {x for f in face for x in (f, sigma[f], sigma[sigma[f]])}
        for d in gone:
            del theta[d]
        for key in [key for key in small if not key.isdisjoint(gone)]:
            del small[key]

        ends, circles = join_chains(jp, outer,
                                    [e for e in ext if outer[e] in theta])
        self.circles += circles
        for e, y in ends.items():
            theta[outer[e]], theta[y] = y, outer[e]
        for e, y in ends.items():
            self._grow(outer[e])
            self._grow(y)


# ----------------------------------------------------------------------
# one-step API

def find_elliptic(w, strategy="default"):
    """A reducible site: ("circle",) or ("face", darts), or None.  The
    default strategy removes free circles first, then an internal face of
    smallest degree (bigons before squares); the "alternate" strategy,
    kept to cross-check it, takes the largest, circles last."""
    return _DartMap(w).site(strategy)


def rewrite(w, site):
    """Apply one relation at the given site, returning its terms as a
    list of (web, Laurent) pairs."""
    m = _DartMap(w)
    face = m.small.get(frozenset(site[1])) if site[0] == "face" else None
    if face is None and (site != ("circle",) or not w.circles):
        raise WebError("stale or unknown site %r" % (site,))
    return [(m1.web(), c)
            for m1, c in m.rewrite(("face", face) if face else site)]


# ----------------------------------------------------------------------
# normal form and evaluation

def normal_form(s, strategy="default"):
    """Reduce every supported web to non-elliptic normal form; the memo
    of branch webs lasts one call."""
    if isinstance(s, Web):
        s = WebSum.single(s)
    cache = {}
    out = WebSum(s.mode)
    for w, c in s.items():
        for w2, c2 in _nf_web(w, strategy, cache):
            out._bump(w2, c2 * c)
    return out


def _nf_web(w, strategy, memo):
    """The normal form of one web as a list of (web, Laurent) pairs."""
    return _reduce(_DartMap(w), strategy, memo, False)


def _reduce(m, strategy, memo, keyed):
    """Follow the forced chain of circle, loop and bigon rewrites in place;
    at a leaf the map becomes its one normal-form term, and at a square
    the two smoothings are reduced in turn.  With ``keyed``, the web at
    the square is looked up in, and then stored in, the memo."""
    coeff = ONE
    site = m.site(strategy)
    while site is not None and (site[0] == "circle" or len(site[1]) == 2):
        ((m, c),) = m.rewrite(site)
        coeff = coeff * c
        site = m.site(strategy)
    if site is None:
        return [(m.web(), coeff)]
    w = m.web() if keyed else None
    terms = memo.get(w) if keyed else None
    if terms is None:
        acc = {}
        for m1, c1 in m.rewrite(site):
            for w2, c2 in _reduce(m1, strategy, memo, True):
                c = acc.get(w2, ZERO) + c2 * c1
                if c:
                    acc[w2] = c
                else:
                    acc.pop(w2, None)
        terms = list(acc.items())
        if keyed:
            memo[w] = terms
    return [(w2, c * coeff) for w2, c in terms]


def evaluate_closed(w, q0=None, strategy="default"):
    """The scalar value of a closed web: a Laurent polynomial, or its
    exact rational specialization at q0."""
    if w.boundary:
        raise WebError("evaluate_closed requires an empty boundary")
    val = ZERO
    for w2, c in _nf_web(w, strategy, {}):
        if not w2.is_empty():
            raise WebError("closed web did not reduce to the empty web")
        val += c
    return val if q0 is None else val.evaluate(q0)


def pair(w, wp, q0=None):
    """The bilinear pairing <w, wp> = evaluate_closed(glue(w, wp))."""
    return evaluate_closed(glue(w, wp), q0)
