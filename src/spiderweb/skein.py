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

The memo of one reduction is keyed by canonical key and holds only the
two smoothings of each square, the one rewrite with two terms and so
the only place where two branches can meet; chains of circle, loop and
bigon rewrites are followed without computing any key.
"""

from __future__ import annotations

import json

from .laurent import Laurent, ONE, ZERO, LOOP_A1, LOOP_A2, BIGON_A2
from .webs import Web, WebError, glue, serialize_web, splice


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
# site selection

def find_elliptic(w, strategy="default"):
    """A reducible site: ("circle",) or ("face", darts), or None.

    The choice looks only at face degree, ties going to the first face
    in ``w.faces()`` order.  The default strategy removes free circles
    first, then the internal face of smallest degree (bigons before
    squares).  The "alternate" strategy takes the largest, circles last;
    it exists so the test suite can cross-check the two.
    """
    if strategy not in ("default", "alternate"):
        raise ValueError("unknown strategy %r" % (strategy,))
    faces = [f for f in w.internal_faces() if f.degree < 6]
    if w.circles and (strategy == "default" or not faces):
        return ("circle",)
    if not faces:
        return None
    pick = min if strategy == "default" else max
    return ("face", pick(faces, key=lambda f: f.degree).darts)


def _loop_value(mode):
    return LOOP_A1 if mode == "a1" else LOOP_A2


# ----------------------------------------------------------------------
# rewriting

def rewrite(w, site):
    """Apply one relation at the given site, returning its terms as a
    list of (web, Laurent) pairs."""
    if site[0] == "circle":
        if not w.circles:
            raise WebError("stale site: no free circle present")
        out = Web(w.mode, w.theta, w.vertices, w.boundary, w.heads,
                  w.circles - 1, check=False)
        return [(out, _loop_value(w.mode))]
    if site[0] != "face":
        raise WebError("unknown site %r" % (site,))
    darts = site[1]
    if any(d not in w.theta for d in darts):
        raise WebError("stale site: dart missing")
    face = next((f for f in w.faces() if set(f.darts) == set(darts)), None)
    if face is None or not face.internal:
        raise WebError("stale site: not an internal face")
    verts = [w.vertex_of(d) for d in face.darts]
    if face.degree == 2:
        return _rewrite_bigon(w, face, verts)
    if face.degree == 4:
        return _rewrite_square(w, face, verts)
    raise WebError("face of degree %d is not reducible" % face.degree)


def _external_darts(w, face, verts):
    ring = set(face.darts) | {w.theta[d] for d in face.darts}
    ext = []
    for vi in verts:
        cand = [d for d in w.vertices[vi] if d not in ring]
        if len(cand) != 1:
            raise WebError("degenerate elliptic face")
        ext.append(cand[0])
    return ext


def _rewrite_bigon(w, face, verts):
    a, b = _external_darts(w, face, verts)
    return [(splice(w, verts, [(a, b)]), BIGON_A2)]


def _rewrite_square(w, face, verts):
    e = _external_darts(w, face, verts)
    return [(splice(w, verts, [(e[0], e[1]), (e[2], e[3])]), ONE),
            (splice(w, verts, [(e[1], e[2]), (e[3], e[0])]), ONE)]


# ----------------------------------------------------------------------
# normal form and evaluation

def normal_form(s, strategy="default"):
    """Reduce every supported web to non-elliptic normal form; the memo
    of square smoothings lasts one call."""
    if isinstance(s, Web):
        s = WebSum.single(s)
    cache = {}
    out = WebSum(s.mode)
    for w, c in s.items():
        for w2, c2 in _nf_web(w, strategy, cache):
            out._bump(w2, c2 * c)
    return out


def _nf_web(w, strategy, cache):
    """The normal form of one web as a list of (web, Laurent) pairs."""
    coeff = ONE
    while True:
        site = find_elliptic(w, strategy)
        if site is None:
            return [(w, coeff)]
        terms = rewrite(w, site)
        if len(terms) == 1:
            (w, c), = terms
            coeff = coeff * c
            continue
        acc = {}
        for w1, c1 in terms:
            hit = cache.get(w1)
            if hit is None:
                hit = cache[w1] = _nf_web(w1, strategy, cache)
            for w2, c2 in hit:
                c = acc.get(w2, ZERO) + c2 * c1
                if c:
                    acc[w2] = c
                else:
                    acc.pop(w2, None)
        return [(w2, c * coeff) for w2, c in acc.items()]


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
