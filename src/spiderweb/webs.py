"""A1/A2 webs as planar combinatorial maps with a based boundary.

A web is stored as a set of darts (half-edges) with:

  * ``theta``    — the edge involution pairing darts,
  * ``vertices`` — interior trivalent vertices as counterclockwise dart
                   triples (A2 only; A1 webs have no interior vertices),
  * ``boundary`` — the clockwise list of boundary darts, index 0 based,
  * ``heads``    — for A2, the dart at the arrival end of each edge's
                   w1-flow (an edge labelled w2 in one direction is stored
                   as w1 in the other),
  * ``circles``  — a count of free closed loops (no darts), as in the
                   corpus loop and in skein-engine intermediates.

Faces are the orbits of ``d -> sigma(theta(d))`` where ``sigma`` is the
counterclockwise successor at interior vertices and ``b_i -> b_{i+1}`` on
the boundary; the face of a dart lies to the right of motion along it.
Planarity is enforced by one Euler count over the whole web (see
``_check_planarity``).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count

from . import weights
from .weights import W1, W2


class WebError(ValueError):
    pass


class Face(namedtuple("Face", "darts internal")):
    """A face: the orbit of darts around it, and whether it is internal
    (has no boundary dart)."""
    __slots__ = ()

    @property
    def degree(self):
        return len(self.darts)


class Web:
    __slots__ = ("mode", "theta", "vertices", "boundary", "heads", "circles",
                 "_sigma", "_dart_vertex", "_faces", "_comps", "_ckey", "_crank",
                 "_dual")

    def __init__(self, mode, theta, vertices, boundary, heads=(), circles=0,
                 check=True):
        self.mode = mode
        self.theta = dict(theta)
        self.vertices = tuple(tuple(v) for v in vertices)
        self.boundary = tuple(boundary)
        self.heads = frozenset(heads)
        self.circles = int(circles)
        self._sigma = None
        self._dart_vertex = None
        self._faces = None
        self._comps = None
        self._ckey = None
        self._crank = None
        self._dual = None  # the dual diskoid, built by diskoid.dual_diskoid
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # basic structure

    @property
    def darts(self):
        return self.theta.keys()

    def n_edges(self):
        return len(self.theta) // 2

    def edges(self):
        """Each edge once, as (d, theta(d)) with d the canonically first
        of its darts, in canonical order."""
        rank, theta = self.canonical_rank(), self.theta
        return [(d, theta[d]) for d in sorted(theta, key=rank.__getitem__)
                if rank[d] < rank[theta[d]]]

    def n_vertices(self):
        return len(self.vertices)

    def is_closed(self):
        return not self.boundary

    def is_empty(self):
        return not self.theta and self.circles == 0

    def _sigma_map(self):
        """dart -> counterclockwise successor around its attachment point."""
        if self._sigma is None:
            s = {}
            for tri in self.vertices:
                k = len(tri)
                for i, d0 in enumerate(tri):
                    s[d0] = tri[(i + 1) % k]
            nb = len(self.boundary)
            for i, d0 in enumerate(self.boundary):
                s[d0] = self.boundary[(i + 1) % nb]
            self._sigma = s
        return self._sigma

    def _vertex_map(self):
        """dart -> index of the interior vertex holding it."""
        if self._dart_vertex is None:
            self._dart_vertex = {d0: i for i, tri in enumerate(self.vertices)
                                 for d0 in tri}
        return self._dart_vertex

    def vertex_is_out(self, i):
        """True if interior vertex i is all-out (w1 flow leaving on all darts)."""
        tri = self.vertices[i]
        return all(d not in self.heads for d in tri)

    # ------------------------------------------------------------------
    # faces

    def faces(self):
        """All faces (orbits of sigma . theta), internal ones flagged."""
        if self._faces is not None:
            return self._faces
        bset = set(self.boundary)
        theta, sigma = self.theta, self._sigma_map()
        seen = set()
        out = []
        for d0 in theta:
            if d0 in seen:
                continue
            orbit = []
            d = d0
            while d not in seen:
                seen.add(d)
                orbit.append(d)
                d = sigma[theta[d]]
            if d != d0:
                raise WebError("rotation system is inconsistent at dart %r" % d)
            internal = not any(x in bset for x in orbit)
            out.append(Face(tuple(orbit), internal))
        self._faces = out
        return out

    def internal_faces(self):
        return [f for f in self.faces() if f.internal]

    def is_nonelliptic(self):
        """No free circles and every internal face has at least six sides."""
        if self.circles:
            return False
        return all(f.degree >= 6 for f in self.internal_faces())

    # ------------------------------------------------------------------
    # validation

    def validate(self):
        th = self.theta
        for d, e in th.items():
            if e == d or th.get(e) != d:
                raise WebError("edge involution broken at dart %r" % (d,))
        attach = list(self.boundary)
        for tri in self.vertices:
            attach.extend(tri)
        if len(set(attach)) != len(attach):
            raise WebError("a dart is attached twice")
        if set(attach) != set(th):
            raise WebError("attached darts and edge darts differ")
        if self.mode == "a1":
            if self.vertices:
                raise WebError("A1 webs have no interior vertices")
            if self.heads:
                raise WebError("A1 webs carry no w1-flow heads")
        else:
            for tri in self.vertices:
                if len(tri) != 3:
                    raise WebError("interior vertices must be trivalent")
            stray = self.heads - th.keys()
            if stray:
                raise WebError("head %r is on no edge"
                               % (min(stray, key=str),))
            for d, e in th.items():
                if (d in self.heads) == (e in self.heads):
                    raise WebError("edge %r-%r must have exactly one head" % (d, e))
            for i, tri in enumerate(self.vertices):
                flags = {d in self.heads for d in tri}
                if len(flags) != 1:
                    raise WebError("vertex %d violates the all-in/all-out flow rule" % i)
        self._check_planarity()

    def _components(self):
        """Connected components of the dart set; boundary darts all linked.
        Each is found by following theta and sigma from the next unseen
        dart, and they come in the order of their first darts, each in
        theta order.  Kept on the web, as `faces` are: `validate` and
        `_canonicalize` both read them."""
        if self._comps is not None:
            return self._comps
        theta, sigma, root = self.theta, self._sigma_map(), {}
        for d0 in theta:
            stack = [] if d0 in root else [d0]
            while stack:
                d = stack.pop()
                if d not in root:
                    root[d] = d0
                    stack += (theta[d], sigma[d])
        comps = {}
        for d in theta:
            comps.setdefault(root[d], []).append(d)
        self._comps = list(comps.values())
        return self._comps

    def _check_planarity(self):
        """V + [the web has legs] - E + F = 2 per connected component.

        A connected map has V - E + F = 2 - 2g <= 2 on its surface of genus
        g, with the disk boundary as one more vertex of the component that
        holds the legs.  So the sum over the whole web reaches twice the
        number of components only if every component is planar, and one
        count replaces a scan of the vertices and faces per component."""
        chi = (len(self.vertices) + bool(self.boundary) - len(self.theta) // 2
               + len(self.faces()))
        n = len(self._components())
        if chi != 2 * n:
            raise WebError("web fails the Euler planarity check (V-E+F = %d "
                           "over %d components)" % (chi, n))

    # ------------------------------------------------------------------
    # derived data

    def boundary_signature(self):
        """Minuscule labels clockwise from the base dart.

        A leg where the w1 flow leaves the disk reads w1; a leg where it
        enters reads w2.  All A1 legs read w1.
        """
        if self.mode == "a1":
            return tuple(W1 for _ in self.boundary)
        return tuple(W1 if d in self.heads else W2 for d in self.boundary)

    # ------------------------------------------------------------------
    # canonicalization

    def _encode_from(self, seeds, size, best=None):
        """Breadth-first code of the darts reached from ``seeds``.

        Darts are numbered in the order the traversal first meets them: the
        seeds, then, for each numbered dart in turn, its edge partner and the
        partner's vertex counterclockwise.  Record i of the code describes
        dart i as (partner, ccw successor or -1 off a vertex, head, on the
        boundary), in numbers.  Returns ``(code, numbering)``; raises if
        fewer than ``size`` darts are reached.

        With ``best``, a code of the same length, the records are compared
        with it as they are made, and None is returned once the code cannot
        be less than ``best`` (equal counts as not less).
        """
        theta, sigma, dv = self.theta, self._sigma_map(), self._vertex_map()
        heads, bset = self.heads, set(self.boundary)
        num = {}
        order = []
        for s in seeds:
            num[s] = len(order)
            order.append(s)
        code = []
        i = 0
        while i < len(order):
            e = theta[order[i]]
            if e not in num:
                num[e] = len(order)
                order.append(e)
            if e in dv:
                x = sigma[e]
                while x != e:
                    if x not in num:
                        num[x] = len(order)
                        order.append(x)
                    x = sigma[x]
            # After step i >= 1 records 0..i are known: dart i's partner is
            # numbered at step i, and its vertex was numbered on entry, or at
            # step 1 for a seed.
            while i and len(code) <= i:
                d = order[len(code)]
                r = (num[theta[d]], num[sigma[d]] if d in dv else -1,
                     1 if d in heads else 0, 1 if d in bset else 0)
                if best is not None:
                    b = best[len(code)]
                    if r > b:
                        return None
                    if r < b:
                        best = None
                code.append(r)
            i += 1
        if len(order) != size:
            raise WebError("traversal did not cover the component")
        if best is not None:
            return None
        return tuple(code), num

    def canonical_key(self):
        """Equal keys iff isomorphic by a based, orientation-preserving map
        isomorphism (free circles counted).

        The key lists the mode, the circle count, the breadth-first code of
        the boundary component seeded by the boundary darts in order, and
        the code of each closed component, sorted.  A closed component's
        code is the least over its darts as the single seed; on a tie the
        first seed in ``str`` order gives the numbering.  The search drops a
        seed at its first record greater than the best code so far: codes
        of one component have one length and compare record by record, so a
        prefix that is already greater cannot become least.
        """
        if self._ckey is None:
            self._ckey, self._crank = self._canonicalize()
        return self._ckey

    def canonical_rank(self):
        """dart -> position in the canonical traversal (tie-break ordering)."""
        if self._crank is None:
            self._ckey, self._crank = self._canonicalize()
        return self._crank

    def _canonicalize(self):
        bset = set(self.boundary)
        comps = self._components()
        closed = [c for c in comps if bset.isdisjoint(c)]
        parts = []
        rank = {}
        if self.boundary:
            size = len(self.theta) - sum(len(c) for c in closed)
            code, rank = self._encode_from(self.boundary, size)
            parts.append(("bd", len(self.boundary), code))
        found = []
        for comp in closed:
            # in A2 its darts lie at vertices, none on a loop (flows differ),
            # so a seed's record 0 is (1, 4, head, 0): least codes skip heads
            seeds = sorted((d for d in comp if d not in self.heads), key=str)
            best = self._encode_from(seeds[:1], len(comp))
            for s in seeds[1:]:
                best = self._encode_from([s], len(comp), best[0]) or best
            found.append(best)
        found.sort(key=lambda t: t[0])
        for code, num in found:
            parts.append(("cl", code))
            offset = len(rank)
            for d, k in num.items():
                rank[d] = offset + k
        key = repr((self.mode, self.circles, parts)).encode()
        return key, rank

    def __eq__(self, other):
        return isinstance(other, Web) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "<Web %s: %d legs, %d vertices, %d edges, %d circles>" % (
            self.mode, len(self.boundary), len(self.vertices),
            self.n_edges(), self.circles)


EMPTY_A2 = Web("a2", {}, (), ())
EMPTY_A1 = Web("a1", {}, (), ())


def empty_web(mode):
    return EMPTY_A1 if mode == "a1" else EMPTY_A2


# ----------------------------------------------------------------------
# parsing / serialization (.web format)

def read_directives(text, arities, error, once=()):
    """Yield (line number, directive, arguments) for each line of a
    line-oriented format (.web, .dsk), skipping ``#`` comments and blank
    lines, with the directive lowercased.  ``arities`` maps each directive
    but the shared ``type a1|a2`` to (argument count or None for any,
    message).  An unknown directive, a wrong count, a bad or missing type,
    or a second ``type`` line or line of a directive in ``once`` raises
    ``error``."""
    first = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind, args = toks[0].lower(), toks[1:]
        if kind == "type" or kind in once:
            if kind in first:
                raise error("line %d: a second %r line (the first is line %d)"
                            % (ln, kind, first[kind]))
            first[kind] = ln
        if kind == "type":
            if len(args) != 1 or args[0].lower() not in ("a1", "a2"):
                raise error("line %d: type must be a1 or a2" % ln)
        elif kind not in arities:
            raise error("line %d: unknown directive %r" % (ln, toks[0]))
        elif arities[kind][0] not in (None, len(args)):
            raise error("line %d: %s" % (ln, arities[kind][1]))
        yield ln, kind, args
    if "type" not in first:
        raise error("missing 'type' line")


_WEB_DIRECTIVES = {"bdarts": (None, None),
                   "vertex": (3, "vertex needs 3 darts"),
                   "edge": (2, "edge needs 2 darts"),
                   "head": (1, "head needs 1 dart")}


def parse_web(text):
    """Parse the line-oriented .web format.

    Lines: ``type a1|a2``, ``bdarts d0 d1 ...`` (clockwise from the base),
    ``vertex dA dB dC`` (counterclockwise), ``edge dX dY``, ``head dX``;
    ``#`` starts a comment.  An ``edge`` line whose darts are attached to
    no vertex and no boundary denotes a free circle.
    """
    boundary, vertices, edges, heads = [], [], [], set()
    for _ln, kind, args in read_directives(text, _WEB_DIRECTIVES, WebError,
                                           once=("bdarts",)):
        if kind == "type":
            mode = args[0].lower()
        elif kind == "bdarts":
            boundary = args
        elif kind == "vertex":
            vertices.append(tuple(args))
        elif kind == "edge":
            edges.append(tuple(args))
        else:
            heads.add(args[0])
    attached = set(boundary).union(*vertices)
    theta = {}
    circles = 0
    for a, b in edges:
        if a not in attached and b not in attached:
            circles += 1  # a free circle
            heads -= {a, b}
            continue
        if a in theta or b in theta:
            raise WebError("dart used by two edges: %r/%r" % (a, b))
        theta[a] = b
        theta[b] = a
    return Web(mode, theta, vertices, boundary, heads, circles)


def serialize_web(w):
    """Canonical .web text: darts renumbered in traversal order."""
    rank = w.canonical_rank()
    name = {d: "d%d" % rank[d] for d in w.theta}
    lines = ["type %s" % w.mode]
    if w.boundary:
        lines.append("bdarts " + " ".join(name[d] for d in w.boundary))
    for tri in sorted(w.vertices, key=lambda t: min(rank[d] for d in t)):
        i = min(range(3), key=lambda j: rank[tri[j]])
        tri = tri[i:] + tri[:i]
        lines.append("vertex " + " ".join(name[d] for d in tri))
    edges = w.edges()
    lines += ["edge %s %s" % (name[d], name[e]) for d, e in edges]
    lines += ["head %s" % name[x] for edge in edges for x in edge
              if x in w.heads]
    nd = len(w.theta)
    for k in range(w.circles):
        lines.append("edge c%d c%d" % (nd + 2 * k, nd + 2 * k + 1))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# elementary surgery

def rotate(w, i):
    """Advance the base dart i positions around the boundary (lambda^(i))."""
    n = len(w.boundary)
    if n == 0:
        return w
    i %= n
    bd = w.boundary[i:] + w.boundary[:i]
    return Web(w.mode, w.theta, w.vertices, bd, w.heads, w.circles, check=False)


def mirror(w):
    """The reflected, flow-reversed web (the adjoint diagram): vertex
    rotations and the boundary reversed about the base dart, and every
    head moved to the other end of its edge.

    Its boundary signature is the reverse-dual of w's, so glue(w, mirror(w))
    is always defined; mirror(Y) is the all-in Y.
    """
    n = len(w.boundary)
    verts = tuple(tuple(reversed(tri)) for tri in w.vertices)
    bd = tuple(w.boundary[(-j) % n] for j in range(n))
    heads = frozenset(w.theta[d] for d in w.heads)
    return Web(w.mode, w.theta, verts, bd, heads, w.circles, check=False)


def glue(w, wp):
    """Close w against wp (reflected) into a closed web.

    Requires boundary_signature(wp) to be the reverse-dual of w's; leg k of
    w meets leg (-k mod n) of wp, bases aligned.  Darts are renamed to
    ints by position: dart d of w becomes its index in w.theta, and dart d
    of wp len(w.theta) plus its index in wp.theta.  An edge that ends on a
    leg runs on through the chain of joints and bare arcs to its far end,
    and a chain of bare arcs that closes up becomes a free circle.  The
    signatures being reverse-dual, the w1 flow agrees across every joint,
    so the heads are the old heads on the darts that remain.
    """
    n = len(w.boundary)
    if len(wp.boundary) != n:
        raise WebError("glue: boundary sizes differ")
    sig = w.boundary_signature()
    sigp = wp.boundary_signature()
    for k in range(n):
        if sigp[(-k) % n] != weights.dual(sig[k], w.mode):
            raise WebError("glue: signatures are not reverse-dual")
    if w.mode != wp.mode:
        raise WebError("glue: mode mismatch")

    # wp is flipped onto the back of the sphere.  With rotations read
    # against the outward normal its stored data is unchanged, but seen
    # from the front its legs run counterclockwise, so leg k of w meets
    # leg (-k mod n) of wp.
    theta, verts, heads, names = [], [], [], []
    for web in (w, wp):
        num = dict(zip(web.theta, count(len(theta))))
        theta += map(num.__getitem__, web.theta.values())
        verts += [(num[a], num[b], num[c]) for a, b, c in web.vertices]
        heads += map(num.__getitem__, web.heads)
        names.append(num)
    joint = {}
    for k in range(n):
        a, b = names[0][w.boundary[k]], names[1][wp.boundary[(-k) % n]]
        joint[a], joint[b] = b, a

    kept = {d: e for d, e in enumerate(theta) if d not in joint}
    out = {d: e for d, e in kept.items() if e not in joint}
    ends, circles = join_chains(joint, theta, kept.values())
    for e, y in ends.items():
        out[theta[e]], out[y] = y, theta[e]
    return Web(w.mode, out, verts, (), [d for d in heads if d in out],
               w.circles + wp.circles + circles, check=False)


def join_chains(joint, partner, starts):
    """Follow chains of joints, emptying `joint`, which pairs the darts of
    each joint; partner[j] is the dart across the edge beyond joint dart
    j: kept, or the next joint dart.  Returns the far end of the chain
    from each start still in `joint` when reached, in order, and the
    number of chains left over, which close up into free circles."""
    def far(e):
        while e in joint:
            j = joint.pop(e)
            del joint[j]
            e = partner[j]
        return e

    ends = {e: far(e) for e in starts if e in joint}
    circles = 0
    while joint:
        far(next(iter(joint)))
        circles += 1
    return ends, circles
