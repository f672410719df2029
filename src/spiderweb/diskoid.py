"""Dual diskoids: triangulated weight-metric geometry for webs.

A diskoid has a vertex for every face of a web (boundary regions and
internal faces), one labelled dual edge per web edge, and one triangle
per web vertex.  Edge labels are minuscule; traversing an edge along its
stored direction contributes its label to a path weight, traversing it
backwards contributes the dual label.  The distance between vertices is
the dominance-minimal path weight; diskoids dual to non-elliptic webs
satisfy the combinatorial CAT(0) condition (every interior vertex meets
at least six triangles) and have coherent (unique-minimum) distances.

Each step adds w1 or w2, so on a coherent pair the geodesics (paths of
least weight) are the paths with the fewest edges (`distance_sets`):
they are walked depth first, a step kept when it ends one edge nearer
the far end (`_hops`).  On CAT(0) diskoids they are connected by diamond
moves across flat rhombi (`diamond_sites`), and each extends to a
boundary-to-boundary one (`complete_extension`).
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import weights
from .weights import W1, dual, dominance_leq
from .webs import WebError, read_directives


class DiskoidError(ValueError):
    pass


class Geodesic(namedtuple("Geodesic", "vertices eids steps total")):
    """A geodesic: the diskoid vertices it visits in order, the edge ids
    it traverses, the minuscule weight of each step, and their sum (a
    dominant weight)."""
    __slots__ = ()


class Diskoid:
    __slots__ = ("mode", "names", "base", "boundary", "edges", "triangles",
                 "_adj", "_tris_at", "_boundary_rows")

    def __init__(self, mode, names, base, boundary, edges, triangles):
        self.mode = mode
        self.names = tuple(names)
        self.base = base
        self.boundary = tuple(boundary)
        self.edges = {e: (u, v, lam) for e, (u, v, lam) in dict(edges).items()}
        self.triangles = tuple(tuple(t) for t in triangles)
        self._adj = None
        self._tris_at = None
        self._boundary_rows = {}
        self.validate()

    # ------------------------------------------------------------------

    def n_vertices(self):
        return len(self.names)

    def n_edges(self):
        return len(self.edges)

    def n_triangles(self):
        return len(self.triangles)

    def interior_vertices(self):
        bset = set(self.boundary)
        return [v for v in self.names if v not in bset]

    def adjacency(self):
        """vertex -> list of (neighbor, step weight, eid, along flag)."""
        if self._adj is None:
            adj = {v: [] for v in self.names}
            for e, (u, v, lam) in self.edges.items():
                adj[u].append((v, lam, e, True))
                adj[v].append((u, dual(lam, self.mode), e, False))
            self._adj = adj
        return self._adj

    def boundary_row(self, i):
        """Distances from boundary vertex i to boundary vertices 0, ...,
        n-1, None where a pair is not coherent; computed once per i."""
        row = self._boundary_rows.get(i)
        if row is None:
            sets = distance_sets(self, self.boundary[i])
            row = tuple(sets[b][0] if len(sets[b]) == 1 else None
                        for b in self.boundary)
            self._boundary_rows[i] = row
        return row

    def triangle_vertices(self, t):
        """The vertex set of triangle index t."""
        return frozenset(x for e in self.triangles[t]
                         for x in self.edges[e][:2])

    def triangles_at(self, v):
        if self._tris_at is None:
            m = {x: 0 for x in self.names}
            for t in range(len(self.triangles)):
                for x in self.triangle_vertices(t):
                    m[x] += 1
            self._tris_at = m
        return self._tris_at[v]

    # ------------------------------------------------------------------

    def validate(self):
        vset = set(self.names)
        if len(vset) != len(self.names):
            raise DiskoidError("duplicate vertex names")
        for e, (u, v, lam) in self.edges.items():
            if u not in vset or v not in vset:
                raise DiskoidError("edge %r has unknown endpoint" % (e,))
            if u == v:
                raise DiskoidError("edge %r is a self-loop" % (e,))
            if not weights.is_minuscule(lam, self.mode) or lam == (0, 0):
                raise DiskoidError("edge %r label is not minuscule" % (e,))
        for tri in self.triangles:
            self._check_triangle(tri)
        if self.boundary:
            if self.base != self.boundary[0]:
                raise DiskoidError("base must be the first boundary vertex")
            if not set(self.boundary) <= vset:
                raise DiskoidError("boundary vertex unknown")
            euler = 1
        else:
            if self.base is not None and self.base not in vset:
                raise DiskoidError("unknown base vertex")
            euler = 2 if self.names else 0
        if self.names and (len(self.names) - len(self.edges)
                           + len(self.triangles)) != euler:
            raise DiskoidError("V - E + T = %d, expected %d" % (
                len(self.names) - len(self.edges) + len(self.triangles),
                euler))

    def _check_triangle(self, tri):
        if len(tri) != 3 or len(set(tri)) != 3:
            raise DiskoidError("triangle needs 3 distinct edges")
        for e in tri:
            if e not in self.edges:
                raise DiskoidError("triangle uses unknown edge %r" % (e,))
        # the three edges close up: six endpoints, three vertices, each
        # twice (there are no self-loops, so they form a cycle)...
        ends = [x for e in tri for x in self.edges[e][:2]]
        if len(set(ends)) != 3 or any(ends.count(x) != 2 for x in ends):
            raise DiskoidError("triangle edges do not close up")
        # ...and, in A2, the steps round the cycle are all w1 or all w2:
        # each edge's w1 direction (u -> v for a w1 edge, v -> u for a w2
        # one) leaves a different vertex
        tails = {u if lam == W1 else v
                 for u, v, lam in (self.edges[e] for e in tri)}
        if self.mode != "a1" and len(tails) != 3:
            raise DiskoidError("triangle is not a unit lattice triangle")

    def __repr__(self):
        return "<Diskoid %s: %d vertices, %d edges, %d triangles>" % (
            self.mode, len(self.names), len(self.edges), len(self.triangles))


# ----------------------------------------------------------------------
# CAT(0) criterion

def is_cat0(D):
    """Every interior vertex meets at least six triangles."""
    return all(D.triangles_at(v) >= 6 for v in D.interior_vertices())


# ----------------------------------------------------------------------
# weight-valued distance

def distance_sets(D, p):
    """Pareto-minimal achievable path weights from p to every vertex.

    The lemma: each step adds w1 or w2, so a path's weight has rho-level
    a + b equal to its number of edges, while each simple root has level
    1 (2 in A1); so lam <= mu forces level lam <= level mu, with equality
    only at lam = mu.  Hence the breadth-first search, one path length a
    layer, never finds a weight below one it has kept, and keeps each
    weight that no kept one is below.  Deleting a cycle from an A2 path
    weakly lowers its weight, and A1 weights of one parity are
    comparable, so the frontier empties by itself.  And on a coherent
    pair (one minimum d) every path with the fewest edges has weight d:
    the geodesics are exactly those paths.
    """
    adj, mode = D.adjacency(), D.mode
    best = {v: [] for v in D.names}
    best[p] = [(0, 0)]
    frontier = {p: [(0, 0)]}
    while frontier:
        nxt = {}
        for v, ws in frontier.items():
            for w, step, _eid, _along in adj[v]:
                for (a, b) in ws:
                    cand = (a + step[0], b + step[1])
                    if not any(dominance_leq(u, cand, mode) for u in best[w]):
                        best[w].append(cand)
                        nxt.setdefault(w, []).append(cand)
        frontier = nxt
    return best


def _hops(D, p):
    """The number of edges on a shortest path from p, per vertex reached."""
    adj, hop, queue = D.adjacency(), {p: 0}, [p]
    for v in queue:
        for w, _step, _eid, _along in adj[v]:
            if w not in hop:
                hop[w] = hop[v] + 1
                queue.append(w)
    return hop


def distance(D, p, q):
    """The dominance-minimal path weight from p to q; a non-coherent pair
    (a Pareto antichain with more than one minimum, possible only off
    CAT(0)) raises."""
    pareto = distance_sets(D, p)[q]
    if not pareto:
        raise DiskoidError("no path from %r to %r" % (p, q))
    if len(pareto) > 1:
        raise DiskoidError("non-coherent distance %r -> %r: %r"
                           % (p, q, sorted(pareto)))
    return pareto[0]


# ----------------------------------------------------------------------
# geodesics

def geodesics(D, p, q):
    """All weight-minimal paths from p to q, depth first in adjacency
    order.  Once `distance` finds the pair coherent they are the paths
    with the fewest edges (see `distance_sets`), so a step from v to w is
    kept when w is one edge nearer q."""
    d = distance(D, p, q)
    hop, adj = _hops(D, q), D.adjacency()
    out, stack = [], [(p, (p,), (), ())]
    while stack:
        v, path, eids, steps = stack.pop()
        if v == q:
            out.append(Geodesic(path, eids, steps, d))
            continue
        stack += reversed([(w, path + (w,), eids + (eid,), steps + (step,))
                           for w, step, eid, _along in adj[v]
                           if hop[w] == hop[v] - 1])
    return out


def _step_type(D, u, v, eid):
    a, b, lam = D.edges[eid]
    if (a, b) == (u, v):
        return lam
    if (b, a) == (u, v):
        return dual(lam, D.mode)
    raise DiskoidError("edge %r does not join %r and %r" % (eid, u, v))


def diamond_sites(D, g):
    """All (index, apex, new edge pair) triples where the geodesic can be
    rerouted across a flat rhombus.

    At path position i the two edges u->v->w and the rerouted pair
    u->x->w bound a rhombus of the triangles (u,v,x) and (v,w,x), sharing
    the diagonal v-x; it is flat when type(u->x) = type(v->w) and
    type(x->w) = type(u->v).  No triangle spans u, v, w, since its edge
    u-w would be a path with fewer edges (see `distance_sets`).
    """
    tris = {D.triangle_vertices(t): tri for t, tri in enumerate(D.triangles)}

    def side(T, a, b):
        """The edge of triangle T joining a and b."""
        return next(e for e in T if {D.edges[e][0], D.edges[e][1]} == {a, b})

    sites = []
    for i in range(1, len(g.vertices) - 1):
        u, v, w = g.vertices[i - 1:i + 2]
        for x in D.names:
            T1, T2 = (tris.get(frozenset((u, v, x))),
                      tris.get(frozenset((v, w, x))))
            if not (T1 and T2 and side(T1, v, x) == side(T2, v, x)):
                continue
            pair = side(T1, u, x), side(T2, x, w)
            if (_step_type(D, u, x, pair[0]) == g.steps[i]
                    and _step_type(D, x, w, pair[1]) == g.steps[i - 1]):
                sites.append((i, x, pair))
    return sites


def diamond_move(D, g, site):
    """Reroute the geodesic across the flat rhombus at the given site."""
    i, x, (eux, exw) = site
    if not (1 <= i < len(g.vertices) - 1):
        raise DiskoidError("invalid diamond site")
    u, w = g.vertices[i - 1], g.vertices[i + 1]
    verts = g.vertices[:i] + (x,) + g.vertices[i + 1:]
    eids = g.eids[:i - 1] + (eux, exw) + g.eids[i + 1:]
    steps = (g.steps[:i - 1]
             + (_step_type(D, u, x, eux), _step_type(D, x, w, exw))
             + g.steps[i + 1:])
    return Geodesic(verts, eids, steps, g.total)


def complete_extension(D, g):
    """A boundary-to-boundary geodesic containing g (CAT(0) inputs): the
    first, depth first, that extends g at its last vertex until that is
    on the boundary, then at its first.  A step keeps the path a geodesic
    when it still has the fewest edges between its ends (see
    `distance_sets`), counted from the end that stays, so no step
    returns to the path."""
    bset, adj, hops = set(D.boundary), D.adjacency(), {}
    stack = [g]
    while stack:
        h = stack.pop()
        u, v = h.vertices[0], h.vertices[-1]
        at_end = v not in bset
        if not at_end and u in bset:
            return h
        stay = u if at_end else v
        if stay not in hops:
            hops[stay] = _hops(D, stay)
        nxt = []
        for w, step, eid, _along in adj[v if at_end else u]:
            if hops[stay][w] == len(h.eids) + 1:
                step = step if at_end else dual(step, D.mode)
                t = (h.total[0] + step[0], h.total[1] + step[1])
                nxt.append(Geodesic(h.vertices + (w,), h.eids + (eid,),
                                    h.steps + (step,), t) if at_end else
                           Geodesic((w,) + h.vertices, (eid,) + h.eids,
                                    (step,) + h.steps, t))
        stack += reversed(nxt)  # depth first, in adjacency order
    raise DiskoidError("no complete extension found (non-CAT(0) input?)")


# ----------------------------------------------------------------------
# boundary distance vectors and the order

def mu_vector(D, i=0):
    """Distances from boundary vertex i to vertices i+1, ..., i+n."""
    n = len(D.boundary)
    if n == 0:
        raise DiskoidError("mu_vector needs a boundary")
    i %= n
    row = D.boundary_row(i)
    out = tuple(row[(i + k) % n] for k in range(1, n + 1))
    if None in out:
        raise DiskoidError("non-coherent distance in mu_vector")
    return out


def leq_S(D, E):
    """True iff every boundary-pair distance of D is dominance-below the
    matching distance of E (two diskoids of one mode)."""
    n = len(D.boundary)
    if len(E.boundary) != n:
        raise DiskoidError("boundary sizes differ")
    if E.mode != D.mode:
        raise DiskoidError("modes differ: %s and %s" % (D.mode, E.mode))
    for i in range(n):
        for j, (a, b) in enumerate(zip(D.boundary_row(i), E.boundary_row(i))):
            if i == j:
                continue
            if a is None or b is None:
                raise DiskoidError("non-coherent distance in leq_S")
            if not dominance_leq(a, b, D.mode):
                return False
    return True


# ----------------------------------------------------------------------
# construction from webs

def dual_diskoid(w):
    """The dual diskoid of a web: faces become vertices, each web edge a
    dual edge directed from the head dart's face to the tail dart's face
    and labelled w1, each web vertex a triangle.

    For a web with boundary the base is the face of the base dart and
    the boundary cycle lists the faces of the boundary darts in order;
    closed webs yield sphere complexes based at the face containing the
    canonically least dart.  It is built once per web and kept on it.
    """
    if w._dual is not None:
        return w._dual
    if w.circles:
        raise WebError("dual_diskoid: remove free circles first")
    faces = w.faces()
    face_of = {}
    for i, f in enumerate(faces):
        for d in f.darts:
            face_of[d] = i
    names = list(range(len(faces)))
    edges = {}
    dart_edge = {}
    eid = 0
    rank = w.canonical_rank()
    for d in sorted(w.theta, key=lambda d: rank[d]):
        if d in dart_edge:
            continue
        e = w.theta[d]
        if w.mode == "a2":
            head = d if d in w.heads else e
            tail = w.theta[head]
        else:
            head, tail = d, e
        edges[eid] = (face_of[head], face_of[tail], W1)
        dart_edge[d] = eid
        dart_edge[e] = eid
        eid += 1
    # one triangle per web vertex: the dual edges of its three web edges
    triangles = [tuple(dart_edge[d] for d in tri) for tri in w.vertices]
    if w.boundary:
        boundary = [face_of[b] for b in w.boundary]
        base = boundary[0]
    else:
        boundary = []
        base = face_of[min(w.theta, key=lambda d: rank[d])] if w.theta else None
    w._dual = Diskoid(w.mode, names, base, boundary, edges, triangles)
    return w._dual


# ----------------------------------------------------------------------
# .dsk text format

_DSK_DIRECTIVES = {"vertex": (None, None),
                   "base": (1, "base needs 1 vertex"),
                   "boundary": (None, None),
                   "edge": (4, "edge EID TAIL HEAD LABEL"),
                   "triangle": (3, "triangle needs 3 edges")}


def parse_diskoid(text):
    """Line-oriented .dsk format: ``type a1|a2``, ``vertex NAME ...``,
    ``base NAME``, ``boundary N0 N1 ...``, ``edge EID TAIL HEAD LABEL``,
    ``triangle E0 E1 E2``; ``#`` comments (read by `read_directives`)."""
    names, base, boundary, edges, triangles = [], None, [], {}, []
    for ln, kind, args in read_directives(text, _DSK_DIRECTIVES, DiskoidError,
                                          once=("base", "boundary")):
        if kind == "type":
            mode = args[0].lower()
        elif kind == "vertex":
            names.extend(args)
        elif kind == "base":
            base = args[0]
        elif kind == "boundary":
            boundary = args
        elif kind == "edge":
            if args[0] in edges:
                raise DiskoidError("line %d: a second edge %r" % (ln, args[0]))
            try:
                lam = weights.parse_weight(args[3])
            except ValueError as exc:
                raise DiskoidError("line %d: %s" % (ln, exc))
            edges[args[0]] = (args[1], args[2], lam)
        else:
            triangles.append(tuple(args))
    D = Diskoid(mode, names, base, boundary, edges, triangles)
    # a rim edge (on fewer than two triangles) ends on the boundary; every
    # dual has this by construction, so `Diskoid.validate` leaves it out
    sides = Counter(e for tri in triangles for e in tri)
    for e, (u, v, _lam) in edges.items():
        if sides[e] < 2 and not {u, v} <= set(boundary):
            raise DiskoidError("edge %r is on the rim but an end is not "
                               "on the boundary" % (e,))
    return D


def serialize_diskoid(D):
    # natural order so that reserialization after a roundtrip is stable
    ekey = lambda e: (len(str(e)), str(e))
    name = {v: "p%d" % i for i, v in enumerate(D.names)}
    ename = {e: "e%d" % i for i, e in enumerate(sorted(D.edges, key=ekey))}
    lines = ["type %s" % D.mode]
    lines.append("vertex " + " ".join(name[v] for v in D.names))
    if D.base is not None:
        lines.append("base %s" % name[D.base])
    if D.boundary:
        lines.append("boundary " + " ".join(name[v] for v in D.boundary))
    for e in sorted(D.edges, key=ekey):
        u, v, lam = D.edges[e]
        lines.append("edge %s %s %s %s" % (ename[e], name[u], name[v],
                                           weights.format_weight(lam)))
    for tri in D.triangles:
        lines.append("triangle " + " ".join(ename[e] for e in tri))
    return "\n".join(lines) + "\n"
