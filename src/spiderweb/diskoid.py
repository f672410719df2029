"""Dual diskoids: triangulated weight-metric geometry for webs.

A diskoid has a vertex for every face of a web (boundary regions and
internal faces), one labelled dual edge per web edge, and one triangle
per web vertex.  Edge labels are minuscule; traversing an edge along its
stored direction contributes its label to a path weight, traversing it
backwards contributes the dual label.  The distance between vertices is
the dominance-minimal path weight; diskoids dual to non-elliptic webs
satisfy the combinatorial CAT(0) condition (every interior vertex meets
at least six triangles) and have coherent (unique-minimum) distances.

Geodesics (paths of least weight) grow depth first, a step kept only
if the Pareto sets to the far end allow it.  On CAT(0) diskoids they are
connected by diamond moves across flat rhombi (`diamond_sites`), and
each extends to a boundary-to-boundary one (`complete_extension`).
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
        """Pareto sets from boundary vertex i to boundary vertices
        0, ..., n-1, computed once per i."""
        row = self._boundary_rows.get(i)
        if row is None:
            sets = distance_sets(self, self.boundary[i])
            row = tuple(tuple(sets[b]) for b in self.boundary)
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

def _admit(antichain, cand, mode):
    """Insert cand into a Pareto-minimal antichain; False if dominated."""
    for u in antichain:
        if dominance_leq(u, cand, mode):
            return False
    antichain[:] = [u for u in antichain if not dominance_leq(cand, u, mode)]
    antichain.append(cand)
    return True


def distance_sets(D, p):
    """Pareto-minimal achievable path weights from p to every vertex.

    Breadth-first over path length with dominance pruning; simple paths
    suffice because deleting a cycle from a path weakly dominates it, so
    the length cap is the vertex count.
    """
    adj = D.adjacency()
    best = {v: [] for v in D.names}
    best[p] = [(0, 0)]
    frontier = {p: [(0, 0)]}
    for _ in range(len(D.names)):
        nxt = {}
        for v, ws in frontier.items():
            for w, step, _eid, _along in adj[v]:
                for (a, b) in ws:
                    cand = (a + step[0], b + step[1])
                    if _admit(best[w], cand, D.mode):
                        nxt.setdefault(w, []).append(cand)
        frontier = nxt
        if not frontier:
            break
    return best


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
    """All weight-minimal paths from p to q (each with total weight
    distance(D, p, q) and exactly <d, rho-check> edges).

    A path p..w is extended only if what remains of d is the weight of a
    Pareto-minimal path w..q: a geodesic's suffix is one, since a lesser
    suffix would make a lesser path.  Reversing a path dualizes its
    weight, so those weights are the duals of `distance_sets` from q."""
    d = distance(D, p, q)
    if d == (0, 0):
        return [Geodesic((p,), (), (), (0, 0))]
    back = {v: {dual(x, D.mode) for x in xs}
            for v, xs in distance_sets(D, q).items()}
    adj = D.adjacency()
    out, stack = [], [(p, (0, 0), (p,), (), ())]
    while stack:
        v, (a, b), path, eids, steps = stack.pop()
        if (a, b) == d:
            if v == q:
                out.append(Geodesic(path, eids, steps, d))
            continue
        nxt = []
        for w, step, eid, _along in adj[v]:
            a2, b2 = a + step[0], b + step[1]
            if a2 <= d[0] and b2 <= d[1] and (d[0] - a2, d[1] - b2) in back[w]:
                nxt.append((w, (a2, b2), path + (w,), eids + (eid,),
                            steps + (step,)))
        stack += reversed(nxt)  # depth first, in adjacency order
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
    u->x->w bound a rhombus of two triangles.  When the two steps have
    the same minuscule type the triangles are (u,v,w) and (u,w,x),
    sharing the diagonal u-w; when the types differ they are (u,v,x) and
    (v,w,x), sharing the diagonal v-x.  Flatness in both cases is the
    label pattern type(u->x) = type(v->w) and type(x->w) = type(u->v).
    """
    tris = {D.triangle_vertices(t): tri for t, tri in enumerate(D.triangles)}

    def side(T, a, b):
        """The edge of triangle T joining a and b."""
        return next(e for e in T if {D.edges[e][0], D.edges[e][1]} == {a, b})

    sites = []
    for i in range(1, len(g.vertices) - 1):
        u, v, w = g.vertices[i - 1:i + 2]
        if u == w:
            continue
        T = tris.get(frozenset((u, v, w)))
        for x in D.names:
            if x in (u, v, w):
                continue
            T2 = tris.get(frozenset((u, w, x)))
            if T and T2 and side(T, u, w) == side(T2, u, w):
                pair = side(T2, u, x), side(T2, x, w)
            else:
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
    when the new total is a Pareto-minimal weight between its ends."""
    bset, adj, sets = set(D.boundary), D.adjacency(), {}
    stack = [g]
    while stack:
        h = stack.pop()
        u, v = h.vertices[0], h.vertices[-1]
        at_end = v not in bset
        if not at_end and u in bset:
            return h
        nxt = []
        for w, step, eid, _along in adj[v if at_end else u]:
            if w in h.vertices:
                continue
            if not at_end:
                step = dual(step, D.mode)
            t = (h.total[0] + step[0], h.total[1] + step[1])
            src, dst = (u, w) if at_end else (w, v)
            if src not in sets:
                sets[src] = distance_sets(D, src)
            if t in sets[src][dst]:
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
    out = []
    for k in range(1, n + 1):
        pareto = row[(i + k) % n]
        if len(pareto) != 1:
            raise DiskoidError("non-coherent distance in mu_vector")
        out.append(pareto[0])
    return tuple(out)


def leq_S(D, E):
    """True iff every boundary-pair distance of D is dominance-below the
    matching distance of E."""
    n = len(D.boundary)
    if len(E.boundary) != n:
        raise DiskoidError("boundary sizes differ")
    for i in range(n):
        dd = D.boundary_row(i)
        de = E.boundary_row(i)
        for j in range(n):
            if i == j:
                continue
            a = dd[j]
            b = de[j]
            if len(a) != 1 or len(b) != 1:
                raise DiskoidError("non-coherent distance in leq_S")
            if not dominance_leq(a[0], b[0], D.mode):
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
