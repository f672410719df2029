"""A finite lattice model of the affine Grassmannian of PGL(3) over F_q.

Points are homothety classes of full rank-3 lattices over F_q[[t]].  A
class is stored as its column normal form, lower triangular, whose
entries are polynomials over F_q: coefficient tuples without trailing
zeros (zero is ``()``), so the form is canonical and exact, with no
t-adic truncation.  It is built, never searched for: the constructor
takes lower-triangular columns with monomial pivots, minuscule
neighbours are spanned by such columns, and `_reduced` finishes both.
Distances read elementary divisors off its pivot exponents.
Configuration and fibre counts for polygons and diskoids, Satake
partitions, stratum samples and the Euler characteristic live here too.

Placements are built, not filtered out of spheres.  The link of a vertex
is the incidence graph of P^2(F_q), so the places of a vertex next to
two joined placed vertices are the q+1 chambers on their panel, which
`panel` builds from a line of Y/tY; two panels through one vertex leave
one chamber.  A stratum sample draws its index first, finds the
neighbour it names by its Bruhat cell, and builds only that one.

One counter, `_count`, runs in the building over F_q (a `FieldParam`)
or in its standard apartment (`APARTMENT`, q = 1), where it counts the
Euler characteristic; `_enumerate`, its search with no peel, is the
oracle in both.

The color calibration is fixed once: the w1-neighbors of a class L are
the kernels of the q^2+q+1 functionals on L/tL, the w2-neighbors the
preimages of the lines of L/tL, and distances are (e3-e2) w1 + (e2-e1) w2
for the elementary divisors, so that d(base, w1-neighbor) = w1 and the
duality axiom d(x,y) = d(y,x)* holds.
"""

from __future__ import annotations

import math
import weakref
from itertools import combinations

from .weights import W1, W2, ZERO, dual, minuscule_orbit, rho_level
from .basis import minuscule_paths, path_steps


class BuildingError(Exception):
    pass


# ----------------------------------------------------------------------
# polynomial arithmetic over F_q


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


class FieldParam:
    """F_q and the cache of `neighbors` and `panel`, freed with it; as a
    space to count configurations in, the building over F_q.  N is
    accepted and ignored: the arithmetic is exact (`auto_precision`)."""

    __slots__ = ("q", "nbr_cache", "__weakref__")

    def __init__(self, q, N=None):
        if not _is_prime(q):
            raise BuildingError("q must be prime, got %r" % (q,))
        self.q = q
        self.nbr_cache = {}

    def __repr__(self):
        return "FieldParam(q=%d)" % self.q

    def base(self):
        return base_class(self)

    def sphere(self, x, lam):
        return neighbors(x, lam)

    def sphere_set(self, x, lam):  # for membership tests
        neighbors(x, lam)
        return self.nbr_cache[x.cols, lam][1]

    def panel(self, x, y, *more):
        return panel(x, y, *more)

    def distance(self, x, y):
        return lattice_distance(x, y)


def auto_precision(labels):
    """A t-adic precision for edge labels: twice their total rho-level,
    plus two.  `FieldParam` ignores it; its only caller is the benchmark
    (`perfbench/workloads.py` `_fp`)."""
    return 2 * sum(rho_level(lam) for lam in labels) + 2


def _trim(a):
    """The canonical form: no trailing zero coefficients."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _padd(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    return _trim(tuple([(x + y) % q for x, y in zip(a, b)]) + a[len(b):])


def _psub(a, b, q):
    if len(a) < len(b):
        a += (0,) * (len(b) - len(a))
    return _trim(tuple([(x - y) % q for x, y in zip(a, b)]) + a[len(b):])


def _pmul(a, b, q):
    """The product; q is prime, so its leading coefficient is nonzero."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return ()
    if len(a) == 1:
        x = a[0]
        return b if x == 1 else tuple([x * y % q for y in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return tuple([c % q for c in out])


def _pval(a):
    """t-adic valuation; None for zero."""
    for i, c in enumerate(a):
        if c:
            return i
    return None


def _pshift(a, k):
    """Multiply by t^k (k >= 0) or divide exactly by t^-k (k < 0)."""
    if k >= 0:
        return (0,) * k + a if a else ()
    k = -k
    if any(a[:k]):
        raise BuildingError("inexact division by t^%d" % k)
    return a[k:]


def _col_sub(col, f, other, q):
    """col - f.other, leaving the rows where other is zero as they are."""
    return tuple(_psub(p, _pmul(f, o, q), q) if o else p
                 for p, o in zip(col, other))


# ----------------------------------------------------------------------
# lattice classes


class LatticeClass:
    """A homothety class of full lattices in F_q((t))^3, stored as the
    unique column Hermite normal form of a representative L with
    L contained in O^3 but not in t.O^3, its entries trimmed coefficient
    tuples.  `cols` are three lower-triangular columns with pivots t^e,
    entries any coefficient tuples, which `_reduced` normalises; other
    columns raise BuildingError.  The generic normal form of any spanning
    columns, its oracle, lives in the tests (`conftest.hnf`)."""

    __slots__ = ("fp", "cols")

    def __init__(self, fp, cols, _normalized=False):
        self.fp = fp
        if not _normalized:
            cols = tuple(tuple(_trim(tuple(x % fp.q for x in p)) for p in c)
                         for c in cols)
            if len(cols) != 3 or any(
                    len(c) != 3 or any(c[:j]) or c[j][-1:] != (1,)
                    or any(c[j][:-1]) for j, c in enumerate(cols)):
                raise BuildingError("the columns are not lower triangular "
                                    "with monomial pivots")
            cols = _reduced(cols, fp)
        self.cols = cols

    def __eq__(self, other):
        return isinstance(other, LatticeClass) and self.cols == other.cols

    def __hash__(self):
        return hash(self.cols)

    def __repr__(self):
        return "<LatticeClass d(base, L)=%s>" % (
            lattice_distance(base_class(self.fp), self),)


class _Neighbour(LatticeClass):
    """A class that `neighbors` built and cached on its FieldParam.  It
    holds the FieldParam weakly: the cache holds it, so a strong
    reference back would make a cycle that only the cyclic collector
    frees.  Keep the FieldParam, or a class made outside `neighbors`,
    for as long as its neighbours are used."""

    __slots__ = ("_fpref",)

    def __init__(self, fp, cols):
        self._fpref = weakref.ref(fp)
        self.cols = cols

    @property
    def fp(self):
        fp = self._fpref()
        if fp is None:
            raise BuildingError("the FieldParam of this class is gone")
        return fp


_IDENTITY = ((1,), (), ()), ((), (1,), ()), ((), (), (1,))


def base_class(fp):
    """The standard lattice O^3."""
    return LatticeClass(fp, _IDENTITY, _normalized=True)


def _reduced(cols, fp):
    """The normal form of lower-triangular columns with monomial pivots,
    the library's one normal-form routine: entries left of each pivot
    reduced modulo it, rows top to bottom (column i is zero above row i,
    so a row once reduced stays so), then one homothety shift, none after
    a unit pivot.  The generic normal form of the tests is its oracle."""
    q, cols = fp.q, list(cols)
    for i in (1, 2):
        e = len(cols[i][i]) - 1
        for j in range(i):
            f = cols[j][i][e:]
            if f:
                cols[j] = _col_sub(cols[j], f, cols[i], q)
    m = 0 if 1 in (len(cols[i][i]) for i in range(3)) else _least_val(cols)
    return tuple(tuple(_pshift(p, -m) for p in c) if m else c
                 for c in cols)


def _least_val(M):
    """The least valuation of an entry of M; None if every entry is 0."""
    return min((v for c in M for v in map(_pval, c) if v is not None),
               default=None)


def lattice_distance(L, Lp):
    """The dominant-weight distance d(L, L') from elementary divisors:
    with m_k the least valuation of the k x k minors of C = adj(L).L',
    the invariant factors of L' relative to L are t^(m_k - m_{k-1}), up
    to homothety, and they are read off the pivot exponents.  L has the
    columns (a, b, d), (0, c, e), (0, 0, f) with a, c, f = t^al, t^ga,
    t^ph, and L' the same with primes.  So C is lower triangular, with
    diagonal t^v00, t^v11, t^v22 for v00 = ga + ph + al',
    v11 = al + ph + ga', v22 = al + ga + ph', and below it
      C10 = t^ph (t^al b' - t^al' b),
      C20 = t^al' (b e - t^ga d) - t^al e b' + t^(al + ga) d',
      C21 = t^(al + ga) e' - t^(al + ga') e.
    Then m3 = v00 + v11 + v22, m1 is the least valuation of C's six
    entries, and adj(C) gives m2 = min(v11 + v22, v00 + v22, v00 + v11,
    v10 + v22, v00 + v21, val(C10 C21 - t^v11 C20)).  Pivots multiply
    by shifts; b e, e b' and C10 C21 are the only general products.  A
    zero counts as valuation m3, above any minimum it enters; a dense
    computation in the tests is the oracle."""
    q = L.fp.q
    (a, b, d), (_z, c, e), (_z, _z, f) = L.cols
    (a1, b1, d1), (_z, c1, e1), (_z, _z, f1) = Lp.cols
    al, ga, ph = len(a) - 1, len(c) - 1, len(f) - 1
    al1, ga1, ph1 = len(a1) - 1, len(c1) - 1, len(f1) - 1
    v00, v11, v22 = ga + ph + al1, al + ph + ga1, al + ga + ph1
    c10 = _pshift(_psub(_pshift(b1, al), _pshift(b, al1), q), ph)
    c20 = _padd(_pshift(_psub(_pmul(b, e, q), _pshift(d, ga), q), al1),
                _psub(_pshift(d1, al + ga), _pshift(_pmul(e, b1, q), al), q),
                q)
    c21 = _psub(_pshift(e1, al + ga), _pshift(e, al + ga1), q)
    x = _psub(_pmul(c10, c21, q), _pshift(c20, v11), q)
    m3 = v00 + v11 + v22
    v10, v20, v21, vx = [m3 if v is None else v
                         for v in map(_pval, (c10, c20, c21, x))]
    m1 = min(v00, v11, v22, v10, v20, v21)
    m2 = min(v11 + v22, v00 + v22, v00 + v11, v10 + v22, v00 + v21, vx)
    s = sorted((m1, m2 - m1, m3 - m2))
    return (s[2] - s[1], s[1] - s[0])


# ----------------------------------------------------------------------
# neighbors


def _proj_plane(q):
    """Representatives of P^2(F_q), first nonzero coordinate 1."""
    pts = [(1, b, c) for b in range(q) for c in range(q)]
    pts += [(0, 1, c) for c in range(q)]
    pts.append((0, 0, 1))
    return pts


def _times_t(A, cols=(0, 1, 2)):
    """The columns of A times t; those not in cols are left as they are."""
    return [tuple(_pshift(x, 1) for x in c) if j in cols else c
            for j, c in enumerate(A)]


def _neighbour(fp, A, tA, r, color):
    """The `color`-neighbour at the point r of P^2(F_q) (see `neighbors`) of
    normal form A; tA is `_times_t(A)`, or None to shift just what it uses."""
    q, w1 = fp.q, color == W1
    p = max(i for i in range(3) if r[i]) if w1 else r.index(1)
    tA = tA or _times_t(A, (p,) if w1 else {0, 1, 2} - {p})
    if w1:
        s = pow(r[p], q - 2, q)
        cols = [_col_sub(A[j], (r[j] * s % q,), A[p], q) if r[j]
                else A[j] for j in range(p)] + [tA[p]] + list(A[p + 1:])
    else:
        u = A[p]
        for j in range(p + 1, 3):
            if r[j]:
                u = _col_sub(u, (q - r[j],), A[j], q)
        cols = tA[:p] + [u] + tA[p + 1:]
    return _Neighbour(fp, _reduced(cols, fp))


def neighbors(L, color):
    """All classes at distance exactly `color` (w1 or w2) from L, one per
    point r of P^2(F_q) in `_proj_plane`'s order, cached on L.fp.

    Each is built in normal form, not searched into it (`_neighbour`).
    L's normal form A is lower triangular with pivots t^e_i, and the
    neighbour of r is spanned by A.H for a lower-triangular H:
      - w1, the kernel of r on L/tL: with r scaled so that its last
        nonzero r_p is 1, the columns e_j - r_j e_p (j < p), t e_p, e_j;
      - w2, the line r plus tL: r at its first nonzero p (r_p = 1), and
        t e_j at every other j.
    So A.H is lower triangular with pivots t^e_i or t^(e_i + 1), and
    `_reduced` finishes it with no pivot search and no unit inverse: at
    most three entries reduced modulo the pivot below them, row by row,
    then one homothety shift.
    The generic normal form of the spans, in the tests, is the oracle."""
    fp = L.fp
    hit = fp.nbr_cache.get((L.cols, color))
    if hit is not None:
        return hit[0]
    if color not in (W1, W2):
        raise BuildingError("neighbor color must be minuscule")
    A = L.cols
    tA = _times_t(A)
    out = [_neighbour(fp, A, tA, r, color) for r in _proj_plane(fp.q)]
    fp.nbr_cache[L.cols, color] = out, frozenset(out)
    return out


def _line(A, cols, k, q):
    """The first nonzero c mod t among the solutions c of A.c = t^k.x
    for the columns x (t^k.x in the span of A); None if all lie in
    t.O^3.  A's pivots are monomials, so forward substitution divides by
    exact shifts alone."""
    (a, b, d), (_z, c, e), (_z, _z, f) = A
    for x in cols:
        v0, v1, v2 = (_pshift(p, k) for p in x)
        c0 = _pshift(v0, 1 - len(a))
        c1 = _pshift(_psub(v1, _pmul(b, c0, q), q), 1 - len(c))
        c2 = _pshift(_psub(_psub(v2, _pmul(d, c0, q), q), _pmul(e, c1, q), q),
                     1 - len(f))
        ell = [y[0] if y else 0 for y in (c0, c1, c2)]
        if any(ell):
            return ell
    return None


def panel(X, Y, *more):
    """The classes Z that complete the panel X, Y (d(X, Y) = w1, which
    the caller guarantees) to a chamber: d(Y, Z) = d(Z, X) = w1, q+1 of
    them in `neighbors`' order, cached on Y.fp.  Each further X' keeps
    those on the panel X', Y too: one, once two lines l below differ.

    Why.  d(X, Y) = w1 makes t^k.Y, for one integer k, the kernel of a
    functional on X/tX: tX < t^k.Y < X, with index q at each step.  Then
    val det gives 3k + s(Y) = s(X) + 1 for s the pivot sum, which fixes k.
    The chambers on the panel are the lattices M with tX < M < t^k.Y, so
    the t^-k.M are the w1-neighbours Z of Y that contain t^(1-k).X: the
    kernels of the functionals r on Y/tY (as in `neighbors`) that vanish
    on l = t^(1-k).X/tY, which `_line` finds from X's columns: one
    `_neighbour` for each r with r.l = 0, and no distance computed.  The
    filter of `neighbors(Y, w1)` by d(Z, X) = w1 is the oracle."""
    fp, key = Y.fp, (X.cols, Y.cols, *[Z.cols for Z in more])
    hit = fp.nbr_cache.get(key)
    if hit is not None:
        return hit
    q, A = fp.q, Y.cols
    ells = []
    for Z in (X, *more):
        k, rem = divmod(sum(len(Z.cols[i][i]) - len(A[i][i])
                            for i in range(3)) + 1, 3)
        ells.append(None if rem else _line(A, Z.cols, 1 - k, q))
        if ells[-1] is None:
            raise BuildingError("the panel's classes are not at distance w1")
    tA = _times_t(A)
    out = fp.nbr_cache[key] = [
        _neighbour(fp, A, tA, r, W1) for r in _proj_plane(q)
        if not any((r[0] * l[0] + r[1] * l[1] + r[2] * l[2]) % q
                   for l in ells)]
    return out


# ----------------------------------------------------------------------
# linkages and configuration counting


class Linkage:
    """A based graph with minuscule edge labels: edge (u, v, lam) demands
    d(f(u), f(v)) = lam.  Vertices may be pre-pinned via `fixed`."""

    def __init__(self, vertices, base, edges, fixed=None):
        self.vertices = list(vertices)
        self.base = base
        self.edges = [(u, v, lam) for u, v, lam in edges]
        self.fixed = dict(fixed or {})
        vs = set(self.vertices)
        if base not in vs:
            raise BuildingError("base vertex missing from linkage")
        for u, v, lam in self.edges:
            if u not in vs or v not in vs:
                raise BuildingError("edge endpoint missing from linkage")
            if lam not in (W1, W2):
                raise BuildingError("edge labels must be minuscule")

    def labels(self):
        return [lam for _u, _v, lam in self.edges]


def polygon_linkage(signature):
    n = len(signature)
    return Linkage(range(n), 0,
                   [(k, (k + 1) % n, signature[k]) for k in range(n)])


def diskoid_linkage(D):
    """The 1-skeleton of a diskoid as a linkage (edge u -> v labelled w1
    means d(f(u), f(v)) = w1)."""
    edges = [(u, v, lam) for _eid, (u, v, lam) in sorted(D.edges.items())]
    return Linkage(D.names, D.base, edges)


class ConfigCount:
    """The result of one exact configuration count."""

    __slots__ = ("linkage", "fp", "count")

    def __init__(self, linkage, fp, count):
        self.linkage = linkage
        self.fp = fp
        self.count = count

    def __repr__(self):
        return "<ConfigCount q=%d: %d>" % (self.fp.q, self.count)


def _fold(linkage):
    """The linkage's constraints, one per vertex pair: nbrs[v][u] is the
    required distance d(f(v), f(u)), so parallel edges count once.

    This is where every counter decides whether a linkage can be counted.
    A repeated vertex, a `fixed` key that is not a vertex, or a vertex
    connected to neither the base nor a pinned vertex raises
    BuildingError.  None means that no configuration exists: two parallel
    edges disagree, or an edge is a loop (asking for a nonzero distance
    from a vertex to itself)."""
    nbrs = {v: {} for v in linkage.vertices}
    if len(nbrs) != len(linkage.vertices):
        raise BuildingError("repeated vertex in linkage")
    pinned = {linkage.base, *linkage.fixed}
    if not pinned <= nbrs.keys():
        raise BuildingError("fixed vertex missing from linkage")
    agree = True
    for u, v, lam in linkage.edges:
        if u == v or nbrs[u].setdefault(v, lam) != lam:
            agree = False
        nbrs[v][u] = dual(lam)
    reached, stack = set(pinned), list(pinned)
    while stack:
        for u in nbrs[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    for v in nbrs:
        if v not in reached:
            raise BuildingError("vertex %r is connected to neither the base "
                                "nor a pinned vertex" % (v,))
    return nbrs if agree else None


def _placed(linkage, space, rng=None):
    """The folded constraints (`_fold`), in vertex order or shuffled by
    `rng`, and the pinned places: the base at space.base() and `fixed`.
    None when no configuration exists; clashing pins raise."""
    nbrs = _fold(linkage)
    assign = {linkage.base: space.base()}
    for v, x in linkage.fixed.items():
        if assign.setdefault(v, x) != x:
            raise BuildingError("fixed assignment clashes at %r" % (v,))
    if nbrs is None or any(space.distance(assign[u], assign[v]) != lam
                           for u, v, lam in linkage.edges
                           if u in assign and v in assign):
        return None
    if rng is not None:
        order = list(nbrs)
        rng.shuffle(order)
        nbrs = {v: nbrs[v] for v in order}
    return nbrs, assign


def _search(nbrs, assign, mult, space, visit):
    """mult times the number of ways to place the vertices of `nbrs` not
    in `assign` (see `_placed`), each passed to `visit` (unless None)
    with its multiplicity; 0 when a triangle fails `_peel`'s chamber
    test.  The vertex with the most placed neighbours (the first in
    `nbrs` on a tie) goes next; which are placed depends only on the
    depth, so the order and each vertex's calls (space method, placed
    vertices, *label) are fixed once.  Placed u, w joined by an edge put
    v on their panel; the panels through one y with d(y, v) = w1 are one
    call (one chamber), the largest first; a placed neighbour in no
    triangle adds its sphere."""
    placed, plan = set(assign), []
    todo = [v for v in nbrs if v not in placed]
    while todo:
        v = max(todo, key=lambda x: sum(u in placed for u in nbrs[x]))
        todo.remove(v)
        around = [(u, lam) for u, lam in nbrs[v].items() if u in placed]
        groups, covered = {}, set()
        for (u, a), (w, b) in combinations(around, 2):
            c = nbrs[u].get(w)
            if c is None:
                continue
            if not a == c == dual(b):
                return 0
            x, y = (u, w) if a == W1 else (w, u)
            groups.setdefault(y, []).append(x)
            covered |= {u, w}
        calls = [(space.panel, (xs[0], y, *xs[1:])) for y, xs in
                 sorted(groups.items(), key=lambda g: -len(g[1]))]
        calls += [(space.sphere_set, (u,), dual(lam)) for u, lam in around
                  if u not in covered]
        if not groups:
            calls[0] = (space.sphere, *calls[0][1:])
        plan.append((v, calls))
        placed.add(v)
    return _place(plan, 0, assign, mult, visit)


def _place(plan, i, assign, mult, visit):
    if i == len(plan):
        if visit is not None:
            visit(dict(assign), mult)
        return mult
    v, calls = plan[i]
    # membership in a panel's list of q+1 beats building a set of it
    cands, *within = [f(*[assign[u] for u in us], *lam)
                      for f, us, *lam in calls]
    if within:
        cands = [c for c in cands if all(c in s for s in within)]
    if len(assign) == 1 and cands:
        # the base's stabilizer is transitive on them (Cartan; Weyl in the
        # apartment), and visits read only distances from the base
        cands, mult = cands[:1], mult * len(cands)
    total = 0
    for cand in cands:
        assign[v] = cand
        total += _place(plan, i + 1, assign, mult, visit)
    assign.pop(v, None)
    return total


def _enumerate(linkage, space, visit=None, rng=None):
    """Count (or visit) all based label-preserving maps into the space
    (a FieldParam's building, or APARTMENT) by `_search` alone: the
    oracle of `_count`'s peel and of `satake_partition`, and the only
    counter that visits configurations.  It places vertices on panels as
    `_count` does; the tests check both against a search that knows only
    spheres.  `rng` only shuffles tie-breaks."""
    placed = _placed(linkage, space, rng)
    return 0 if placed is None else _search(*placed, 1, space, visit)


def _peel(nbrs, pinned, q):
    """Remove from the folded constraints `nbrs` (see `_fold`), in place,
    every free vertex whose placements can be counted from its labels
    alone, and return the product of their counts at q.

    PGL3(F_q((t))) preserves distances in the building and acts
    transitively on ordered pairs of vertices at a given distance (the
    Cartan decomposition).  So the number of ways to place a free vertex
    v (not in `pinned`) given its neighbors' places depends only on the
    labels when
      - v has one remaining neighbor: q^2+q+1, the points of P^2(F_q),
        which are the classes `neighbors` lists;
      - v has two remaining neighbors u, w joined by an edge (an ear):
        q+1 when v, u, w span a chamber, d(v, u) = d(u, w) = d(w, v),
        since each panel lies in q+1 chambers (for tu < w < u with u/w
        a line, the q+1 lines of the plane w/tu); 0 for other labels,
        since three pairwise adjacent vertices always span a chamber.
    At q = 1 these are the counts in an apartment: 3 places for a
    pendant, and the 2 chambers of the apartment on a panel for an ear.
    Such vertices are removed (placed last) one at a time until none is
    left.  Removing a pendant or an ear leaves every other vertex
    connected to a pinned one."""
    factor = 1
    peeled = True
    while peeled:
        peeled = False
        for v in list(nbrs):
            if v in pinned:
                continue
            around = nbrs[v]
            if len(around) == 1:
                factor *= q * q + q + 1
            elif len(around) == 2:
                (u, a), (w, b) = around.items()
                c = nbrs[u].get(w)
                if c is None:
                    continue
                factor *= q + 1 if a == c == dual(b) else 0
            else:
                continue
            for u in around:
                del nbrs[u][v]
            del nbrs[v]
            peeled = True
    return factor


def _count(linkage, space, rng=None):
    """The number of based label-preserving maps of the linkage into the
    space: `_peel` at space.q times the `_search` count of the rest."""
    placed = _placed(linkage, space, rng)
    if placed is None:
        return 0
    factor = _peel(*placed, space.q)
    return factor and factor * _search(*placed, 1, space, None)


def count_configurations(linkage, fp, rng=None):
    """Exact number of based label-preserving maps of the linkage into
    the building over F_q, counted by `_count` (pendants and chamber ears
    peeled, the core searched); `_enumerate` is its brute-force oracle."""
    return ConfigCount(linkage, fp, _count(linkage, fp, rng=rng))


def count_fibre(D, boundary_config, fp):
    """Number of interior-vertex extensions of a boundary configuration
    of the diskoid D (boundary_config maps D's boundary vertices, and
    the base, to lattice classes), counted by `_count` with the boundary
    in `fixed`, so it is never peeled; `_enumerate` is the oracle.  An
    unassigned boundary vertex or a base off the standard lattice raises;
    a boundary that breaks an edge of D counts 0 (`_placed` checks it)."""
    cfg = dict(boundary_config)
    cfg.setdefault(D.base, base_class(fp))
    if cfg[D.base] != base_class(fp):
        raise BuildingError("the base must map to the standard lattice")
    for v in D.boundary:
        if v not in cfg:
            raise BuildingError("boundary vertex %r not assigned" % (v,))
    link = diskoid_linkage(D)
    return _count(Linkage(link.vertices, link.base, link.edges, fixed=cfg), fp)


def _dominant(w):
    """The dominant W-conjugate of a weight (a, b): reflect by
    s1 (a, b) = (-a, a + b) or s2 (a, b) = (a + b, -b) until both
    coordinates are non-negative."""
    a, b = w
    while a < 0 or b < 0:
        a, b = (-a, a + b) if a < 0 else (a + b, -b)
    return a, b


def _hecke_factor(mu, lam, nu, q):
    """The number c(mu, lam, nu) of lam-neighbours at distance nu from the
    base of any point x at distance mu, at any integer q: the sum of
    q^(e1 + e2 + 1) over the e in `minuscule_orbit(lam)` whose dominant
    W-conjugate dom(mu + e) is nu (Haines, IMRN 2003), the sizes of the
    Bruhat cells of P^2(F_q) that `_base_distances` reads."""
    return sum(q ** (e[0] + e[1] + 1) for e in minuscule_orbit(lam)
               if _dominant((mu[0] + e[0], mu[1] + e[1])) == nu)


def satake_partition(signature, fp):
    """Bucket the points of F(signature)(F_q) by their distance vectors
    from the base, keyed by the minuscule paths: the base's stabilizer is
    transitive on each sphere around it, so a bucket is the product of its
    path's `_hecke_factor`s bar the last (1: only the base lies at 0).
    Only fp.q is read; `_enumerated_partition` is the oracle."""
    return minuscule_paths(signature,
                           factor=lambda *step: _hecke_factor(*step, fp.q))


def _enumerated_partition(signature, space):
    """`satake_partition` by brute force, its oracle: the configurations
    that `_enumerate` visits in the space, bucketed by their distance
    vectors."""
    n, base, buckets = len(signature), space.base(), {}

    def visit(assign, mult):
        key = (*(space.distance(base, assign[k]) for k in range(n)), ZERO)
        buckets[key] = buckets.get(key, 0) + mult

    _enumerate(polygon_linkage(signature), space, visit=visit)
    return buckets


# ----------------------------------------------------------------------
# stratum sampling


def _base_distances(A, mu, lam, q, nu):
    """The points r of P^2(F_q), in `neighbors`' order, whose
    lam-neighbour y of the class x with normal form A at mu = (a, b) from
    the base lies at nu from it, none built: d(base, y) = dom(mu + e),
    e = `minuscule_orbit(lam)`[i] for y's Bruhat cell i.
    For L < O^3 in x with elementary divisors 1, t^b, t^(a+b), in the
    coordinates c of L = A.c, the base's flag has the plane
    L.tO^3/tL = ker A(0) (b > 0; `row` is A(0)'s nonzero row) and the line
    t^(a+b).O^3/tL (a > 0; `ell`).  The w1-neighbour at the functional r
    raises the divisor t^(a+b) if r.ell != 0 (cell 0), else 1 if r = row
    (cell 2), else t^b; for the w2-neighbour at the point r, ell and row
    swap roles.  On a wall an absent ell or row empties its cell into
    cell 1, whose weight has the same dominant conjugate there."""
    a, b = mu
    off = on = None
    if b:
        on = next(r for r in zip(*[[p[0] if p else 0 for p in c] for c in A])
                  if any(r))
    if a:
        off = _line(A, _IDENTITY, a + b, q)
    if lam == W2:
        off, on = on, off
    if on:  # scaled as `_proj_plane` lists it
        s = pow(next(x for x in on if x), q - 2, q)
        on = tuple(x * s % q for x in on)
    land = [_dominant((a + e[0], b + e[1])) for e in minuscule_orbit(lam)]
    return [r for r in _proj_plane(q)
            if land[0 if off and (off[0] * r[0] + off[1] * r[1]
                                  + off[2] * r[2]) % q else
                    2 if r == on else 1] == nu]


def sample_polygon_config(signature, target_vector, fp, rng):
    """A uniformly random point of F(signature)(F_q) whose distance
    vector from the base is target_vector, which must be a minuscule path
    of the signature (else BuildingError, before any lattice is built).

    One walk: vertex k+1 is drawn among the signature[k]-neighbours of
    vertex k at distance target[k+1] from the base.  Whatever the earlier
    draws, there are c = c(target[k], signature[k], target[k+1]) of them
    (`_hecke_factor`), never none, so every point of the stratum comes out
    with the same probability, the product of their inverses.  The index
    of the draw is taken first, from c alone, among the points r whose
    Bruhat cells land at target[k+1] (`_base_distances`), and only the
    neighbour it names is built.  The last vertex closes the polygon."""
    tv = tuple(target_vector)
    if path_steps(signature, tv) is None:
        raise BuildingError("target vector is not a minuscule path of the "
                            "signature")
    n, q, base = len(signature), fp.q, base_class(fp)
    cfg = {0: base}
    for k in range(n - 1):
        lam, A = signature[k], cfg[k].cols
        idx = rng.randrange(_hecke_factor(tv[k], lam, tv[k + 1], q))
        hits = _base_distances(A, tv[k], lam, q, tv[k + 1])
        if idx >= len(hits):
            raise BuildingError("fewer classes on the stratum's step than "
                                "its Hecke factor")
        cfg[k + 1] = _neighbour(fp, A, None, hits[idx], lam)
    if n and lattice_distance(cfg[n - 1], base) != signature[n - 1]:
        raise BuildingError("the sampled polygon does not close")
    return cfg


# ----------------------------------------------------------------------
# the standard apartment and the Euler characteristic


class _Apartment:
    """The standard apartment as a space to count configurations in: the
    weights, based at (0, 0), with d(x, y) the dominant W-conjugate of
    y - x (see `euler_estimate`).  It is the building at q = 1."""

    q = 1

    def base(self):
        return ZERO

    def sphere(self, x, lam):
        return [(x[0] + a, x[1] + b) for a, b in minuscule_orbit(lam)]

    sphere_set = sphere  # three points

    def panel(self, x, y, *more):
        """The points z of y's w1-sphere with d(z, u) = w1 for u = x and
        each of `more`: all but y + (y - u), as the w1-steps add to 0."""
        far = [(2 * y[0] - u[0], 2 * y[1] - u[1]) for u in (x, *more)]
        return [z for z in self.sphere(y, W1) if z not in far]

    def distance(self, x, y):
        return _dominant((y[0] - x[0], y[1] - x[1]))


APARTMENT = _Apartment()


def euler_estimate(D):
    """The Euler characteristic of the configuration space of the
    diskoid's 1-skeleton: the number of its label-preserving maps into
    the standard apartment, with the base at the weight (0, 0).

    Why.  The diagonal torus T of PGL3 fixes the base O^3 and acts on
    the building by isometries, so it acts on the space X of based
    configurations.  Its fixed classes are those of diag(t^k1, t^k2, t^k3),
    isolated points, which carry the weight (k1 - k2, k2 - k3).  Against
    diag(t^k), diag(t^k') has the elementary divisors t^(k'i - ki), so the
    distance from x to y among them is the dominant W-conjugate of y - x.
    A configuration is fixed exactly when each vertex is, so X^T is the
    finite set of maps into the apartment counted here, and
    chi(X) = chi(X^T) = #X^T (Bialynicki-Birula, Ann. Math. 98, 1973).
    Where #X(F_q) is a polynomial P in q, P(1) = chi(X) (Katz, appendix
    to Hausel and Rodriguez-Villegas, Invent. Math. 174, 2008), so this is
    the value that interpolating the counts at primes gives, with no
    polynomiality to assume.

    The apartment is the building at q = 1, so `_count` counts there as
    in the building: `_peel` at q = 1 counts pendants (3 places) and ears
    (2), and `_search` places the rest.  A linkage that
    `_fold` finds contradictory has no configuration: chi = 0."""
    return _count(diskoid_linkage(D), APARTMENT)
