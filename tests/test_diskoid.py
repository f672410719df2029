import collections
import itertools
import random

import pytest

from spiderweb import corpus, diskoid
from spiderweb.basis import enumerate_basis, rotated_catalog_check
from spiderweb.diskoid import (
    Diskoid, DiskoidError, complete_extension, diamond_move, diamond_sites,
    distance, distance_sets, dual_diskoid, geodesics, is_cat0, leq_S,
    mu_vector, parse_diskoid, serialize_diskoid)
from spiderweb.generate import random_signature, random_web
from spiderweb.webs import rotate
from spiderweb.weights import (
    W1, W2, dominance_leq, dual as dual_weight, rho_level)

from conftest import MU, NU


def D_of(name):
    return dual_diskoid(corpus.load_web(name))


def test_dual_of_single_y():
    D = D_of("single-y")
    # one triangle on the three boundary regions
    assert D.n_vertices() == 3 and D.n_edges() == 3 and D.n_triangles() == 1
    assert len(D.boundary) == 3
    assert D.base == D.boundary[0]
    assert is_cat0(D)


def test_dual_counts():
    for name in ("single-y", "a2-example", "w-mu", "w-nu"):
        w = corpus.load_web(name)
        D = dual_diskoid(w)
        # faces -> vertices, edges -> edges, vertices -> triangles
        assert D.n_vertices() == len(w.faces())
        assert D.n_edges() == w.n_edges()
        assert D.n_triangles() == w.n_vertices()
        assert len(D.boundary) == len(w.boundary)
        D.validate()


def test_serialize_roundtrip():
    D = D_of("a2-example")
    D2 = parse_diskoid(serialize_diskoid(D))
    assert D2.mode == D.mode
    assert D2.n_vertices() == D.n_vertices()
    assert D2.n_edges() == D.n_edges()
    assert D2.n_triangles() == D.n_triangles()
    assert serialize_diskoid(parse_diskoid(serialize_diskoid(D))) == \
        serialize_diskoid(D)


# the dual of the single Y, in .dsk form, and edits of it that each
# break one rule of `Diskoid.validate` or `parse_diskoid`
Y_DSK = """type a2
vertex p0 p1 p2
base p0
boundary p0 p1 p2
edge e0 p0 p1 w1
edge e1 p1 p2 w1
edge e2 p2 p0 w1
triangle e0 e2 e1
"""


@pytest.mark.parametrize("old, new, message", [
    ("vertex p0 p1 p2", "vertex p0 p1 p2 p1", "duplicate vertex names"),
    ("edge e1 p1 p2", "edge e1 p1 p9", "edge 'e1' has unknown endpoint"),
    ("edge e1 p1 p2", "edge e1 p1 p1", "edge 'e1' is a self-loop"),
    ("e1 p1 p2 w1", "e1 p1 p2 2w1", "edge 'e1' label is not minuscule"),
    ("e1 p1 p2 w1", "e1 p1 p2 0", "edge 'e1' label is not minuscule"),
    ("base p0", "base p1", "base must be the first boundary vertex"),
    ("boundary p0 p1 p2", "boundary p0 p1 p9", "boundary vertex unknown"),
    ("base p0\nboundary p0 p1 p2", "base p9", "unknown base vertex"),
    ("boundary p0 p1 p2\n", "", r"V - E \+ T = 1, expected 2"),
    ("triangle e0 e2 e1\n", "", r"V - E \+ T = 0, expected 1"),
    ("vertex p0 p1 p2", "vertex p0 p1 p2 p3", r"V - E \+ T = 2, expected 1"),
    ("triangle e0 e2 e1", "triangle e0 e2 e0",
     "triangle needs 3 distinct edges"),
    ("triangle e0 e2 e1", "triangle e0 e2 e9",
     "triangle uses unknown edge 'e9'"),
    ("edge e2 p2 p0 w1", "edge e2 p2 p0 w1\nedge e3 p0 p1 w2\n"
     "triangle e0 e3 e1", "triangle edges do not close up"),
    ("vertex p0 p1 p2", "vertex p0 p1 p2 p3\nedge e3 p2 p3 w1\n"
     "triangle e0 e1 e3", "triangle edges do not close up"),
    # two w1 steps and one w2 step round the cycle, by a reversed edge
    # or by a flipped label; then one w1 step and two w2 steps
    ("edge e2 p2 p0 w1", "edge e2 p0 p2 w1",
     "triangle is not a unit lattice triangle"),
    ("edge e2 p2 p0 w1", "edge e2 p2 p0 w2",
     "triangle is not a unit lattice triangle"),
    ("edge e1 p1 p2 w1\nedge e2 p2 p0 w1",
     "edge e1 p2 p1 w1\nedge e2 p2 p0 w2",
     "triangle is not a unit lattice triangle"),
    ("edge e1 p1 p2 w1", "edge e1 p1 p2", "line 6: edge EID TAIL HEAD LABEL"),
    ("triangle e0 e2 e1", "triangle e0 e2", "line 8: triangle needs 3 edges"),
    ("base p0", "face p0", "line 3: unknown directive 'face'"),
    ("type a2\n", "", "missing 'type' line"),
], ids=["duplicate-name", "unknown-endpoint", "self-loop", "label-2w1",
        "label-0", "base-not-first", "unknown-boundary-vertex",
        "unknown-base", "euler-sphere", "euler-disk", "euler-extra-vertex",
        "repeated-edge", "unknown-edge", "open-multi-edge", "open-path",
        "reversed-edge", "relabelled-edge", "one-w1-two-w2", "edge-arity",
        "triangle-arity", "unknown-directive", "missing-type"])
def test_malformed_diskoids_are_rejected(old, new, message):
    assert old in Y_DSK
    with pytest.raises(DiskoidError, match=message):
        parse_diskoid(Y_DSK.replace(old, new, 1))


def test_wellformed_edits_are_accepted():
    # the reversed cycle, all w2 steps, and a closed sphere of two
    # triangles; in A1 every step is w1 in both directions
    for old, new in [
            ("edge e0 p0 p1 w1\nedge e1 p1 p2 w1\nedge e2 p2 p0 w1",
             "edge e0 p1 p0 w1\nedge e1 p2 p1 w1\nedge e2 p0 p2 w1"),
            ("edge e0 p0 p1 w1\nedge e1 p1 p2 w1\nedge e2 p2 p0 w1",
             "edge e0 p0 p1 w2\nedge e1 p1 p2 w2\nedge e2 p2 p0 w2"),
            ("boundary p0 p1 p2\n", "triangle e1 e2 e0\n"),
            ("type a2", "type a1")]:
        D = parse_diskoid(Y_DSK.replace(old, new, 1))
        assert D.n_vertices() == 3 and D.n_edges() == 3
    D = parse_diskoid(Y_DSK.replace("type a2", "type a1").replace(
        "edge e2 p2 p0", "edge e2 p0 p2"))
    assert D.mode == "a1" and D.n_triangles() == 1
    with pytest.raises(DiskoidError, match="not a unit lattice triangle"):
        parse_diskoid(Y_DSK.replace("edge e2 p2 p0", "edge e2 p0 p2"))


def test_triangle_rejections_without_the_parser():
    edges = {0: (0, 1, W1), 1: (1, 2, W1), 2: (2, 0, W1)}
    for tri, message in [((0, 1), "needs 3 distinct edges"),
                         ((0, 1, 2, 0), "needs 3 distinct edges"),
                         ((0, 1, 1), "needs 3 distinct edges"),
                         ((0, 1, 5), "unknown edge 5")]:
        with pytest.raises(DiskoidError, match=message):
            Diskoid("a2", range(3), 0, range(3), edges, [tri])


def test_distance_axioms():
    D = D_of("a2-example")
    for p in D.names:
        assert distance(D, p, p) == (0, 0)
        for q in D.names:
            d = distance(D, p, q)
            # d(q, p) = d(p, q)*
            assert distance(D, q, p) == dual_weight(d)


def test_geodesics_realize_distance():
    D = D_of("a2-example")
    rng = random.Random(0)
    names = sorted(D.names)
    for _ in range(10):
        p, q = rng.sample(names, 2)
        d = distance(D, p, q)
        gs = geodesics(D, p, q)
        assert gs
        for g in gs:
            assert g.total == d
            assert g.vertices[0] == p and g.vertices[-1] == q
            assert len(g.eids) == len(g.vertices) - 1


def simple_paths(D, p, q):
    """{(vertices, eids): total weight} of every simple path p..q."""
    adj = D.adjacency()
    out = {}

    def rec(v, path, eids, a, b):
        if v == q:
            out[tuple(path), tuple(eids)] = (a, b)
            return
        for w, step, eid, _along in adj[v]:
            if w not in path:
                path.append(w)
                eids.append(eid)
                rec(w, path, eids, a + step[0], b + step[1])
                path.pop()
                eids.pop()

    rec(p, [p], [], 0, 0)
    return out


def small_duals(seed, count, mode="a2", max_legs=8):
    """Dual diskoids with at most 10 vertices of random webs without free
    circles; in A2 most of them are not CAT(0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sig = random_signature(rng, mode, max_legs=max_legs)
        w = random_web(sig, rng, mode, max_vertices=8)
        if not w.circles and dual_diskoid(w).n_vertices() <= 10:
            out.append(dual_diskoid(w))
    return out


def test_geodesics_match_brute_force():
    # every vertex pair of 60 small diskoids of random webs, most of them
    # not CAT(0): the geodesics are the simple paths of least weight (a
    # cycle adds a nonzero dominant weight), and a pair with no least
    # weight raises
    duals = small_duals(3, 60)
    non_cat0 = sum(not is_cat0(D) for D in duals)
    for D in duals:
        for p in D.names:
            sets = distance_sets(D, p)
            for q in D.names:
                if len(sets[q]) > 1:
                    with pytest.raises(DiskoidError):
                        geodesics(D, p, q)
                    continue
                got = [(g.vertices, g.eids) for g in geodesics(D, p, q)]
                assert len(got) == len(set(got))
                assert set(got) == {path for path, total
                                    in simple_paths(D, p, q).items()
                                    if total == sets[q][0]}
    assert non_cat0 >= 30


def pareto_minimal(ws, mode):
    return {x for x in ws
            if not any(y != x and dominance_leq(y, x, mode) for y in ws)}


def test_distance_sets_match_brute_force():
    # every vertex pair of 60 small A2 diskoids, most of them not CAT(0),
    # and of 20 A1 ones: the Pareto sets over walks are those over simple
    # paths, and their least-level entries are the weights of the paths
    # with the fewest edges
    duals = small_duals(2, 60) + small_duals(2, 20, "a1", max_legs=18)
    assert sum(not is_cat0(D) for D in duals) >= 30
    assert sum(D.mode == "a1" and D.n_vertices() >= 5 for D in duals) >= 10
    incoherent = 0
    for D in duals:
        for p in D.names:
            sets, hop = distance_sets(D, p), diskoid._hops(D, p)
            for q in D.names:
                paths = simple_paths(D, p, q)
                assert len(set(sets[q])) == len(sets[q])
                assert set(sets[q]) == pareto_minimal(set(paths.values()),
                                                      D.mode)
                low = min(map(rho_level, sets[q]))
                assert low == hop[q]
                assert {x for x in sets[q] if rho_level(x) == low} == {
                    total for (_verts, eids), total in paths.items()
                    if len(eids) == hop[q]}
                incoherent += len(sets[q]) > 1
    assert incoherent >= 2


def test_diamond_move_is_involutive():
    rng = random.Random(42)
    found = 0
    while found < 5:
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=8, split_bias=0.0)
        if w.circles:
            continue
        D = dual_diskoid(w)
        if not is_cat0(D):
            continue
        names = sorted(D.names)
        for p in names:
            for q in names:
                if p == q:
                    continue
                for g in geodesics(D, p, q):
                    for site in diamond_sites(D, g):
                        h = diamond_move(D, g, site)
                        assert h.total == g.total
                        assert h.vertices[0] == p and h.vertices[-1] == q
                        # moving back recovers g
                        back = [diamond_move(D, h, s)
                                for s in diamond_sites(D, h)]
                        assert any(b.vertices == g.vertices
                                   and b.eids == g.eids for b in back)
                        found += 1


def test_complete_extension_reaches_boundary():
    D = D_of("w-nu")
    for q in D.names:
        if q == D.base:
            continue
        for g in geodesics(D, D.base, q):
            ext = complete_extension(D, g)
            assert ext.vertices[0] in D.boundary
            assert ext.vertices[-1] in D.boundary
            # the original geodesic appears as a contiguous subpath
            sv = " %s " % " ".join(map(str, g.vertices))
            ev = " %s " % " ".join(map(str, ext.vertices))
            assert sv in ev


def complete_geodesics(D):
    """All geodesics joining two distinct boundary vertices."""
    n = len(D.boundary)
    return [g for i in range(n) for j in range(n) if i != j
            for g in geodesics(D, D.boundary[i], D.boundary[j])]


def test_complete_geodesics_nonempty():
    D = D_of("single-y")
    gs = complete_geodesics(D)
    assert gs
    for g in gs:
        assert g.vertices[0] in D.boundary and g.vertices[-1] in D.boundary


def test_mu_vector_frozen_examples():
    assert ((0, 0),) + mu_vector(D_of("w-mu"), 0) == MU
    assert ((0, 0),) + mu_vector(D_of("w-nu"), 0) == NU


def test_mu_vector_needs_boundary():
    D = D_of("theta")
    with pytest.raises(DiskoidError):
        mu_vector(D)


def test_leq_S():
    Dmu, Dnu = D_of("w-mu"), D_of("w-nu")
    assert leq_S(Dnu, Dmu)
    assert not leq_S(Dmu, Dnu)
    assert leq_S(Dmu, Dmu)


def test_boundary_rows_match_fresh_distances():
    # mu_vector and leq_S read the memoised boundary rows; recompute every
    # boundary distance from scratch and compare, reading each row twice
    rng = random.Random(8)
    duals = {}
    while sum(map(len, duals.values())) < 12:
        sig = random_signature(rng, max_legs=6)
        w = random_web(sig, rng, max_vertices=6, split_bias=0.0)
        if not w.circles:
            duals.setdefault(len(sig), []).append(dual_diskoid(w))
    for Ds in duals.values():
        n = len(Ds[0].boundary)
        for D in Ds:
            for _ in range(2):
                for i in range(n):
                    assert mu_vector(D, i) == tuple(
                        distance(D, D.boundary[i], D.boundary[(i + k) % n])
                        for k in range(1, n + 1))
        for D in Ds:
            for E in Ds:
                assert leq_S(D, E) == all(
                    dominance_leq(distance(D, D.boundary[i], D.boundary[j]),
                                  distance(E, E.boundary[i], E.boundary[j]))
                    for i in range(n) for j in range(n) if i != j)


def test_boundary_rows_mark_incoherent_pairs():
    # a random dual whose boundary vertices 0 and 3 have two incomparable
    # least weights: its rows hold None there and the distance elsewhere,
    # and mu_vector and leq_S raise
    D = random_duals(3, 103, max_legs=6)[-1]
    n = len(D.boundary)
    rows = [D.boundary_row(i) for i in range(n)]
    assert [(i, j) for i in range(n) for j in range(n)
            if rows[i][j] is None] == [(0, 3), (3, 0)]
    assert len(distance_sets(D, D.boundary[0])[D.boundary[3]]) == 2
    for i, j in itertools.product(range(n), repeat=2):
        if rows[i][j] is not None:
            assert rows[i][j] == distance(D, D.boundary[i], D.boundary[j])
    for i in (0, 3):
        with pytest.raises(DiskoidError, match="non-coherent distance in mu"):
            mu_vector(D, i)
    with pytest.raises(DiskoidError, match="non-coherent distance in leq_S"):
        leq_S(D, D)


def test_leq_S_needs_equal_boundaries():
    with pytest.raises(DiskoidError):
        leq_S(D_of("w-mu"), D_of("single-y"))
    # eight legs each, but one diskoid is A1 and the other A2
    D1 = D_of("a1-example")
    D2 = dual_diskoid(next(iter(enumerate_basis((W1,) * 4 + (W2,) * 4)
                                .webs())))
    for D, E in ((D1, D2), (D2, D1)):
        with pytest.raises(DiskoidError, match="modes differ"):
            leq_S(D, E)


def test_cat0_criterion():
    for name in ("single-y", "a2-example", "w-mu", "w-nu"):
        assert is_cat0(D_of(name)), name


def test_catalog_builds_each_dual_diskoid_once(monkeypatch):
    built = []
    init = diskoid.Diskoid.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(diskoid.Diskoid, "__init__", counted_init)
    sig = (W1, W1, W2, W1, W2, W2)
    cat = enumerate_basis(sig)
    assert len(built) == len(cat)
    rotated_catalog_check(cat, 1)
    # the catalog's webs reuse theirs; each rotated web builds its own
    assert len(built) == 2 * len(cat)
    assert [dual_diskoid(w) for w in cat.webs()] == built[:len(cat)]
    assert len(built) == 2 * len(cat)


def test_rotated_catalog_check_uses_the_rotated_webs_own_diskoids():
    cat = enumerate_basis((W1, W2, W1, W2, W1, W2))
    rot = rotated_catalog_check(cat, 1)
    for w in cat.webs():
        assert rotate(w, 1)._dual is None
        _p, w2 = rot.by_key[rotate(w, 1).canonical_key()]
        D, D2 = dual_diskoid(w), dual_diskoid(w2)
        assert D2 is not D
        assert mu_vector(D2, 0) == mu_vector(D, 1)


# ----------------------------------------------------------------------
# the geodesic layer as it was first written, kept as the oracle of the
# library's: a rhombus search through every edge joining two vertices, a
# recursive extension that recomputes a Pareto table for every step, and
# a triangle check that walks the cycle


def edges_joining(D, u, v):
    return [e for e, (a, b, _) in D.edges.items() if {a, b} == {u, v}]


def reference_diamond_sites(D, g):
    sites = []
    tri_sets = {D.triangle_vertices(t): t for t in range(len(D.triangles))}

    def flat(eux, exw, i):
        return (diskoid._step_type(D, g.vertices[i - 1], x, eux)
                == diskoid._step_type(D, g.vertices[i], g.vertices[i + 1],
                                      g.eids[i])
                and diskoid._step_type(D, x, g.vertices[i + 1], exw)
                == diskoid._step_type(D, g.vertices[i - 1], g.vertices[i],
                                      g.eids[i - 1]))

    for i in range(1, len(g.vertices) - 1):
        u, v, w = g.vertices[i - 1], g.vertices[i], g.vertices[i + 1]
        if u == w:
            continue
        t_uvw = tri_sets.get(frozenset((u, v, w)))
        for x in D.names:
            if x in (u, v, w):
                continue
            found = None
            # same-type rhombus: triangles (u,v,w), (u,w,x), diagonal u-w
            if t_uvw is not None:
                t2 = tri_sets.get(frozenset((u, w, x)))
                if t2 is not None:
                    tri1, tri2 = D.triangles[t_uvw], D.triangles[t2]
                    if any(e in tri1 and e in tri2
                           for e in edges_joining(D, u, w)):
                        eux = [e for e in tri2 if e in edges_joining(D, u, x)]
                        exw = [e for e in tri2 if e in edges_joining(D, x, w)]
                        if eux and exw:
                            found = (eux[0], exw[0])
            # mixed-type rhombus: triangles (u,v,x), (v,w,x), diagonal v-x
            if found is None:
                t1 = tri_sets.get(frozenset((u, v, x)))
                t2 = tri_sets.get(frozenset((v, w, x)))
                if t1 is not None and t2 is not None:
                    tri1, tri2 = D.triangles[t1], D.triangles[t2]
                    if any(e in tri1 and e in tri2
                           for e in edges_joining(D, v, x)):
                        eux = [e for e in tri1 if e in edges_joining(D, u, x)]
                        exw = [e for e in tri2 if e in edges_joining(D, x, w)]
                        if eux and exw:
                            found = (eux[0], exw[0])
            if found is not None and flat(found[0], found[1], i):
                sites.append((i, x, found))
    return sites


def reference_complete_extension(D, g):
    r = reference_extend(D, set(D.boundary), D.adjacency(), g.vertices,
                         g.eids, g.steps, g.total)
    if r is None:
        raise DiskoidError("no complete extension found (non-CAT(0) input?)")
    return r


def reference_extend(D, bset, adj, verts, eids, steps, total):
    u, v = verts[0], verts[-1]
    if v not in bset:
        for w, step, eid, _along in adj[v]:
            if w in verts:
                continue
            t2 = (total[0] + step[0], total[1] + step[1])
            if t2 not in distance_sets(D, u)[w]:
                continue
            r = reference_extend(D, bset, adj, verts + (w,), eids + (eid,),
                                 steps + (step,), t2)
            if r is not None:
                return r
        return None
    if u not in bset:
        for w, step, eid, _along in adj[u]:
            if w in verts:
                continue
            st = dual_weight(step, D.mode)
            t2 = (total[0] + st[0], total[1] + st[1])
            if t2 not in distance_sets(D, w)[v]:
                continue
            r = reference_extend(D, bset, adj, (w,) + verts, (eid,) + eids,
                                 (st,) + steps, t2)
            if r is not None:
                return r
        return None
    return diskoid.Geodesic(verts, eids, steps, total)


def reference_check_triangle(D, tri):
    if len(tri) != 3 or len(set(tri)) != 3:
        raise DiskoidError("triangle needs 3 distinct edges")
    for e in tri:
        if e not in D.edges:
            raise DiskoidError("triangle uses unknown edge %r" % (e,))
    ends = {}
    for e in tri:
        u, v, _ = D.edges[e]
        ends.setdefault(u, []).append(e)
        ends.setdefault(v, []).append(e)
    if len(ends) != 3 or any(len(es) != 2 for es in ends.values()):
        raise DiskoidError("triangle edges do not close up")
    verts = list(ends)
    a = verts[0]
    e1 = ends[a][0]
    u, v, lam = D.edges[e1]
    b = v if u == a else u
    s1 = lam if u == a else dual_weight(lam, D.mode)
    e2 = next(e for e in ends[b] if e != e1)
    u, v, lam = D.edges[e2]
    c = v if u == b else u
    s2 = lam if u == b else dual_weight(lam, D.mode)
    e3 = next(e for e in ends[c] if e != e2)
    u, v, lam = D.edges[e3]
    s3 = lam if u == c else dual_weight(lam, D.mode)
    back = v if u == c else u
    if back != a or not (s1 == s2 == s3):
        raise DiskoidError("triangle is not a unit lattice triangle")


def outcome(f, *args):
    """f(*args), or the message of the DiskoidError it raises."""
    try:
        return f(*args)
    except DiskoidError as exc:
        return "DiskoidError: %s" % exc


def random_duals(seed, count, max_legs=8, max_vertices=8, mode="a2"):
    """Dual diskoids of random webs without free circles; in A2 most of
    them are not CAT(0)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sig = random_signature(rng, mode, max_legs=max_legs)
        w = random_web(sig, rng, mode, max_vertices=max_vertices)
        if not w.circles:
            out.append(dual_diskoid(w))
    return out


def criterion_7_duals():
    """The CAT(0) diskoids of acceptance criterion 7."""
    rng = random.Random(42)
    disks = []
    while len(disks) < 100:
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=8, split_bias=0.0)
        if w.circles:
            continue
        D = dual_diskoid(w)
        if is_cat0(D) and len(D.triangles) <= 15:
            disks.append(D)
    return disks


def coherent_geodesics(D, sources):
    """Every geodesic from a source to every vertex it has a coherent
    distance to."""
    for p in sources:
        sets = distance_sets(D, p)
        for q in D.names:
            if len(sets[q]) == 1:
                yield from geodesics(D, p, q)


def test_geodesic_layer_matches_its_first_version(catalogs_le8):
    # every geodesic from the base on the catalog webs of length <= 8 and
    # on w-mu and w-nu; every geodesic of the criterion-7 diskoids and of
    # random ones, most of them not CAT(0)
    duals = [dual_diskoid(w) for cat in catalogs_le8.values()
             for w in cat.webs()]
    duals += [D_of("w-mu"), D_of("w-nu")]
    cases = [(D, [D.base]) for D in duals]
    cases += [(D, D.names) for D in criterion_7_duals() + random_duals(5, 150)]
    n = errors = moves = 0
    for D, sources in cases:
        for g in coherent_geodesics(D, sources):
            n += 1
            sites = diamond_sites(D, g)
            assert sites == reference_diamond_sites(D, g)
            moves += len(sites)
            got = outcome(complete_extension, D, g)
            assert got == outcome(reference_complete_extension, D, g)
            errors += isinstance(got, str)
    # 30,741 geodesics on 2,836 diskoids, 128 of them not CAT(0)
    assert n > 30000 and moves > 8000 and errors > 4000
    assert sum(not is_cat0(D) for D, _sources in cases) > 100


def reference_geodesics(D, p, q):
    """The geodesics as the Pareto sets find them: a path p..w is extended
    only if what remains of d is the weight of a Pareto-minimal path
    w..q, read from the duals of `distance_sets` from q."""
    d = distance(D, p, q)
    if d == (0, 0):
        return [diskoid.Geodesic((p,), (), (), (0, 0))]
    back = {v: {dual_weight(x, D.mode) for x in xs}
            for v, xs in distance_sets(D, q).items()}
    adj = D.adjacency()
    out, stack = [], [(p, (0, 0), (p,), (), ())]
    while stack:
        v, (a, b), path, eids, steps = stack.pop()
        if (a, b) == d:
            if v == q:
                out.append(diskoid.Geodesic(path, eids, steps, d))
            continue
        nxt = []
        for w, step, eid, _along in adj[v]:
            a2, b2 = a + step[0], b + step[1]
            if (a2 <= d[0] and b2 <= d[1]
                    and (d[0] - a2, d[1] - b2) in back[w]):
                nxt.append((w, (a2, b2), path + (w,), eids + (eid,),
                            steps + (step,)))
        stack += reversed(nxt)
    return out


def test_geodesics_match_their_pareto_version(catalogs_le8):
    # list for list, in order, or the same error: from the base on the
    # catalog webs of length <= 8 and on w-mu and w-nu; between every
    # pair of the criterion-7 diskoids, of random ones (most of them not
    # CAT(0)) and of random A1 ones
    duals = [dual_diskoid(w) for cat in catalogs_le8.values()
             for w in cat.webs()]
    duals += [D_of("w-mu"), D_of("w-nu")]
    cases = [(D, [D.base]) for D in duals]
    cases += [(D, D.names) for D in criterion_7_duals() + random_duals(5, 150)
              + random_duals(6, 40, max_legs=12, mode="a1")]
    n = errors = 0
    for D, sources in cases:
        for p in sources:
            for q in D.names:
                got = outcome(geodesics, D, p, q)
                assert got == outcome(reference_geodesics, D, p, q)
                n += len(got) if isinstance(got, list) else 0
                errors += isinstance(got, str)
    assert n > 30000 and errors >= 2
    assert sum(D.mode == "a1" and D.n_vertices() >= 6 for D, _s in cases) > 10


def test_triangle_check_matches_its_first_version():
    # random edge triples on three or four vertices, malformed ones
    # included; no self-loops, since `validate` rejects those first
    rng = random.Random(12)
    verdicts = collections.Counter()
    for mode in ("a1", "a2"):
        for _ in range(5000):
            n, m = rng.choice((3, 3, 4)), rng.randrange(3, 6)
            edges = {e: (*rng.sample(range(n), 2),
                         W1 if mode == "a1" else rng.choice((W1, W2)))
                     for e in range(m)}
            D = Diskoid(mode, (), None, (), {}, ())
            D.edges = edges
            t = rng.sample(range(m), 3)
            # mostly three distinct known edges; edge 9 is unknown
            tri = tuple(rng.choice((t, t, t, t, t, t, t[:2], t[:2] + t[:1],
                                    t + [9], t[:2] + [9])))
            got = outcome(D._check_triangle, tri)
            assert got == outcome(reference_check_triangle, D, tri)
            verdicts[mode, got and got.split()[2]] += 1
    # every verdict occurs, and A1 has no orientation to reject
    assert len(verdicts) == 9 and min(verdicts.values()) > 100
    assert ("a1", "is") not in verdicts


@pytest.mark.parametrize("old, new, message", [
    ("type a2", "type", "line 1: type must be a1 or a2"),
    ("type a2", "type a3", "line 1: type must be a1 or a2"),
    ("type a2", "type a2 a1", "line 1: type must be a1 or a2"),
    ("base p0", "base", "line 3: base needs 1 vertex"),
    ("base p0", "base p0 p1", "line 3: base needs 1 vertex"),
    ("e1 p1 p2 w1", "e1 p1 p2 w3", "line 6: bad weight syntax: 'w3'"),
    ("e1 p1 p2 w1", "e1 p1 p2 w1+", "line 6: bad weight syntax: 'w1\\+'"),
    ("boundary p0 p1 p2", "boundary p0 p1",
     "edge 'e1' is on the rim but an end is not on the boundary"),
    # a repeated line replaced the first one, and a repeated edge id
    # passed as one edge
    ("base p0", "base p0\nbase p1",
     r"line 4: a second 'base' line \(the first is line 3\)"),
    ("boundary p0 p1 p2", "boundary p0 p1 p2\nboundary p1 p2 p0",
     r"line 5: a second 'boundary' line \(the first is line 4\)"),
    ("edge e0 p0 p1 w1", "edge e0 p0 p1 w1\nedge e0 p0 p1 w1",
     "line 6: a second edge 'e0'"),
], ids=["type-bare", "type-a3", "type-two", "base-bare", "base-two",
        "label-w3", "label-trailing-sign", "rim-off-boundary", "base-twice",
        "boundary-twice", "edge-id-twice"])
def test_every_directive_is_checked(old, new, message):
    assert old in Y_DSK
    with pytest.raises(DiskoidError, match=message):
        parse_diskoid(Y_DSK.replace(old, new, 1))


def test_directives_ignore_case_comments_and_blank_lines():
    text = "# the single-Y dual\n\n" + Y_DSK.replace(
        "type a2", "TYPE A2  # mode").replace("base p0", "Base p0\n")
    assert serialize_diskoid(parse_diskoid(text)) == Y_DSK


def test_every_dual_has_its_rim_on_the_boundary(catalogs_le8):
    # parse_diskoid's rim check rejects no dual: a web edge with an end on
    # the boundary borders two faces that touch the boundary
    rng = random.Random(8)
    webs = [random_web(random_signature(rng, max_legs=8), rng,
                       max_vertices=10) for _ in range(200)]
    webs += [w for cat in catalogs_le8.values() for w in cat.webs()]
    for w in webs:
        text = serialize_diskoid(dual_diskoid(w))
        assert serialize_diskoid(parse_diskoid(text)) == text
