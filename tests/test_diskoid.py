import random

import pytest

from spiderweb import corpus, diskoid
from spiderweb.basis import enumerate_basis, rotated_catalog_check
from spiderweb.diskoid import (
    DiskoidError, complete_extension, diamond_move, diamond_sites, distance,
    distance_sets, dual_diskoid, geodesics, is_cat0, leq_S, mu_vector,
    parse_diskoid, serialize_diskoid)
from spiderweb.generate import random_signature, random_web
from spiderweb.webs import rotate
from spiderweb.weights import W1, W2, dominance_leq, dual as dual_weight

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


def test_geodesics_match_brute_force():
    # every vertex pair of 60 small diskoids of random webs, most of them
    # not CAT(0): the geodesics are the simple paths of least weight (a
    # cycle adds a nonzero dominant weight), and a pair with no least
    # weight raises
    rng = random.Random(3)
    found = non_cat0 = 0
    while found < 60:
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=8)
        if w.circles:
            continue
        D = dual_diskoid(w)
        if D.n_vertices() > 10:
            continue
        found += 1
        non_cat0 += not is_cat0(D)
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


def test_leq_S_needs_equal_boundaries():
    with pytest.raises(DiskoidError):
        leq_S(D_of("w-mu"), D_of("single-y"))


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
