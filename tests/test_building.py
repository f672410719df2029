import collections
import gc
import itertools
import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from spiderweb import building, corpus
from spiderweb.basis import enumerate_basis, minuscule_paths, path_tag
from spiderweb.building import (
    APARTMENT, BuildingError, FieldParam, LatticeClass, Linkage,
    _count, _col_sub, _enumerate, _enumerated_partition, _hecke_factor,
    _padd, _pmul, _proj_plane, _pshift, _psub, _pval,
    auto_precision, base_class,
    count_configurations, count_fibre, diskoid_linkage, euler_estimate,
    lattice_distance, neighbors, panel, polygon_linkage,
    sample_polygon_config, satake_partition)
from spiderweb.diskoid import (DiskoidError, complete_extension, distance,
                               dual_diskoid, geodesics)
from spiderweb.generate import random_signature, random_web
from spiderweb.hexagon import (
    _Field, hexagon_genericity, hexagon_solution_points,
    solve_hexagon_incidence)
from spiderweb.oracle import _tuples_of_weight, contract_closed, web_vector
from spiderweb.skein import evaluate_closed
from spiderweb.webs import WebError, glue, mirror
from spiderweb.weights import W1, W2, dominance_leq, dual as dual_weight

from conftest import hnf, pinv_unit


def test_fieldparam_validation():
    with pytest.raises(BuildingError):
        FieldParam(4)
    assert auto_precision([W1, W2, W1]) == 8


def test_base_distance_zero():
    fp = FieldParam(2)
    L = base_class(fp)
    assert lattice_distance(L, L) == (0, 0)


def test_neighbor_counts_and_distances():
    for q in (2, 3):
        fp = FieldParam(q)
        L = base_class(fp)
        for color in (W1, W2):
            nbrs = neighbors(L, color)
            assert len(nbrs) == q * q + q + 1
            assert len(set(nbrs)) == len(nbrs)
            for M in nbrs:
                assert lattice_distance(L, M) == color
                assert lattice_distance(M, L) == dual_weight(color)


def test_functional_and_vector_classes():
    # built as columns, independently of `neighbors`, and put in normal
    # form by the generic `hnf`: the kernel of the functional x0 + 2 x1 on
    # L/tL, and the line (0, 1, 1) plus t.L
    fp = FieldParam(3)
    L = base_class(fp)
    zero, one, t = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)
    F = LatticeClass(fp, hnf(((t, zero, zero), (one, one, zero),
                              (zero, zero, one)), fp))
    V = LatticeClass(fp, hnf(((zero, one, one), (t, zero, zero),
                              (zero, t, zero)), fp))
    assert lattice_distance(L, F) == W1
    assert lattice_distance(L, V) == W2
    assert F in set(neighbors(L, W1)) and F not in set(neighbors(L, W2))
    assert V in set(neighbors(L, W2)) and V not in set(neighbors(L, W1))
    assert "(1, 0)" in repr(F)


def test_generic_normal_form_needs_a_full_lattice():
    # columns of rank 2, however high their degree, leave a row unpivoted
    fp = FieldParam(3)
    zero, one, t = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)
    rank2 = ((one, zero, t), (zero, one, t),
             (one, (2, 2, 0, 1), (0, 0, 2, 0, 1)))
    with pytest.raises(BuildingError, match="no full lattice"):
        hnf(rank2, fp)
    with pytest.raises(BuildingError, match="not lower triangular"):
        LatticeClass(fp, rank2)


def test_edge_and_polygon_counts():
    # a single w1 edge has q^2+q+1 configurations
    for q in (2, 3):
        cc = count_configurations(Linkage([0, 1], 0, [(0, 1, W1)]),
                                  FieldParam(q))
        assert cc.count == q * q + q + 1
    # the (w1, w2) digon: 7 points at q = 2
    cc = count_configurations(polygon_linkage((W1, W2)), FieldParam(2))
    assert cc.count == 7


def test_count_order_independence():
    link = polygon_linkage((W1, W1, W1))
    fp = FieldParam(2)
    base = count_configurations(link, fp).count
    for seed in (1, 2, 3):
        assert count_configurations(link, fp,
                                    rng=random.Random(seed)).count == base


def test_satake_partition_digon():
    buckets = satake_partition((W1, W2), FieldParam(2))
    assert buckets == {((0, 0), W1, (0, 0)): 7}
    assert set(buckets) == set(minuscule_paths((W1, W2)))


def gluable(*lengths):
    return [sig for n in lengths
            for sig in itertools.product((W1, W2), repeat=n)
            if minuscule_paths(sig)]


@pytest.mark.parametrize("q", (2, 3))
def test_satake_partition_matches_enumeration(q):
    # every gluable signature of length at most 5, against the
    # configurations `_enumerate` visits
    for sig in gluable(1, 2, 3, 4, 5):
        fp = FieldParam(q)
        assert satake_partition(sig, fp) == _enumerated_partition(sig, fp)


@settings(max_examples=4, deadline=None)
@given(st.sampled_from(gluable(6)))
def test_satake_partition_matches_enumeration_length6(sig):
    fp = FieldParam(2)
    assert satake_partition(sig, fp) == _enumerated_partition(sig, fp)


def test_satake_partition_matches_enumeration_in_the_apartment():
    # q = 1: the closed form against the configurations that the one
    # search visits in the apartment, every gluable signature up to 8 legs
    sigs = gluable(*range(1, 9))
    assert len(sigs) == 170
    for sig in sigs:
        assert satake_partition(sig, APARTMENT) == \
            _enumerated_partition(sig, APARTMENT)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from((2, 3, 5)),
       st.lists(st.tuples(st.sampled_from((W1, W2)), st.integers(0, 10 ** 6)),
                max_size=5))
def test_pivot_sum_is_base_distance_level(q, steps):
    # the pivot exponents of a normal form add up to a + 2b for the
    # distance (a, b) from the base
    base = L = base_class(FieldParam(q))
    for color, i in steps:
        L = neighbors(L, color)[i % (q * q + q + 1)]
    for M in neighbors(L, W1) + neighbors(L, W2):
        a, b = lattice_distance(base, M)
        pivots = [M.cols[i][i] for i in range(3)]
        assert sum(p.index(1) for p in pivots) == a + 2 * b
        assert all(not any(p[:p.index(1)]) for p in pivots)


def test_hexagonal_partition_q5_is_a_product():
    # (w1 w2)^3 at q = 5: 166,501 configurations, none enumerated.  On
    # the path 0, w1, 0, w1, 0, w1, 0 each w1 step leaves the base for
    # any of its q^2+q+1 neighbours and each w2 step must return to it
    sig, q = (W1, W2) * 3, 5
    t0 = time.perf_counter()
    buckets = satake_partition(sig, FieldParam(q))
    assert time.perf_counter() - t0 < 1
    assert set(buckets) == set(minuscule_paths(sig))
    zero = (0, 0)
    assert buckets[(zero, W1) * 3 + (zero,)] == (q * q + q + 1) ** 3 == 29791


def test_satake_partition_does_no_lattice_arithmetic(monkeypatch):
    # the factors are closed forms in q: the criterion-6 buckets come
    # out with every lattice routine gone
    def gone(*_args):
        raise AssertionError("lattice arithmetic in satake_partition")

    for name in ("neighbors", "lattice_distance", "_base_distances"):
        monkeypatch.setattr(building, name, gone)
    fp = FieldParam(2)
    assert satake_partition((W1, W2), fp) == {((0, 0), W1, (0, 0)): 7}
    assert satake_partition((W1, W1, W1), fp) == \
        {((0, 0), W1, W2, (0, 0)): 21}
    assert sorted(satake_partition((W1, W2, W1, W2), fp).values()) == [42, 49]


def reference_satake_partition(signature, fp, paths=None):
    """`satake_partition` as it was before the walk carried the products:
    each path's product of Hecke factors bar the last, worked out in full
    for every path, in sorted path order."""
    return {path: math.prod(_hecke_factor(*step, fp.q)
                            for step in zip(path, signature, path[1:-1]))
            for path in sorted(paths or minuscule_paths(signature))}


def test_satake_partition_matches_the_per_path_products():
    # same buckets in the same order: every signature of length <= 10 at
    # q = 2, 3, 5 and 7 and in the apartment
    spaces = [FieldParam(q) for q in (2, 3, 5, 7)] + [APARTMENT]
    for n in range(11):
        for sig in itertools.product((W1, W2), repeat=n):
            paths = minuscule_paths(sig)
            for space in spaces:
                assert list(satake_partition(sig, space).items()) == list(
                    reference_satake_partition(sig, space, paths).items())


@pytest.mark.parametrize("q", (2, 3, 5))
def test_hecke_factors_equal_lattice_counts(q):
    # the reference: the lam-neighbours of one class x at distance mu
    # from the base, counted by their distance from it.  x is reached by
    # a w1 step from the class at mu - w1, or else a w2 step from mu - w2
    base = base_class(FieldParam(q))
    reps = {(0, 0): base}
    for mu in itertools.product(range(4), repeat=2):
        if mu != (0, 0):
            prev, color = ((mu[0] - 1, mu[1]), W1) if mu[0] else \
                ((0, mu[1] - 1), W2)
            reps[mu] = next(y for y in neighbors(reps[prev], color)
                            if lattice_distance(base, y) == mu)
        for lam in (W1, W2):
            counted = collections.Counter(
                lattice_distance(base, y) for y in neighbors(reps[mu], lam))
            closed = {nu: _hecke_factor(mu, lam, nu, q)
                      for nu in itertools.product(range(6), repeat=2)}
            assert {nu: c for nu, c in closed.items() if c} == counted, \
                (mu, lam)
            assert sum(closed.values()) == q * q + q + 1


def test_partition_at_integer_q():
    # every bucket is a product of sums of distinct powers of q, so at
    # q = B above its coefficients (at most 3^(n-1)) its base-B digits
    # are them: monic of degree n means B^n <= size < 2 B^n.  At q = 1
    # the buckets add up to the zero-weight multiplicity, since folding
    # each step into the dominant chamber is a bijection between weight
    # tuples of sum 0 and folded walks back to 0
    B = 10 ** 4
    for sig in gluable(1, 2, 3, 4, 5, 6, 7, 8):
        n = len(sig)
        at_b = satake_partition(sig, SimpleNamespace(q=B))
        assert all(B ** n <= size < 2 * B ** n for size in at_b.values())
        at_one = satake_partition(sig, SimpleNamespace(q=1))
        assert sum(at_one.values()) == \
            len(_tuples_of_weight(sig, "a2", (0, 0)))


def test_sample_polygon_config_rejects_a_non_path_at_once(monkeypatch):
    # checked step by step before any lattice is built
    def gone(*_args):
        raise AssertionError("neighbors called for an invalid target")

    monkeypatch.setattr(building, "neighbors", gone)
    monkeypatch.setattr(building, "_neighbour", gone)
    sig, fp = (W1, W2) * 3, FieldParam(2)
    zero = (0, 0)
    for target in ((zero, W1, zero, W1, zero, W1),          # too short
                   (zero, W1, zero, W1, zero, W1, W1),      # not closed
                   (zero, W2, zero, W1, zero, W1, zero),    # w2 step on w1
                   (zero, W1, (2, 0), W1, zero, W1, zero),  # no w2 step
                   (zero, W1, zero, (-1, 1), zero, W1, zero)):  # not dominant
        with pytest.raises(BuildingError, match="not a minuscule path"):
            sample_polygon_config(sig, target, fp, random.Random(0))


def test_sample_polygon_config_hits_stratum():
    # every step has c(mu_k, lam_k, mu_k+1) > 0 candidates whatever the
    # earlier draws, so one walk reaches the stratum of every path
    fp = FieldParam(2)
    base = base_class(fp)
    for sig in gluable(1, 2, 3, 4, 5):
        n = len(sig)
        for target in minuscule_paths(sig):
            cfg = sample_polygon_config(sig, target, fp, random.Random(9))
            cfg[n] = base
            for k in range(n):
                assert lattice_distance(base, cfg[k]) == target[k]
                assert lattice_distance(cfg[k], cfg[k + 1]) == sig[k]


def test_count_fibre_bigon():
    D = dual_diskoid(corpus.load_web("bigon"))
    for q in (2, 3):
        fp = FieldParam(q)
        rng = random.Random(1)
        # pin the boundary by walking one of the two parallel edges
        base = base_class(fp)
        other = [v for v in D.boundary if v != D.base][0]
        lam = next(lam for (u, v, lam) in D.edges.values()
                   if {u, v} == {D.base, other})
        for M in neighbors(base, lam):
            n = count_fibre(D, {D.base: base, other: M}, fp)
            assert n == q + 1
            break


def test_count_fibre_rejects_bad_boundary():
    D = dual_diskoid(corpus.load_web("single-y"))
    fp = FieldParam(2)
    with pytest.raises(BuildingError, match="not assigned"):
        count_fibre(D, {D.base: base_class(fp)}, fp)
    off = neighbors(base_class(fp), W1)[0]
    with pytest.raises(BuildingError, match="standard lattice"):
        count_fibre(D, {v: off for v in D.boundary}, fp)


def test_count_fibre_of_an_inconsistent_boundary_is_zero():
    # the bigon's other boundary vertex on the wrong sphere around the
    # base: no configuration extends it, as `_enumerate` finds too
    D = dual_diskoid(corpus.load_web("bigon"))
    link = diskoid_linkage(D)
    for q in (2, 3):
        fp = FieldParam(q)
        base = base_class(fp)
        other = [v for v in D.boundary if v != D.base][0]
        lam = next(lam for (u, v, lam) in D.edges.values()
                   if (u, v) == (D.base, other))
        cfg = {D.base: base, other: neighbors(base, dual_weight(lam))[0]}
        pinned = Linkage(link.vertices, link.base, link.edges, fixed=cfg)
        assert count_fibre(D, cfg, fp) == _enumerate(pinned, fp) == 0


def test_count_fibre_checks_each_boundary_edge_once(monkeypatch):
    # w-mu's dual diskoid has 12 edges between boundary vertices (the
    # base among them), and each distance is computed once
    w = corpus.load_web("w-mu")
    D = dual_diskoid(w)
    sig = w.boundary_signature()
    fp = FieldParam(2)
    cfg = sample_polygon_config(sig, path_tag(w), fp, random.Random(3))
    cfg = {D.boundary[i]: cfg[i] for i in range(len(sig))}
    calls = []

    def spy(L, Lp):
        calls.append(1)
        return lattice_distance(L, Lp)

    monkeypatch.setattr(building, "lattice_distance", spy)
    assert count_fibre(D, cfg, fp) >= 1
    assert len(calls) == 12


def fibre_over(D, x, fp):
    """The fibre of F(w) over the polygon point x (x[i] at D's i-th
    boundary vertex): 0 when a vertex that D's boundary passes twice
    meets two classes, else `count_fibre`."""
    cfg = {}
    for v, y in zip(D.boundary, x):
        if cfg.setdefault(v, y) != y:
            return 0
    return count_fibre(D, cfg, fp)


def test_satake_strata_are_triangular():
    # every basis web w of every gluable signature of length at most 6,
    # one seeded point x of each stratum p at q = 2: the fibre over
    # path(w) is 1, and a nonzero fibre has p <= path(w) entrywise and
    # each d(x_i, x_j) dominance-below D(w)'s boundary distance
    fp = FieldParam(2)
    seen = collections.Counter()
    for sig in gluable(1, 2, 3, 4, 5, 6):
        n = len(sig)
        for top, w, _key in enumerate_basis(sig).entries:
            D = dual_diskoid(w)
            for p in minuscule_paths(sig):
                x = sample_polygon_config(sig, p, fp, random.Random(7))
                m = fibre_over(D, [x[i] for i in range(n)], fp)
                kind = "diagonal" if p == top else "nonzero" if m else "zero"
                seen[kind] += 1
                if p == top:
                    assert m == 1, (sig, p)
                if m:
                    assert all(map(dominance_leq, p, top)), (sig, p, top)
                    assert all(dominance_leq(
                        lattice_distance(x[i], x[j]),
                        distance(D, D.boundary[i], D.boundary[j]))
                        for i in range(n) for j in range(n) if i != j)
    assert seen == {"diagonal": 176, "nonzero": 78, "zero": 634}


@pytest.mark.parametrize("q, nonzero, zero", ((2, 449, 4883), (3, 263, 5069)))
def test_full_satake_sweep(q, nonzero, zero):
    # every gluable signature of length at most 7: each basis web w, one
    # seeded point x of each stratum p, with the checks of
    # `test_satake_strata_are_triangular`; 5,970 fibres at each q
    fp = FieldParam(q)
    seen = collections.Counter()
    for sig in gluable(*range(1, 8)):
        n = len(sig)
        for top, w, _key in enumerate_basis(sig).entries:
            D = dual_diskoid(w)
            for p in minuscule_paths(sig):
                x = sample_polygon_config(sig, p, fp, random.Random(7))
                m = fibre_over(D, [x[i] for i in range(n)], fp)
                kind = "diagonal" if p == top else "nonzero" if m else "zero"
                seen[kind] += 1
                if p == top:
                    assert m == 1, (sig, p)
                if m:
                    assert all(map(dominance_leq, p, top)), (sig, p, top)
                    assert all(dominance_leq(
                        lattice_distance(x[i], x[j]),
                        distance(D, D.boundary[i], D.boundary[j]))
                        for i in range(n) for j in range(n) if i != j)
    assert seen == {"diagonal": 638, "nonzero": nonzero, "zero": zero}


def test_euler_estimate_theta():
    # the count is (q^2+q+1)(q+1), and chi its value 6 at q = 1
    D = dual_diskoid(corpus.load_web("theta"))
    link = diskoid_linkage(D)
    for q in (2, 3, 5):
        assert count_configurations(link, FieldParam(q)).count == \
            (q * q + q + 1) * (q + 1)
    assert euler_estimate(D) == 6 == \
        evaluate_closed(corpus.load_web("theta"), -1)


def test_euler_estimate_single_triangle():
    # boundary pinned nowhere: the full flag count (q^2+q+1)(q+1) again
    D = dual_diskoid(corpus.load_web("single-y"))
    link = diskoid_linkage(D)
    assert [count_configurations(link, FieldParam(q)).count
            for q in (2, 3, 5, 7)] == [21, 52, 186, 456]
    assert euler_estimate(D) == 6


HEX_LINES = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
HEX_POINTS = [(1, 2, 3), (3, 1, 2), (2, 5, 1)]


def test_hexagon_rational_sample():
    assert hexagon_genericity(HEX_LINES, HEX_POINTS)
    n, roots = solve_hexagon_incidence(HEX_LINES, HEX_POINTS,
                                       return_roots=True)
    assert n == 2
    for t1 in roots:
        pp, lp = hexagon_solution_points(HEX_LINES, HEX_POINTS, t1)
        assert len(pp) == 3 and len(lp) == 3


def test_hexagon_finite_field():
    F = _Field(5)
    rng = random.Random(2)
    seen = 0
    while seen < 5:
        lines = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(3)]
        points = [tuple(rng.randrange(5) for _ in range(3)) for _ in range(3)]
        if not all(any(x) for x in lines + points):
            continue
        if not hexagon_genericity(lines, points, F):
            continue
        assert solve_hexagon_incidence(lines, points, F) == 2
        seen += 1


def test_hexagon_over_f2_is_never_generic():
    # a generic row has p_ii = p_i,i+1 = 1 and sums to 1, so over F_2 the
    # three points coincide: the solver rejects every sample before it
    # takes a root
    F2 = _Field(2)
    P2 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1),
          (0, 1, 1), (1, 1, 1)]
    rng = random.Random(7)
    for lines, points in [(HEX_LINES, P2[3:6]), (HEX_LINES, [P2[6]] * 3),
                          (P2[3:6], P2[:3])] + [
            ([rng.choice(P2) for _ in range(3)],
             [rng.choice(P2) for _ in range(3)]) for _ in range(20)]:
        with pytest.raises(BuildingError, match="genericity fails"):
            solve_hexagon_incidence(lines, points, F2)


def test_hexagon_huge_rational_sample():
    # the discriminant's square root is taken far beyond float range
    points = [(1, 2, 3), (3, 10 ** 100 + 1, 2), (2, 5, 10 ** 100 + 7)]
    assert solve_hexagon_incidence(HEX_LINES, points) == 2


def hex_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def hex_closes(lines, points, t1, p=None):
    """Whether p'_1 = t1 e_1 + (1 - t1) e_3 (e_1 - e_3 for t1 = None)
    comes back to itself when carried round the hexagon by joins and
    meets: p'_2 = (p_2 v p'_1) ^ l_2, p'_3 = (p_3 v p'_2) ^ l_3, and
    (p_1 v p'_3) ^ l_1."""
    (l1, l2, l3), (p1, p2, p3) = lines, points
    e1, e3 = hex_cross(l1, l2), hex_cross(l3, l1)
    a, b = (1, -1) if t1 is None else (t1, 1 - t1)
    x = [a * u + b * v for u, v in zip(e1, e3)]
    y = hex_cross(hex_cross(p2, x), l2)
    y = hex_cross(hex_cross(p3, y), l3)
    y = hex_cross(hex_cross(p1, y), l1)
    return all((z % p if p else z) == 0 for z in hex_cross(x, y))


def hex_samples(rng, p, n):
    """n random generic samples over F_p (or Q, p=None, coordinates -3..3),
    with the field handle."""
    F, lo, hi = _Field(p), (0 if p else -3), (p - 1 if p else 3)
    out = []
    while len(out) < n:
        lines, points = ([tuple(rng.randint(lo, hi) for _ in range(3))
                          for _ in range(3)] for _ in range(2))
        if hexagon_genericity(lines, points, F):
            out.append((lines, points, F))
    return out


def test_hexagon_rational_sample_has_its_two_roots():
    n, roots = solve_hexagon_incidence(HEX_LINES, HEX_POINTS,
                                       return_roots=True)
    assert (n, roots) == (2, [None, Fraction(3, 4)])
    for t1 in roots:
        assert hex_closes(HEX_LINES, HEX_POINTS, t1)
        pp, lp = hexagon_solution_points(HEX_LINES, HEX_POINTS, t1)
    assert pp[0] == (0, Fraction(1, 4), Fraction(3, 4))
    for t1 in (0, 1, Fraction(1, 2), Fraction(-3, 4)):
        assert not hex_closes(HEX_LINES, HEX_POINTS, t1)
        with pytest.raises(BuildingError, match="not a root"):
            hexagon_solution_points(HEX_LINES, HEX_POINTS, t1)


@pytest.mark.parametrize("p", [None, 3, 5, 7, 11, 13])
def test_hexagon_roots_close_under_the_walk(p):
    # over F_p the roots, oo included, are exactly the points of l_1
    # that close; one double root is rational, two distinct ones come
    # both or neither; an identity closure fixes every point
    rng = random.Random(40 + (p or 0))
    for lines, points, F in hex_samples(rng, p, 150):
        brute = [t for t in [None] + list(range(p or 0))
                 if hex_closes(lines, points, t, p)]
        try:
            n, roots = solve_hexagon_incidence(lines, points, F,
                                               return_roots=True)
        except BuildingError as exc:
            assert "fixes every point of l_1" in str(exc)
            assert p and len(brute) == p + 1
            continue
        assert all(hex_closes(lines, points, t, p) for t in roots)
        assert len(roots) in ((1,) if n == 1 else (0, 2))
        if p:
            assert roots == brute
            for t1 in [t for t in [None, *range(p)] if t not in brute][:2]:
                with pytest.raises(BuildingError, match="not a root"):
                    hexagon_solution_points(lines, points, t1, F)
        for t1 in roots:
            pp, lp = hexagon_solution_points(lines, points, t1, F)
            for i in range(3):
                # l'_i passes through p_i, p'_(i-1) and p'_i
                for q in (points[i], pp[i - 1], pp[i]):
                    assert F.zero(sum(a * b for a, b in zip(lp[i], q)))


def test_hexagon_identity_closure_raises():
    lines = [(0, 2, 2), (-1, 1, 2), (-3, 3, 3)]
    points = [(-1, 2, 0), (0, 3, 0), (0, 1, 1)]
    assert hexagon_genericity(lines, points)
    assert all(hex_closes(lines, points, t)
               for t in [None] + list(range(-3, 4)))
    with pytest.raises(BuildingError, match="fixes every point of l_1"):
        solve_hexagon_incidence(lines, points)


def shipped_genericity(lines, points, p):
    """The first genericity test, by barycentric rows: Cramer's rule in
    the frame e of the pairwise line intersections, each row normalised
    to sum to 1, and p11, p12, p22, p23, p33, p31 nonzero."""
    red = (lambda x: x % p) if p else Fraction
    inv = (lambda x: pow(x, p - 2, p)) if p else (lambda x: 1 / x)

    def det(a, b, c):
        return red(sum(x * y for x, y in zip(a, hex_cross(b, c))))

    l1, l2, l3 = [[red(x) for x in l] for l in lines]
    e = [hex_cross(l1, l2), hex_cross(l2, l3), hex_cross(l3, l1)]
    if not det(*points) or not det(*e):
        return False
    rows = []
    for q in points:
        bary = [red(det(*(q if k == j else e[k] for k in range(3)))
                    * inv(det(*e))) for j in range(3)]
        if not red(sum(bary)):
            return False
        rows.append([red(b * inv(red(sum(bary)))) for b in bary])
    return all(rows[i][k] for i in range(3) for k in (i, (i + 1) % 3))


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 13])
def test_hexagon_genericity_matches_the_barycentric_rows(p):
    rng, F = random.Random(p or 1), _Field(p)
    lo, hi = (0, p - 1) if p else (-3, 3)
    verdicts = collections.Counter()
    for _ in range(2000):
        lines, points = ([tuple(rng.randint(lo, hi) for _ in range(3))
                          for _ in range(3)] for _ in range(2))
        got = hexagon_genericity(lines, points, F)
        assert got == shipped_genericity(lines, points, p)
        verdicts[got] += 1
    # no sample over F_2 is generic
    assert (verdicts[True] == 0) if p == 2 else (verdicts[True] >= 10)


def test_diskoid_linkage_shape():
    D = dual_diskoid(corpus.load_web("single-y"))
    link = diskoid_linkage(D)
    assert set(link.vertices) == set(D.names)
    assert link.base == D.base
    assert len(link.edges) == D.n_edges()


# ----------------------------------------------------------------------
# the peeled count against the brute-force oracle


def closed_diskoid(seed):
    """The first dual diskoid with at most five vertices that the
    criterion-5 generator (glue(w, mirror(w))) yields from the seed."""
    rng = random.Random(seed)
    while True:
        sig = random_signature(rng, max_legs=6)
        w = random_web(sig, rng, max_vertices=4, split_bias=0.0)
        try:
            g = glue(w, mirror(w))
            D = dual_diskoid(g)
        except (WebError, DiskoidError):
            continue
        if g.circles or g.n_vertices() > 8 or g.n_vertices() == 0 \
                or D.n_vertices() > 5:
            continue
        return D


def same_count(link, fp):
    """The peeled count and the oracle agree, raising included."""
    try:
        expect = _enumerate(link, fp)
    except BuildingError:
        with pytest.raises(BuildingError):
            _count(link, fp)
        return None
    assert _count(link, fp) == expect
    return expect


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3)),
       st.integers(0, 4), st.sets(st.integers(0, 8), max_size=2))
def test_peeled_count_matches_oracle_on_diskoids(seed, q, base, drop):
    # re-basing and dropping edges give the pass other shapes to peel
    # (chains, lone ears, parts off the base) than the spheres alone
    link = diskoid_linkage(closed_diskoid(seed))
    fp = FieldParam(q)
    assert same_count(link, fp) is not None
    edges = [e for i, e in enumerate(link.edges) if i not in drop]
    same_count(Linkage(link.vertices, link.vertices[base % len(link.vertices)],
                       edges), fp)


@settings(max_examples=6, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 12))
def test_peeled_fibre_matches_oracle_on_bigon(q, k):
    D = dual_diskoid(corpus.load_web("bigon"))
    link = diskoid_linkage(D)
    fp = FieldParam(q)
    base = base_class(fp)
    other = [v for v in D.boundary if v != D.base][0]
    lam = next(lam for (u, v, lam) in D.edges.values()
               if (u, v) == (D.base, other))
    cands = neighbors(base, lam)
    cfg = {D.base: base, other: cands[k % len(cands)]}
    pinned = Linkage(link.vertices, link.base, link.edges, fixed=cfg)
    assert count_fibre(D, cfg, fp) == _enumerate(pinned, fp) == q + 1


@settings(max_examples=4, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2 ** 32 - 1))
def test_peeled_fibre_matches_oracle_on_w_mu(q, seed):
    w = corpus.load_web("w-mu")
    D = dual_diskoid(w)
    link = diskoid_linkage(D)
    fp = FieldParam(q)
    sig = w.boundary_signature()
    cfg = sample_polygon_config(sig, path_tag(w), fp, random.Random(seed))
    cfg = {D.boundary[i]: cfg[i] for i in range(len(sig))}
    pinned = Linkage(link.vertices, link.base, link.edges,
                     fixed={**cfg, D.base: base_class(fp)})
    n = count_fibre(D, cfg, fp)
    assert n >= 1 and n == _enumerate(pinned, fp)


def reference_count(linkage, fp):
    """The configurations of the linkage counted by a search that knows
    only spheres: each vertex goes on one placed neighbour's sphere and
    is checked against the others' (`neighbors` and `sphere_set`), with
    no panel, no peel and no first-vertex shortcut."""
    placed = building._placed(linkage, fp)
    if placed is None:
        return 0
    nbrs, assign = placed

    def search():
        todo = [v for v in nbrs if v not in assign]
        if not todo:
            return 1
        v = max(todo, key=lambda x: sum(u in assign for u in nbrs[x]))
        (u0, lam0), *others = [(u, lam) for u, lam in nbrs[v].items()
                               if u in assign]
        sets = [fp.sphere_set(assign[u], dual_weight(lam))
                for u, lam in others]
        total = 0
        for cand in neighbors(assign[u0], dual_weight(lam0)):
            if all(cand in s for s in sets):
                assign[v] = cand
                total += search()
        assign.pop(v, None)
        return total

    return search()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from((2, 3)))
def test_count_matches_a_sphere_search_on_diskoids(seed, q):
    # `_enumerate` places vertices on panels as `_count` does, so the
    # oracle here is a search that never builds a panel
    link = diskoid_linkage(closed_diskoid(seed))
    fp = FieldParam(q)
    assert _count(link, fp) == reference_count(link, fp) > 0


@pytest.mark.parametrize("q", (2, 3))
def test_w_mu_fibres_match_a_sphere_search(q):
    # over points of its own stratum and of others (fibres of 0 to 7)
    w = corpus.load_web("w-mu")
    D = dual_diskoid(w)
    link = diskoid_linkage(D)
    sig = w.boundary_signature()
    fp = FieldParam(q)
    for seed in range(3):
        for p in (path_tag(w), minuscule_paths(sig)[seed]):
            x = sample_polygon_config(sig, p, fp, random.Random(seed))
            cfg = {D.boundary[i]: x[i] for i in range(len(sig))}
            pinned = Linkage(link.vertices, link.base, link.edges, fixed=cfg)
            assert count_fibre(D, cfg, fp) == reference_count(pinned, fp)


short_steps = st.lists(
    st.tuples(st.sampled_from((W1, W2)), st.integers(0, 10 ** 6)),
    max_size=8)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), short_steps,
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_panels_are_the_filtered_spheres(q, steps, picks):
    # the chambers on the panel x, y: the w1-neighbours of y at w1 from
    # x, in their order, for x at the end of a walk (the path keeps its
    # FieldParam), in the building and in the apartment
    path = walk(q, steps)
    x = path[-1]
    ys = neighbors(x, W1)
    for i in picks:
        y = ys[i % len(ys)]
        assert panel(x, y) == [z for z in neighbors(y, W1)
                               if lattice_distance(z, x) == W1]
    x = APARTMENT.base()
    for color, i in steps:
        x = APARTMENT.sphere(x, color)[i % 3]
    for y in APARTMENT.sphere(x, W1):
        assert APARTMENT.panel(x, y) == [
            z for z in APARTMENT.sphere(y, W1)
            if APARTMENT.distance(z, x) == W1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3, 5)), short_steps,
       st.lists(st.integers(0, 10 ** 6), min_size=2, max_size=3))
def test_panels_through_one_class_meet_as_filtered_spheres(q, steps, picks):
    # panel(x, y, *more) for classes x, x' with d(x, y) = d(x', y) = w1:
    # the w1-neighbours of y at w1 from each, in their order, in the
    # building and the apartment: q+1 when all x are one class, one when
    # two lines of y/ty differ, none when three span it
    path = walk(q, steps)
    y = path[-1]
    xs = neighbors(y, W2)
    xs = [xs[i % len(xs)] for i in picks]
    got = panel(xs[0], y, *xs[1:])
    assert got == [z for z in neighbors(y, W1)
                   if all(lattice_distance(z, x) == W1 for x in xs)]
    assert len(got) in {1: (q + 1,), 2: (1,), 3: (0, 1)}[len(set(xs))]
    y = APARTMENT.base()
    for color, i in steps:
        y = APARTMENT.sphere(y, color)[i % 3]
    xs = [APARTMENT.sphere(y, W2)[i % 3] for i in picks]
    assert APARTMENT.panel(xs[0], y, *xs[1:]) == [
        z for z in APARTMENT.sphere(y, W1)
        if all(APARTMENT.distance(z, x) == W1 for x in xs)]


def filtered_draw(signature, target, fp, rng):
    """`sample_polygon_config`'s walk drawn as it was first written: the
    whole sphere built, filtered by distance from the base, and one
    candidate drawn uniformly."""
    base = base_class(fp)
    cfg = {0: base}
    for k in range(len(signature) - 1):
        cands = [y for y in neighbors(cfg[k], signature[k])
                 if lattice_distance(base, y) == target[k + 1]]
        cfg[k + 1] = cands[rng.randrange(len(cands))]
    return cfg


def test_sampler_draws_by_hecke_index_as_it_drew_by_filtering():
    # same candidates in the same order, and the same calls to rng
    for q in (2, 3):
        for sig in gluable(1, 2, 3, 4, 5, 6):
            for target in minuscule_paths(sig):
                for seed in range(3):
                    r1, r2 = random.Random(seed), random.Random(seed)
                    new = sample_polygon_config(sig, target, FieldParam(q), r1)
                    old = filtered_draw(sig, target, FieldParam(q), r2)
                    assert {k: x.cols for k, x in new.items()} == \
                        {k: x.cols for k, x in old.items()}
                    assert r1.getstate() == r2.getstate()


def reference_scan_draw(signature, target, fp, rng):
    """`sample_polygon_config`'s walk as it was before it read Bruhat
    cells: the index drawn by Hecke factor, then neighbours built in
    `neighbors`' order and filtered by pivot sum and distance from the
    base until the one it names."""
    base = base_class(fp)
    cfg = {0: base}
    for k in range(len(signature) - 1):
        lam, nu = signature[k], target[k + 1]
        idx = rng.randrange(_hecke_factor(target[k], lam, nu, fp.q))
        A = cfg[k].cols
        built = (building._neighbour(fp, A, building._times_t(A), r, lam)
                 for r in _proj_plane(fp.q))
        on_sphere = (y for y in built
                     if sum(len(y.cols[i][i]) - 1 for i in range(3)) ==
                     nu[0] + 2 * nu[1] and lattice_distance(base, y) == nu)
        cfg[k + 1] = next(itertools.islice(on_sphere, idx, None))
    return cfg


def test_sampler_draws_as_the_scan_drew_at_larger_q():
    # the Bruhat cells against the scan they replaced, at q = 5 and 7
    for q in (5, 7):
        for sig in gluable(1, 2, 3, 4, 5):
            for target in minuscule_paths(sig):
                for seed in range(3):
                    r1, r2 = random.Random(seed), random.Random(seed)
                    new = sample_polygon_config(sig, target, FieldParam(q), r1)
                    old = reference_scan_draw(sig, target, FieldParam(q), r2)
                    assert {k: x.cols for k, x in new.items()} == \
                        {k: x.cols for k, x in old.items()}
                    assert r1.getstate() == r2.getstate()


def test_sampler_builds_one_class_per_step(monkeypatch):
    # a w-mu draw: one `_neighbour` per step, and one distance, the
    # closing check
    w = corpus.load_web("w-mu")
    sig = w.boundary_signature()
    builds, dists = [], []
    build, dist = building._neighbour, building.lattice_distance
    monkeypatch.setattr(building, "_neighbour",
                        lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(building, "lattice_distance",
                        lambda *a: dists.append(a) or dist(*a))
    for q in (2, 3):
        builds.clear()
        dists.clear()
        sample_polygon_config(sig, path_tag(w), FieldParam(q),
                              random.Random(1))
        assert (len(builds), len(dists)) == (len(sig) - 1, 1)


@pytest.mark.parametrize("q", (2, 3))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_pendant_chain(q, k):
    link = Linkage(range(k + 1), 0,
                   [(i, i + 1, (W1, W2)[i % 2]) for i in range(k)])
    fp = FieldParam(q)
    assert same_count(link, fp) == (q * q + q + 1) ** k


def test_contradictory_parallel_labels():
    fp = FieldParam(2)
    # d(0, 1) = w1 and d(1, 0) = w1 = d(0, 1)*: impossible
    for pair in ([(0, 1, W1), (1, 0, W1)], [(0, 1, W1), (0, 1, W2)]):
        link = Linkage([0, 1, 2], 0, pair + [(1, 2, W1)])
        assert same_count(link, fp) == 0
        assert count_configurations(link, fp).count == 0


def test_component_off_the_base_raises():
    fp = FieldParam(2)
    # the second linkage's base triangle has no configuration: the stray
    # edge 3-4 must still raise, before any search
    for link in (Linkage([0, 1, 2, 3], 0, [(0, 1, W1), (2, 3, W2)]),
                 Linkage(range(5), 0, [(0, 1, W1), (1, 2, W1), (0, 2, W1),
                                       (3, 4, W1)])):
        for count in (_enumerate, _count, count_configurations):
            with pytest.raises(BuildingError):
                count(link, fp)
    # a component is countable once one of its vertices is pinned
    link = Linkage([0, 1, 2, 3], 0, [(0, 1, W1), (2, 3, W2)],
                   fixed={2: base_class(fp)})
    assert same_count(link, fp) == 7 * 7


def test_malformed_linkages_raise():
    fp = FieldParam(2)
    for link in (Linkage([0, 1, 1], 0, [(0, 1, W1)]),
                 Linkage([0, 1], 0, [(0, 1, W1)], fixed={2: base_class(fp)})):
        for count in (_enumerate, _count, count_configurations):
            with pytest.raises(BuildingError):
                count(link, fp)


def test_seed77_sphere_peels_to_its_base(monkeypatch):
    # the criterion-5 profile: every free vertex is a pendant or an ear,
    # so no more than the base is left to enumerate
    D = closed_diskoid(77)
    assert D.n_vertices() == 5
    cores = []
    search = building._search

    def spy(nbrs, *args):
        cores.append(len(nbrs))
        return search(nbrs, *args)

    monkeypatch.setattr(building, "_search", spy)
    link = diskoid_linkage(D)
    assert _count(link, FieldParam(2)) == 3 ** 3 * 7
    assert cores[-1] == 1


def core_diskoid():
    """The first dual diskoid with at most six vertices that the
    criterion-5 generator yields from seed 5 (up to 8 legs and 6 web
    vertices) whose count at q = 2 leaves a core to enumerate."""
    rng = random.Random(5)
    while True:
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=6, split_bias=0.0)
        try:
            g = glue(w, mirror(w))
            D = dual_diskoid(g)
        except (WebError, DiskoidError):
            continue
        if g.circles or D.n_vertices() > 6:
            continue
        fp = FieldParam(2)
        _count(diskoid_linkage(D), fp)
        if fp.nbr_cache:
            return D


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_ear_factor_table(q):
    # z with d(u, z) = a and d(w, z) = b for a pinned pair d(u, w) = c:
    # q+1 exactly when u, w, z span a chamber, as `_count` assumes
    fp = FieldParam(q)
    for a, b, c in itertools.product((W1, W2), repeat=3):
        ear = [("u", "w", c), ("u", "z", a), ("w", "z", b)]
        pinned = Linkage("uwz", "u", ear,
                         fixed={"w": neighbors(base_class(fp), c)[0]})
        expect = q + 1 if (a, b, c) in ((W1, W2, W2), (W2, W1, W1)) else 0
        assert _enumerate(pinned, fp) == expect
        free = Linkage("uwz", "u", ear)
        assert _count(free, fp) == _enumerate(free, fp) == \
            (q * q + q + 1) * expect


# ----------------------------------------------------------------------
# the trimmed F_q[t] kernel against a dense reference


def dense(a, N):
    return tuple(a) + (0,) * (N - len(a))


def trimmed(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def ref_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return tuple(out)


def ref_shift(a, k):
    if k >= 0:
        return (0,) * k + a
    if any(a[:-k]):
        raise BuildingError("inexact division")
    return a[-k:]


def ref_inv(a, q, N):
    inv0 = pow(a[0], q - 2, q)
    out = [inv0] + [0] * (N - 1)
    for k in range(1, N):
        s = sum(a[i] * out[k - i] for i in range(1, k + 1))
        out[k] = (-s * inv0) % q
    return tuple(out)


@st.composite
def kernel_operands(draw):
    q = draw(st.sampled_from((2, 3, 5)))
    N = draw(st.integers(2, 12))
    # short operands, like the entries of reached lattices, and full ones,
    # all padded with zeros to N coefficients
    size = st.integers(0, N).flatmap(lambda n: st.lists(
        st.integers(0, q - 1), min_size=n, max_size=n))
    a, b = dense(draw(size), N), dense(draw(size), N)
    unit = (draw(st.integers(1, q - 1)),) + b[1:]
    return q, N, a, b, unit, draw(st.integers(-(N - 1), N - 1))


@settings(max_examples=300, deadline=None)
@given(kernel_operands())
def test_trimmed_kernel_matches_dense_reference(ops):
    # the unit inverse is a series, taken mod t^N; the rest is exact
    q, N, a, b, unit, k = ops
    ta, tb = trimmed(a), trimmed(b)
    results = [
        (_padd(ta, tb, q), tuple((x + y) % q for x, y in zip(a, b))),
        (_psub(ta, tb, q), tuple((x - y) % q for x, y in zip(a, b))),
        (_pmul(ta, tb, q), ref_mul(a, b, q)),
        (pinv_unit(trimmed(unit), q, N), ref_inv(unit, q, N)),
    ]
    try:
        results.append((_pshift(ta, k), ref_shift(a, k)))
    except BuildingError:
        with pytest.raises(BuildingError):
            _pshift(ta, k)
    for got, expect in results:
        assert got == trimmed(expect)
        assert not got or got[-1]
    inv = pinv_unit(trimmed(unit), q, N)
    assert trimmed(_pmul(trimmed(unit), inv, q)[:N]) == (1,)


# ----------------------------------------------------------------------
# neighbours and distances against their generic references


def _adjugate(cols, q):
    """The dense adjugate of a 3 x 3 matrix, in column form."""
    m = [[cols[j][i] for j in range(3)] for i in range(3)]

    def cof(i, j):
        r = [x for x in range(3) if x != i]
        c = [x for x in range(3) if x != j]
        v = _psub(_pmul(m[r[0]][c[0]], m[r[1]][c[1]], q),
                  _pmul(m[r[0]][c[1]], m[r[1]][c[0]], q), q)
        return v if (i + j) % 2 == 0 else _psub((), v, q)

    return tuple(tuple(cof(j, i) for i in range(3)) for j in range(3))


def _matmul(A, B, q):
    """The dense product A.B of 3 x 3 matrices in column form."""
    out = []
    for j in range(3):
        col = []
        for i in range(3):
            s = ()
            for k in range(3):
                s = _padd(s, _pmul(A[k][i], B[j][k], q), q)
            col.append(s)
        out.append(tuple(col))
    return tuple(out)


def dense_distance(L, Lp):
    """`lattice_distance` from dense adjugates and products, with no use
    of the triangular shape."""
    q = L.fp.q
    C = _matmul(_adjugate(L.cols, q), Lp.cols, q)
    A = _adjugate(C, q)
    det = ()  # the (0, 0) entry of adj(C).C
    for k in range(3):
        det = _padd(det, _pmul(A[k][0], C[0][k], q), q)
    d1 = min(v for c in C for v in map(_pval, c) if v is not None)
    d2 = min(v for c in A for v in map(_pval, c) if v is not None)
    e = sorted((d1, d2 - d1, _pval(det) - d2))
    return (e[2] - e[1], e[1] - e[0])


def generic_neighbors(L, color):
    """The normal forms of L's neighbours, from spans taken straight from
    its columns v, in the order of `neighbors`, through `hnf`: with
    r_p = 1 the first nonzero coordinate of r, the kernel of r on L/tL is
    spanned by the v_j - r_j v_p (j != p) and t v_p, and the line r plus
    tL by sum r_j v_j and the t v_j (j != p)."""
    q, v = L.fp.q, L.cols
    tv = [tuple(_pshift(x, 1) for x in c) for c in v]
    out = []
    for r in _proj_plane(q):
        p = r.index(1)
        if color == W1:
            cols = [tv[j] if j == p else _col_sub(v[j], (r[j],), v[p], q)
                    for j in range(3)]
        else:
            u = ((), (), ())
            for j in range(p, 3):
                u = _col_sub(u, ((q - r[j]) % q,), v[j], q)
            cols = [u] + [tv[j] for j in range(3) if j != p]
        out.append(hnf(cols, L.fp))
    return out


@st.composite
def triangular_columns(draw):
    """q and three lower-triangular columns with pivots t^e, entries below
    them of any degree, all times a common power of t and padded with
    trailing zeros."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    k = draw(st.integers(0, 3))

    def entry(poly):
        return (0,) * k + tuple(poly) + (0,) * draw(st.integers(0, 2))

    cols = []
    for j in range(3):
        col = [entry(()) for i in range(j)]
        col.append(entry((0,) * draw(st.integers(0, 4)) + (1,)))
        col += [entry(draw(st.lists(st.integers(0, q - 1), max_size=8)))
                for i in range(j + 1, 3)]
        cols.append(tuple(col))
    return q, tuple(cols)


@settings(max_examples=300, deadline=None)
@given(triangular_columns())
def test_constructor_matches_generic_normal_form(args):
    # `_reduced`, through the public constructor, against `hnf`
    q, cols = args
    fp = FieldParam(q)
    assert LatticeClass(fp, cols).cols == hnf(cols, fp)


def test_constructor_rejects_other_columns():
    fp = FieldParam(3)
    one, t = (1,), (0, 1)
    for cols in [((one, (), ()), (one, t, ()), ((), (), one)),  # above
                 (((), (), one), ((), one, ()), (one, (), ())),
                 ((one, (), ()), ((), (1, 1), ()), ((), t, one)),  # 1 + t
                 ((one, (), ()), ((), (0, 2), ()), ((), t, one)),  # 2t
                 ((one, (), ()), ((), (), ()), ((), t, one)),      # zero
                 ((one, (), ()), ((), one, ())),
                 ((one, ()), ((), one), ((), ()))]:
        with pytest.raises(BuildingError, match="not lower triangular"):
            LatticeClass(fp, cols)


walks = st.tuples(
    st.sampled_from((2, 3, 5, 7)),
    st.lists(st.tuples(st.sampled_from((W1, W2)), st.integers(0, 10 ** 6)),
             max_size=10))


def walk(q, steps):
    """The classes along a walk from the base."""
    path = [base_class(FieldParam(q))]
    for color, i in steps:
        nbrs = neighbors(path[-1], color)
        path.append(nbrs[i % len(nbrs)])
    return path


@settings(max_examples=30, deadline=None)
@given(walks)
def test_neighbours_match_generic_normal_form(args):
    # every class along the walk: its neighbour lists, in order, are the
    # `hnf` normal forms of the spans
    for L in walk(*args):
        for color in (W1, W2):
            assert [M.cols for M in neighbors(L, color)] == \
                generic_neighbors(L, color)


@settings(max_examples=40, deadline=None)
@given(walks)
def test_bruhat_cells_land_where_the_neighbours_lie(args):
    # the cell of every point r, read off the base's flag at x, lands at
    # the distance of r's neighbour from the base: the points listed at
    # each weight nu are those whose neighbours lie at nu, for every x
    # along a walk, walls and the base among them, and both colours
    path = walk(*args)
    base, q = path[0], args[0]
    for x in path:
        mu = lattice_distance(base, x)
        for lam in (W1, W2):
            at = [lattice_distance(base, y) for y in neighbors(x, lam)]
            for nu in set(at):
                assert building._base_distances(x.cols, mu, lam, q, nu) == \
                    [r for r, d in zip(_proj_plane(q), at) if d == nu]


@settings(max_examples=20, deadline=None)
@given(walks)
def test_a_lone_neighbour_is_built_as_the_sphere_builds_it(args):
    # the sampler's step: each neighbour built from only the columns of x
    # shifted by t that it uses, as `neighbors` builds it from all three
    q = args[0]
    for x in walk(*args):
        for lam in (W1, W2):
            assert [building._neighbour(x.fp, x.cols, None, r, lam).cols
                    for r in _proj_plane(q)] == \
                [y.cols for y in neighbors(x, lam)]


def test_neighbours_step_back_by_a_homothety():
    # the w1 neighbour of a w2 neighbour M of L that is L again is t.L
    # inside M, so it is found only after dividing by t
    for q in (2, 3):
        base = base_class(FieldParam(q))
        for M in neighbors(base, W2):
            assert [X.cols for X in neighbors(M, W1)].count(base.cols) == 1


def test_long_walks_are_exact():
    # repeated w1 steps along the last point of P^2 deepen one pivot by
    # one each; no precision runs out, and `hnf` and the constructor keep
    # the normal form
    for q in (2, 7):
        path = walk(q, [(W1, -1)] * 40)
        base, L = path[0], path[-1]
        assert lattice_distance(base, L) == dense_distance(base, L) == (40, 0)
        assert lattice_distance(L, base) == dense_distance(L, base) == (0, 40)
        assert hnf(L.cols, L.fp) == LatticeClass(L.fp, L.cols).cols == L.cols


@settings(max_examples=20, deadline=None)
@given(walks)
def test_distances_match_dense_reference(args):
    # both directions, from the base, the walk's end L and one of its
    # neighbours to every neighbour of L
    path = walk(*args)
    L = path[-1]
    ys = neighbors(L, W1) + neighbors(L, W2)
    for X in (path[0], L, ys[0]):
        for Y in ys:
            assert lattice_distance(X, Y) == dense_distance(X, Y)
            assert lattice_distance(Y, X) == dense_distance(Y, X)


long_steps = st.lists(
    st.tuples(st.sampled_from((W1, W2)), st.integers(0, 10 ** 6)),
    max_size=12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), long_steps, long_steps)
def test_distances_between_far_classes_match_dense_reference(q, s1, s2):
    # the ends of two independent walks, which may lie far apart and
    # far from the base, both ways (the paths keep their FieldParams)
    p1, p2 = walk(q, s1), walk(q, s2)
    X, Y = p1[-1], p2[-1]
    assert lattice_distance(X, Y) == dense_distance(X, Y)
    assert lattice_distance(Y, X) == dense_distance(Y, X)


def test_neighbour_cache_belongs_to_its_fieldparam():
    # equal q share no lists, and the module keeps no classes
    fp1, fp2 = FieldParam(3), FieldParam(3)
    n1, n2 = (neighbors(base_class(fp), W1) for fp in (fp1, fp2))
    assert n1 == n2 and n1 is not n2
    assert all(M.fp is fp1 for M in n1) and all(M.fp is fp2 for M in n2)
    assert neighbors(base_class(fp1), W1) is n1
    assert list(fp1.nbr_cache) == [(base_class(fp1).cols, W1)]

    def classes(x):
        if isinstance(x, LatticeClass):
            return True
        if isinstance(x, dict):
            return any(map(classes, x)) or any(map(classes, x.values()))
        if isinstance(x, (list, tuple, set, frozenset)):
            return any(map(classes, x))
        return False

    assert not any(classes(v) for v in vars(building).values())


def test_dropped_fieldparam_frees_its_classes():
    # the cached neighbours hold their FieldParam weakly, so no cycle
    # keeps them: reference counting alone frees them, with gc disabled
    def alive():
        return sum(isinstance(o, LatticeClass) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        fp = FieldParam(3)
        L = base_class(fp)
        n = neighbors(L, W1)
        neighbors(n[4], W2)
        assert alive() == before + 1 + 13 + 13
        del fp, L, n
        assert alive() == before
    finally:
        gc.enable()
    # a neighbour that outlives its FieldParam fails loudly
    M = neighbors(base_class(FieldParam(2)), W1)[0]
    with pytest.raises(BuildingError, match="FieldParam"):
        neighbors(M, W1)


# ----------------------------------------------------------------------
# exact partitions and fibres


@pytest.mark.parametrize("sig, sizes", [
    ((W1, W2, W1, W2), [42, 49]),
    ((W1, W1, W1, W2, W2, W2), [112, 168, 252, 252, 378, 441]),
])
def test_partition_sizes(sig, sizes):
    assert sorted(_enumerated_partition(sig, FieldParam(2)).values()) == sizes
    assert sorted(satake_partition(sig, FieldParam(2)).values()) == sizes


def test_w_mu_fibre_stable_above_auto_precision():
    # the fibre over the seed-5 boundary, 1, as the t-adic truncation gave
    # it at and above auto_precision (N = 86 and 87)
    w = corpus.load_web("w-mu")
    D = dual_diskoid(w)
    sig = w.boundary_signature()
    fp = FieldParam(2)
    cfg = sample_polygon_config(sig, path_tag(w), fp, random.Random(5))
    assert count_fibre(
        D, {D.boundary[i]: cfg[i] for i in range(len(sig))}, fp) == 1


# ----------------------------------------------------------------------
# the Euler characteristic at the torus-fixed points


def _lagrange_value(points, x):
    """Exact Lagrange interpolation value at x from (node, value) pairs."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _yj) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def leaves_a_core(D):
    link = diskoid_linkage(D)
    nbrs = building._fold(link)
    return nbrs is not None and building._peel(nbrs, {link.base}, 1) != 0 \
        and len(nbrs) > 1


def survey():
    """The distinct closed webs glue(w, mirror(w)) and their diskoids from
    400 draws of each of the generator seeds 5-8: up to 10 legs, up to 8
    vertices a side and dual diskoids of at most 10 vertices."""
    out = {}
    for seed in (5, 6, 7, 8):
        rng = random.Random(seed)
        for _ in range(400):
            sig = random_signature(rng, max_legs=10)
            w = random_web(sig, rng, max_vertices=8, split_bias=0.0)
            try:
                g = glue(w, mirror(w))
                D = dual_diskoid(g)
            except (WebError, DiskoidError):
                continue
            if not g.circles and D.n_vertices() <= 10:
                out.setdefault(g.canonical_key(), (g, D))
    return list(out.values())


def test_euler_matches_skein_and_tensor_on_the_survey():
    # cores included: 47 of the 124 webs do not peel to their base
    webs = survey()
    assert len(webs) == 124
    assert sum(leaves_a_core(D) for _g, D in webs) == 47
    for g, D in webs:
        assert euler_estimate(D) == evaluate_closed(g, -1) == \
            contract_closed(g)
        # the unpeeled oracle: the same search in the apartment
        assert _enumerate(diskoid_linkage(D), APARTMENT) == euler_estimate(D)


def test_euler_of_open_webs_is_the_invariant_vector_norm():
    # observed, not proven: an open web's chi is the sum of the absolute
    # entries of its invariant vector
    rng = random.Random(11)
    done = 0
    while done < 120:
        w = random_web(random_signature(rng, max_legs=8), rng,
                       split_bias=0.3)
        try:
            D = dual_diskoid(w)
        except (WebError, DiskoidError):
            continue
        assert euler_estimate(D) == sum(abs(x) for x in web_vector(w).values())
        done += 1


def test_euler_estimate_does_no_lattice_arithmetic(monkeypatch):
    # the 6-vertex core: no field, no lattice class and no neighbour
    D = core_diskoid()
    assert leaves_a_core(D)

    def gone(*_args, **_kw):
        raise AssertionError("lattice arithmetic in euler_estimate")

    for name in ("FieldParam", "LatticeClass", "base_class", "neighbors",
                 "lattice_distance", "_enumerate"):
        monkeypatch.setattr(building, name, gone)
    t0 = time.perf_counter()
    assert euler_estimate(D) == 24
    assert time.perf_counter() - t0 < 0.1


def test_apartment_counts_and_geodesics_leave_no_cycles():
    # no self-referencing closure: reference counting alone frees all
    # that the searches make, with gc disabled
    D = dual_diskoid(corpus.load_web("w-nu"))
    link = diskoid_linkage(D)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert euler_estimate(D) == 729
            assert _enumerate(link, APARTMENT) == 729
            (g,) = geodesics(D, 1, 2)
            assert complete_extension(D, g).vertices == (1, 0, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_peeled_counts_interpolate_to_chi():
    # where the peel reaches the base, the count is a polynomial P of
    # degree at most 5 in q, known at every prime; P(1) is chi (Katz)
    spheres = [D for D in map(closed_diskoid, range(8))
               if D.n_vertices() == 5]
    assert len(spheres) == 5
    for D in spheres + [dual_diskoid(corpus.load_web(name))
                        for name in ("theta", "single-y", "bigon")]:
        link = diskoid_linkage(D)
        counts = {}
        for q in (2, 3, 5, 7, 11, 13, 17):
            fp = FieldParam(q)
            counts[q] = count_configurations(link, fp).count
            assert not fp.nbr_cache  # nothing left to enumerate
        nodes = [(q, counts[q]) for q in (2, 3, 5, 7, 11, 13)]
        assert _lagrange_value(nodes, 17) == counts[17]
        assert _lagrange_value(nodes, 1) == euler_estimate(D)


def test_core_counts_agree_with_chi_mod_q_minus_one():
    # P(q) = P(1) mod (q - 1) for an integer polynomial P
    D = core_diskoid()
    chi = euler_estimate(D)
    for q in (3, 5):
        assert (_count(diskoid_linkage(D), FieldParam(q)) - chi) % (q - 1) == 0
