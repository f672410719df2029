import collections
import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import SIG12, random_closed_web, relabelled
from spiderweb import building, corpus, oracle
from spiderweb.basis import dim_invariants, enumerate_basis
from spiderweb.building import APARTMENT, Linkage, diskoid_linkage
from spiderweb.diskoid import dual_diskoid
from spiderweb.oracle import (
    _e_moves, _tuples_of_weight, apply_raising, contract_closed,
    in_invariant_kernel, invariant_kernel_dim, web_vector)
from spiderweb.skein import evaluate_closed
from spiderweb.generate import random_signature, random_web
from spiderweb.webs import WebError, glue, mirror
from spiderweb.weights import W1, W2, dominance_leq, sub


def _rank_exact(M):
    """Rank over Q of a dense integer matrix, by Fraction elimination."""
    M = [[Fraction(x) for x in row] for row in M]
    r = len(M)
    c = len(M[0]) if r else 0
    rank = 0
    row = 0
    for col in range(c):
        if row >= r:
            break
        piv = next((i for i in range(row, r) if M[i][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        pv = M[row][col]
        for i in range(row + 1, r):
            f = M[i][col]
            if f:
                ratio = f / pv
                M[i] = [a - ratio * b for a, b in zip(M[i], M[row])]
        row += 1
        rank += 1
    return rank


def vectors_rank(vectors):
    """Exact rank of a family of sparse integer tensors."""
    keys = sorted(set().union(*vectors))
    return _rank_exact([[v.get(k, 0) for k in keys] for v in vectors])


def densify(vec, n, mode):
    """The sparse tensor {index tuple: int} on n legs as a dense object
    array."""
    arr = np.zeros((2 if mode == "a1" else 3,) * n, dtype=object)
    for key, v in vec.items():
        arr[key] = v
    return arr


def dense_apply_raising(vec, signature, which, mode="a2"):
    """e1 (which=1) or e2 (which=2) on a dense object array, one slice
    per leg: the reference for the sparse `apply_raising`."""
    out = np.zeros_like(vec)
    for leg, lam in enumerate(signature):
        for src, dst, coeff in _e_moves(lam, mode, which):
            sl_src = [slice(None)] * len(signature)
            sl_dst = [slice(None)] * len(signature)
            sl_src[leg] = src
            sl_dst[leg] = dst
            out[tuple(sl_dst)] += coeff * vec[tuple(sl_src)]
    return out


def _reference_kernel_dim(sig, mode):
    """len(zero) - rank over Q of the raising operators on the weight-zero
    tuples: one row per weight-zero basis tensor, holding its images
    under `dense_apply_raising`, flattened."""
    zero = _tuples_of_weight(sig, mode, (0, 0))
    whiches = (1,) if mode == "a1" else (1, 2)
    images = []
    for t in zero:
        vec = densify({t: 1}, len(sig), mode)
        images.append([x for which in whiches
                       for x in dense_apply_raising(vec, sig, which,
                                                    mode).flat])
    # drop the coordinates no image reaches; they do not change the rank
    images = [list(col) for col in zip(*(r for r in zip(*images) if any(r)))]
    return len(zero) - _rank_exact(images)


def dense_network(w):
    """The network read from the web itself, as dense object arrays: the
    Levi-Civita symbol at each vertex, on its darts counterclockwise when
    the vertex is all-out and clockwise when it is all-in; the identity
    (the A1 form) on each boundary-to-boundary arc, read from its first
    leg; and the dart pairs of the interior edges."""
    eps = np.zeros((3, 3, 3), dtype=object)
    for p in itertools.permutations(range(3)):
        eps[p] = (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
    arc = np.array([[0, 1], [-1, 0]] if w.mode == "a1"
                   else np.eye(3, dtype=int), dtype=object)
    nodes = [(eps, list(tri) if not set(tri) & w.heads else list(tri)[::-1])
             for tri in w.vertices]
    legs = list(w.boundary)
    nodes += [(arc, [b, w.theta[b]]) for k, b in enumerate(legs)
              if w.theta[b] in legs[k + 1:]]
    inner = {d for tri in w.vertices for d in tri}
    pairs = {tuple(sorted((d, w.theta[d]), key=repr)) for d in inner
             if w.theta[d] in inner}
    return nodes, sorted(pairs, key=repr)


def dense_contract(w):
    """The reference contraction: the nodes and dart pairs of
    `dense_network`, contracted one pair at a time by np.trace or
    np.tensordot (the pair whose result has the fewest axes first);
    returns (array, open axis keys)."""
    d = 2 if w.mode == "a1" else 3
    nodes, pairs = dense_network(w)

    def node_of(x):
        return next(i for i, (_t, ax) in enumerate(nodes) if x in ax)

    def merged_ndim(p):
        ia, ib = node_of(p[0]), node_of(p[1])
        return nodes[ia][0].ndim + (ib != ia) * nodes[ib][0].ndim

    while pairs:
        a, b = min(pairs, key=merged_ndim)
        pairs.remove((a, b))
        ia, ib = node_of(a), node_of(b)
        ta, axa = nodes[ia]
        if ia == ib:
            t = np.trace(ta, axis1=axa.index(a), axis2=axa.index(b))
            ax = [k for k in axa if k not in (a, b)]
        else:
            tb, axb = nodes[ib]
            t = np.tensordot(ta, tb, axes=(axa.index(a), axb.index(b)))
            ax = [k for k in axa if k != a] + [k for k in axb if k != b]
        nodes = [n for i, n in enumerate(nodes) if i not in (ia, ib)]
        nodes.append((t, ax))
    t, ax = np.array(d ** w.circles, dtype=object), []
    for t2, ax2 in nodes:
        t, ax = np.tensordot(t, t2, axes=0), ax + ax2
    return t, ax


def dense_web_vector(w):
    """`web_vector` from the reference contraction: one axis per leg."""
    t, ax = dense_contract(w)
    bset = set(w.boundary)
    keys = [b if w.theta[b] in bset else w.theta[b] for b in w.boundary]
    return np.transpose(t, [ax.index(k) for k in keys])


def check_sparse_against_dense(seed, mode):
    """The sparse contractions of a random web of at most 10 vertices,
    its pairing with its mirror and a random closed web against the
    dense reference; returns the vertex counts of the web's components."""
    rng = random.Random(seed)
    sig = random_signature(rng, mode, max_legs=6)
    w = random_web(sig, rng, mode, max_vertices=10)
    vec = web_vector(w)
    assert isinstance(vec, dict) and all(vec.values())
    assert all(len(k) == len(sig) for k in vec)
    ref = dense_web_vector(w)
    assert densify(vec, len(sig), mode).tolist() == ref.tolist()
    # the criterion-5 pairing <w, w*>, and in A2 the closed webs of
    # `random_closed_web` (disjoint unions, free circles)
    for g in (glue(w, mirror(w)),
              random_closed_web(rng) if mode == "a2" else glue(w, w)):
        assert contract_closed(g) == dense_contract(g)[0] == \
            web_vector(g).get((), 0)
    return [sum(tri[0] in c for tri in w.vertices) for c in w._components()]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("a1", "a2")))
def test_sparse_contraction_matches_dense_reference(seed, mode):
    check_sparse_against_dense(seed, mode)


def test_sparse_contraction_meets_odd_components():
    # colour permutations act on an open component of k vertices by
    # sgn^k; the sweep reaches odd k and components of 10 vertices
    ks = [k for seed in range(40)
          for k in check_sparse_against_dense(seed, "a2")]
    assert any(k % 2 for k in ks) and max(ks) == 10


def test_single_y_vector_is_epsilon():
    # the Y's counterclockwise darts meet legs 0, 2, 1: its vector is
    # epsilon's six signed entries in that leg order
    eps = {p: (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
           for p in itertools.permutations(range(3))}
    assert web_vector(corpus.load_web("single-y")) == {
        (a, c, b): v for (a, b, c), v in eps.items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(("a1", "a2")),
       st.integers(0, 6))
def test_sparse_raising_matches_dense_reference(seed, mode, n):
    # random sparse tensors, not only invariant ones, so every leg's
    # moves carry weight
    rng = random.Random(seed)
    d = 2 if mode == "a1" else 3
    sig = tuple(rng.choice((W1,) if mode == "a1" else (W1, W2))
                for _ in range(n))
    vec = {tuple(rng.randrange(d) for _ in sig): rng.choice((-2, -1, 1, 3))
           for _ in range(rng.randint(1, 2 * d ** n))}
    for which in (1, 2):
        out = apply_raising(vec, sig, which, mode)
        assert all(out.values())
        assert densify(out, n, mode).tolist() == dense_apply_raising(
            densify(vec, n, mode), sig, which, mode).tolist()


def test_web_vector_of_closed_webs():
    # a closed web's value sits at the empty index tuple
    assert web_vector(corpus.load_web("theta")) == {(): 6}
    assert web_vector(corpus.load_web("loop")) == {(): 3}
    assert in_invariant_kernel({(): 6}, ())


def test_keys_of_wrong_length_rejected():
    # zip would silently truncate a long key: single-y's vector with a
    # fourth index appended must not pass for (w1, w1, w1)
    w = corpus.load_web("single-y")
    sig = w.boundary_signature()
    vec = web_vector(w)
    for bad in ({k + (0,): v for k, v in vec.items()},
                {k[:-1]: v for k, v in vec.items()}):
        with pytest.raises(ValueError):
            in_invariant_kernel(bad, sig)
        with pytest.raises(ValueError):
            apply_raising(bad, sig, 1)


def test_entries_out_of_range_rejected():
    for bad, sig, mode in [({(0, 3): 1}, (W1, W2), "a2"),
                           ({(-1, 0): 1}, (W1, W2), "a2"),
                           ({(2, 0): 1}, (W1, W1), "a1")]:
        with pytest.raises(ValueError):
            in_invariant_kernel(bad, sig, mode)
        with pytest.raises(ValueError):
            apply_raising(bad, sig, 1, mode)


def test_library_never_imports_numpy():
    # web vectors are sparse dicts: no CLI import, count, Euler
    # characteristic or tensor-oracle run (closed, open A2 and A1 webs,
    # and the oracle selftest) loads numpy
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from spiderweb import cli\n"
            "assert 'numpy' not in sys.modules\n"
            "for argv in (['count', '--boundary', 'w1,w2', '--q', '2'],\n"
            "             ['euler', 'corpus:theta'],\n"
            "             ['oracle', 'corpus:theta'],\n"
            "             ['oracle', 'corpus:single-y'],\n"
            "             ['oracle', 'corpus:a1-example'],\n"
            "             ['selftest', 'tensor-oracle']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'numpy' not in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_contract_closed_corpus():
    assert contract_closed(corpus.load_web("loop")) == 3
    assert contract_closed(corpus.load_web("theta")) == 6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_contract_matches_skein_at_minus_one(seed):
    # disjoint unions and free circles included
    g = random_closed_web(random.Random(seed))
    assert contract_closed(g) == evaluate_closed(g, -1)


def test_contract_matches_skein_on_gram_pairs():
    # every ordered pair of basis webs of w1^3 w2 w1 w2^3: 529 pairings
    bw = enumerate_basis((W1, W1, W1, W2, W1, W2, W2, W2)).webs()
    assert len(bw) == 23
    for a, b in itertools.product(bw, repeat=2):
        g = glue(a, mirror(b))
        assert contract_closed(g) == evaluate_closed(g, -1)


def test_contract_requires_closed():
    with pytest.raises(WebError):
        contract_closed(corpus.load_web("single-y"))


def test_web_vector_in_kernel():
    for name in ("single-y", "a2-example"):
        w = corpus.load_web(name)
        vec = web_vector(w)
        assert vec
        assert in_invariant_kernel(vec, w.boundary_signature(), w.mode)


def test_raising_annihilates_invariants():
    w = corpus.load_web("single-y")
    vec = web_vector(w)
    sig = w.boundary_signature()
    for which in (1, 2):
        assert apply_raising(vec, sig, which) == {}


def test_noninvariant_detected():
    sig = (W1, W1, W1)
    # a delta function on one index tuple is not invariant
    assert not in_invariant_kernel({(0, 1, 2): 1}, sig)


def test_kernel_dims_match_paths():
    for sig in [(W1, W2), (W1, W1, W1), (W2, W2, W2), (W1, W2) * 2,
                (W1, W1, W2, W2, W1, W2)]:
        assert invariant_kernel_dim(sig) == dim_invariants(sig)
    assert invariant_kernel_dim((W1,) * 4, mode="a1") == 2


def test_kernel_dim_matches_exact_reference():
    sigs = [(sig, "a2") for n in range(7)
            for sig in itertools.product((W1, W2), repeat=n)]
    sigs += [((W1,) * n, "a1") for n in range(9)]
    reference = {}
    for sig, mode in sigs:
        key = (mode, tuple(sorted(sig)))
        if key not in reference:
            reference[key] = _reference_kernel_dim(key[1], mode)
        assert invariant_kernel_dim(sig, mode) == reference[key], (sig, mode)


def test_kernel_dim_beyond_eight_legs():
    assert invariant_kernel_dim((W1,) * 9) == dim_invariants((W1,) * 9) == 42
    assert invariant_kernel_dim((W1,) * 8 + (W2,) * 2) == 98
    assert invariant_kernel_dim((W1, W2) * 5) == 103


_LEG_WEIGHTS = {"a2": {W1: ((1, 0), (-1, 1), (0, -1)),
                       W2: ((0, 1), (1, -1), (-1, 0))},
                "a1": {W1: ((1, 0), (-1, 0))}}


def _brauer_dim(sig, mode):
    """dim Inv by Brauer's formula, the sum over w in W of
    sign(w) m(w rho - rho), where m is the weight multiplicity of the
    tensor product, convolved one minuscule leg at a time."""
    m = {(0, 0): 1}
    for lam in sig:
        step = {}
        for (a, b), c in m.items():
            for x, y in _LEG_WEIGHTS[mode][lam]:
                step[a + x, b + y] = step.get((a + x, b + y), 0) + c
        m = step
    # the simple reflections on fundamental-weight coordinates; rho is
    # regular, so w -> w rho is one to one and the orbit carries the sign
    if mode == "a1":
        rho, refl = (1, 0), [lambda a, b: (-a, b)]
    else:
        rho, refl = (1, 1), [lambda a, b: (-a, a + b), lambda a, b: (a + b, -b)]
    sign, todo = {rho: 1}, [rho]
    while todo:
        v = todo.pop()
        for s in refl:
            u = s(*v)
            if u not in sign:
                sign[u] = -sign[v]
                todo.append(u)
    assert len(sign) == (2 if mode == "a1" else 6)
    return sum(e * m.get((a - rho[0], b - rho[1]), 0)
               for (a, b), e in sign.items())


def test_kernel_dim_matches_brauer_formula():
    # the formula alone, at known values (SIG12 = 513 is too slow for
    # the elimination here)
    known = {(W1,) * 3: 1, (W1, W2) * 3: 6, (W1,) * 4 + (W2,) * 4: 23,
             (W1,) * 9: 42, (W1,) * 8 + (W2,) * 2: 98, (W1, W2) * 5: 103,
             SIG12: 513, (W1,) * 12: 462, (W1,) * 11: 0}
    for sig, d in known.items():
        assert _brauer_dim(sig, "a2") == d, sig
    assert [_brauer_dim((W1,) * n, "a1") for n in range(0, 9, 2)] == \
        [1, 1, 2, 5, 14]
    # every A2 multiset w1^a w2^b with a + b <= 10 (the non-gluable ones
    # give 0), and A1 w1^n for n <= 12
    for a in range(11):
        for b in range(11 - a):
            sig = (W1,) * a + (W2,) * b
            assert invariant_kernel_dim(sig) == _brauer_dim(sig, "a2"), sig
    for n in range(13):
        sig = (W1,) * n
        assert invariant_kernel_dim(sig, "a1") == _brauer_dim(sig, "a1"), n


def test_kernel_dim_peels_one_leg(monkeypatch):
    # the elimination runs on the first n - 1 legs at the highest weight
    # of the last leg's dual, never on the weight-zero space of all legs
    calls = []
    real = oracle._tuples_of_weight

    def spy(sig, mode, target):
        calls.append((len(sig), target))
        return real(sig, mode, target)

    monkeypatch.setattr(oracle, "_tuples_of_weight", spy)
    sigs = [(sig, "a2") for n in range(1, 7)
            for sig in itertools.product((W1, W2), repeat=n)]
    sigs += [((W1,) * n, "a1") for n in range(1, 9)]
    for sig, mode in sigs:
        oracle._kernel_dim.cache_clear()
        calls.clear()
        invariant_kernel_dim(sig, mode)
        assert calls, sig
        assert all(k == len(sig) - 1 and mu != (0, 0)
                   for k, mu in calls), (sig, mode, calls)
    assert invariant_kernel_dim(()) == invariant_kernel_dim((), "a1") == 1


def test_tuples_of_weight_leaves_no_cycles():
    # the enumeration builds no self-referencing closure, so reference
    # counting alone frees all it makes, with gc disabled
    sig = (W1,) * 4 + (W2,) * 4
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert len(_tuples_of_weight(sig, "a2", (0, 0))) == 639
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tuples_of_weight_in_lexicographic_order():
    # the elimination's column order, and so its pivots, follow this order
    for sig, mode, target in [((W1, W2) * 3, "a2", (0, 0)),
                              ((W1,) * 5 + (W2,), "a2", (1, 0)),
                              ((W2,) * 4, "a2", (0, 1)),
                              ((W1,) * 7, "a1", (1, 0)), ((), "a2", (0, 0)),
                              ((), "a2", (1, 0))]:
        legs = [oracle._leg_weights(lam, mode) for lam in sig]
        expected = []
        for t in itertools.product(*(range(len(w)) for w in legs)):
            ws = [w[j] for w, j in zip(legs, t)]
            if (sum(x for x, _ in ws), sum(y for _, y in ws)) == target:
                expected.append(t)
        assert _tuples_of_weight(sig, mode, target) == expected


def test_highest_weight_vectors_are_not_invariant():
    # each is killed by the raising operators but has nonzero weight
    assert not in_invariant_kernel({(0,): 1}, (W1,))
    assert not in_invariant_kernel({(0, 0): 1}, (W1, W1))
    assert not in_invariant_kernel({(0,): 1}, (W1,), mode="a1")


def test_kernel_dim_zero_for_nongluable():
    assert invariant_kernel_dim((W1,)) == 0
    assert invariant_kernel_dim((W1, W1)) == 0


def test_basis_vectors_linearly_independent():
    sig = (W1, W2) * 2
    cat = enumerate_basis(sig)
    vecs = [web_vector(w) for w in cat.webs()]
    assert vectors_rank(vecs) == len(cat) == invariant_kernel_dim(sig)


def test_web_vectors_are_unitriangular_in_the_tensor_basis(catalogs_le8):
    # Khovanov and Kuperberg: read a basis web's path as a state, at leg k
    # the index of p_k - p_(k-1) among the leg's weights.  A web's vector
    # is +-1 at its own state, and nonzero at another basis web's state
    # only if that web's path is entrywise dominance-below its own; so the
    # catalog is independent in the library's own arithmetic
    n_sigs = n_webs = off_diagonal = 0
    for sig, cat in catalogs_le8.items():
        if not len(cat):
            continue
        legs = [oracle._leg_weights(lam, "a2") for lam in sig]
        state = {p: tuple(ws.index(sub(b, a))
                          for ws, a, b in zip(legs, p, p[1:]))
                 for p in cat.paths()}
        for p, w, _key in cat.entries:
            vec = web_vector(w)
            assert vec[state[p]] in (1, -1)
            for q in cat.paths():
                if q != p and vec.get(state[q]):
                    assert all(map(dominance_leq, q, p)), (sig, p, q)
                    off_diagonal += 1
        n_sigs += 1
        n_webs += len(cat)
    assert (n_sigs, n_webs, off_diagonal) == (170, 2584, 12832)


def apartment_states(w):
    """{state: number of label-preserving maps of w's dual diskoid D into
    the apartment that send boundary vertex i to x_i}, where x_0 = 0 and
    x_(i+1) - x_i is the weight of leg i's index s_i.  One search per web,
    bucketed by the boundary's places.  A neighbour of the base is pinned
    to each of its places in turn: with only the base placed, `_search`
    explores one representative of each orbit of the base's stabilizer,
    which is right for distances from the base but not for places."""
    D = dual_diskoid(w)
    legs = [oracle._leg_weights(lam, w.mode) for lam in w.boundary_signature()]
    link = diskoid_linkage(D)
    u, step, _eid, _along = D.adjacency()[D.base][0]
    counts = collections.Counter()

    def visit(assign, mult):
        x = [assign[b] for b in D.boundary]
        counts[tuple(ws.index(sub(b, a))
                     for ws, a, b in zip(legs, x, x[1:] + x[:1]))] += mult

    for place in APARTMENT.sphere(APARTMENT.base(), step):
        building._enumerate(Linkage(link.vertices, link.base, link.edges,
                                    fixed={u: place}), APARTMENT, visit)
    return counts


def inversions(s):
    return sum(a > b for a, b in itertools.combinations(s, 2))


def test_web_vectors_count_maps_into_the_apartment(catalogs_le8):
    # the vector form of criterion 5: a basis web's coefficient at a state
    # is, up to one sign per signature and (-1)^inv(state), the Euler
    # characteristic of the fibre over the boundary that the state walks,
    # counted at its torus-fixed points in the apartment
    n_sigs = n_webs = 0
    for sig, cat in catalogs_le8.items():
        if len(sig) > 7 or not len(cat):
            continue
        signs = set()
        for w in cat.webs():
            vec = web_vector(w)
            assert {s: abs(c) for s, c in vec.items()} == apartment_states(w)
            signs |= {(c > 0) == (inversions(s) % 2 == 0)
                      for s, c in vec.items()}
        assert len(signs) == 1, sig
        n_sigs += 1
        n_webs += len(cat)
    assert (n_sigs, n_webs) == (84, 638)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_random_web_vectors_count_maps_into_the_apartment(seed):
    # elliptic webs too: the count needs no CAT(0)
    rng = random.Random(seed)
    sig = random_signature(rng, max_legs=7)
    w = random_web(sig, rng, max_vertices=8)
    assert {s: abs(c) for s, c in web_vector(w).items()} == \
        apartment_states(w)


def test_web_vector_digest_of_small_catalogs():
    # every catalog web with at most six legs, the bare arcs (the A1
    # epsilon and the A2 identity) among them; the digest is frozen
    h = hashlib.sha256()
    sigs = [(sig, "a2") for n in range(1, 7)
            for sig in itertools.product((W1, W2), repeat=n)]
    sigs += [((W1,) * n, "a1") for n in range(1, 7)]
    count = 0
    for sig, mode in sigs:
        for w in enumerate_basis(sig, mode).webs():
            v = densify(web_vector(w), len(sig), mode)
            h.update(repr((mode, sig, v.shape, v.reshape(-1).tolist())).encode())
            count += 1
    assert count == 184
    assert h.hexdigest()[:16] == "6aa11c3390abc002"


def test_contract_closed_ignores_dart_names():
    # `relabelled` also shuffles the vertex list, so the sweep starts and
    # breaks its ties elsewhere; open webs are compared by `web_vector`
    rng = random.Random(31)
    for _ in range(25):
        g = random_closed_web(rng)
        assert contract_closed(relabelled(g, rng)) == contract_closed(g)
        mode = rng.choice(("a1", "a2"))
        sig = random_signature(rng, mode, max_legs=7)
        w = random_web(sig, rng, mode, max_vertices=8)
        vec = web_vector(w)
        assert web_vector(relabelled(w, rng)) == vec
