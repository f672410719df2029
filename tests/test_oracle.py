import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_closed_web, relabelled
from spiderweb import corpus
from spiderweb.basis import dim_invariants, enumerate_basis
from spiderweb.oracle import (
    _tuples_of_weight, apply_raising, contract_closed, in_invariant_kernel,
    invariant_kernel_dim, web_vector)
from spiderweb.skein import evaluate_closed
from spiderweb.generate import random_signature, random_web
from spiderweb.webs import WebError, glue, mirror
from spiderweb.weights import W1, W2


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
    """Exact rank of a family of integer tensors (flattened)."""
    return _rank_exact([np.asarray(v, dtype=object).reshape(-1).tolist()
                        for v in vectors])


def _reference_kernel_dim(sig, mode):
    """len(zero) - rank over Q of the raising operators on the weight-zero
    tuples: one row per weight-zero basis tensor, holding its images
    under apply_raising, flattened."""
    zero = _tuples_of_weight(sig, mode, (0, 0))
    whiches = (1,) if mode == "a1" else (1, 2)
    images = []
    for t in zero:
        vec = np.zeros((2 if mode == "a1" else 3,) * len(sig), dtype=object)
        vec[t] = 1
        images.append([x for which in whiches
                       for x in apply_raising(vec, sig, which, mode).flat])
    # drop the coordinates no image reaches; they do not change the rank
    images = [list(col) for col in zip(*(r for r in zip(*images) if any(r)))]
    return len(zero) - _rank_exact(images)


def test_contract_closed_corpus():
    assert contract_closed(corpus.load_web("loop")) == 3
    assert contract_closed(corpus.load_web("theta")) == 6


def test_contract_matches_skein_at_minus_one():
    rng = random.Random(23)
    done = 0
    while done < 6:
        sig = random_signature(rng, max_legs=6)
        w = random_web(sig, rng, max_vertices=6, split_bias=0.0)
        try:
            g = glue(w, mirror(w))
        except WebError:
            continue
        if g.circles:
            continue
        assert contract_closed(g) == evaluate_closed(g, -1)
        done += 1


def test_contract_requires_closed():
    with pytest.raises(WebError):
        contract_closed(corpus.load_web("single-y"))


def test_web_vector_in_kernel():
    for name in ("single-y", "a2-example"):
        w = corpus.load_web(name)
        vec = web_vector(w)
        assert np.any(vec)
        assert in_invariant_kernel(vec, w.boundary_signature(), w.mode)


def test_raising_annihilates_invariants():
    w = corpus.load_web("single-y")
    vec = web_vector(w)
    sig = w.boundary_signature()
    for which in (1, 2):
        assert not np.any(apply_raising(vec, sig, which))


def test_noninvariant_detected():
    sig = (W1, W1, W1)
    # a delta function on one index tuple is not invariant
    vec = np.zeros((3, 3, 3), dtype=object)
    vec[0, 1, 2] = 1
    assert not in_invariant_kernel(vec, sig)


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


def test_highest_weight_vectors_are_not_invariant():
    # each is killed by the raising operators but has nonzero weight
    assert not in_invariant_kernel(np.array([1, 0, 0], dtype=object), (W1,))
    e00 = np.zeros((3, 3), dtype=object)
    e00[0, 0] = 1
    assert not in_invariant_kernel(e00, (W1, W1))
    assert not in_invariant_kernel(np.array([1, 0], dtype=object), (W1,),
                                   mode="a1")


def test_kernel_dim_zero_for_nongluable():
    assert invariant_kernel_dim((W1,)) == 0
    assert invariant_kernel_dim((W1, W1)) == 0


def test_basis_vectors_linearly_independent():
    sig = (W1, W2) * 2
    cat = enumerate_basis(sig)
    vecs = [web_vector(w) for w in cat.webs()]
    assert vectors_rank(vecs) == len(cat) == invariant_kernel_dim(sig)


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
            v = np.asarray(web_vector(w), dtype=object)
            h.update(repr((mode, sig, v.shape, v.reshape(-1).tolist())).encode())
            count += 1
    assert count == 184
    assert h.hexdigest()[:16] == "6aa11c3390abc002"


def test_contract_closed_ignores_dart_names():
    rng = random.Random(31)
    for _ in range(25):
        g = random_closed_web(rng)
        assert contract_closed(relabelled(g, rng)) == contract_closed(g)
