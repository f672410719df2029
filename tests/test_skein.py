import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    random_closed_web, reference_glue, relabelled, splice, web_fields)
from spiderweb import corpus, skein
from spiderweb.basis import enumerate_basis
from spiderweb.laurent import BIGON_A2, LOOP_A1, LOOP_A2, ONE, ZERO, Laurent
from spiderweb.oracle import contract_closed
from spiderweb.skein import (
    WebSum, evaluate_closed, find_elliptic, normal_form, pair, rewrite)
from spiderweb.webs import (
    Web, WebError, empty_web, glue, mirror, parse_web, serialize_web)
from spiderweb.generate import random_signature, random_web
from spiderweb.weights import W1, W2


def palindromic(L):
    """True iff L is invariant under q -> 1/q."""
    return all(L.coeffs.get(-e, 0) == c for e, c in L.coeffs.items())


def test_laurent_arithmetic():
    q = Laurent.monomial(1, 1)
    qi = Laurent.monomial(1, -1)
    assert q * qi == 1
    assert (q + qi) * (q + qi) == Laurent({2: 1, 0: 2, -2: 1})
    assert str(-q - qi) == "-q-q^-1"
    assert LOOP_A2.evaluate(-1) == 3
    assert LOOP_A1.evaluate(-1) == 2
    assert palindromic(LOOP_A2)
    assert not palindromic(Laurent({2: 1, 0: 1}))
    with pytest.raises(ZeroDivisionError):
        LOOP_A2.evaluate(0)
    assert LOOP_A2.evaluate(Fraction(1, 2)) == Fraction(21, 4)


laurents = st.dictionaries(st.integers(-8, 8), st.integers(-50, 50),
                           max_size=6).map(Laurent)
nonzero_rationals = st.fractions().filter(bool)


@settings(max_examples=200, deadline=None)
@given(laurents, nonzero_rationals)
def test_laurent_evaluate_equals_termwise_sum(p, q0):
    assert p.evaluate(q0) == sum((c * q0 ** e for e, c in p.coeffs.items()),
                                 Fraction(0))


def test_loop_value():
    nf = normal_form(corpus.load_web("loop"))
    assert dict(nf.items()) == {empty_web("a2"): LOOP_A2}


def test_a1_circle_value():
    w = Web("a1", {}, (), (), (), circles=1, check=False)
    assert evaluate_closed(w) == LOOP_A1


def test_bigon_relation():
    w = corpus.load_web("bigon")
    nf = normal_form(w)
    assert len(nf) == 1
    ((w2, c),) = nf.items()
    assert c == BIGON_A2
    assert w2.n_vertices() == 0 and w2.n_edges() == 1


def test_square_relation():
    w = corpus.load_web("square")
    nf = normal_form(w)
    assert len(nf) == 2
    for w2, c in nf.items():
        assert c == 1
        assert w2.n_vertices() == 0 and w2.n_edges() == 2


def test_theta_value():
    w = corpus.load_web("theta")
    val = evaluate_closed(w)
    assert val == Laurent({3: -1, 1: -2, -1: -2, -3: -1})
    assert val.evaluate(-1) == 6


def test_normal_form_idempotent_and_linear():
    w = corpus.load_web("square")
    nf = normal_form(w)
    assert normal_form(nf) == nf
    doubled = normal_form(WebSum("a2", [(w, Laurent.const(2))]))
    assert doubled == nf.scale(Laurent.const(2))


def test_rewrite_stale_site():
    w = corpus.load_web("bigon")
    site = find_elliptic(w)
    nf = normal_form(w)
    ((w2, _c),) = nf.items()
    with pytest.raises(WebError):
        rewrite(w2, site)


def test_nonelliptic_webs_are_fixed():
    for name in ("single-y", "a2-example", "w-mu", "w-nu"):
        w = corpus.load_web(name)
        nf = normal_form(w)
        assert dict(nf.items()) == {w: Laurent.const(1)}


def test_pair_requires_matching_boundary():
    y = corpus.load_web("single-y")
    with pytest.raises(WebError):
        pair(y, y)
    val = pair(y, mirror(y))
    assert val == evaluate_closed(corpus.load_web("theta"))


def test_confluence_small_sample():
    rng = random.Random(11)
    for _ in range(30):
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=10)
        assert normal_form(w) == normal_form(w, strategy="alternate")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_closed_web_confluence_and_oracle(seed):
    g = random_closed_web(random.Random(seed))
    val = evaluate_closed(g)
    assert evaluate_closed(g, strategy="alternate") == val
    assert normal_form(g, "alternate") == WebSum.single(empty_web(g.mode), val)
    assert contract_closed(g) == val.evaluate(-1) == evaluate_closed(g, -1)


def test_closed_reduction_values_palindromic():
    rng = random.Random(5)
    seen = 0
    while seen < 5:
        sig = random_signature(rng, max_legs=6)
        w = random_web(sig, rng, max_vertices=6, split_bias=0.0)
        try:
            g = glue(w, mirror(w))
        except WebError:
            continue
        val = evaluate_closed(g)
        # <w, w*> is invariant under q -> 1/q
        assert palindromic(val)
        seen += 1


def test_evaluate_closed_rejects_boundary():
    with pytest.raises(WebError):
        evaluate_closed(corpus.load_web("single-y"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_dart_names_do_not_change_reduction(seed):
    # sites are chosen in dart order, so a renamed copy reduces another way
    rng = random.Random(seed)
    g = random_closed_web(rng)
    assert evaluate_closed(relabelled(g, rng)) == evaluate_closed(g)
    w = random_web(random_signature(rng, max_legs=8), rng, max_vertices=10)
    assert normal_form(relabelled(w, rng)) == normal_form(w)


GRAM_SIGNATURE = (W1, W1, W1, W2, W1, W2, W2, W2)


def test_closed_reduction_keys_only_square_smoothings_and_leaves(monkeypatch):
    # A closed web becomes a Web only where a square smoothing reaches
    # another square (a branch web, keyed in the memo); the input and the
    # empty leaves are never keyed.
    count = {"canon": 0, "keyed": 0}
    canonicalize, to_web = Web._canonicalize, skein._DartMap.web

    def counted_canonicalize(w):
        count["canon"] += 1
        return canonicalize(w)

    def counted_web(m):
        w = to_web(m)
        count["keyed"] += not w.is_empty()
        return w

    hash(empty_web("a2"))  # the shared empty web's key, outside the counts
    monkeypatch.setattr(Web, "_canonicalize", counted_canonicalize)
    monkeypatch.setattr(skein._DartMap, "web", counted_web)
    webs = enumerate_basis(GRAM_SIGNATURE).webs()
    total = keyed = 0
    for a in webs:
        for b in webs:
            g = glue(a, mirror(b))
            count.update(canon=0, keyed=0)
            evaluate_closed(g)
            assert count["canon"] <= count["keyed"]
            total += count["canon"]
            keyed += count["keyed"]
    assert keyed > 0
    assert total <= 26  # 13 over the 529 pairs


def test_gram_values_frozen():
    # the Gram entries of GRAM_SIGNATURE's basis, as a reducer making one
    # generic splice (conftest.splice) per rewrite computed them
    webs = enumerate_basis(GRAM_SIGNATURE).webs()
    text = "\n".join(str(evaluate_closed(glue(a, mirror(b))))
                     for a in webs for b in webs)
    assert len(webs) == 23
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "c877b9138f08ca01"


def test_glue_matches_reference_glue_on_gram_pairs():
    webs = enumerate_basis(GRAM_SIGNATURE).webs()
    for a in webs:
        for b in webs:
            m = mirror(b)
            assert web_fields(glue(a, m)) == web_fields(reference_glue(a, m))


# ----------------------------------------------------------------------
# The reference reducer: one conftest.splice per rewrite, a fresh web
# each time, faces recomputed at every step, and no memo; it shares no
# code with the library's in-place _DartMap.

def reference_step(w, strategy="default"):
    """The terms of one rewrite of w, or None when w is non-elliptic."""
    faces = [f for f in w.internal_faces() if f.degree < 6]
    if w.circles and (strategy == "default" or not faces):
        loop = LOOP_A1 if w.mode == "a1" else LOOP_A2
        return [(Web(w.mode, w.theta, w.vertices, w.boundary, w.heads,
                     w.circles - 1, check=False), loop)]
    if not faces:
        return None
    pick = min if strategy == "default" else max
    face = pick(faces, key=lambda f: f.degree)
    index = {d: i for i, tri in enumerate(w.vertices) for d in tri}
    verts = [index[d] for d in face.darts]
    ring = set(face.darts) | {w.theta[d] for d in face.darts}
    e = [next(d for d in w.vertices[v] if d not in ring) for v in verts]
    if face.degree == 2:
        return [(splice(w, verts, [(e[0], e[1])]), BIGON_A2)]
    return [(splice(w, verts, [(e[0], e[1]), (e[2], e[3])]), ONE),
            (splice(w, verts, [(e[1], e[2]), (e[3], e[0])]), ONE)]


def api_step(w, strategy="default"):
    """One rewrite through the public one-step API."""
    site = find_elliptic(w, strategy)
    return None if site is None else rewrite(w, site)


def reduce_by(step, w, strategy="default"):
    """The normal form of w as a WebSum, rewriting with ``step`` until
    every term is non-elliptic."""
    terms = step(w, strategy)
    if terms is None:
        return WebSum.single(w)
    out = WebSum(w.mode)
    for w1, c1 in terms:
        out = out + reduce_by(step, w1, strategy).scale(c1)
    return out


def random_elliptic_web(rng):
    """A random boundary web with elliptic faces, sometimes with circles;
    about one in two has a square on its way to normal form."""
    w = random_web(random_signature(rng, max_legs=8), rng, max_vertices=14,
                   split_bias=0.9)
    if rng.random() < 0.3:
        w = Web(w.mode, w.theta, w.vertices, w.boundary, w.heads,
                w.circles + rng.randrange(1, 3), check=False)
    return w


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_dart_map_matches_reference_reducer(seed):
    rng = random.Random(seed)
    w = random_elliptic_web(rng)
    for strategy in ("default", "alternate"):
        assert normal_form(w, strategy) == reduce_by(reference_step, w,
                                                     strategy)
    g = random_closed_web(rng)
    ref = reduce_by(reference_step, g)
    assert set(ref.terms) <= {empty_web(g.mode)}
    assert evaluate_closed(g) == ref.terms.get(empty_web(g.mode), ZERO)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_one_step_api_reaches_the_normal_form(seed):
    rng = random.Random(seed)
    for w in (random_elliptic_web(rng), random_closed_web(rng)):
        for strategy in ("default", "alternate"):
            assert reduce_by(api_step, w, strategy) == normal_form(w, strategy)


def test_dart_map_matches_reference_through_squares():
    squares = 0

    def counted_step(w, strategy):
        nonlocal squares
        terms = reference_step(w, strategy)
        squares += terms is not None and len(terms) == 2
        return terms

    rng = random.Random(13)
    for _ in range(30):
        w = random_elliptic_web(rng)
        for strategy in ("default", "alternate"):
            assert normal_form(w, strategy) == reduce_by(counted_step, w,
                                                         strategy)
    assert squares >= 20
