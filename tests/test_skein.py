import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_closed_web, relabelled
from spiderweb import corpus, skein
from spiderweb.basis import enumerate_basis
from spiderweb.laurent import BIGON_A2, LOOP_A1, LOOP_A2, Laurent
from spiderweb.oracle import contract_closed
from spiderweb.skein import (
    WebSum, evaluate_closed, find_elliptic, normal_form, pair, rewrite)
from spiderweb.webs import (
    Web, WebError, empty_web, glue, mirror, parse_web, serialize_web)
from spiderweb.generate import random_signature, random_web
from spiderweb.weights import W1, W2


def test_laurent_arithmetic():
    q = Laurent.monomial(1, 1)
    qi = Laurent.monomial(1, -1)
    assert q * qi == 1
    assert (q + qi) * (q + qi) == Laurent({2: 1, 0: 2, -2: 1})
    assert str(-q - qi) == "-q-q^-1"
    assert LOOP_A2.evaluate(-1) == 3
    assert LOOP_A1.evaluate(-1) == 2
    assert LOOP_A2.is_palindromic()
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
        assert val.is_palindromic()
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


def test_closed_reduction_keys_only_square_smoothings_and_leaves(monkeypatch):
    count = {"canon": 0, "square": 0, "leaf": 0}
    canonicalize = Web._canonicalize
    rewrite_, find = skein.rewrite, skein.find_elliptic

    def counted_canonicalize(w):
        count["canon"] += 1
        return canonicalize(w)

    def counted_rewrite(w, site):
        terms = rewrite_(w, site)
        count["square"] += len(terms) == 2
        return terms

    def counted_find(w, strategy="default"):
        site = find(w, strategy)
        count["leaf"] += site is None
        return site

    monkeypatch.setattr(Web, "_canonicalize", counted_canonicalize)
    monkeypatch.setattr(skein, "rewrite", counted_rewrite)
    monkeypatch.setattr(skein, "find_elliptic", counted_find)
    webs = enumerate_basis((W1, W1, W1, W2, W1, W2, W2, W2)).webs()
    total = squares = 0
    for a in webs:
        for b in webs:
            g = glue(a, mirror(b))
            count.update(canon=0, square=0, leaf=0)
            evaluate_closed(g)
            assert count["canon"] <= 2 * count["square"] + count["leaf"]
            total += count["canon"]
            squares += count["square"]
    assert squares > 0
    assert total <= 1000
