import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import dual_reverse_signature
from spiderweb.weights import (
    W1, W2, add, dominance_leq, dual, format_signature, format_weight,
    is_dominant, is_minuscule, minuscule_orbit, parse_signature,
    parse_weight, rho_level, rotate_signature, sub)

weights_st = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def dominance_lt(mu, lam, mode="a2"):
    return mu != lam and dominance_leq(mu, lam, mode)


def root_coordinates(w, mode="a2"):
    """Reference: w as (i, j) with w = i*alpha1 + j*alpha2, in Fractions;
    None in A1 mode when b != 0."""
    a, b = w
    if mode == "a1":
        if b != 0:
            return None
        return (Fraction(a, 2), Fraction(0))
    # invert [[2,-1],[-1,2]]: det 3
    return (Fraction(2 * a + b, 3), Fraction(a + 2 * b, 3))


def reference_dominance_leq(mu, lam, mode="a2"):
    rc = root_coordinates(sub(lam, mu), mode)
    if rc is None:
        return False
    i, j = rc
    return i.denominator == 1 and j.denominator == 1 and i >= 0 and j >= 0


def test_basics():
    assert is_dominant((0, 0)) and is_dominant(W1) and is_dominant((2, 3))
    assert not is_dominant((-1, 0))
    assert is_minuscule(W1) and is_minuscule(W2) and is_minuscule((0, 0))
    assert not is_minuscule((1, 1))
    assert not is_minuscule(W2, mode="a1")


def test_duality():
    assert dual(W1) == W2 and dual(W2) == W1
    assert dual((2, 5)) == (5, 2)
    assert dual(W1, mode="a1") == W1


def test_orbits():
    assert set(minuscule_orbit(W1)) == {(1, 0), (-1, 1), (0, -1)}
    assert set(minuscule_orbit(W2)) == {(0, 1), (1, -1), (-1, 0)}
    assert set(minuscule_orbit(W1, mode="a1")) == {(1, 0), (-1, 0)}
    # each orbit sums to zero
    for lam in (W1, W2):
        s = (0, 0)
        for x in minuscule_orbit(lam):
            s = add(s, x)
        assert s == (0, 0)


def test_root_coordinates_and_dominance():
    # lam - mu must be a nonnegative root combination
    assert root_coordinates((0, 0)) == (0, 0)
    assert dominance_leq((0, 0), (1, 1))
    assert not dominance_leq(W1, W2)
    assert not dominance_leq(W2, W1)
    assert dominance_lt((0, 0), (1, 1))
    assert not dominance_lt(W1, W1)
    assert dominance_leq(W1, W1)
    assert dominance_leq((0, 0), (2, 0), mode="a1")
    assert not dominance_leq((0, 0), (1, 0), mode="a1")
    assert not dominance_leq((0, 0), (2, 1), mode="a1")


@given(weights_st, weights_st, st.sampled_from(["a1", "a2"]))
def test_dominance_matches_root_coordinates(mu, lam, mode):
    assert dominance_leq(mu, lam, mode) == reference_dominance_leq(mu, lam, mode)


def test_rho_levels():
    assert rho_level(W1) == rho_level(W2) == 1
    assert rho_level((1, 1)) == 2
    # d(lambda-vec) = <lambda_1 + ... + lambda_n, rho-check>
    assert sum(map(rho_level, (W1, W2, W1))) == 3


def test_signature_ops():
    sig = (W1, W1, W2)
    assert rotate_signature(sig, 1) == (W1, W2, W1)
    assert rotate_signature(sig, 3) == sig
    # entry j is the dual of entry -j mod n (reflection fixing position 0)
    assert dual_reverse_signature(sig) == (W2, W1, W2)


def test_parse_format_roundtrip():
    for text, w in [("0", (0, 0)), ("w1", W1), ("w2", W2),
                    ("2w1+w2", (2, 1)), ("w1+3w2", (1, 3))]:
        assert parse_weight(text) == w
        assert parse_weight(format_weight(w)) == w
    sig = parse_signature("w1,w2,w1")
    assert sig == (W1, W2, W1)
    assert parse_signature(format_signature(sig)) == sig
    with pytest.raises(ValueError):
        parse_weight("w3")


@given(weights_st, weights_st)
def test_add_sub_inverse(u, v):
    assert sub(add(u, v), v) == u


@given(weights_st, weights_st)
def test_dominance_is_partial_order(u, v):
    if dominance_leq(u, v) and dominance_leq(v, u):
        assert u == v


@given(weights_st)
def test_dual_involution(u):
    assert dual(dual(u)) == u


# ----------------------------------------------------------------------
# parse_weight against its first tokenizer


def reference_parse_weight(text):
    """The first weight parser: split into signed terms by hand."""
    s = text.strip().lower().replace(" ", "")
    if s in ("0", "+0", "-0"):
        return (0, 0)
    a = b = 0
    terms = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    if cur:
        terms.append(cur)
    for t in terms:
        if not t or t in ("+", "-"):
            raise ValueError("bad weight syntax: %r" % text)
        sign = 1
        if t[0] == "-":
            sign, t = -1, t[1:]
        elif t[0] == "+":
            t = t[1:]
        if t.endswith("w1"):
            name, coeff = "w1", t[:-2]
        elif t.endswith("w2"):
            name, coeff = "w2", t[:-2]
        else:
            raise ValueError("bad weight term in %r" % text)
        k = sign * (int(coeff) if coeff else 1)
        if name == "w1":
            a += k
        else:
            b += k
    return (a, b)


def junk(text):
    """The strings the first tokenizer accepted by accident: blank, a
    trailing '+', or a sign right after a '+'."""
    s = text.strip().lower().replace(" ", "")
    return not s or s.endswith("+") or "++" in s or "+-" in s


ALPHABET = "w12+-03 W9"


def check_against_reference(text):
    """parse_weight agrees with the first tokenizer, except that it
    raises on junk; returns whether the string was junk it now rejects."""
    try:
        want = reference_parse_weight(text)
    except ValueError:
        want = None
    if want is not None and not junk(text):
        assert parse_weight(text) == want, text
        return False
    with pytest.raises(ValueError):
        parse_weight(text)
    return want is not None


def test_parse_weight_matches_its_first_tokenizer():
    strings = ("".join(t) for n in range(6)
               for t in itertools.product(ALPHABET, repeat=n))
    rng = random.Random(5)
    sample = ["".join(rng.choice(ALPHABET) for _ in range(rng.randint(6, 12)))
              for _ in range(20_000)]
    sample += [format_weight((rng.randint(-12, 12), rng.randint(-12, 12)))
               for _ in range(2_000)]
    newly_rejected = sum(map(check_against_reference,
                             itertools.chain(strings, sample)))
    assert newly_rejected > 0


@pytest.mark.parametrize("text", [
    "", "   ", "w1+", "w1++w2", "w1+-w2", "w3", "w", "0w", "00", "0+w1",
    "w1w2", "2w12w1", "w1-", "--w1", "+", "-"])
def test_parse_weight_rejects_junk(text):
    with pytest.raises(ValueError):
        parse_weight(text)


def test_parse_weight_accepts_signed_terms():
    for text, w in [("+0", (0, 0)), ("-0", (0, 0)), ("0w1", (0, 0)),
                    ("+w1", W1), ("-w2", (0, -1)), (" 2 W1 - 3w2 ", (2, -3)),
                    ("w1+w1", (2, 0)), ("-w1+10w2-w2", (-1, 9))]:
        assert parse_weight(text) == w
    with pytest.raises(ValueError):
        parse_signature("w1,,w2")
