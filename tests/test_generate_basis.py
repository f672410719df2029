import gc
import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from spiderweb import corpus
from spiderweb.basis import (
    dim_invariants, enumerate_basis, expand_in_basis, minuscule_paths,
    path_tag, rotated_catalog_check, web_from_path)
from spiderweb.generate import grown_webs, random_signature, random_web
from spiderweb.laurent import Laurent
from spiderweb.skein import WebSum, normal_form
from spiderweb.webs import WebError, rotate
from spiderweb.weights import W1, W2, add, is_dominant, minuscule_orbit

from conftest import MU, NU, SIG12, all_signatures, is_gluable


def brute_force_paths(sig, mode):
    """Every walk through the legs' orbits that stays dominant and returns
    to 0, in the order `itertools.product` lists the steps."""
    out = []
    for steps in itertools.product(
            *(minuscule_orbit(lam, mode) for lam in sig)):
        path = tuple(itertools.accumulate(steps, add, initial=(0, 0)))
        if path[-1] == (0, 0) and all(map(is_dominant, path)):
            out.append(path)
    return out


def test_minuscule_paths_against_brute_force():
    # every walk through the orbits, kept when dominant and closed, in
    # lexicographic order: every A2 signature of length <= 8 and A1
    # signature of length <= 10
    sigs = [(sig, "a2") for n in range(9)
            for sig in itertools.product((W1, W2), repeat=n)]
    sigs += [((W1,) * n, "a1") for n in range(11)]
    for sig, mode in sigs:
        assert minuscule_paths(sig, mode) == \
            sorted(brute_force_paths(sig, mode))


def test_weighted_paths_multiply_every_step_but_the_last():
    # a factor that tells the steps apart: each path's product over its
    # steps bar the last, keyed in path order
    def factor(mu, lam, nu):
        return 2 + mu[0] + 3 * mu[1] + 5 * lam[0] + 7 * nu[0] + 11 * nu[1]

    for mode, sigs in (("a2", itertools.product((W1, W2), repeat=7)),
                       ("a1", [(W1,) * 8])):
        for sig in sigs:
            paths = minuscule_paths(sig, mode)
            weighted = minuscule_paths(sig, mode, factor)
            assert list(weighted) == paths
            assert list(weighted.values()) == [
                math.prod(factor(*s) for s in zip(p, sig, p[1:-1]))
                for p in paths]


def test_minuscule_paths_leave_no_cycles():
    # the walks are built without a self-referencing closure, so
    # reference counting alone frees all they make, with gc disabled
    sig = (W1,) * 4 + (W2,) * 4
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert len(minuscule_paths(sig)) == 23
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_minuscule_paths_small():
    assert minuscule_paths(()) == [((0, 0),)]
    assert minuscule_paths((W1,)) == []
    assert minuscule_paths((W1, W2)) == [((0, 0), (1, 0), (0, 0))]
    assert dim_invariants((W1, W1, W1)) == 1
    assert dim_invariants((W1, W2) * 3) == 6
    assert dim_invariants((W1,) * 8, mode="a1") == 14  # Catalan(4)


def test_paths_start_and_end_at_zero():
    for sig in [(W1, W2), (W1, W1, W1), (W2, W1, W1, W2, W2, W2)]:
        for p in minuscule_paths(sig):
            assert p[0] == (0, 0) and p[-1] == (0, 0)
            assert len(p) == len(sig) + 1


def test_enumerate_small():
    cat = enumerate_basis((W1, W1, W1))
    assert len(cat) == 1
    assert cat.webs()[0] == corpus.load_web("single-y")
    cat2 = enumerate_basis((W1, W2))
    assert len(cat2) == 1 and cat2.webs()[0].n_vertices() == 0


def test_catalog_tags_are_paths():
    cat = enumerate_basis((W1, W2) * 3)
    assert len(cat) == 6
    assert cat.paths() == minuscule_paths((W1, W2) * 3)
    for p, w, _k in cat.entries:
        assert path_tag(w) == p
        assert w.is_nonelliptic()
        assert cat.path_of(w) == p


def test_web_from_path_roundtrip():
    sig = (W1, W2) * 3
    cat = enumerate_basis(sig)
    for p in cat.paths():
        assert path_tag(web_from_path(sig, p)) == p
    bad = [
        ((0, 0), (9, 9)),                                   # too short
        cat.paths()[0][:-1],                                # too short
        ((0, 0), (1, 0), (2, -1), (1, 0), (0, 0), (1, 0), (0, 0)),  # not dominant
        ((0, 0), (1, 0), (0, 0), (1, 0), (0, 0), (1, 0), (1, 1)),   # ends off 0
    ]
    for path in bad:
        with pytest.raises(WebError):
            web_from_path(sig, path)
    with pytest.raises(WebError):
        web_from_path((W2, W1), ((0, 0), (1, 0), (0, 0)))   # w1 step on w2


def test_frozen_catalog_entries():
    assert path_tag(corpus.load_web("w-mu")) == MU
    assert path_tag(corpus.load_web("w-nu")) == NU


def test_expand_in_basis_reproduces_reduction():
    rng = random.Random(19)
    done = 0
    while done < 8:
        sig = random_signature(rng, max_legs=6)
        w = random_web(sig, rng, max_vertices=8)
        cat = enumerate_basis(sig)
        coords = expand_in_basis(w, catalog=cat)
        rebuilt = WebSum(w.mode)
        for p, c in coords.items():
            rebuilt += WebSum.single(cat.by_path[p], c)
        assert normal_form(w) == rebuilt
        done += 1


def test_basis_webs_expand_to_delta():
    cat = enumerate_basis((W1, W2) * 2)
    for p, w, _k in cat.entries:
        assert expand_in_basis(w, catalog=cat) == {p: Laurent.const(1)}


def test_rotated_catalog_check_small():
    cat = enumerate_basis((W1, W1, W2, W2, W1, W2))
    cat2 = rotated_catalog_check(cat, 1)
    assert len(cat2) == len(cat)
    assert cat2.signature == (W1, W2, W2, W1, W2, W1)
    # rotating a basis web lands in the rotated catalog
    for _p, w, _k in cat.entries:
        cat2.path_of(rotate(w, 1))


def test_grown_webs_are_nonelliptic():
    for w in grown_webs((W2, W2, W2)):
        assert w.is_nonelliptic()
        assert w.boundary_signature() == (W2, W2, W2)


def _grown_keys(sig, mode="a2"):
    return {w.canonical_key() for w in grown_webs(sig, mode)}


def test_construction_matches_growth_search(catalogs_le8):
    # the exhaustive growth search is the oracle for the path construction;
    # a signature of nonzero mod-3 charge bounds no web, and the search
    # would spend most of its time proving that, so it only asserts empty
    for sig in all_signatures(8):
        built = {k for _p, _w, k in catalogs_le8[sig].entries}
        if not is_gluable(sig):
            assert not built, sig
            continue
        assert built == _grown_keys(sig), sig
    for n in range(0, 9, 2):
        sig = (W1,) * n
        built = {k for _p, _w, k in enumerate_basis(sig, "a1").entries}
        assert built == _grown_keys(sig, "a1"), n


def test_construction_matches_growth_search_n12(catalog12):
    # sha256 of the sorted canonical keys of grown_webs(SIG12), computed
    # once with the search (about 45 s) and frozen here
    keys = sorted(k for _p, _w, k in catalog12.entries)
    assert hashlib.sha256(b"\n".join(keys)).hexdigest() == (
        "a99d42284afe2068b5c0e4a5ac01bc201ec0cfbdccc3ccdf962bc774a03bdf56")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_web_from_path_property(seed):
    rng = random.Random(seed)
    mode = "a1" if rng.random() < 0.2 else "a2"
    sig = random_signature(rng, mode, max_legs=12)
    p = rng.choice(minuscule_paths(sig, mode))
    w = web_from_path(sig, p, mode)
    assert w.boundary_signature() == sig
    assert w.is_nonelliptic()
    assert path_tag(w) == p


def test_a1_catalog():
    cat = enumerate_basis((W1,) * 6, mode="a1")
    assert len(cat) == 5  # Catalan(3)
    for w in cat.webs():
        assert w.n_vertices() == 0


def test_n12_catalog_contains_frozen_webs(catalog12):
    assert catalog12.signature == SIG12
    assert len(catalog12) == dim_invariants(SIG12)
    assert catalog12.path_of(corpus.load_web("w-mu")) == MU
    assert catalog12.path_of(corpus.load_web("w-nu")) == NU
