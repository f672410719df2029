import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dual_reverse_signature, random_closed_web, reference_glue, relabelled,
    web_fields)
from spiderweb import corpus, skein
from spiderweb.basis import enumerate_basis
from spiderweb.generate import grown_webs, random_signature, random_web
from spiderweb.webs import (
    Web, WebError, empty_web, glue, mirror, parse_web, rotate, serialize_web)
from spiderweb.weights import W1, W2

MAKE_CORPUS = Path(__file__).resolve().parents[1] / "tools" / "make_corpus.py"


def Y():
    return corpus.load_web("single-y")


def test_single_y_shape():
    w = Y()
    assert w.mode == "a2"
    assert w.n_vertices() == 1 and w.n_edges() == 3
    assert w.boundary_signature() == (W1, W1, W1)
    assert w.is_nonelliptic()
    w.validate()


def test_empty_web():
    e = empty_web("a2")
    assert e.is_empty() and e.is_closed()
    assert e.boundary_signature() == ()


def test_serialize_roundtrip_corpus():
    for name in corpus.names():
        w = corpus.load_web(name)
        w2 = parse_web(serialize_web(w))
        assert w2 == w
        assert w2.canonical_key() == w.canonical_key()


def test_faces_euler():
    # V - E + F = 2, counting the disk boundary as one extra vertex
    for name in ("single-y", "square", "theta", "a2-example"):
        w = corpus.load_web(name)
        V = w.n_vertices() + (1 if w.boundary else 0)
        E = w.n_edges()
        F = len(w.faces())
        assert V - E + F == 2, name


def test_internal_face_degrees():
    assert [f.degree for f in corpus.load_web("bigon").internal_faces()] == [2]
    assert [f.degree for f in corpus.load_web("square").internal_faces()] == [4]
    assert corpus.load_web("a2-example").is_nonelliptic()


def test_components_are_found_once_per_web(monkeypatch):
    # `validate` and the canonical key both read the components: one
    # union-find per web, kept on it as its faces are
    calls = []
    find = Web._components

    def spy(self):
        calls.append(self._comps is None)
        return find(self)

    monkeypatch.setattr(Web, "_components", spy)
    w = parse_web(corpus.web_text("a2-example"))
    w.canonical_key()
    assert calls == [True, False]


def reflect(w):
    """Plain reflection: mirror(w) with the w1 flow kept."""
    m = mirror(w)
    return Web(w.mode, m.theta, m.vertices, m.boundary, w.heads, w.circles)


def test_rotate_reflect_mirror():
    w = corpus.load_web("a2-example")
    sig = w.boundary_signature()
    n = len(sig)
    assert rotate(w, n) == w
    r = rotate(w, 1)
    assert r.boundary_signature() == sig[1:] + sig[:1]
    assert rotate(r, n - 1) == w
    m = mirror(w)
    assert m.boundary_signature() == dual_reverse_signature(sig)
    assert mirror(m) == w
    assert reflect(reflect(w)) == w


def test_glue_closes():
    w = Y()
    g = glue(w, mirror(w))
    assert g.is_closed()
    assert g.n_vertices() == 2
    assert g == corpus.load_web("theta")


def test_glue_numbers_darts_by_position():
    # corpus darts are strings; a glued web's darts are ints, dart d of w
    # at its index in w.theta and dart d of wp offset by len(w.theta)
    for name in ("single-y", "a2-example"):
        w = corpus.load_web(name)
        m = mirror(w)
        assert all(isinstance(d, str) for d in w.theta)
        g = glue(w, m)
        assert all(type(d) is int for d in g.theta)
        inner = {d for tri in w.vertices for d in tri}
        n = len(w.theta)
        assert set(g.theta) == {i + off for off in (0, n)
                                for i, d in enumerate(w.theta) if d in inner}
        assert g.vertices == tuple(
            tuple(off + list(w.theta).index(d) for d in tri)
            for off, web in ((0, w), (n, m)) for tri in web.vertices)


def test_glue_signature_mismatch():
    w = Y()
    with pytest.raises(WebError):
        glue(w, w)  # (w1,w1,w1) is not reverse-dual to itself


def glue_cases(rng, mode):
    """Pairs to glue: two random webs of one signature (a2 ones often
    have bare arcs, a1 ones are nothing else), a web against its own
    mirror (where the bare arcs close up into circles), a closed web
    against itself and, in a2, two different closed webs."""
    sig = random_signature(rng, mode, max_legs=8)
    a = random_web(sig, rng, mode, max_vertices=8)
    b = random_web(sig, rng, mode, max_vertices=8)
    g = glue(a, mirror(b))
    cases = [(a, mirror(b)), (a, mirror(a)), (g, g)]
    if mode == "a2":
        cases.append((random_closed_web(rng), g))
    return cases


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("a1", "a2")))
def test_glue_matches_reference_glue(seed, mode):
    for w, wp in glue_cases(random.Random(seed), mode):
        assert web_fields(glue(w, wp)) == web_fields(reference_glue(w, wp))


def test_glue_cases_reach_bare_arcs_and_closed_chains():
    arcs = chains = 0
    for seed in range(40):
        for w, wp in glue_cases(random.Random(seed), "a2"):
            bd = set(w.boundary)
            arcs += any(w.theta[d] in bd for d in bd)
            g = glue(w, wp)
            chains += g.circles > w.circles + wp.circles
            assert web_fields(g) == web_fields(reference_glue(w, wp))
    assert arcs > 0 and chains > 0


def test_builder_validation():
    # WebBuilder serves only the corpus generator, so it lives there
    spec = importlib.util.spec_from_file_location("make_corpus", MAKE_CORPUS)
    make_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_corpus)
    b = make_corpus.WebBuilder()
    d1, d2, d3 = b.darts(3)
    l1, l2, l3 = b.darts(3)
    b.vertex(d1, d2, d3)
    for d, leg in ((d1, l1), (d2, l2), (d3, l3)):
        b.edge(d, leg, head=leg)
    # boundary is read clockwise, opposite to the CCW vertex order
    b.boundary = [l1, l3, l2]
    w = b.build()
    assert w.boundary_signature() == (W1, W1, W1)


def random_boundary_web(rng):
    sig = random_signature(rng, max_legs=6)
    return random_web(sig, rng, max_vertices=6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_canonical_key_invariance(seed):
    rng = random.Random(seed)
    for w in (random_boundary_web(rng), random_closed_web(rng)):
        assert relabelled(w, rng).canonical_key() == w.canonical_key()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_rotation_keys(seed):
    rng = random.Random(seed)
    w = random_boundary_web(rng)
    sig = w.boundary_signature()
    n = len(sig)
    assert rotate(rotate(w, 1), n - 1).canonical_key() == w.canonical_key()
    if sig[1:] + sig[:1] != sig:
        assert rotate(w, 1).canonical_key() != w.canonical_key()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("a1", "a2")))
def test_web_text_round_trip(seed, mode):
    rng = random.Random(seed)
    sig = random_signature(rng, mode, max_legs=6)
    webs = [random_web(sig, rng, mode, max_vertices=6)]
    if mode == "a2":
        webs.append(random_closed_web(rng))
    for w in webs:
        back = parse_web(serialize_web(w))
        assert back.canonical_key() == w.canonical_key()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("a1", "a2")))
def test_edges_walk_each_edge_once_in_canonical_order(seed, mode):
    rng = random.Random(seed)
    sig = random_signature(rng, mode, max_legs=6)
    webs = [random_web(sig, rng, mode, max_vertices=6)]
    if mode == "a2":
        webs.append(random_closed_web(rng))
    for w in webs:
        rank = w.canonical_rank()
        edges = w.edges()
        assert sorted(d for edge in edges for d in edge) == sorted(w.theta)
        assert all(w.theta[d] == e and rank[d] < rank[e] for d, e in edges)
        firsts = [rank[d] for d, _ in edges]
        assert firsts == sorted(firsts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(("a1", "a2")))
def test_mirror_signature_is_reverse_dual(seed, mode):
    rng = random.Random(seed)
    sig = random_signature(rng, mode, max_legs=8)
    w = random_web(sig, rng, mode, max_vertices=8)
    assert mirror(w).boundary_signature() == \
        dual_reverse_signature(w.boundary_signature(), mode)
    g = glue(w, mirror(w))  # never raises
    assert g.is_closed()


# ----------------------------------------------------------------------
# the pruned canonical search against the exhaustive one


def exhaustive_code(w, seeds):
    """Breadth-first code of w from the seeds, encoded in full."""
    num = {}
    order = []

    def see(d):
        if d not in num:
            num[d] = len(order)
            order.append(d)

    for s in seeds:
        see(s)
    i = 0
    while i < len(order):
        e = w.theta[order[i]]
        i += 1
        see(e)
        tri = next((t for t in w.vertices if e in t), None)
        if tri is not None:
            j = tri.index(e)
            for k in range(1, len(tri)):
                see(tri[(j + k) % len(tri)])
    succ = {t[k]: t[(k + 1) % len(t)] for t in w.vertices for k in range(len(t))}
    bset = set(w.boundary)
    code = tuple((num[w.theta[d]],
                  num[succ[d]] if d in succ else -1,
                  1 if d in w.heads else 0,
                  1 if d in bset else 0) for d in order)
    return code, num


def exhaustive_canonical_form(w):
    """(key, rank) with every closed component encoded from every dart,
    keeping the least code and, on ties, the first seed in str order."""
    bset = set(w.boundary)
    comps = w._components()
    parts = []
    rank = {}
    if w.boundary:
        code, num = exhaustive_code(w, w.boundary)
        parts.append(("bd", len(w.boundary), code))
        rank.update(num)
    found = []
    for comp in comps:
        if bset & set(comp):
            continue
        best = None
        for seed in sorted(comp, key=lambda d: str(d)):
            code, num = exhaustive_code(w, [seed])
            if best is None or code < best[0]:
                best = (code, num)
        found.append(best)
    found.sort(key=lambda t: t[0])
    for code, num in found:
        parts.append(("cl", code))
        offset = len(rank)
        for d, k in num.items():
            rank[d] = offset + k
    return repr((w.mode, w.circles, parts)).encode(), rank


def beside(w, g):
    """w with a disjoint copy of the closed web g inside its disk."""
    a = {d: ("a", d) for d in w.theta}
    b = {d: ("b", d) for d in g.theta}
    theta = {a[d]: a[e] for d, e in w.theta.items()}
    theta.update({b[d]: b[e] for d, e in g.theta.items()})
    verts = ([tuple(a[d] for d in t) for t in w.vertices]
             + [tuple(b[d] for d in t) for t in g.vertices])
    heads = {a[d] for d in w.heads} | {b[d] for d in g.heads}
    return Web(w.mode, theta, verts, [a[d] for d in w.boundary], heads,
               w.circles + g.circles)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_pruned_canonical_form_matches_exhaustive(seed):
    rng = random.Random(seed)
    g = random_closed_web(rng)
    tops = [g, beside(random_boundary_web(rng), g)]
    # every web the default reduction passes through, once per key
    webs, todo = {}, list(tops)
    while todo:
        w = todo.pop()
        if w not in webs:
            webs[w] = None
            site = skein.find_elliptic(w)
            if site is not None:
                todo += [w1 for w1, _c in skein.rewrite(w, site)]
    for w in webs:
        key, rank = exhaustive_canonical_form(w)
        fresh = Web(w.mode, w.theta, w.vertices, w.boundary, w.heads,
                    w.circles, check=False)
        assert fresh.canonical_key() == key
        assert fresh.canonical_rank() == rank


def test_closed_components_are_seeded_off_heads(monkeypatch):
    # a closed component's least code starts at a dart that is no head,
    # so only those are tried, one per edge; keys and ranks are still
    # those of every seed tried (`exhaustive_canonical_form`), on glued
    # webs drawn as criterion 5 draws them and every gram pair of
    # w1^3 w2 w1 w2^3
    rng, glued = random.Random(77), []
    while len(glued) < 300:
        w = random_web(random_signature(rng, max_legs=6), rng,
                       max_vertices=4, split_bias=0.0)
        try:
            glued.append(glue(w, mirror(w)))
        except WebError:
            pass
    basis = enumerate_basis((W1, W1, W1, W2, W1, W2, W2, W2)).webs()
    assert len(basis) ** 2 == 529
    glued += [glue(a, mirror(b)) for a in basis for b in basis]
    seeds = []
    encode = Web._encode_from
    monkeypatch.setattr(Web, "_encode_from", lambda self, ss, *a:
                        seeds.append(ss) or encode(self, ss, *a))
    for g in glued:
        seeds.clear()
        fresh = Web(g.mode, g.theta, g.vertices, g.boundary, g.heads,
                    g.circles, check=False)
        assert (fresh.canonical_key(), fresh.canonical_rank()) == \
            exhaustive_canonical_form(g)
        assert len(seeds) == len(g.theta) // 2
        assert not g.heads.intersection(d for ss in seeds for d in ss)


def test_grown_webs_deduplicates():
    webs = grown_webs((W1, W1, W1))
    assert len(webs) == 1
    assert webs[0].canonical_key() == Y().canonical_key()


def test_random_web_respects_signature():
    rng = random.Random(3)
    for _ in range(25):
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=10)
        assert w.boundary_signature() == sig
        w.validate()


def test_a1_mode():
    w = corpus.load_web("a1-example")
    assert w.mode == "a1"
    assert w.boundary_signature() == (W1,) * 8
    assert w.n_vertices() == 0 and w.n_edges() == 4


# ----------------------------------------------------------------------
# every rejection of `Web.validate` and `parse_web`


def edit_y(edit):
    """The single Y's fields (mode, theta, vertices, boundary, heads) after
    `edit` changes them in place; it returns a mode, or None for a2."""
    w = Y()
    theta, verts, bd, heads = (dict(w.theta), list(w.vertices),
                               list(w.boundary), set(w.heads))
    mode = edit(theta, verts, bd, heads) or "a2"
    return mode, theta, verts, bd, heads


def broken_involution(theta, verts, bd, heads):
    theta[bd[0]] = bd[1]


def attached_twice(theta, verts, bd, heads):
    verts[0] = verts[0][:2] + (bd[0],)


def attached_differ(theta, verts, bd, heads):
    bd.pop()


def a1_with_vertices(theta, verts, bd, heads):
    heads.clear()
    return "a1"


def a1_with_heads(theta, verts, bd, heads):
    theta.clear()
    theta.update(a="b", b="a")
    verts.clear()
    bd[:] = ["a", "b"]
    heads.clear()
    heads.add("a")
    return "a1"


def four_valent(theta, verts, bd, heads):
    theta.update(x="y", y="x")
    verts[0] += ("y",)
    bd.append("x")
    heads.add("x")


def headless_edge(theta, verts, bd, heads):
    heads.discard(bd[2])


def two_headed_edge(theta, verts, bd, heads):
    heads.add(theta[bd[2]])


def mixed_flow(theta, verts, bd, heads):
    heads.discard(bd[2])
    heads.add(theta[bd[2]])


def crossing_arcs(theta, verts, bd, heads):
    # two A1 arcs joining opposite legs of a square cross
    theta.clear()
    theta.update(a="c", c="a", b="d", d="b")
    verts.clear()
    bd[:] = ["a", "b", "c", "d"]
    heads.clear()
    return "a1"


def stray_head(theta, verts, bd, heads):
    # a head on a dart of no edge: a round trip would drop it
    heads.add("zz")


def twisted_theta(theta, verts, bd, heads):
    # the theta web with one vertex rotation reversed: a torus map
    th = corpus.load_web("theta")
    theta.clear()
    theta.update(th.theta)
    verts[:] = [th.vertices[0], th.vertices[1][::-1]]
    bd.clear()
    heads.clear()
    heads.update(th.heads)


@pytest.mark.parametrize("edit, message", [
    (broken_involution, "edge involution broken at dart"),
    (attached_twice, "a dart is attached twice"),
    (attached_differ, "attached darts and edge darts differ"),
    (a1_with_vertices, "A1 webs have no interior vertices"),
    (a1_with_heads, "A1 webs carry no w1-flow heads"),
    (four_valent, "interior vertices must be trivalent"),
    (headless_edge, "must have exactly one head"),
    (two_headed_edge, "must have exactly one head"),
    (stray_head, "head 'zz' is on no edge"),
    (mixed_flow, "vertex 0 violates the all-in/all-out flow rule"),
    (crossing_arcs, "fails the Euler planarity check"),
    (twisted_theta, "fails the Euler planarity check"),
], ids=lambda x: getattr(x, "__name__", None))
def test_validate_rejections(edit, message):
    with pytest.raises(WebError, match=message):
        Web(*edit_y(edit))


def test_the_unedited_y_is_valid():
    w = Web(*edit_y(lambda *parts: None))
    assert w == Y()


@pytest.mark.parametrize("old, new, message", [
    ("type a2", "type a3", "line 1: type must be a1 or a2"),
    ("type a2", "type", "line 1: type must be a1 or a2"),
    ("vertex d3 d4 d5", "vertex d3 d4", "line 3: vertex needs 3 darts"),
    ("vertex d3 d4 d5", "vertex d3 d4 d5 d6", "line 3: vertex needs 3 darts"),
    ("edge d0 d3", "edge d0", "line 4: edge needs 2 darts"),
    ("edge d0 d3", "edge d0 d3 d4", "line 4: edge needs 2 darts"),
    ("head d0", "head", "line 7: head needs 1 dart"),
    ("head d0", "head d0 d3", "line 7: head needs 1 dart"),
    ("bdarts", "face", "line 2: unknown directive 'face'"),
    ("type a2\n", "", "missing 'type' line"),
    ("edge d0 d3", "edge d0 d3\nedge d4 d0",
     "dart used by two edges"),
    ("bdarts d0 d1 d2", "bdarts d0 d1 d2\nbdarts d1 d2 d0",
     r"line 3: a second 'bdarts' line \(the first is line 2\)"),
    ("type a2", "type a2\ntype a1",
     r"line 2: a second 'type' line \(the first is line 1\)"),
    ("head d0", "head d0\nhead zz", "head 'zz' is on no edge"),
], ids=["type-value", "type-bare", "vertex-short", "vertex-long",
        "edge-short", "edge-long", "head-short", "head-long",
        "unknown-directive", "missing-type", "dart-in-two-edges",
        "bdarts-twice", "type-twice", "head-on-no-edge"])
def test_parse_web_rejections(old, new, message):
    text = corpus.web_text("single-y")
    assert old in text
    with pytest.raises(WebError, match=message):
        parse_web(text.replace(old, new, 1))


def test_parse_web_reads_comments_case_and_circles():
    text = "# the single Y\n" + corpus.web_text("single-y").replace(
        "type a2", "TYPE A2  # mode").replace("head d0", "Head d0\n\n")
    assert parse_web(text) == Y()
    w = parse_web(text + "edge c0 c1\n")
    assert w.circles == 1 and w.n_edges() == 3


# ----------------------------------------------------------------------
# planarity: the Euler count over the whole web against the first,
# per-component check


def reference_check_planarity(w):
    """The first planarity check: V - E + F = 2 on each connected
    component on its own, the disk boundary one more vertex of the
    component that holds the legs."""
    bset = set(w.boundary)
    faces = w.faces()
    for comp in w._components():
        cset = set(comp)
        has_bd = bool(cset & bset)
        nv = len([tri for tri in w.vertices if tri[0] in cset])
        if has_bd:
            nv += 1
        ne = len(comp) // 2
        nf = len([f for f in faces if f.darts[0] in cset])
        if nv - ne + nf != 2:
            raise WebError("component fails the Euler planarity check "
                           "(V-E+F = %d)" % (nv - ne + nf))


def mutated(w, rng):
    """w after one to three random edits that keep the edge involution,
    the attachments and the flow rules, so that only planarity can fail:
    a vertex rotation reversed, two edges re-paired head to tail, the
    boundary permuted, or two darts of one flow swapped between their
    attachment points (vertices or the boundary)."""
    theta = dict(w.theta)
    slots = [list(t) for t in w.vertices] + [list(w.boundary)]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind == 0 and len(slots) > 1:
            slots[rng.randrange(len(slots) - 1)].reverse()
        elif kind == 1 and len(theta) >= 4:
            (a, b), (c, d) = rng.sample(
                [(h, theta[h]) for h in theta
                 if h in w.heads or (w.mode == "a1" and str(h) < str(theta[h]))],
                2)
            theta.update({a: d, d: a, c: b, b: c})
        elif kind == 2:
            rng.shuffle(slots[-1])
        elif kind == 3:
            places = [(i, k) for i, s in enumerate(slots) for k in range(len(s))]
            if len(places) >= 2:
                (i, k), (j, m) = rng.sample(places, 2)
                if (slots[i][k] in w.heads) == (slots[j][m] in w.heads):
                    slots[i][k], slots[j][m] = slots[j][m], slots[i][k]
    return Web(w.mode, theta, slots[:-1], slots[-1], w.heads, w.circles,
               check=False)


def test_planarity_count_matches_the_per_component_check():
    rng = random.Random(2024)
    sources = [corpus.load_web(name) for name in corpus.names()]
    for k in range(300):
        if k < 100:
            sources.append(random_closed_web(rng))
        elif k < 150:
            sources.append(random_boundary_web(rng))
            sources.append(beside(sources[-1], random_closed_web(rng)))
        else:
            mode = "a1" if k % 5 == 0 else "a2"
            sig = random_signature(rng, mode, max_legs=8)
            sources.append(random_web(sig, rng, mode, max_vertices=8))
    tried = rejected = 0
    for w in sources:
        for _ in range(40):
            m = mutated(w, rng)
            try:
                reference_check_planarity(m)
                planar = True
            except WebError:
                planar = False
            try:
                Web(m.mode, m.theta, m.vertices, m.boundary, m.heads,
                    m.circles)
                assert planar
            except WebError as exc:
                assert not planar
                assert "fails the Euler planarity check" in str(exc)
            tried += 1
            rejected += not planar
    assert tried >= 10_000 and rejected >= 5_000, (tried, rejected)
