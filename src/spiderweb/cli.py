"""Command-line entry point wiring all modules together.

Subcommands: validate, faces, reduce, eval, pair, dual, cat0, dist,
geodesics, mu, order, paths, dim, basis, expand, rotate, oracle, count,
fibre, partition, euler, hexagon, render, selftest.

Web arguments accept a path to a .web file or ``corpus/NAME.web`` /
``corpus:NAME`` for the shipped corpus; diskoid arguments accept a .dsk
path or any web argument (which is dualized).  Exit codes: 0 success,
1 computation error or failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import random
import sys
from fractions import Fraction

from . import corpus, weights
from .weights import (W1, W2, format_signature, format_weight,
                      parse_signature, parse_weight)
from .webs import (Web, WebError, empty_web, glue, mirror, parse_web,
                   rotate, serialize_web)
from .skein import WebSum, evaluate_closed, normal_form, pair
from .diskoid import (DiskoidError, distance, dual_diskoid, geodesics,
                      is_cat0, leq_S, mu_vector, parse_diskoid,
                      serialize_diskoid)
from .generate import random_signature, random_web
from .basis import (dim_invariants, enumerate_basis, expand_in_basis,
                    minuscule_paths, path_tag,
                    rotated_catalog_check)
from .oracle import (_tuples_of_weight, contract_closed, in_invariant_kernel,
                     invariant_kernel_dim, web_vector)
from .building import (APARTMENT, BuildingError, FieldParam, LatticeClass,
                       _enumerated_partition, _hecke_factor, _mul_lower,
                       base_class, count_configurations, count_fibre,
                       diskoid_linkage, euler_estimate, lattice_distance,
                       neighbors, panel, polygon_linkage,
                       sample_polygon_config, satake_partition)
from .hexagon import _Field, hexagon_genericity, solve_hexagon_incidence
from .render import render_diskoid, render_web


class CliError(Exception):
    pass


# ----------------------------------------------------------------------
# argument helpers


def _corpus_name(spec):
    if spec.startswith("corpus:"):
        return spec[len("corpus:"):]
    head, tail = os.path.split(spec)
    if os.path.basename(head) == "corpus" and tail.endswith(".web"):
        return tail[:-4]
    return None


def load_web_arg(spec):
    if os.path.exists(spec):
        with open(spec) as f:
            return parse_web(f.read())
    name = _corpus_name(spec)
    if name is not None and name in corpus.names():
        return corpus.load_web(name)
    raise CliError("cannot find web %r (not a file, not a corpus entry)"
                   % (spec,))


def load_diskoid_arg(spec):
    if spec.endswith(".dsk"):
        if not os.path.exists(spec):
            raise CliError("cannot find diskoid file %r" % (spec,))
        with open(spec) as f:
            return parse_diskoid(f.read())
    w = load_web_arg(spec)
    # round-trip so vertex names match the printed .dsk form (p0, p1, ...)
    return parse_diskoid(serialize_diskoid(dual_diskoid(w)))


def parse_path(text):
    """Parse a dominant path like '0;w1;w1+w2;...;0'."""
    return tuple(parse_weight(tok) for tok in text.split(";"))


def format_path(path):
    return ";".join(format_weight(x) for x in path)


def _q_value(args):
    return Fraction(args.q) if args.q is not None else None


def _fieldparam(args):
    """F_q for counting commands: q from --field, else an integral --q of
    at least 2, else 2."""
    if args.field is not None:
        return FieldParam(args.field)
    if args.q is None:
        return FieldParam(2)
    try:
        q = Fraction(args.q)
    except (ValueError, ZeroDivisionError):
        q = None
    if q is None or q.denominator != 1 or q < 2:
        raise CliError("--q %s is not a field size (an integer >= 2)"
                       % (args.q,))
    return FieldParam(int(q))


def _rng(args):
    return random.Random(args.seed if args.seed is not None else 0)


# ----------------------------------------------------------------------
# output plumbing


def emit(args, text_lines, data):
    if args.format == "json":
        out = json.dumps(data, indent=1, sort_keys=True) + "\n"
    else:
        out = "\n".join(text_lines) + ("\n" if text_lines else "")
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)


def web_summary(w):
    return {
        "mode": w.mode,
        "legs": len(w.boundary),
        "signature": format_signature(w.boundary_signature()),
        "vertices": w.n_vertices(),
        "edges": w.n_edges(),
        "circles": w.circles,
        "nonelliptic": w.is_nonelliptic(),
    }


# ----------------------------------------------------------------------
# subcommand handlers


def cmd_validate(args):
    lines, data = [], {"webs": []}
    for spec in args.web:
        w = load_web_arg(spec)
        s = web_summary(w)
        data["webs"].append(s)
        lines.append("%s: ok (%s, %d legs [%s], %d vertices, %d edges, "
                     "%d circles)" % (spec, w.mode, s["legs"], s["signature"],
                                      s["vertices"], s["edges"], s["circles"]))
    emit(args, lines, data)
    return 0


def cmd_faces(args):
    w = load_web_arg(args.web)
    lines, faces = [], []
    for f in w.faces():
        faces.append({"degree": f.degree, "internal": f.internal})
        lines.append("face: degree %d, %s" %
                     (f.degree, "internal" if f.internal else "boundary"))
    verdict = w.is_nonelliptic()
    lines.append("nonelliptic: %s" % ("yes" if verdict else "no"))
    emit(args, lines, {"faces": faces, "nonelliptic": verdict})
    return 0


def cmd_reduce(args):
    w = load_web_arg(args.web)
    nf1 = normal_form(WebSum.single(w), "default")
    nf2 = normal_form(WebSum.single(w), "alternate")
    agree = nf1 == nf2
    q0 = _q_value(args)
    if q0 is not None and agree:
        for _w2, c in nf1.items():
            c.evaluate(q0)  # exact specialization must be defined
    lines = ["%d terms; value-check %s" % (len(nf1), "ok" if agree else
                                           "FAILED")]
    terms = [{"coefficient": str(c),
              "value_at_q": str(c.evaluate(q0)) if q0 is not None else None,
              "web": serialize_web(w2)}
             for w2, c in sorted(nf1.items(),
                                 key=lambda t: t[0].canonical_key())]
    emit(args, lines, {"terms": terms, "strategies_agree": agree})
    return 0 if agree else 1


def cmd_eval(args):
    w = load_web_arg(args.web)
    val = evaluate_closed(w)
    q0 = _q_value(args)
    lines = ["value = %s" % val]
    data = {"value": str(val)}
    if q0 is not None:
        at = val.evaluate(q0)
        lines.append("value at q=%s: %s" % (q0, at))
        data["value_at_q"] = str(at)
    emit(args, lines, data)
    return 0


def cmd_pair(args):
    w1 = load_web_arg(args.web)
    w2 = load_web_arg(args.web2)
    val = pair(w1, w2)
    q0 = _q_value(args)
    lines = ["pairing = %s" % val]
    data = {"pairing": str(val)}
    if q0 is not None:
        at = val.evaluate(q0)
        lines.append("pairing at q=%s: %s" % (q0, at))
        data["pairing_at_q"] = str(at)
    emit(args, lines, data)
    return 0


def cmd_dual(args):
    w = load_web_arg(args.web)
    D = dual_diskoid(w)
    if args.format in ("svg", "tikz"):
        emit(args, [render_diskoid(D, args.format).rstrip("\n")], None)
        return 0
    text = serialize_diskoid(D)
    emit(args, [text.rstrip("\n")], {"dsk": text})
    return 0


def cmd_cat0(args):
    D = load_diskoid_arg(args.diskoid)
    counts = {str(v): D.triangles_at(v) for v in D.interior_vertices()}
    verdict = is_cat0(D)
    lines = ["interior vertex %s: %d triangles" % (v, c)
             for v, c in sorted(counts.items())]
    lines.append("CAT(0): %s" % ("yes" if verdict else "no"))
    emit(args, lines, {"cat0": verdict, "interior_triangle_counts": counts})
    return 0


def _named_vertex(D, name):
    for v in D.names:
        if str(v) == name:
            return v
    raise CliError("no diskoid vertex named %r" % (name,))


def cmd_dist(args):
    D = load_diskoid_arg(args.diskoid)
    p = _named_vertex(D, args.frm)
    q = _named_vertex(D, args.to)
    d = distance(D, p, q)
    emit(args, ["d(%s, %s) = %s" % (args.frm, args.to, format_weight(d))],
         {"distance": list(d)})
    return 0


def cmd_geodesics(args):
    D = load_diskoid_arg(args.diskoid)
    p = _named_vertex(D, args.frm)
    q = _named_vertex(D, args.to)
    gs = geodesics(D, p, q)
    lines, data = [], []
    for g in gs:
        lines.append(" -> ".join(str(v) for v in g.vertices)
                     + "   [total %s]" % format_weight(g.total))
        data.append({"vertices": [str(v) for v in g.vertices],
                     "total": list(g.total)})
    lines.append("%d geodesics" % len(gs))
    emit(args, lines, {"geodesics": data})
    return 0


def cmd_mu(args):
    D = load_diskoid_arg(args.diskoid)
    vec = mu_vector(D, args.index)
    tag = ((0, 0),) + vec
    emit(args, ["mu = %s" % format_path(tag)],
         {"mu": [list(x) for x in tag]})
    return 0


def cmd_order(args):
    D = load_diskoid_arg(args.diskoid)
    E = load_diskoid_arg(args.diskoid2)
    le = leq_S(D, E)
    ge = leq_S(E, D)
    verdict = {(True, True): "equal", (True, False): "<=",
               (False, True): ">=", (False, False): "incomparable"}[(le, ge)]
    emit(args, ["order: %s" % verdict],
         {"leq": le, "geq": ge, "verdict": verdict})
    return 0


def cmd_paths(args):
    sig = parse_signature(args.boundary)
    mode = args.mode
    ps = minuscule_paths(sig, mode)
    lines = [format_path(p) for p in ps]
    lines.append("%d minuscule paths" % len(ps))
    emit(args, lines, {"count": len(ps),
                       "paths": [[list(x) for x in p] for p in ps]})
    return 0


def cmd_dim(args):
    sig = parse_signature(args.boundary)
    mode = args.mode
    np_ = dim_invariants(sig, mode)
    nk = invariant_kernel_dim(sig, mode)
    ok = np_ == nk
    emit(args, ["paths = %d; kernel = %d; %s"
                % (np_, nk, "agree" if ok else "DISAGREE")],
         {"paths": np_, "kernel": nk, "agree": ok})
    return 0 if ok else 1


def cmd_basis(args):
    sig = parse_signature(args.boundary)
    cat = enumerate_basis(sig, args.mode, max_boundary=args.budget_boundary)
    lines, entries = [], []
    for p, w, _k in cat.entries:
        lines.append("%s   (%d vertices)" % (format_path(p), w.n_vertices()))
        entries.append({"path": [list(x) for x in p],
                        "vertices": w.n_vertices(),
                        "web": serialize_web(w)})
    lines.append("%d catalog entries" % len(cat))
    emit(args, lines, {"count": len(cat), "entries": entries})
    return 0


def cmd_expand(args):
    w = load_web_arg(args.web)
    coords = expand_in_basis(w)
    lines, data = [], []
    for p in sorted(coords):
        lines.append("%s : %s" % (format_path(p), coords[p]))
        data.append({"path": [list(x) for x in p],
                     "coefficient": str(coords[p])})
    if not lines:
        lines = ["0"]
    emit(args, lines, {"coordinates": data})
    return 0


def cmd_rotate(args):
    w = load_web_arg(args.web)
    w2 = rotate(w, args.index)
    emit(args, [serialize_web(w2).rstrip("\n")],
         {"web": serialize_web(w2),
          "signature": format_signature(w2.boundary_signature())})
    return 0


def cmd_oracle(args):
    w = load_web_arg(args.web)
    if w.is_closed():
        tv = contract_closed(w)
        sv = int(evaluate_closed(w, -1))
        ok = tv == sv
        emit(args, ["tensor = %d; skein(q=-1) = %d; %s"
                    % (tv, sv, "MATCH" if ok else "MISMATCH")],
             {"tensor": tv, "skein_at_minus_one": sv, "match": ok})
        return 0 if ok else 1
    vec = web_vector(w)
    inv = in_invariant_kernel(vec, w.boundary_signature(), w.mode)
    emit(args, ["invariant vector: %s" % ("yes" if inv else "NO")],
         {"invariant": inv})
    return 0 if inv else 1


def cmd_count(args):
    if args.boundary:
        sig = parse_signature(args.boundary)
        link = polygon_linkage(sig)
        what = "polygon configurations"
    else:
        D = load_diskoid_arg(args.diskoid or args.linkage)
        link = diskoid_linkage(D)
        what = "diskoid configurations"
    fp = _fieldparam(args)
    res = count_configurations(link, fp)
    emit(args, ["%s over F_%d: %d" % (what, fp.q, res.count)],
         {"q": fp.q, "count": res.count})
    return 0


def cmd_fibre(args):
    w = load_web_arg(args.web)
    D = dual_diskoid(w)
    sig = w.boundary_signature()
    target = parse_path(args.target) if args.target else path_tag(w)
    fp = _fieldparam(args)
    rng = _rng(args)
    cfg = sample_polygon_config(sig, target, fp, rng)
    # where D's boundary passes one vertex twice, the point must put one
    # class there, or nothing lies over it
    bc = {}
    clash = any(bc.setdefault(v, cfg[k]) != cfg[k]
                for k, v in enumerate(D.boundary))
    n = 0 if clash else count_fibre(D, bc, fp)
    emit(args, ["stratum %s over F_%d: fibre size %d"
                % (format_path(target), fp.q, n)],
         {"q": fp.q, "target": [list(x) for x in target], "fibre": n})
    return 0


def cmd_partition(args):
    sig = parse_signature(args.boundary)
    buckets = satake_partition(sig, _fieldparam(args))
    items = sorted(buckets.items())
    total = sum(buckets.values())
    lines = ["%s : %d" % (format_path(key), size) for key, size in items]
    ok = set(buckets) == set(minuscule_paths(sig))
    lines.append("total %d points in %d buckets, %s" % (
        total, len(buckets), "one per minuscule path" if ok else "MISMATCH"))
    data = [{"path": [list(x) for x in key], "size": size}
            for key, size in items]
    emit(args, lines, {"buckets": data, "total": total,
                       "buckets_match_paths": ok})
    return 0 if ok else 1


def cmd_euler(args):
    w = load_web_arg(args.web)
    # free circles contribute an independent projective plane each:
    # q^2 + q + 1 points, so Euler factor 3
    factor = 3 ** w.circles
    core = Web(w.mode, w.theta, w.vertices, w.boundary, w.heads, 0,
               check=False)
    D = dual_diskoid(core)
    chi = factor * (euler_estimate(D) if D.names else 1)
    lines = []
    data = {"chi": chi}
    if w.is_closed():
        sv = int(evaluate_closed(w, -1))
        ok = chi == sv
        lines.append("chi = %d; skein(q=-1) = %d; %s"
                     % (chi, sv, "MATCH" if ok else "MISMATCH"))
        data.update({"skein_at_minus_one": sv, "match": ok})
        emit(args, lines, data)
        return 0 if ok else 1
    lines.append("chi = %d" % chi)
    emit(args, lines, data)
    return 0


def _random_hexagon_sample(rng, F):
    """Random generic (lines, points) with small coordinates."""
    lo, hi = (-9, 9) if F.p is None else (0, F.p - 1)
    for _ in range(10000):
        lines = [tuple(rng.randint(lo, hi) for _ in range(3))
                 for _ in range(3)]
        points = [tuple(rng.randint(lo, hi) for _ in range(3))
                  for _ in range(3)]
        if any(not any(v) for v in lines + points):
            continue
        try:
            if hexagon_genericity(lines, points, F):
                return lines, points
        except ZeroDivisionError:
            continue
    raise CliError("could not sample a generic hexagon configuration")


def cmd_hexagon(args):
    if args.samples < 1:
        raise CliError("--samples must be at least 1, got %d" % args.samples)
    F = _Field(args.field)
    if F.p == 2:
        # a generic row has p_ii = p_i,i+1 = 1 and sums to 1, so over F_2
        # every row is (1, 1, 1): the three points coincide
        raise CliError("P^2(F_2) has no generic hexagon configuration; "
                       "choose a prime field of size at least 3")
    rng = _rng(args)
    lines_out, data = [], []
    for k in range(args.samples):
        ls, ps = _random_hexagon_sample(rng, F)
        count, roots = solve_hexagon_incidence(ls, ps, F, return_roots=True)
        lines_out.append("sample %d: %d closure solutions, %d rational"
                         % (k + 1, count, len(roots)))
        data.append({"lines": [list(l) for l in ls],
                     "points": [list(p) for p in ps],
                     "closure_solutions": count,
                     "rational_roots": [str(r) for r in roots]})
    emit(args, lines_out, {"samples": data})
    return 0


def cmd_render(args):
    spec = args.object
    fmt = args.format if args.format in ("svg", "tikz") else "svg"
    if spec.endswith(".dsk"):
        out = render_diskoid(load_diskoid_arg(spec), fmt)
    elif args.dual:
        out = render_diskoid(dual_diskoid(load_web_arg(spec)), fmt)
    else:
        out = render_web(load_web_arg(spec), fmt)
    if args.out:
        with open(args.out, "w") as f:
            f.write(out)
    else:
        sys.stdout.write(out)
    return 0


# ----------------------------------------------------------------------
# selftests


def _st_weights():
    checks = []
    for wgt in ((0, 0), (1, 0), (0, 1), (2, 3)):
        checks.append(weights.dual(weights.dual(wgt)) == wgt)
        checks.append(parse_weight(format_weight(wgt)) == wgt)
    checks.append(weights.dominance_leq((0, 0), (1, 1)))
    checks.append(not weights.dominance_leq((1, 1), (0, 0)))
    checks.append(not weights.dominance_leq((1, 0), (0, 1)))
    checks.append(sorted(weights.minuscule_orbit(W1)) ==
                  sorted([(1, 0), (-1, 1), (0, -1)]))
    return checks


def _st_webs():
    checks = []
    for name in corpus.names():
        w = corpus.load_web(name)
        checks.append(parse_web(serialize_web(w)) == w)
        n = len(w.boundary)
        if n:
            checks.append(rotate(w, n) == w)
    y = corpus.load_web("single-y")
    checks.append(glue(y, mirror(y)) == corpus.load_web("theta"))
    return checks


def _st_skein():
    checks = []
    loop = corpus.load_web("loop")
    checks.append(str(evaluate_closed(loop)) == "q^2+1+q^-2")
    nf = normal_form(WebSum.single(corpus.load_web("bigon")))
    checks.append(len(nf) == 1 and
                  all(str(c) == "-q-q^-1" for _w, c in nf.items()))
    nf = normal_form(WebSum.single(corpus.load_web("square")))
    checks.append(len(nf) == 2 and
                  all(str(c) == "1" for _w, c in nf.items()))
    rng = random.Random(7)
    for _ in range(5):
        sig = random_signature(rng, max_legs=8)
        w = random_web(sig, rng, max_vertices=10)
        checks.append(normal_form(WebSum.single(w), "default")
                      == normal_form(WebSum.single(w), "alternate"))
    webs = enumerate_basis((W1, W2, W1, W2)).webs()
    for a in webs:
        for b in webs:
            g = glue(a, mirror(b))
            checks.append(normal_form(g, "alternate")
                          == WebSum.single(empty_web("a2"), evaluate_closed(g)))
            checks.append(evaluate_closed(g, -1) == contract_closed(g))
    return checks


def _st_diskoid():
    checks = []
    for name in ("single-y", "a1-example", "a2-example", "w-nu"):
        w = corpus.load_web(name)
        D = dual_diskoid(w)
        checks.append(is_cat0(D))
        checks.append(((0, 0),) + mu_vector(D, 0) == path_tag(w))
        gs = geodesics(D, D.boundary[0], D.boundary[len(D.boundary) // 2])
        checks.append(len({g.total for g in gs}) == 1)
    return checks


def _st_basis():
    checks = []
    for sigtext in ("w1,w1,w1", "w1,w2,w1,w2", "w1,w1,w1,w2,w2,w2"):
        sig = parse_signature(sigtext)
        cat = enumerate_basis(sig)
        checks.append(len(cat) == dim_invariants(sig))
        checks.append(len(cat) == invariant_kernel_dim(sig))
        checks.append(rotated_catalog_check(cat) is not None)
    return checks


def _st_oracle():
    checks = []
    checks.append(contract_closed(corpus.load_web("theta")) == 6)
    checks.append(contract_closed(corpus.load_web("loop")) == 3)
    checks.append(invariant_kernel_dim((W1, W2, W1, W2, W1, W2)) == 6)
    y = corpus.load_web("single-y")
    vec = web_vector(y)
    checks.append(in_invariant_kernel(vec, y.boundary_signature()))
    # epsilon's six signed entries, the Y's darts meeting legs 0, 2, 1
    checks.append(vec == {(0, 2, 1): 1, (1, 0, 2): 1, (2, 1, 0): 1,
                          (0, 1, 2): -1, (2, 0, 1): -1, (1, 2, 0): -1})
    return checks


def _st_building():
    checks = []
    fp = FieldParam(2)
    sig = (W1, W2, W1, W2)
    buckets = satake_partition(sig, fp)
    checks.append(buckets == _enumerated_partition(sig, fp)
                  and sorted(buckets.values()) == [42, 49])
    ones = satake_partition(sig, APARTMENT)
    checks.append(ones == _enumerated_partition(sig, APARTMENT))
    checks.append(sum(ones.values())
                  == len(_tuples_of_weight(sig, "a2", (0, 0))))
    base = base_class(FieldParam(3))
    checks.append(lattice_distance(base, neighbors(base, W1)[0]) == W1)
    # at a class L off the base, the neighbours built in normal form
    # against `_hnf` of their spans L.H, for H the base's neighbours,
    # and their distances both ways: d(L, M) = c = d(M, L)*
    L = neighbors(neighbors(base, W1)[5], W2)[7]
    for c in (W1, W2):
        checks.append(neighbors(L, c) == [
            LatticeClass(L.fp, _mul_lower(L.cols, H.cols, 3))
            for H in neighbors(base, c)])
        checks.append(all(lattice_distance(L, M) == c == weights.dual(
            lattice_distance(M, L)) for M in neighbors(L, c)))
    # the chambers on each panel L, M, built from a line of M/tM, against
    # the w1-sphere of M filtered by distance
    checks.append(all(panel(L, M) == [
        Z for Z in neighbors(M, W1) if lattice_distance(Z, L) == W1]
        for M in neighbors(L, W1)))
    # the c-neighbours of the classes two steps out through the kernels of
    # x0 and x1, bucketed by distance from the base: `_hecke_factor`s
    ys = [neighbors(base, W1)[i] for i in (0, 9)]
    checks.append(all(
        n == _hecke_factor(lattice_distance(base, x), c, nu, 3)
        for y in ys for b in (W1, W2) for x in neighbors(y, b)
        for c in (W1, W2) for nu, n in collections.Counter(
            lattice_distance(base, M) for M in neighbors(x, c)).items()))
    rng = random.Random(1)
    ls, ps = _random_hexagon_sample(rng, _Field())
    checks.append(solve_hexagon_incidence(ls, ps) == 2)
    return checks


def _st_cli():
    checks = []
    for name in ("single-y", "theta"):
        w = corpus.load_web(name)
        checks.append(render_web(w, "svg") == render_web(w, "svg"))
        checks.append(render_web(w, "tikz").startswith("\\begin"))
    checks.append(set(corpus.names()) >= {
        "single-y", "bigon", "square", "loop", "theta", "w-mu", "w-nu",
        "a1-example", "a2-example"})
    return checks


_SELFTESTS = {
    "weights": _st_weights,
    "web-core": _st_webs,
    "skein-engine": _st_skein,
    "diskoid-geom": _st_diskoid,
    "basis-enum": _st_basis,
    "tensor-oracle": _st_oracle,
    "building-sim": _st_building,
    "cli": _st_cli,
}

_MODULE_OF = {
    "validate": "web-core", "faces": "web-core", "rotate": "web-core",
    "reduce": "skein-engine", "eval": "skein-engine", "pair": "skein-engine",
    "dual": "diskoid-geom", "cat0": "diskoid-geom", "dist": "diskoid-geom",
    "geodesics": "diskoid-geom", "mu": "diskoid-geom", "order": "diskoid-geom",
    "paths": "basis-enum", "dim": "basis-enum", "basis": "basis-enum",
    "expand": "basis-enum", "oracle": "tensor-oracle",
    "count": "building-sim", "fibre": "building-sim",
    "partition": "building-sim", "euler": "building-sim",
    "hexagon": "building-sim", "render": "cli",
}


def run_selftest(modules):
    total_pass = total_fail = 0
    for m in modules:
        checks = _SELFTESTS[m]()
        p = sum(1 for c in checks if c)
        f = len(checks) - p
        total_pass += p
        total_fail += f
        print("%-14s %d passed, %d failed" % (m + ":", p, f))
    print("selftest: %d passed, %d failed" % (total_pass, total_fail))
    return 0 if total_fail == 0 else 1


def cmd_selftest(args):
    mods = [args.module] if args.module else sorted(_SELFTESTS)
    for m in mods:
        if m not in _SELFTESTS:
            raise CliError("unknown module %r (choose from %s)"
                           % (m, ", ".join(sorted(_SELFTESTS))))
    return run_selftest(mods)


# ----------------------------------------------------------------------
# parser


def _add_global_flags(p, suppress):
    # the global flags are accepted both before and after the subcommand;
    # the after-subcommand copies use SUPPRESS so they never clobber
    # values already parsed at the top level
    def arg(*a, **kw):
        if suppress:
            kw["default"] = argparse.SUPPRESS
        p.add_argument(*a, **kw)

    arg("--q", help="rational specialization of q (e.g. -1, 2/3); for "
        "count, fibre and partition, the field size")
    arg("--field", type=int,
        help="residue field size (a prime) for counting")
    arg("--seed", type=int, help="random seed (default 0)")
    arg("--json", action="store_true", help="shorthand for --format json")
    arg("--budget-boundary", type=int, default=12,
        help="boundary-leg budget for the basis")
    arg("--format", default="text", choices=("text", "json", "svg", "tikz"))
    arg("--out", help="write output to this file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spiderweb",
        description="Exact engine for the SL(2)/SL(3) spider calculus.")
    _add_global_flags(ap, suppress=False)

    sub = ap.add_subparsers(dest="command")

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, command=name)
        _add_global_flags(p, suppress=True)
        p.add_argument("--selftest", action="store_true",
                       help="run this subcommand's module invariant suite")
        return p

    p = add("validate", cmd_validate, help="parse and validate webs")
    p.add_argument("web", nargs="*")
    p = add("faces", cmd_faces, help="list the faces of a web")
    p.add_argument("web", nargs="?")
    p = add("reduce", cmd_reduce, help="reduce a web to normal form")
    p.add_argument("web", nargs="?")
    p = add("eval", cmd_eval, help="evaluate a closed web")
    p.add_argument("web", nargs="?")
    p = add("pair", cmd_pair, help="bilinear pairing of two webs")
    p.add_argument("web", nargs="?")
    p.add_argument("web2", nargs="?")
    p = add("dual", cmd_dual, help="dual diskoid of a web (.dsk text)")
    p.add_argument("web", nargs="?")
    p = add("cat0", cmd_cat0, help="combinatorial CAT(0) check")
    p.add_argument("diskoid", nargs="?")
    p = add("dist", cmd_dist, help="weight-valued distance in a diskoid")
    p.add_argument("diskoid", nargs="?")
    p.add_argument("frm", nargs="?")
    p.add_argument("to", nargs="?")
    p = add("geodesics", cmd_geodesics, help="all geodesics between vertices")
    p.add_argument("diskoid", nargs="?")
    p.add_argument("frm", nargs="?")
    p.add_argument("to", nargs="?")
    p = add("mu", cmd_mu, help="boundary distance vector (path tag)")
    p.add_argument("diskoid", nargs="?")
    p.add_argument("--index", type=int, default=0)
    p = add("order", cmd_order, help="compare two diskoids in the "
                                     "boundary-distance order")
    p.add_argument("diskoid", nargs="?")
    p.add_argument("diskoid2", nargs="?")
    p = add("paths", cmd_paths, help="minuscule paths of a signature")
    p.add_argument("--boundary", required=True)
    p.add_argument("--mode", default="a2", choices=("a1", "a2"))
    p = add("dim", cmd_dim, help="invariant dimension, two ways")
    p.add_argument("--boundary", required=True)
    p.add_argument("--mode", default="a2", choices=("a1", "a2"))
    p = add("basis", cmd_basis, help="enumerate the non-elliptic basis")
    p.add_argument("--boundary", required=True)
    p.add_argument("--mode", default="a2", choices=("a1", "a2"))
    p = add("expand", cmd_expand, help="coordinates of a web in the basis")
    p.add_argument("web", nargs="?")
    p = add("rotate", cmd_rotate, help="rotate the boundary base point")
    p.add_argument("web", nargs="?")
    p.add_argument("--index", type=int, default=1)
    p = add("oracle", cmd_oracle, help="tensor-network cross-check")
    p.add_argument("web", nargs="?")
    p = add("count", cmd_count, help="configuration count over F_q")
    p.add_argument("diskoid", nargs="?")
    p.add_argument("--linkage", help="diskoid/web file (same as the "
                                     "positional argument)")
    p.add_argument("--boundary", help="count a polygon instead")
    p = add("fibre", cmd_fibre, help="fibre size over a sampled stratum point")
    p.add_argument("web", nargs="?")
    p.add_argument("--target", help="stratum path like '0;w1;0;...;0'")
    p = add("partition", cmd_partition, help="bucket polygon points by "
                                             "distance vector")
    p.add_argument("--boundary", required=True)
    p = add("euler", cmd_euler, help="Euler characteristic, counted at the "
                                     "torus-fixed points")
    # SUPPRESS so an omitted positional does not clobber a --web value
    p.add_argument("web", nargs="?", default=argparse.SUPPRESS)
    p.add_argument("--web", dest="web", help="web file (same as the "
                                             "positional argument)")
    p = add("hexagon", cmd_hexagon, help="hexagon incidence solution counts")
    p.add_argument("--samples", type=int, default=1)
    p = add("render", cmd_render, help="SVG/TikZ drawing of a web or diskoid")
    p.add_argument("object", nargs="?")
    p.add_argument("--dual", action="store_true",
                   help="draw the dual diskoid of a web")
    p = add("selftest", cmd_selftest, help="run module invariant suites")
    p.add_argument("module", nargs="?")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return 2
    if getattr(args, "json", False):
        args.format = "json"
    if args.command != "selftest" and getattr(args, "selftest", False):
        return run_selftest([_MODULE_OF.get(args.command, "cli")])
    # required positional arguments are declared lazily (nargs="?") so
    # that --selftest works without them; enforce presence here
    for attr in ("web", "web2", "diskoid", "diskoid2", "frm", "to", "object"):
        if hasattr(args, attr) and getattr(args, attr) is None:
            if args.command == "count" and attr == "diskoid" \
                    and (args.boundary or args.linkage):
                continue
            ap.error("%s: missing required argument %r" % (args.command, attr))
    if args.command == "validate" and not args.web:
        ap.error("validate: missing required argument 'web'")
    try:
        return args.fn(args)
    except (CliError, WebError, DiskoidError, BuildingError, ValueError,
            ZeroDivisionError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
