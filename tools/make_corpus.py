"""Regenerate the shipped corpus: named webs plus expected-value sidecars.

Run from the repository root:  python3 tools/make_corpus.py [OUTDIR]

OUTDIR defaults to the shipped corpus, src/spiderweb/corpus.

Every expected value in the sidecars is computed here by the engine and
then frozen; the test suite recomputes them independently and compares.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from spiderweb.weights import W1, W2, format_signature
from spiderweb.webs import Web, glue, mirror, parse_web, serialize_web
from spiderweb.skein import WebSum, normal_form, evaluate_closed
from spiderweb.diskoid import dual_diskoid, is_cat0
from spiderweb.basis import minuscule_paths, path_tag, web_from_path
from spiderweb.oracle import contract_closed
from spiderweb.building import euler_estimate

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "spiderweb", "corpus")

MU = ((0, 0), (1, 0), (1, 1), (1, 2), (0, 3), (1, 3), (2, 2), (3, 1),
      (3, 0), (2, 1), (1, 1), (0, 1), (0, 0))
NU = ((0, 0), (1, 0), (0, 0), (0, 1), (0, 0), (1, 0), (0, 0), (0, 1),
      (0, 0), (1, 0), (0, 0), (0, 1), (0, 0))
SIG12 = (W1, W2, W2, W1) * 3


def single_y():
    (path,) = minuscule_paths((W1, W1, W1))
    return web_from_path((W1, W1, W1), path)


class WebBuilder:
    """Incremental construction with integer darts."""

    def __init__(self, mode="a2"):
        self.mode = mode
        self._next = 0
        self.theta = {}
        self.vertices = []
        self.boundary = []
        self.heads = set()

    def dart(self):
        d = self._next
        self._next += 1
        return d

    def darts(self, k):
        return [self.dart() for _ in range(k)]

    def edge(self, a, b, head=None):
        self.theta[a] = b
        self.theta[b] = a
        if head is not None:
            self.heads.add(head)
        return (a, b)

    def vertex(self, a, b, c):
        """Interior vertex with counterclockwise dart order (a, b, c)."""
        self.vertices.append((a, b, c))

    def build(self):
        """The web, validated (free circles allowed)."""
        return Web(self.mode, self.theta, self.vertices, self.boundary,
                   self.heads)


class GeometricBuilder:
    """Build a web from drawn coordinates: vertex rotation orders are the
    counterclockwise angular orders of the incident edges, and the
    boundary lists the legs clockwise from the given base angle."""

    def __init__(self, mode="a2"):
        self.mode = mode
        self.vpos = {}      # vertex name -> (x, y)
        self.legs = {}      # leg name -> angle in degrees on the circle
        self.edges = []     # (end_a, end_b, head_end); ends are names

    def vertex(self, name, x, y):
        self.vpos[name] = (float(x), float(y))

    def vertex_polar(self, name, ang, r):
        a = math.radians(ang)
        self.vertex(name, r * math.cos(a), r * math.sin(a))

    def leg(self, name, ang):
        self.legs[name] = float(ang)

    def edge(self, a, b, head=None, bend=0.0):
        # bend > 0 bulges to the left of travel a -> b (degrees)
        self.edges.append((a, b, head, float(bend)))

    def _pos(self, end):
        if end in self.vpos:
            return self.vpos[end]
        a = math.radians(self.legs[end])
        return (2.0 * math.cos(a), 2.0 * math.sin(a))

    def build(self, base_angle):
        b = WebBuilder(self.mode)
        incident = {v: [] for v in self.vpos}
        leg_dart = {}
        for a_end, b_end, head, bend in self.edges:
            da, db = b.dart(), b.dart()
            if head is None:
                hd = None
            else:
                hd = da if head == a_end else db
            b.edge(da, db, head=hd)
            for d, here, there, sgn in ((da, a_end, b_end, 1.0),
                                        (db, b_end, a_end, -1.0)):
                if here in self.vpos:
                    x0, y0 = self._pos(here)
                    x1, y1 = self._pos(there)
                    ang = math.atan2(y1 - y0, x1 - x0) \
                        + sgn * math.radians(bend)
                    incident[here].append((ang, d))
                else:
                    leg_dart[here] = d
        for v, inc in incident.items():
            if len(inc) != 3:
                raise ValueError("vertex %r has degree %d" % (v, len(inc)))
            inc.sort()
            b.vertices.append(tuple(d for _a, d in inc))
        order = sorted(self.legs, key=lambda L:
                       (-((self.legs[L] - base_angle) % 360), L))
        # clockwise from the base: decreasing angle offset, base first
        order = [L for L in order if (self.legs[L] - base_angle) % 360 == 0] \
            + [L for L in order if (self.legs[L] - base_angle) % 360 != 0]
        b.boundary = [leg_dart[L] for L in order]
        return b.build()


def bigon_web():
    g = GeometricBuilder()
    g.vertex("A", -0.7, 0.0)
    g.vertex("C", 0.7, 0.0)
    g.leg("l1", 180)
    g.leg("l2", 0)
    g.edge("A", "l1", head="l1")                # w1 leg out on the left
    g.edge("A", "C", head="C", bend=25)         # bigon, upper side
    g.edge("A", "C", head="C", bend=-25)        # bigon, lower side
    g.edge("l2", "C", head="C")                 # w2 leg in on the right
    w = g.build(base_angle=180)
    assert any(f.degree == 2 for f in w.internal_faces())
    return w


def square_web():
    g = GeometricBuilder()
    for k, ang in enumerate((45, 135, 225, 315)):
        g.vertex("V%d" % k, 0.7 * math.cos(math.radians(ang)),
                 0.7 * math.sin(math.radians(ang)))
        g.leg("l%d" % k, ang)
    for k in range(4):
        out = (k % 2 == 0)
        g.edge("V%d" % k, "l%d" % k,
               head="l%d" % k if out else "V%d" % k)
        nxt = (k + 1) % 4
        g.edge("V%d" % k, "V%d" % nxt,
               head="V%d" % nxt if out else "V%d" % k)
    w = g.build(base_angle=45)
    assert any(f.degree == 4 for f in w.internal_faces())
    return w


def loop_web():
    return Web("a2", {}, (), (), (), circles=1, check=False)


def theta_web():
    y = single_y()
    return glue(y, mirror(y))


def a1_example():
    # four nested/side-by-side arcs; clockwise legs 0..7, arcs pairing
    # (0,3), (1,2), (4,5), (6,7)
    b = WebBuilder("a1")
    legs = b.darts(8)
    for i, j in ((0, 3), (1, 2), (4, 5), (6, 7)):
        b.edge(legs[i], legs[j])
    b.boundary = legs
    return b.build()


def a2_example():
    # a 9-leg, 9-vertex non-elliptic web: a ring of four all-in and four
    # all-out vertices, one outward edge ending at an extra all-in vertex
    # that takes two more inward legs
    g = GeometricBuilder()
    for t in (0, 90, 180, 270):
        g.vertex_polar("C%d" % t, t, 0.75)        # all-in ring vertices
    for s in (45, 135, 225, 315):
        g.vertex_polar("O%d" % s, s, 0.75)        # all-out ring vertices
    g.vertex_polar("X", 45, 1.3)                  # extra all-in vertex
    for s in (45, 135, 225, 315):
        lo, hi = (s - 45) % 360, (s + 45) % 360
        g.edge("O%d" % s, "C%d" % lo, head="C%d" % lo)
        g.edge("O%d" % s, "C%d" % hi, head="C%d" % hi)
    for t in (0, 90, 180, 270):
        g.leg("in%d" % t, t)
        g.edge("in%d" % t, "C%d" % t, head="C%d" % t)
    for s in (135, 225, 315):
        g.leg("out%d" % s, s)
        g.edge("O%d" % s, "out%d" % s, head="out%d" % s)
    g.edge("O45", "X", head="X")
    g.leg("in30", 30)
    g.leg("in60", 60)
    g.edge("in30", "X", head="X")
    g.edge("in60", "X", head="X")
    return g.build(base_angle=90)


def coeff_strings(s):
    return sorted(str(c) for _w, c in s.items())


def sidecar(name, w, extra):
    d = {
        "name": name,
        "mode": w.mode,
        "legs": len(w.boundary),
        "signature": format_signature(w.boundary_signature()),
        "vertices": w.n_vertices(),
        "edges": w.n_edges(),
        "circles": w.circles,
        "nonelliptic": w.is_nonelliptic(),
    }
    if w.mode == "a2" and not w.circles:
        d["euler_chi"] = euler_estimate(dual_diskoid(w))
    d.update(extra)
    return d


def closed_extras(w):
    val = evaluate_closed(w)
    extras = {
        "skein_value": str(val),
        "value_at_minus_one": int(val.evaluate(-1)),
        "tensor_value": contract_closed(w),
    }
    return extras


def basis_extras(w):
    D = dual_diskoid(w)
    return {
        "path_tag": [list(x) for x in path_tag(w)],
        "cat0": is_cat0(D),
        "dim": len(minuscule_paths(w.boundary_signature(), w.mode)),
    }


def reduction_extras(w):
    nf = normal_form(WebSum.single(w))
    return {"reduction_terms": len(nf),
            "reduction_coefficients": coeff_strings(nf)}


def main(out=OUT):
    os.makedirs(out, exist_ok=True)
    items = {}

    y = single_y()
    items["single-y"] = (y, basis_extras(y))

    bg = bigon_web()
    items["bigon"] = (bg, reduction_extras(bg))

    sq = square_web()
    items["square"] = (sq, reduction_extras(sq))

    lp = loop_web()
    items["loop"] = (lp, closed_extras(lp))

    th = theta_web()
    items["theta"] = (th, closed_extras(th))

    a1 = a1_example()
    items["a1-example"] = (a1, basis_extras(a1))

    a2 = a2_example()
    assert a2.is_nonelliptic() and is_cat0(dual_diskoid(a2))
    items["a2-example"] = (a2, basis_extras(a2))

    wmu = web_from_path(SIG12, MU)
    wnu = web_from_path(SIG12, NU)
    for w, p in ((wmu, MU), (wnu, NU)):
        assert w.is_nonelliptic() and path_tag(w) == p
    items["w-mu"] = (wmu, basis_extras(wmu))
    items["w-nu"] = (wnu, basis_extras(wnu))

    index = []
    for name, (w, extra) in items.items():
        webtext = serialize_web(w)
        w2 = parse_web(webtext)
        assert w2 == w, name
        with open(os.path.join(out, name + ".web"), "w") as f:
            f.write(webtext)
        with open(os.path.join(out, name + ".json"), "w") as f:
            json.dump(sidecar(name, w, extra), f, indent=1, sort_keys=True)
            f.write("\n")
        index.append(name)
        print("wrote", name)
    print("done:", ", ".join(index))


if __name__ == "__main__":
    main(*sys.argv[1:])
