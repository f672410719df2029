"""Deterministic SVG/TikZ drawings of webs and diskoids.

Layout is Tutte-style: boundary legs (or the vertices of a chosen outer
face) are pinned to a circle and every interior position is the exact
barycenter of its neighbors, computed over the rationals so that the
output text is identical across runs.  Edge orientation is drawn as a
midpoint arrow; parallel edges are bowed apart.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .weights import format_weight
from .webs import WebError


# ----------------------------------------------------------------------
# exact Tutte layout


def _solve_positions(nodes, neighbors, pinned):
    """Exact barycentric positions: interior node = mean of neighbors."""
    free = [v for v in nodes if v not in pinned]
    index = {v: i for i, v in enumerate(free)}
    n = len(free)
    if n == 0:
        return dict(pinned)
    # rows: deg(v) * x_v - sum_{w free} x_w = sum_{w pinned} x_w
    rows = []
    for v in free:
        nbrs = neighbors[v]
        row = [Fraction(0)] * n
        rhs = [Fraction(0), Fraction(0)]
        row[index[v]] = Fraction(len(nbrs))
        for w in nbrs:
            if w in pinned:
                rhs[0] += Fraction(pinned[w][0])
                rhs[1] += Fraction(pinned[w][1])
            else:
                row[index[w]] -= 1
        rows.append(row + rhs)
    # Gaussian elimination, exact
    for col in range(n):
        piv = next(i for i in range(col, n) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    pos = dict(pinned)
    for v, i in index.items():
        pos[v] = (rows[i][n], rows[i][n + 1])
    return pos


def _circle_points(k, radius=1):
    """k points clockwise on the circle, the first at the top."""
    out = []
    for i in range(k):
        a = math.pi / 2 - 2 * math.pi * i / k
        out.append((Fraction(round(radius * math.cos(a) * 10 ** 6), 10 ** 6),
                    Fraction(round(radius * math.sin(a) * 10 ** 6), 10 ** 6)))
    return out


# ----------------------------------------------------------------------
# scene construction (shared by webs and diskoids)


class Scene:
    """Primitives in layout coordinates, ready for an emitter."""

    def __init__(self):
        self.edges = []    # (x1,y1,x2,y2, bend, arrow: bool, label: str)
        self.dots = []     # (x, y, filled: bool, label)
        self.circle = None  # boundary circle radius or None


def _weblike_scene(pos, edge_list, legs, dots_filled, labels=None):
    sc = Scene()
    seen_pairs = {}
    for (u, v, arrow, label) in edge_list:
        key = frozenset((u, v))
        k = seen_pairs.get(key, 0)
        seen_pairs[key] = k + 1
        # bow parallel edges apart deterministically
        bend = 0.0 if k == 0 else (0.25 * ((k + 1) // 2)
                                   * (1 if k % 2 else -1))
        x1, y1 = pos[u]
        x2, y2 = pos[v]
        sc.edges.append((float(x1), float(y1), float(x2), float(y2),
                         bend, arrow, label or ""))
    for v, p in pos.items():
        if v in legs:
            continue
        x, y = p
        sc.dots.append((float(x), float(y), dots_filled.get(v, True),
                        (labels or {}).get(v, "")))
    return sc


def web_scene(w):
    """Layout scene of a web: legs on the unit circle, interior vertices
    at barycenters, arrows along the w1 flow."""
    if w.circles and not w.theta:
        sc = Scene()
        sc.circle = 0.5
        return sc
    # graph on interior vertices and legs
    vname = {}
    for i, tri in enumerate(w.vertices):
        for d in tri:
            vname[d] = ("v", i)
    for d in w.boundary:
        vname[d] = ("b", d)
    if any(d not in vname for d in w.theta):
        raise WebError("cannot draw a web with unattached darts")
    nodes = sorted(set(vname.values()))
    neighbors = {v: [] for v in nodes}
    edge_list = []
    for d, e in w.edges():
        u, v = vname[d], vname[e]
        neighbors[u].append(v)
        neighbors[v].append(u)
        if w.mode == "a2":
            # arrows run from the tail to the head
            edge_list.append((u, v, True, "") if e in w.heads
                             else (v, u, True, ""))
        else:
            edge_list.append((u, v, False, ""))
    pinned = {}
    if w.boundary:
        for d, p in zip(w.boundary, _circle_points(len(w.boundary))):
            pinned[("b", d)] = p
    else:
        # pin the largest face's vertices to the circle (the outer face)
        faces = sorted(w.faces(), key=lambda f: (-f.degree, f.darts))
        ring = []
        for d in faces[0].darts:
            if vname[d] not in ring:
                ring.append(vname[d])
        for v, p in zip(ring, _circle_points(max(len(ring), 1))):
            pinned[v] = p
    pos = _solve_positions(nodes, neighbors, pinned)
    legs = {("b", d) for d in w.boundary}
    filled = {}
    for i in range(len(w.vertices)):
        filled[("v", i)] = not w.vertex_is_out(i) if w.mode == "a2" else True
    sc = _weblike_scene(pos, edge_list, legs, filled)
    sc.circle = 1.0 if w.boundary else None
    for _ in range(w.circles):
        sc.circle = sc.circle or 1.0
    return sc


def diskoid_scene(D):
    """Layout scene of a diskoid: boundary on the circle, labelled
    directed edges, interior vertices at barycenters."""
    nodes = list(D.names)
    neighbors = {v: [] for v in nodes}
    edge_list = []
    for e in sorted(D.edges, key=str):
        u, v, lam = D.edges[e]
        neighbors[u].append(v)
        neighbors[v].append(u)
        edge_list.append((u, v, True, format_weight(lam)))
    pinned = {}
    if D.boundary:
        ring = []
        for v in D.boundary:
            if v not in ring:
                ring.append(v)
        for v, p in zip(ring, _circle_points(len(ring))):
            pinned[v] = p
    elif nodes:
        ring = sorted(D.triangle_vertices(0)) if D.triangles else nodes[:3]
        for v, p in zip(ring, _circle_points(len(ring))):
            pinned[v] = p
    pos = _solve_positions(nodes, neighbors, pinned)
    labels = {v: str(v) for v in nodes}
    filled = {v: v == D.base for v in nodes}
    sc = _weblike_scene(pos, edge_list, set(), filled, labels)
    sc.circle = None
    return sc


# ----------------------------------------------------------------------
# emitters


def _bent_mid(x1, y1, x2, y2, bend):
    mx, my = (x1 + x2) / 2, (y1 + y2) / 2
    nx, ny = -(y2 - y1), (x2 - x1)
    return mx + bend * nx, my + bend * ny


def _fmt(x):
    return ("%.4f" % x).rstrip("0").rstrip(".") or "0"


def to_svg(sc, size=480):
    """Render a scene as standalone SVG text."""
    s = size / 2.8

    def X(x):
        return _fmt(size / 2 + s * x)

    def Y(y):
        return _fmt(size / 2 - s * y)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (size, size, size, size)]
    out.append('<defs><marker id="arr" viewBox="0 0 10 10" refX="8" refY="5"'
               ' markerWidth="6" markerHeight="6" orient="auto-start-reverse">'
               '<path d="M 0 0 L 10 5 L 0 10 z"/></marker></defs>')
    if sc.circle:
        out.append('<circle cx="%s" cy="%s" r="%s" fill="none" '
                   'stroke="#999" stroke-dasharray="4 4"/>'
                   % (X(0), Y(0), _fmt(s * sc.circle)))
    for (x1, y1, x2, y2, bend, arrow, label) in sc.edges:
        cx, cy = _bent_mid(x1, y1, x2, y2, bend)
        # control point so that the curve passes near (cx, cy)
        qx, qy = 2 * cx - (x1 + x2) / 2, 2 * cy - (y1 + y2) / 2
        out.append('<path d="M %s %s Q %s %s %s %s" fill="none" '
                   'stroke="black"/>' % (X(x1), Y(y1), X(qx), Y(qy),
                                         X(x2), Y(y2)))
        if arrow:
            # midpoint arrow: a tiny marked segment along the curve
            tx, ty = (x2 - x1), (y2 - y1)
            n = math.hypot(tx, ty) or 1.0
            tx, ty = 0.02 * tx / n, 0.02 * ty / n
            out.append('<path d="M %s %s L %s %s" stroke="black" '
                       'marker-end="url(#arr)"/>'
                       % (X(cx - tx), Y(cy - ty), X(cx + tx), Y(cy + ty)))
        if label:
            out.append('<text x="%s" y="%s" font-size="11" fill="#336">%s'
                       '</text>' % (X(cx + 0.04), Y(cy + 0.04), label))
    for (x, y, filled, label) in sc.dots:
        out.append('<circle cx="%s" cy="%s" r="4" fill="%s" stroke="black"/>'
                   % (X(x), Y(y), "black" if filled else "white"))
        if label:
            out.append('<text x="%s" y="%s" font-size="11">%s</text>'
                       % (X(x + 0.05), Y(y + 0.05), label))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def to_tikz(sc):
    """Render a scene as a standalone tikzpicture."""
    out = ["\\begin{tikzpicture}[scale=2.2,>=stealth]"]
    if sc.circle:
        out.append("\\draw[dashed,gray] (0,0) circle (%s);"
                   % _fmt(sc.circle))
    for (x1, y1, x2, y2, bend, arrow, label) in sc.edges:
        cx, cy = _bent_mid(x1, y1, x2, y2, bend)
        deco = "postaction={decorate},decoration={markings," \
               "mark=at position 0.5 with {\\arrow{>}}}," if arrow else ""
        node = " node[midway,above,font=\\tiny] {$%s$}" % label if label else ""
        out.append("\\draw[%s] (%s,%s) .. controls (%s,%s) .. (%s,%s)%s;"
                   % (deco, _fmt(x1), _fmt(y1),
                      _fmt(2 * cx - (x1 + x2) / 2), _fmt(2 * cy - (y1 + y2) / 2),
                      _fmt(x2), _fmt(y2), node))
    for (x, y, filled, label) in sc.dots:
        fill = "fill=black" if filled else "fill=white"
        out.append("\\draw[%s] (%s,%s) circle (0.035);" % (fill, _fmt(x), _fmt(y)))
        if label:
            out.append("\\node[font=\\tiny,anchor=south west] at (%s,%s) {%s};"
                       % (_fmt(x), _fmt(y), label))
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render_web(w, fmt="svg"):
    sc = web_scene(w)
    return to_svg(sc) if fmt == "svg" else to_tikz(sc)


def render_diskoid(D, fmt="svg"):
    sc = diskoid_scene(D)
    return to_svg(sc) if fmt == "svg" else to_tikz(sc)
