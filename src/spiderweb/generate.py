"""Web construction by boundary growth, plus random web corpora.

A web in the disk is grown downward from its boundary legs.  The state
is a left-to-right frontier of darts still missing their edge partner,
each flagged True when the w1 flow should arrive at that dart (its edge
head).  Four local moves act on the frontier:

    cap(i)    join darts i and i+1 by an edge (opposite flags in A2),
    merge(i)  attach darts i and i+1 to a new trivalent vertex, leaving
              one new frontier dart (equal flags, flag negated),
    aitch(i)  attach darts i and i+1 (opposite flags) to an H, leaving
              two new frontier darts with the flags swapped,
    split(i)  attach dart i to a new trivalent vertex, leaving two new
              frontier darts (both with the negated flag).

``basis.web_from_path`` grows each non-elliptic web by caps, merges and
H moves (caps and merges alone miss a basis web of (w1 w2)^3); splits
make elliptic faces and serve randomized reduction corpora.
"""

from __future__ import annotations

from .weights import W1, W2
from .webs import Web, WebError


class Grower:
    """Mutable growth state for one web."""

    def __init__(self, mode, signature):
        self.mode = mode
        self._next = 0
        self.theta = {}
        self.vertices = []
        self.at = {}
        self.heads = set()
        self.boundary = []
        self.frontier = []
        for lam in signature:
            b = self._dart()
            self.boundary.append(b)
            if mode == "a1":
                if lam != W1:
                    raise WebError("A1 legs must be labelled w1")
                self.frontier.append((b, True))
            elif lam == W1:
                self.frontier.append((b, True))
            elif lam == W2:
                self.frontier.append((b, False))
            else:
                raise WebError("legs must carry minuscule labels")

    def _dart(self):
        d = self._next
        self._next += 1
        return d

    def clone(self):
        g = Grower.__new__(Grower)
        g.mode = self.mode
        g._next = self._next
        g.theta = dict(self.theta)
        g.vertices = list(self.vertices)
        g.at = dict(self.at)
        g.heads = set(self.heads)
        g.boundary = list(self.boundary)
        g.frontier = list(self.frontier)
        return g

    def _edge(self, a, b, head):
        self.theta[a] = b
        self.theta[b] = a
        if self.mode == "a2":
            self.heads.add(head)

    def _vertex(self, tri):
        self.vertices.append(tri)
        for d in tri:
            self.at[d] = tri

    # -- legality ------------------------------------------------------

    def can_cap(self, i):
        if i + 1 >= len(self.frontier):
            return False
        if self.mode == "a1":
            return True
        return self.frontier[i][1] != self.frontier[i + 1][1]

    def can_merge(self, i):
        if self.mode == "a1" or i + 1 >= len(self.frontier):
            return False
        return self.frontier[i][1] == self.frontier[i + 1][1]

    def can_aitch(self, i):
        if self.mode == "a1" or i + 1 >= len(self.frontier):
            return False
        return self.frontier[i][1] != self.frontier[i + 1][1]

    # -- moves ---------------------------------------------------------

    def cap(self, i):
        (d1, f1), (d2, f2) = self.frontier[i], self.frontier[i + 1]
        if self.mode == "a2" and f1 == f2:
            raise WebError("cap needs opposite flow flags")
        self._edge(d1, d2, d1 if f1 else d2)
        del self.frontier[i:i + 2]
        return (d1, d2)

    def merge(self, i):
        (d1, f), (d2, f2) = self.frontier[i], self.frontier[i + 1]
        if f != f2:
            raise WebError("merge needs equal flow flags")
        x, y, z = self._dart(), self._dart(), self._dart()
        # counterclockwise at the new vertex: left-up, down, right-up
        self._vertex((x, z, y))
        self._edge(d1, x, d1 if f else x)
        self._edge(d2, y, d2 if f else y)
        self.frontier[i:i + 2] = [(z, not f)]
        return (d1, x, d2, y)

    def aitch(self, i):
        """Replace an opposite-flag pair by an H: two vertices joined by a
        horizontal edge, leaving two new darts with swapped flags."""
        (d1, f1), (d2, f2) = self.frontier[i], self.frontier[i + 1]
        if f1 == f2:
            raise WebError("aitch needs opposite flow flags")
        x1, h1, y = self._dart(), self._dart(), self._dart()
        x2, h2, z = self._dart(), self._dart(), self._dart()
        # left vertex: up, down, right; right vertex: up, left, down
        self._vertex((x1, y, h1))
        self._vertex((x2, h2, z))
        self._edge(d1, x1, d1 if f1 else x1)
        self._edge(d2, x2, d2 if f2 else x2)
        self._edge(h1, h2, h2 if f1 else h1)
        self.frontier[i:i + 2] = [(y, not f1), (z, not f2)]
        return (d1, x1, d2, x2, h1, h2)

    def split(self, i):
        d, f = self.frontier[i]
        x, y, z = self._dart(), self._dart(), self._dart()
        # counterclockwise at the new vertex: up, left-down, right-down
        self._vertex((x, y, z))
        self._edge(d, x, d if f else x)
        self.frontier[i:i + 1] = [(y, not f), (z, not f)]
        return (d, x)

    def closed_small_face(self, new_darts):
        """True when a face completed by the latest move (its darts are
        among new_darts) is internal of degree < 6.  A face closes exactly
        when its last edge appears, so checking the darts of each new edge
        after every move sees every internal face of every completion."""
        theta = self.theta
        at = self.at
        for d0 in new_darts:
            d = d0
            steps = 0
            while True:
                e = theta.get(d)
                if e is None:
                    break  # pending dart: face not closed yet
                tri = at.get(e)
                if tri is None:
                    break  # boundary leg: boundary face
                j = tri.index(e)
                d = tri[(j + 1) % 3]
                steps += 1
                if d == d0:
                    if steps < 6:
                        return True
                    break
                if steps >= 6:
                    break
        return False

    # -- completion ----------------------------------------------------

    def done(self):
        return not self.frontier

    def build(self):
        if self.frontier:
            raise WebError("frontier is not empty")
        return Web(self.mode, self.theta, self.vertices, self.boundary,
                   self.heads)

    def state_key(self):
        """Canonical key of the partial state (for search memoization).

        Equal keys iff the partial webs match under an orientation-
        preserving isomorphism fixing the boundary legs and the frontier
        order; the traversal is seeded from those, so the relabelling
        is forced and the encoding is computed in a single pass."""
        theta = self.theta
        at = self.at
        heads = self.heads
        num = {}
        order = []

        def see(d):
            if d not in num:
                num[d] = len(order)
                order.append(d)

        for b in self.boundary:
            see(b)
        for d, _f in self.frontier:
            see(d)
        i = 0
        while i < len(order):
            d = order[i]
            i += 1
            e = theta.get(d)
            if e is None:
                continue
            see(e)
            tri = at.get(e)
            if tri is not None:
                j = tri.index(e)
                see(tri[(j + 1) % 3])
                see(tri[(j + 2) % 3])
        rec = []
        for d in order:
            e = theta.get(d)
            tri = at.get(d)
            nxt = -1
            if tri is not None:
                j = tri.index(d)
                nxt = num[tri[(j + 1) % 3]]
            rec.append((num[e] if e is not None else -2, nxt,
                        1 if d in heads else 0))
        rec.append(tuple((num[d], f) for d, f in self.frontier))
        return tuple(rec)


# ----------------------------------------------------------------------
# randomized corpora

_GROW_TRIES = 400


def random_web(signature, rng, mode="a2", max_vertices=16, split_bias=0.35):
    """A random web with the given boundary signature.

    Splits occur with probability split_bias (scaled down as the vertex
    budget fills), so typical outputs contain elliptic faces; pass
    split_bias=0 for monotone (generically non-elliptic) webs.
    """
    n1 = sum(1 for x in signature if x == W1)
    n2 = len(signature) - n1
    if mode == "a2" and (n1 - n2) % 3 != 0:
        raise WebError("signature has nonzero mod-3 charge")
    if mode == "a1" and len(signature) % 2 != 0:
        raise WebError("odd A1 signature")
    for _ in range(_GROW_TRIES):
        g = Grower(mode, signature)
        ok = True
        while not g.done():
            moves = []
            m = len(g.frontier)
            for i in range(m - 1):
                if g.can_cap(i):
                    moves.append(("cap", i))
                if g.can_merge(i) and len(g.vertices) < max_vertices:
                    moves.append(("merge", i))
                if g.can_aitch(i) and len(g.vertices) + 2 <= max_vertices:
                    moves.append(("aitch", i))
            if len(g.vertices) < max_vertices and mode == "a2":
                room = 1.0 - len(g.vertices) / float(max_vertices)
                if rng.random() < split_bias * room:
                    moves = [("split", rng.randrange(m))]
            if not moves:
                ok = False
                break
            kind, i = moves[rng.randrange(len(moves))] if len(moves) > 1 else moves[0]
            getattr(g, kind)(i)
        if ok:
            return g.build()
    raise WebError("random growth failed to terminate; relax the budgets")


def random_signature(rng, mode="a2", max_legs=12):
    """A random gluable boundary signature (zero mod-3 charge in A2)."""
    while True:
        n = rng.randrange(2, max_legs + 1)
        if mode == "a1":
            if n % 2 == 0:
                return tuple(W1 for _ in range(n))
            continue
        sig = tuple(W1 if rng.random() < 0.5 else W2 for _ in range(n))
        n1 = sum(1 for x in sig if x == W1)
        if (2 * n1 - n) % 3 == 0:
            return sig


def grown_webs(signature, mode="a2", max_vertices=None):
    """All webs reachable by caps, merges, and H moves within a vertex
    budget, deduplicated by canonical key (memoized on partial states).

    Any partial state that has already completed an internal face of
    degree < 6 is pruned.  A face, once closed off by growth, is a face of
    every completion, so this prunes exactly the growth paths leading to
    elliptic webs: the output is the set of reachable non-elliptic webs.
    """
    if max_vertices is None:
        n = len(signature)
        max_vertices = max(6, n * n // 6 + 2)
    out = {}
    seen_states = set()

    def admit(g, new_darts):
        if g.closed_small_face(new_darts):
            return False
        key = g.state_key()
        if key in seen_states:
            return False
        seen_states.add(key)
        return True

    def rec(g):
        if g.done():
            w = g.build()
            out[w] = w
            return
        nv = len(g.vertices)
        for i in range(len(g.frontier) - 1):
            if g.can_cap(i):
                g2 = g.clone()
                if admit(g2, g2.cap(i)):
                    rec(g2)
            if g.can_merge(i) and nv < max_vertices:
                g2 = g.clone()
                if admit(g2, g2.merge(i)):
                    rec(g2)
            if g.can_aitch(i) and nv + 2 <= max_vertices:
                g2 = g.clone()
                if admit(g2, g2.aitch(i)):
                    rec(g2)

    rec(Grower(mode, signature))
    return list(out.values())
