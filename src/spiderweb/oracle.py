"""Ground-truth tensor evaluation of webs and invariant dimensions.

Webs are read as epsilon/delta networks over the defining representation
(dimension 3, or 2 in A1 mode): all-out vertices carry the Levi-Civita
epsilon, all-in vertices its dual copy, boundary-to-boundary edges carry
identity pairings (the antisymmetric form in A1), and free circles
multiply by the dimension.  Tensors are exact and sparse, dicts
{index tuple: nonzero int}; the resulting closed-web scalars equal the
skein evaluation at q = -1 with no correction factor.  Only the
functions that take or return arrays import numpy.

The invariant dimension of a boundary signature is the dimension of the
kernel of the raising operators on the weight-zero subspace: a
weight-zero vector killed by e1 and e2 is a sum of weight-zero
highest-weight vectors, hence invariant.  The kernel is found by one
sparse elimination over the prime field F_p, p = 2147483629, which is
exact for every signature with at most p - 2 legs (see
`invariant_kernel_dim`).
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .weights import W1
from .webs import WebError

_EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
         (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
_ID3 = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
_EPS2 = {(0, 1): 1, (1, 0): -1}

_P = 2147483629


def _dim(mode):
    return 2 if mode == "a1" else 3


# ----------------------------------------------------------------------
# network contraction

def _build_network(w):
    """Nodes as [tensor, axis keys], axis keys being the darts at the
    node, and the interior edges as dart pairs."""
    nodes = []
    for i, tri in enumerate(w.vertices):
        # all-out vertices are read counterclockwise, all-in ones
        # clockwise (the reflected reading of the dual copy of epsilon);
        # this orientation rule makes closed values match the skein at
        # q = -1 with no extra signs.
        if w.vertex_is_out(i):
            nodes.append([_EPS3, list(tri)])
        else:
            nodes.append([_EPS3, list(reversed(tri))])
    # boundary-to-boundary edges, each read from its first leg
    pos = {d: k for k, d in enumerate(w.boundary)}
    for k, d in enumerate(w.boundary):
        e = w.theta[d]
        if pos.get(e, -1) > k:
            nodes.append([_EPS2 if w.mode == "a1" else _ID3, [d, e]])
    pairs = []
    seen = set()
    for d in w.theta:
        e = w.theta[d]
        if d in seen or e in seen:
            continue
        seen.add(d)
        seen.add(e)
        if d not in pos and e not in pos:
            pairs.append((d, e))
    return nodes, pairs


def _getter(positions):
    """Index tuple -> the tuple of its entries at the given positions."""
    if len(positions) == 1:
        return lambda key, i=positions[0]: (key[i],)
    return itemgetter(*positions) if positions else lambda key: ()


def _join(ta, tb, pos_a, pos_b, free_a, free_b):
    """Contract axes pos_a of ta with axes pos_b of tb by a hash join on
    their entries there; the result's axes are free_a, then free_b."""
    key_a, key_b = itemgetter(*pos_a), itemgetter(*pos_b)
    rest_a, rest_b = _getter(free_a), _getter(free_b)
    index = {}
    for key, v in tb.items():
        index.setdefault(key_b(key), []).append((rest_b(key), v))
    out = {}
    for key, v in ta.items():
        matches = index.get(key_a(key))
        if matches:
            head = rest_a(key)
            for tail, u in matches:
                k = head + tail
                out[k] = out.get(k, 0) + v * u
    return {k: v for k, v in out.items() if v}


def _self_contract(nodes, where, pairs):
    """Trace out the pairs whose two darts lie on one node: a join with
    the identity pairing on their two axes."""
    for a, b in [p for p in pairs if where[p[0]] == where[p[1]]]:
        t, ax = nodes[where[a]]
        i, j = ax.index(a), ax.index(b)
        t = _join(t, _ID3, [i, j], [0, 1],
                  [n for n in range(len(ax)) if n not in (i, j)], [])
        nodes[where[a]] = [t, [k for k in ax if k not in (a, b)]]
        del pairs[a, b]


def _contract(w):
    """Contract all interior pairings; returns (sparse tensor, open axis
    keys)."""
    nodes, pairs = _build_network(w)
    nodes.append([{(): _dim(w.mode) ** w.circles}, []])
    nodes = dict(enumerate(nodes))
    where = {d: i for i, (_t, ax) in nodes.items() for d in ax}
    pairs = dict.fromkeys(pairs)
    _self_contract(nodes, where, pairs)
    # A merge takes every pair between its two nodes, so a merged node
    # never carries a pair of its own.
    new = len(nodes)
    while pairs:
        groups = {}
        for a, b in pairs:
            ia, ib = where[a], where[b]
            key = (ib, ia) if (ib, ia) in groups else (ia, ib)
            groups.setdefault(key, []).append((a, b))
        # the first node pair whose merged node is smallest
        (ia, ib), shared = min(groups.items(), key=lambda g: (
            len(nodes[g[0][0]][1]) + len(nodes[g[0][1]][1]) - 2 * len(g[1])))
        (ta, axa), (tb, axb) = nodes.pop(ia), nodes.pop(ib)
        ends = [(x, y) if where[x] == ia else (y, x) for x, y in shared]
        for p in shared:
            del pairs[p]
        done = {d for p in shared for d in p}
        t = _join(ta, tb, [axa.index(x) for x, _y in ends],
                  [axb.index(y) for _x, y in ends],
                  [n for n, k in enumerate(axa) if k not in done],
                  [n for n, k in enumerate(axb) if k not in done])
        ax = [k for k in axa + axb if k not in done]
        nodes[new] = [t, ax]
        where.update(dict.fromkeys(ax, new))
        new += 1
    # tensor the disconnected remainder (and the circles' scalar) together
    (t, ax), *rest = nodes.values()
    for t2, ax2 in rest:
        t = {k + k2: v * v2 for k, v in t.items() for k2, v2 in t2.items()}
        ax = ax + ax2
    return t, ax


def contract_closed(w):
    """Exact integer value of a closed web's tensor network."""
    if w.boundary:
        raise WebError("contract_closed requires an empty boundary")
    t, ax = _contract(w)
    if ax:
        raise WebError("contraction left open axes on a closed web")
    return t.get((), 0)


def web_vector(w):
    """The invariant vector of a web: an exact integer array (object
    dtype) with one axis per boundary leg (w1 legs carry the space, w2
    legs its dual)."""
    import numpy as np

    t, ax = _contract(w)
    if not w.boundary:
        return np.array(t.get((), 0), dtype=object)
    keys = []
    bset = set(w.boundary)
    for b in w.boundary:
        e = w.theta[b]
        keys.append(b if e in bset else e)
    order = [ax.index(k) for k in keys]
    vec = np.zeros((_dim(w.mode),) * len(order), dtype=object)
    for key, v in t.items():
        vec[tuple(key[o] for o in order)] = v
    return vec


# ----------------------------------------------------------------------
# Chevalley action

_WT_V3 = ((1, 0), (-1, 1), (0, -1))
_WT_V2 = ((1, 0), (-1, 0))


def _leg_weights(lam, mode):
    if mode == "a1":
        return _WT_V2
    if lam == W1:
        return _WT_V3
    return tuple((-a, -b) for (a, b) in _WT_V3)


def _e_moves(lam, mode, which):
    """(src index, dst index, coefficient) for a raising operator on one
    leg: e1 or e2 on V, or their negative-transpose action on V*."""
    if mode == "a1":
        return ((1, 0, 1),) if which == 1 else ()
    if lam == W1:
        return ((1, 0, 1),) if which == 1 else ((2, 1, 1),)
    return ((0, 1, -1),) if which == 1 else ((1, 2, -1),)


def apply_raising(vec, signature, which, mode="a2"):
    """e1 (which=1) or e2 (which=2) applied to an exact tensor."""
    import numpy as np

    out = np.zeros_like(vec)
    for leg, lam in enumerate(signature):
        for src, dst, coeff in _e_moves(lam, mode, which):
            sl_src = [slice(None)] * len(signature)
            sl_dst = [slice(None)] * len(signature)
            sl_src[leg] = src
            sl_dst[leg] = dst
            out[tuple(sl_dst)] += coeff * vec[tuple(sl_src)]
    return out


def in_invariant_kernel(vec, signature, mode="a2"):
    """True iff every nonzero entry of the exact tensor has total weight
    zero and the tensor is killed by the raising operators (e1 and e2;
    e1 alone in A1): used to certify oracle vectors."""
    import numpy as np

    zero = set(_tuples_of_weight(signature, mode, (0, 0)))
    if any(tuple(idx) not in zero for idx in np.argwhere(vec)):
        return False
    for which in ((1,) if mode == "a1" else (1, 2)):
        if np.any(apply_raising(vec, signature, which, mode)):
            return False
    return True


# ----------------------------------------------------------------------
# invariant dimension via null spaces

def _tuples_of_weight(signature, mode, target):
    """All index tuples whose total weight is target."""
    legw = [_leg_weights(lam, mode) for lam in signature]
    n = len(signature)
    # remaining-range pruning per coordinate
    lo = [(0, 0)] * (n + 1)
    hi = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        ws = legw[i]
        lo[i] = (lo[i+1][0] + min(w[0] for w in ws),
                 lo[i+1][1] + min(w[1] for w in ws))
        hi[i] = (hi[i+1][0] + max(w[0] for w in ws),
                 hi[i+1][1] + max(w[1] for w in ws))
    out = []
    idx = [0] * n

    def rec(i, a, b):
        if i == n:
            if (a, b) == target:
                out.append(tuple(idx))
            return
        need_a, need_b = target[0] - a, target[1] - b
        if not (lo[i][0] <= need_a <= hi[i][0] and lo[i][1] <= need_b <= hi[i][1]):
            return
        for j, (wa, wb) in enumerate(legw[i]):
            idx[i] = j
            rec(i + 1, a + wa, b + wb)

    rec(0, 0, 0)
    return out


def _rank(rows):
    """Rank over F_p (p = _P) of sparse integer rows, each a dict
    {column: int}, reducing each row by the pivot of its largest
    column."""
    pivots = {}
    for row in rows:
        row = {c: v % _P for c, v in row.items() if v % _P}
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], _P - 2, _P)
                pivots[c] = {k: v * inv % _P for k, v in row.items()}
                break
            f = row[c]
            for k, v in piv.items():
                x = (row.get(k, 0) - f * v) % _P
                if x:
                    row[k] = x
                else:
                    del row[k]
    return len(pivots)


@cache
def _kernel_dim(mode, sig):
    zero = _tuples_of_weight(sig, mode, (0, 0))
    rows = {}
    for which in ((1,) if mode == "a1" else (1, 2)):
        for j, t in enumerate(zero):
            for leg, lam in enumerate(sig):
                for src, dst, coeff in _e_moves(lam, mode, which):
                    if t[leg] == src:
                        t2 = t[:leg] + (dst,) + t[leg + 1:]
                        rows.setdefault(t2, {})[j] = coeff
    return len(zero) - _rank(rows.values())


def invariant_kernel_dim(signature, mode="a2"):
    """dim of the invariant subspace of the boundary tensor product.

    Permuting tensor factors is an equivariant isomorphism, so the
    answer depends only on the multiset of leg labels and is memoised
    on the sorted signature.

    The e1/e2 matrix on the weight-zero tuples has integer entries and
    is reduced mod one prime p.  Its F_p rank is at most its rational
    rank, so the F_p kernel can only over-count; it never does when
    p >= n + 2 for n legs.  Then every dominant weight of the n-fold
    tensor product of V and V* has lambda_1 + lambda_2 <= n <= p - 2
    (lambda <= p - 1 in A1), so it lies in the closure of the bottom
    p-alcove.  V and V* are tilting, so the product is tilting, and
    tilting modules with highest weights there are direct sums of Weyl
    modules Delta(lambda) = L(lambda) with the characteristic-zero
    multiplicities (Jantzen, Representations of Algebraic Groups,
    II.5.6 and II.E).  A weight-zero vector killed by e1 and e2 is
    killed by every divided power e_i^(k): for k < p, e_i^(k) = e_i^k/k!,
    and for k >= p, k alpha_i has a coordinate 2k > n, so is not a weight.
    So it is a maximal vector, i.e. lies in the sum of the trivial
    summands L(0), and dim_Fp ker = dim_Q ker.
    """
    # w1 legs first: with largest-column pivots this leg order makes
    # the elimination of mixed signatures about three times faster
    return _kernel_dim(mode, tuple(sorted(signature, reverse=True)))
