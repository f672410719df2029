"""Ground-truth tensor evaluation of webs and invariant dimensions.

Webs are read as epsilon/delta networks over the defining representation
(dimension 3, or 2 in A1 mode): all-out vertices carry the Levi-Civita
epsilon, all-in vertices its dual copy, boundary-to-boundary edges carry
identity pairings (the antisymmetric form in A1), and free circles
multiply by the dimension.  Tensors are exact and sparse, dicts
{index tuple: nonzero int}; the resulting closed-web scalars equal the
skein evaluation at q = -1 with no correction factor.  The network is
contracted in one sweep over the vertices, which absorbs them one at a
time into a frontier tensor.  Permuting the three colours scales a
component of k vertices by sgn^k (k is even on a closed component, each
edge joining an all-out vertex to an all-in one), so the sweep keeps one
colouring per S3 orbit (see `_contract`).  A web's invariant vector is
that tensor with its axes in leg order; the raising operators
act on it sparsely, through the same rows that `_kernel_dim` eliminates
(`_raising_rows`).

The invariant dimension of a boundary signature is read off one leg
fewer: peeling the last leg lambda, Inv(X (x) V_lambda) = Hom(V_lambda*,
X), so it is the dimension of the kernel of the raising operators on the
weight-mu space of X, mu the highest weight of V_lambda*: a weight-mu
vector killed by e1 and e2 is a maximal vector.  The kernel is found by
one sparse elimination over the prime field F_p, p = 2147483629, which
is exact for every signature with at most p - 2 legs (see
`invariant_kernel_dim`).
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter

from .weights import W1, dual
from .webs import WebError

_EPS3 = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
         (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
# the colour permutations with their signs (see `_contract`)
_S3 = tuple(_EPS3.items())
_ID3 = {(0, 0): 1, (1, 1): 1, (2, 2): 1}
_EPS2 = {(0, 1): 1, (1, 0): -1}

_P = 2147483629


def _dim(mode):
    return 2 if mode == "a1" else 3


# ----------------------------------------------------------------------
# network contraction

def _getter(positions):
    """Index tuple -> the tuple of its entries at the given positions."""
    if len(positions) == 1:
        return lambda key, i=positions[0]: (key[i],)
    return itemgetter(*positions) if positions else lambda key: ()


@cache
def _eps_index(pos, free):
    """Epsilon's entries grouped by their indices at `pos`: {those
    indices: [(indices at `free`, value)]}."""
    key, rest = _getter(pos), _getter(free)
    index = {}
    for k, v in _EPS3.items():
        index.setdefault(key(k), []).append((rest(k), v))
    return index


def _join(t, pos, free, index):
    """Contract axes `pos` of t with an `_eps_index` by a hash join on
    their entries there; the result's axes are `free`, then the index's
    free axes."""
    key, rest = _getter(pos), _getter(free)
    out = {}
    for k, v in t.items():
        matches = index.get(key(k))
        if matches:
            head = rest(k)
            for tail, u in matches:
                k2 = head + tail
                out[k2] = out.get(k2, 0) + v * u
    return {k: v for k, v in out.items() if v}


def _contract(w):
    """Contract the network in one sweep over the vertices; returns
    (sparse tensor, open axis keys).

    Each connected component starts at its lowest-index vertex not yet
    absorbed.  One frontier tensor runs over the darts whose partner is
    not yet absorbed, and the vertex with the most darts into it is
    absorbed next (the first to reach that count wins a tie), by one
    join with epsilon on the shared axes.  A dart whose partner is a
    boundary leg stays open, under its own key.  No valid web pairs two
    darts of one vertex, so nothing is traced.

    A component's tensor is a signed sum over colourings of its darts
    by 0, 1, 2.  Both copies of epsilon are alternating, so permuting
    the colours by s gives T(s . key) = sgn(s)^k T(key) for k vertices,
    and each S3 orbit holds one colouring giving the first vertex's
    darts (0, 1, 2).  The sweep starts from that entry, not epsilon's
    six, and sums the six images s . T' weighted by sgn(s)^k at the
    end.  A closed A2 component has k even, as every edge joins an
    all-out vertex to an all-in one: its scalar is 6 T'()."""
    theta, where = w.theta, w._vertex_map()
    # all-out vertices are read counterclockwise, all-in ones clockwise
    # (the reflected reading of the dual copy of epsilon); this
    # orientation rule makes closed values match the skein at q = -1
    # with no extra signs.  A valid vertex's first dart shows which it is.
    tris = [tri[::-1] if tri[0] in w.heads else tri for tri in w.vertices]
    done = [False] * len(tris)
    parts = []
    for start in range(len(tris)):
        if done[start]:
            continue
        t, ax, links, k = {}, [], {start: 0}, 0
        while links:
            # links counts each waiting vertex's darts into the
            # frontier; a count that rises moves its vertex to the end,
            # so max finds the first vertex to reach the top count
            v = max(links, key=links.get)
            del links[v]
            done[v] = True
            k += 1
            tri, pa, pb, fb = tris[v], [], [], []
            for n, x in enumerate(tri):
                u = where.get(theta[x])
                if u is not None and done[u]:
                    pa.append(ax.index(theta[x]))
                    pb.append(n)
                else:
                    fb.append(n)
                    if u is not None:
                        links[u] = links.pop(u, 0) + 1
            fa = [i for i in range(len(ax)) if i not in pa]
            # only the first vertex of a component meets an empty frontier
            t = (_join(t, pa, fa, _eps_index(tuple(pb), tuple(fb)))
                 if ax else {(0, 1, 2): 1})
            ax = [ax[i] for i in fa] + [tri[n] for n in fb]
        full = {}
        for s, sgn in _S3:
            for key, v in t.items():
                key = tuple(map(s.__getitem__, key))
                full[key] = full.get(key, 0) + sgn ** k * v
        parts.append(({key: v for key, v in full.items() if v}, ax))
    # boundary-to-boundary edges, each read from its first leg
    pos = {d: k for k, d in enumerate(w.boundary)}
    for k, d in enumerate(w.boundary):
        if pos.get(theta[d], -1) > k:
            parts.append((_EPS2 if w.mode == "a1" else _ID3, [d, theta[d]]))
    # tensor the components, the arcs and the circles' scalar together
    t, ax = {(): _dim(w.mode) ** w.circles}, []
    for t2, ax2 in parts:
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
    """The invariant vector of a web, exact and sparse: {index tuple:
    nonzero int} with one index per boundary leg, in leg order (w1 legs
    carry the space, w2 legs its dual); a closed web's value is at ()."""
    t, ax = _contract(w)
    bset = set(w.boundary)
    keys = [b if w.theta[b] in bset else w.theta[b] for b in w.boundary]
    order = _getter([ax.index(k) for k in keys])
    return {order(k): v for k, v in t.items()}


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


def _raising_rows(cols, signature, mode, whiches):
    """The images of the basis tensors `cols` under the raising
    operators e_which, which in `whiches`, as sparse rows {image tuple:
    {column j: coefficient}}: column j is cols[j]."""
    rows = {}
    for which in whiches:
        moves = [(leg, src, dst, coeff)
                 for leg, lam in enumerate(signature)
                 for src, dst, coeff in _e_moves(lam, mode, which)]
        for j, t in enumerate(cols):
            for leg, src, dst, coeff in moves:
                if t[leg] == src:
                    t2 = t[:leg] + (dst,) + t[leg + 1:]
                    rows.setdefault(t2, {})[j] = coeff
    return rows


def _check_keys(vec, signature, mode):
    """ValueError unless each key of the sparse tensor holds one index in
    range(dim) per leg of the signature."""
    n, entries = len(signature), set(range(_dim(mode)))
    for key in vec:
        if len(key) != n or not set(key) <= entries:
            raise ValueError("index tuple %r does not fit %d legs of "
                             "dimension %d" % (key, n, len(entries)))


def apply_raising(vec, signature, which, mode="a2"):
    """e1 (which=1) or e2 (which=2) applied to an exact sparse tensor
    {index tuple: int}; the image in the same form."""
    _check_keys(vec, signature, mode)
    cols = list(vec)
    out = {}
    for t2, row in _raising_rows(cols, signature, mode, (which,)).items():
        x = sum(c * vec[cols[j]] for j, c in row.items())
        if x:
            out[t2] = x
    return out


def in_invariant_kernel(vec, signature, mode="a2"):
    """True iff every nonzero entry of the exact sparse tensor has total
    weight zero and the tensor is killed by the raising operators (e1
    and e2; e1 alone in A1): used to certify oracle vectors."""
    _check_keys(vec, signature, mode)
    legw = [_leg_weights(lam, mode) for lam in signature]
    for key, v in vec.items():
        wts = [ws[i] for ws, i in zip(legw, key)]
        if v and (sum(a for a, _ in wts), sum(b for _, b in wts)) != (0, 0):
            return False
    return not any(apply_raising(vec, signature, which, mode)
                   for which in ((1,) if mode == "a1" else (1, 2)))


# ----------------------------------------------------------------------
# invariant dimension via null spaces

def _tuples_of_weight(signature, mode, target):
    """All index tuples whose total weight is target, in lexicographic
    order."""
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
    # extend prefixes one leg at a time, keeping each prefix whose
    # remaining weight the later legs can still reach
    level = [((), 0, 0)]
    for i, ws in enumerate(legw):
        (la, lb), (ha, hb) = lo[i + 1], hi[i + 1]
        level = [(idx + (j,), a + wa, b + wb) for idx, a, b in level
                 for j, (wa, wb) in enumerate(ws)
                 if la <= target[0] - a - wa <= ha
                 and lb <= target[1] - b - wb <= hb]
    return [idx for idx, a, b in level if (a, b) == target]


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
    if not sig:
        return 1
    # Inv(X (x) V_lam) = Hom(V_lam*, X): peel the last leg lam and count
    # the maximal vectors of X of weight mu, the highest weight of V_lam*
    sig, mu = sig[:-1], dual(sig[-1], mode)
    cols = _tuples_of_weight(sig, mode, mu)
    rows = _raising_rows(cols, sig, mode, (1,) if mode == "a1" else (1, 2))
    return len(cols) - _rank(rows.values())


def invariant_kernel_dim(signature, mode="a2"):
    """dim of the invariant subspace of the boundary tensor product.

    Permuting tensor factors is an equivariant isomorphism, so the
    answer depends only on the multiset of leg labels and is memoised
    on the sorted signature.

    Let X be the product of the first n - 1 legs and lambda the last;
    the e1/e2 matrix on the weight-mu tuples of X (mu the highest weight
    of V_lambda*) has integer entries and is reduced mod one prime p.
    Its F_p rank is at most its rational rank, so the F_p kernel can
    only over-count; it never does when p >= n + 2.  Then every highest
    weight nu of X has nu_1 + nu_2 <= n - 1 <= p - 3 (nu_1 <= p - 3 in
    A1), so it lies in the closure of the bottom p-alcove.  V and V*
    are tilting, so X is tilting, and tilting modules with highest
    weights there are direct sums of Weyl modules Delta(nu) = L(nu) with
    the characteristic-zero multiplicities (Jantzen, Representations of
    Algebraic Groups, II.5.6 and II.E).  A weight-mu vector killed by e1
    and e2 is killed by every divided power e_i^(k): for k < p,
    e_i^(k) = e_i^k/k!, and for k >= p, mu + k alpha_i has a coordinate
    of at least 2k > n - 1, so is not a weight of X.  So it is a maximal
    vector, i.e. lies in the sum of the summands L(mu), one line each,
    and dim_Fp ker = [X : L(mu)] = dim Inv in characteristic zero.
    """
    # w1 legs first, so a w2 leg is peeled if there is one: with
    # largest-column pivots this order makes mixed signatures faster
    return _kernel_dim(mode, tuple(sorted(signature, reverse=True)))
