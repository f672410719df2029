"""The incidence solver for the twelve-leg hexagon web.

Three lines l_i and three points p_i in the plane, over the rationals
(`Fraction`) or F_p: find points p'_i on the lines l_i and lines l'_i
through p_i, p'_(i-1) and p'_i.  In the frame of the pairwise line
intersections the system is one Mobius fixed-point equation in t_1, so
a generic sample has exactly two solutions over the algebraic closure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .building import BuildingError, _is_prime


class _Field:
    """Exact field operations for Fraction (p=None) or F_p."""

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise BuildingError("field size must be prime, got %r" % (p,))
        self.p = p

    def of(self, x):
        return x % self.p if self.p else Fraction(x)

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def inv(self, a):
        if not a:
            raise ZeroDivisionError
        return pow(a, self.p - 2, self.p) if self.p else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def square_roots(self, a):
        """Roots of x^2 = a in Q or in F_p, p odd (list, possibly empty)."""
        if self.p is None:
            if a < 0:
                return []
            r = _fraction_sqrt(a)
            return [] if r is None else ([0] if a == 0 else [r, -r])
        if a == 0:
            return [0]
        if pow(a, (self.p - 1) // 2, self.p) != 1:
            return []
        # p is small here: scan every residue
        for x in range(self.p):
            if (x * x) % self.p == a:
                return [x, (-x) % self.p]
        return []


def _fraction_sqrt(a):
    """The rational square root of a >= 0, or None."""
    rn, rd = math.isqrt(a.numerator), math.isqrt(a.denominator)
    if rn * rn == a.numerator and rd * rd == a.denominator:
        return Fraction(rn, rd)
    return None


def _cross(a, b, F):
    return (F.sub(F.mul(a[1], b[2]), F.mul(a[2], b[1])),
            F.sub(F.mul(a[2], b[0]), F.mul(a[0], b[2])),
            F.sub(F.mul(a[0], b[1]), F.mul(a[1], b[0])))


def _dot(a, b, F):
    s = F.of(0)
    for x, y in zip(a, b):
        s = F.add(s, F.mul(x, y))
    return s


def _solve3(cols, rhs, F):
    """Solve M x = rhs for 3x3 M given by columns; None if singular."""
    det = _dot(cols[0], _cross(cols[1], cols[2], F), F)
    if not det:
        return None
    sol = []
    for j in range(3):
        m = list(cols)
        m[j] = rhs
        sol.append(F.div(_dot(m[0], _cross(m[1], m[2], F), F), det))
    return tuple(sol)


def _frame(lines, points, F):
    """The points coerced into F, and the projective frame of the pairwise
    line intersections e_1 = l1^l2, e_2 = l2^l3, e_3 = l3^l1."""
    l1, l2, l3 = [tuple(F.of(x) for x in l) for l in lines]
    points = [tuple(F.of(x) for x in p) for p in points]
    return points, [_cross(l1, l2, F), _cross(l2, l3, F), _cross(l3, l1, F)]


def _barycentric(points, e, F):
    """Affine barycentric coordinates p_ij (rows: points) in the frame e,
    normalized to sum to one."""
    rows = []
    for p in points:
        bary = _solve3(e, p, F)
        if bary is None:
            raise BuildingError("degenerate sample: concurrent lines")
        s = F.add(F.add(bary[0], bary[1]), bary[2])
        if not s:
            raise BuildingError("degenerate sample: point on the frame's "
                                "vanishing line")
        rows.append(tuple(F.div(b, s) for b in bary))
    return rows


def _generic_rows(lines, points, F):
    """The barycentric rows of a generic sample, None otherwise (see
    `hexagon_genericity`)."""
    points, e = _frame(lines, points, F)
    if not _dot(points[0], _cross(points[1], points[2], F), F):
        return None  # collinear points
    try:
        P = _barycentric(points, e, F)
    except BuildingError:
        return None
    if not all(P[i][k] for i in range(3) for k in (i, (i + 1) % 3)):
        return None
    return P


def hexagon_genericity(lines, points, field=None):
    """The genericity condition: the three points are not collinear, the
    barycentric normalization exists (so the three lines are not
    concurrent, and no point lies on the frame's vanishing line), and the
    six coordinates that enter the incidence equations (p11, p12, p22,
    p23, p33, p31) are all nonzero."""
    return _generic_rows(lines, points, field or _Field()) is not None


def solve_hexagon_incidence(lines, points, field=None, return_roots=False):
    """Number of solutions, over the algebraic closure, of the hexagon
    incidence system: points p'_i on the lines l_i and lines l'_i through
    p_i, p'_{i-1}, p'_i.  Generic samples give exactly 2.

    With return_roots=True also returns the t_1-roots that lie in the
    ground field itself (these index the rational solutions).  No sample
    over F_2 is generic: a generic row has p_ii = p_i,i+1 = 1 and sums
    to 1, so the three points coincide.  The quadratic formula therefore
    never meets characteristic 2."""
    F = field or _Field()
    P = _generic_rows(lines, points, F)
    if P is None:
        raise BuildingError("degenerate sample: genericity fails")
    p11, p12 = P[0][0], P[0][1]
    p22, p23 = P[1][1], P[1][2]
    p33, p31 = P[2][2], P[2][0]
    # t1 = p11 / (1 - p12 / (1 - p33 / (1 - p31 / (1 - p22 / (1 - p23 / (1 - t1))))))
    # as a Mobius transform in t1, composed from the inside out
    one, zero = F.of(1), F.of(0)
    mat = (one, zero, zero, one)  # identity; mat = (a, b, c, d) ~ (a t + b)/(c t + d)

    def compose(m2, m1):
        a2, b2, c2, d2 = m2
        a1, b1, c1, d1 = m1
        return (F.add(F.mul(a2, a1), F.mul(b2, c1)),
                F.add(F.mul(a2, b1), F.mul(b2, d1)),
                F.add(F.mul(c2, a1), F.mul(d2, c1)),
                F.add(F.mul(c2, b1), F.mul(d2, d1)))

    # innermost first: u -> 1 - p/(1 - u) = ((1-p) - u) / (1 - u)
    for p in (p23, p22, p31, p33, p12):
        step = (F.neg(one), F.sub(one, p), F.neg(one), one)
        mat = compose(step, mat)
    # outermost: t1 = p11 / ((a t + b)/(c t + d)) = (p11 c t + p11 d)/(a t + b)
    a, b, c, d = mat
    A, B, C, D = F.mul(p11, c), F.mul(p11, d), a, b
    # fixed points: C t^2 + (D - A) t - B = 0
    qa, qb, qc = C, F.sub(D, A), F.neg(B)
    if not qa:
        count = 1 if qb else 0
        roots = [F.div(F.neg(qc), qb)] if qb else []
    else:
        disc = F.sub(F.mul(qb, qb), F.mul(F.of(4), F.mul(qa, qc)))
        sq = F.square_roots(disc)
        count = 1 if not disc else 2
        inv2a = F.inv(F.mul(F.of(2), qa))
        roots = [F.mul(F.sub(r, qb), inv2a) for r in sq]
    if return_roots:
        return count, roots
    return count


def hexagon_solution_points(lines, points, t1, field=None):
    """The full solution (p'_i, l'_i) determined by a ground-field root
    t1, in projective coordinates; raises on a non-solution."""
    F = field or _Field()
    points, e = _frame(lines, points, F)
    P = _barycentric(points, e, F)
    one = F.of(1)
    # chase the chain of equations to recover s_i and t_i
    p11, p12 = P[0][0], P[0][1]
    p22, p23 = P[1][1], P[1][2]
    p33, p31 = P[2][2], P[2][0]
    t = {1: F.of(t1)}
    s1 = F.sub(one, F.div(p11, t[1]))
    s2 = F.div(p23, F.sub(one, t[1]))
    t[2] = F.div(p22, F.sub(one, s2))
    s3 = F.div(p31, F.sub(one, t[2]))
    t[3] = F.div(p33, F.sub(one, s3))
    if F.mul(s1, F.sub(one, t[3])) != p12:
        raise BuildingError("t1 is not a root of the incidence system")

    def combo(coeffs):
        out = [F.of(0)] * 3
        for cf, vec in zip(coeffs, e):
            for i in range(3):
                out[i] = F.add(out[i], F.mul(cf, vec[i]))
        return tuple(out)

    pp = [combo((t[1], F.of(0), F.sub(one, t[1]))),
          combo((F.sub(one, t[2]), t[2], F.of(0))),
          combo((F.of(0), F.sub(one, t[3]), t[3]))]
    lp = [_cross(points[0], pp[0], F),
          _cross(points[1], pp[1], F),
          _cross(points[2], pp[2], F)]
    # l'_i must also pass through p'_{i-1}
    for i in range(3):
        if _dot(lp[i], pp[(i - 1) % 3], F):
            raise BuildingError("recovered lines miss p'_{i-1}")
    return pp, lp
