"""The incidence solver for the twelve-leg hexagon web.

Three lines l_i and three points p_i in the plane, over the rationals
(`Fraction`) or F_p: find points p'_i on the lines l_i and lines l'_i
through p_i, p'_(i-1) and p'_i.

Points and lines are integer (or `Fraction`) vectors, and a join of two
points or a meet of two lines is their cross product, so no step
divides: the field enters only in zero tests and in taking roots.  Since
p'_2 = (p_2 v p'_1) ^ l_2 and p'_3 = (p_3 v p'_2) ^ l_3, the solutions
are the fixed points of the closure map of l_1

    phi: x -> (p_1 v ((p_3 v ((p_2 v x) ^ l_2)) ^ l_3)) ^ l_1,

which composes three perspectivities, so it is a projectivity on a
generic sample.  Write x = t_1 e_1 + (1 - t_1) e_3 in the frame
e_1 = l_1 ^ l_2, e_2 = l_2 ^ l_3, e_3 = l_3 ^ l_1 (t_1 = oo at
e_1 - e_3).  As x and phi(x) lie on l_1, x x phi(x) is a multiple of
l_1, and its entry at a nonzero coordinate of l_1 is a binary quadratic
form in t_1.  A projectivity other than the identity has exactly two
fixed points over the algebraic closure, counted with multiplicity; the
identity fixes all of l_1, and the solver raises.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .building import BuildingError, _is_prime


class _Field:
    """The ground field, the rationals (p=None) or F_p: a zero test and
    the roots of a quadratic.  Coordinates stay integers or Fractions."""

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise BuildingError("field size must be prime, got %r" % (p,))
        self.p = p

    def zero(self, x):
        return not (x % self.p if self.p else x)

    def roots(self, a, b, c):
        """The distinct roots of the nonzero form a t^2 + b t + c in the
        field, t = oo (None) first where a vanishes."""
        p = self.p
        ratio = ((lambda x, y: x * pow(y, p - 2, p) % p) if p
                 else (lambda x, y: Fraction(x) / y))
        if self.zero(a):
            return [None] + ([] if self.zero(b) else [ratio(-c, b)])
        d = b * b - 4 * a * c
        if p:  # Euler's criterion, then a scan for the square root
            r = (next(x for x in range(p) if self.zero(x * x - d))
                 if pow(d % p, (p - 1) // 2, p) < 2 else 0)
        else:
            d = Fraction(d)
            r = Fraction(math.isqrt(max(d.numerator, 0)),
                         math.isqrt(d.denominator))
        if not self.zero(r * r - d):
            return []
        return sorted({ratio(r - b, 2 * a), ratio(-r - b, 2 * a)})


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _closure(lines, points, x):
    """p'_2, p'_3 and phi(x) for a point x of l_1."""
    (l1, l2, l3), (p1, p2, p3) = lines, points
    q2 = _cross(_cross(p2, x), l2)
    q3 = _cross(_cross(p3, q2), l3)
    return q2, q3, _cross(_cross(p1, q3), l1)


def _on_l1(lines, t1):
    """t_1 e_1 + (1 - t_1) e_3 on l_1, or e_1 - e_3 at t_1 = oo (None)."""
    e1, e3 = _cross(lines[0], lines[1]), _cross(lines[2], lines[0])
    s, r = (1, -1) if t1 is None else (t1, 1 - t1)
    return tuple(s * x + r * y for x, y in zip(e1, e3))


def hexagon_genericity(lines, points, field=None):
    """The genericity condition: the lines are not concurrent, the points
    not collinear, no point is on l_1 + l_2 + l_3 (the barycentric
    normalization in the frame e fails there), p_1 is on neither l_3 nor
    l_1, p_2 on neither l_1 nor l_2, p_3 on neither l_2 nor l_3.  The
    dual frame of e is det(l_1, l_2, l_3) (l_3, l_1, l_2), so the last
    six are the barycentric coordinates p11, p12, p22, p23, p33, p31;
    they keep each join and meet of the closure map nondegenerate."""
    F = field or _Field()
    (l1, l2, l3), (p1, p2, p3) = lines, points
    rim = tuple(map(sum, zip(*lines)))
    return not any(F.zero(x) for x in (
        _dot(l1, _cross(l2, l3)), _dot(p1, _cross(p2, p3)),
        _dot(p1, rim), _dot(p2, rim), _dot(p3, rim),
        _dot(p1, l3), _dot(p1, l1), _dot(p2, l1), _dot(p2, l2),
        _dot(p3, l2), _dot(p3, l3)))


def _checked(lines, points, field):
    F = field or _Field()
    if not hexagon_genericity(lines, points, F):
        raise BuildingError("degenerate sample: genericity fails")
    return F


def solve_hexagon_incidence(lines, points, field=None, return_roots=False):
    """Number of solutions, over the algebraic closure, of the hexagon
    incidence system: 2 on a generic sample, 1 where the closure map's
    two fixed points coincide; raises if it fixes every point of l_1.

    With return_roots=True also returns the distinct t_1 of the
    solutions over the ground field itself, None for t_1 = oo (see
    `hexagon_solution_points`).  No sample over F_2 is generic: a
    generic barycentric row has p_ii = p_i,i+1 = 1 and sums to 1, so the
    three points coincide."""
    F = _checked(lines, points, field)
    k = next(i for i in range(3) if not F.zero(lines[0][i]))
    u, v = _on_l1(lines, None), _on_l1(lines, 0)
    fu, fv = _closure(lines, points, u)[2], _closure(lines, points, v)[2]
    a, c = _cross(u, fu)[k], _cross(v, fv)[k]
    b = _cross(u, fv)[k] + _cross(v, fu)[k]
    if F.zero(a) and F.zero(b) and F.zero(c):
        raise BuildingError("the closure map fixes every point of l_1")
    count = 1 if F.zero(b * b - 4 * a * c) else 2
    return (count, F.roots(a, b, c)) if return_roots else count


def hexagon_solution_points(lines, points, t1, field=None):
    """The solution (p'_i, l'_i) at p'_1 = t1 e_1 + (1 - t1) e_3, or at
    e_1 - e_3 for t1 = None, in projective coordinates (reduced mod p
    over F_p); raises unless the closure map fixes p'_1."""
    F = _checked(lines, points, field)
    x = _on_l1(lines, t1)
    q2, q3, y = _closure(lines, points, x)
    if not all(F.zero(z) for z in _cross(x, y)):
        raise BuildingError("t1 is not a root of the incidence system")
    # l'_i = p_i v p'_(i-1), and it meets p'_i because phi fixes x
    out = [x, q2, q3], [_cross(p, q) for p, q in zip(points, (q3, x, q2))]
    if F.p:
        out = tuple([tuple(z % F.p for z in v) for v in vs] for vs in out)
    return out
