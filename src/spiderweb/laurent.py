"""Sparse Laurent polynomials in q with arbitrary-precision integer coefficients."""

from __future__ import annotations

from fractions import Fraction


class Laurent:
    """An immutable Laurent polynomial sum(c_e * q^e) with integer c_e."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def const(cls, c):
        return cls({0: int(c)})

    @classmethod
    def monomial(cls, c, e):
        return cls({e: int(c)})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = Laurent.const(other)
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = Laurent.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = Laurent.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = Laurent.const(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def evaluate(self, q0):
        """Exact evaluation at a rational q0 = n/d != 0, as one Fraction:
        q0^e = n^(e-lo) d^(hi-e) * n^lo / d^hi, with lo and hi the least
        and greatest exponents, so the sum is taken in integers."""
        q0 = Fraction(q0)
        if q0 == 0:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at q=0")
        if not self.coeffs:
            return Fraction(0)
        n, d = q0.numerator, q0.denominator
        lo, hi = min(self.coeffs), max(self.coeffs)
        num = sum(c * n ** (e - lo) * d ** (hi - e)
                  for e, c in self.coeffs.items())
        return Fraction(num * n ** max(lo, 0) * d ** max(-hi, 0),
                        n ** max(-lo, 0) * d ** max(hi, 0))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                term = str(abs(c))
            else:
                base = "q" if e == 1 else "q^%d" % e
                term = base if abs(c) == 1 else "%d%s" % (abs(c), base)
            sign = "-" if c < 0 else "+"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += sign + term
        return out

    __repr__ = __str__


ONE = Laurent.const(1)
ZERO = Laurent()

# Skein scalars:
#   A1 circle value:   -q - q^-1
#   A2 loop value:     q^2 + 1 + q^-2
#   A2 bigon factor:   -q - q^-1
LOOP_A1 = Laurent({1: -1, -1: -1})
LOOP_A2 = Laurent({2: 1, 0: 1, -2: 1})
BIGON_A2 = Laurent({1: -1, -1: -1})
