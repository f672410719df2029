"""Exact arithmetic for the A1/A2 weight lattices.

Weights are stored as integer coordinate pairs ``(a, b)`` in the
fundamental-weight basis (a*w1 + b*w2).  A1 weights use the same pairs
with b == 0 throughout, so one representation serves both modes.

The simple roots in this basis are

    A2:  alpha1 = (2, -1),  alpha2 = (-1, 2)
    A1:  alpha1 = (2, 0)

and dominance ``mu <= lam`` means lam - mu is a non-negative *integer*
combination of simple roots.
"""

from __future__ import annotations

import re

ZERO = (0, 0)
W1 = (1, 0)
W2 = (0, 1)

# Weyl-orbit enumeration order: highest weight first, then by length of
# the simple-reflection word producing the element.
_ORBITS_A2 = {
    W1: ((1, 0), (-1, 1), (0, -1)),
    W2: ((0, 1), (1, -1), (-1, 0)),
}
_ORBITS_A1 = {
    W1: ((1, 0), (-1, 0)),
}


def is_dominant(w):
    return w[0] >= 0 and w[1] >= 0


def is_minuscule(w, mode="a2"):
    if mode == "a1":
        return w in ((0, 0), W1)
    return w in ((0, 0), W1, W2)


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def dual(w, mode="a2"):
    """The highest weight of the dual representation: (a,b) -> (b,a)."""
    if mode == "a1":
        return w
    return (w[1], w[0])


def rho_level(w):
    """Pairing with the dual Weyl vector: <a*w1 + b*w2, rho-check> = a + b."""
    return w[0] + w[1]


def dominance_leq(mu, lam, mode="a2"):
    """True iff lam - mu is a non-negative integer combination of simple roots.

    lam - mu = (a, b) is i*alpha1 + j*alpha2 with i = (2a+b)/3 and
    j = (a+2b)/3 in A2 (both integers iff 3 divides 2a+b), and with
    i = a/2, b = 0 in A1.
    """
    a, b = lam[0] - mu[0], lam[1] - mu[1]
    if mode == "a1":
        return b == 0 and a % 2 == 0 and a >= 0
    return (2 * a + b) % 3 == 0 and 2 * a + b >= 0 and a + 2 * b >= 0


def minuscule_orbit(lam, mode="a2"):
    """The weights of the minuscule representation V(lam), fixed order."""
    table = _ORBITS_A1 if mode == "a1" else _ORBITS_A2
    if lam not in table:
        raise ValueError("not a nonzero minuscule weight: %r" % (lam,))
    return list(table[lam])


def rotate_signature(sig, i):
    """The signature lambda^(i): entries advanced cyclically by i."""
    n = len(sig)
    if n == 0:
        return tuple(sig)
    i %= n
    return tuple(sig[i:]) + tuple(sig[:i])


def format_weight(w):
    """Render e.g. (1,0) -> "w1", (2,1) -> "2w1+w2", (0,0) -> "0"."""
    a, b = w
    if a == 0 and b == 0:
        return "0"
    parts = []
    for coeff, name in ((a, "w1"), (b, "w2")):
        if coeff == 0:
            continue
        if coeff == 1:
            parts.append(name)
        elif coeff == -1:
            parts.append("-" + name)
        else:
            parts.append("%d%s" % (coeff, name))
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def parse_weight(text):
    """Parse weights rendered by format_weight, ignoring case and spaces:
    ``0``, or signed terms ``[+-]?\\d*w[12]`` of which only the first may
    leave out its sign."""
    s = text.strip().lower().replace(" ", "")
    if re.fullmatch(r"[+-]?0", s):
        return ZERO
    if not re.fullmatch(r"[+-]?\d*w[12]([+-]\d*w[12])*", s):
        raise ValueError("bad weight syntax: %r" % text)
    w = [0, 0]
    for coeff, i in re.findall(r"([+-]?\d*)w([12])", s):
        w[int(i) - 1] += int(coeff + "1" if coeff in "+-" else coeff)
    return tuple(w)


def parse_signature(text):
    """Parse a comma-separated boundary signature like "w1,w2,w2,w1"."""
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_weight(tok) for tok in text.split(","))


def format_signature(sig):
    return ",".join(format_weight(w) for w in sig)
