"""The hexagon incidence problem behind the 12-boundary example.

Given three generic lines and three generic points in the plane, one
asks for points p'_i on the lines and lines l'_i through p_i, p'_{i-1},
p'_i.  Generically the closure has exactly two solutions; over a given
field, zero, one, or two of them are rational.  A solution is named by
t_1, with p'_1 = t_1 e_1 + (1 - t_1) e_3 on l_1, and t_1 = inf (None) at
p'_1 = e_1 - e_3; each one is rebuilt here by `hexagon_solution_points`.
"""

import random

from spiderweb import corpus
from spiderweb.basis import path_tag
from spiderweb.hexagon import (_Field, hexagon_genericity,
                               hexagon_solution_points,
                               solve_hexagon_incidence)
from spiderweb.cli import format_path

print("path tag of the 12-boundary web w(mu):")
print(" ", format_path(path_tag(corpus.load_web("w-mu"))))
print("path tag of its order-minimal companion w(nu):")
print(" ", format_path(path_tag(corpus.load_web("w-nu"))))



def show(k, lines, points, F, where):
    """Solve one sample and rebuild each of its ground-field solutions."""
    n, roots = solve_hexagon_incidence(lines, points, F, return_roots=True)
    print("sample %d: %d closure solutions, %d %s" % (k, n, len(roots),
                                                      where))
    for t1 in roots:
        pp, lp = hexagon_solution_points(lines, points, t1, F)
        print("   root t1 = %s gives p'_1 = (%s)" % (
            "inf" if t1 is None else t1, ", ".join(map(str, pp[0]))))


def generic_samples(F, lo, hi, n):
    found = []
    while len(found) < n:
        lines = [tuple(rng.randint(lo, hi) for _ in range(3))
                 for _ in range(3)]
        points = [tuple(rng.randint(lo, hi) for _ in range(3))
                  for _ in range(3)]
        if (all(any(x) for x in lines + points)
                and hexagon_genericity(lines, points, F)):
            found.append((lines, points))
    return found


rng = random.Random(12)
print("\n== rational samples ==")
# the coordinate triangle with these points has t_1 = inf and t_1 = 3/4
Q = _Field()
samples = [([(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [(1, 2, 3), (3, 1, 2), (2, 5, 1)])]
for k, (lines, points) in enumerate(samples + generic_samples(Q, -9, 9, 4)):
    show(k, lines, points, Q, "rational")

print("\n== over F_7 ==")
F = _Field(7)
for k, (lines, points) in enumerate(generic_samples(F, 0, 6, 5)):
    show(k, lines, points, F, "in F_7")
