"""The hexagon incidence problem behind the 12-boundary example.

Given three generic lines and three generic points in the plane, one
asks for points p'_i on the lines and lines l'_i through p_i, p'_{i-1},
p'_i.  Generically the closure has exactly two solutions; over a given
field, zero, one, or two of them are rational.
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

print("\n== rational samples ==")
rng = random.Random(12)
done = 0
while done < 5:
    lines = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)]
    points = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3)]
    if not all(any(x) for x in lines + points):
        continue
    if not hexagon_genericity(lines, points):
        continue
    n, roots = solve_hexagon_incidence(lines, points, return_roots=True)
    print("sample %d: %d closure solutions, %d rational" % (done, n,
                                                            len(roots)))
    for t1 in roots:
        pp, lp = hexagon_solution_points(lines, points, t1)
        print("   root t1 = %s gives p'_1 = %s" % (t1, pp[0]))
    done += 1

print("\n== over F_7 ==")
F = _Field(7)
done = 0
while done < 3:
    lines = [tuple(rng.randrange(7) for _ in range(3)) for _ in range(3)]
    points = [tuple(rng.randrange(7) for _ in range(3)) for _ in range(3)]
    if not all(any(x) for x in lines + points):
        continue
    if not hexagon_genericity(lines, points, F):
        continue
    n, roots = solve_hexagon_incidence(lines, points, F, return_roots=True)
    print("sample %d: %d closure solutions, %d in F_7" % (done, n,
                                                          len(roots)))
    done += 1
