"""The finite lattice model: point counts, strata, fibres, and Euler
characteristics counted at the torus-fixed points.

Vertices of the building are homothety classes of rank-3 lattices over
F_q[[t]], each stored exactly by polynomial normal-form columns over F_q;
minuscule neighbors are parametrized by a projective plane.
"""

import random

from spiderweb import corpus
from spiderweb.building import (FieldParam, base_class,
                                count_configurations, count_fibre,
                                diskoid_linkage, euler_estimate, neighbors,
                                polygon_linkage, sample_polygon_config,
                                satake_partition)
from spiderweb.cli import format_path
from spiderweb.diskoid import dual_diskoid
from spiderweb.skein import evaluate_closed
from spiderweb.weights import parse_signature

fp = FieldParam(2)
L = base_class(fp)
print("w1-neighbors of the base lattice at q = 2: %d (= q^2+q+1)"
      % len(neighbors(L, (1, 0))))

print("\n== polygon point counts and the distance-vector partition ==")
for text in ("w1,w2", "w1,w1,w1", "w1,w2,w1,w2"):
    sig = parse_signature(text)
    total = count_configurations(polygon_linkage(sig), fp).count
    buckets = satake_partition(sig, fp)
    print("F(%s)(F_2): %d points in %d buckets" % (text, total, len(buckets)))
    for key in sorted(buckets):
        print("    %-36s %d" % (format_path(key), buckets[key]))

print("\n== a diskoid fibre ==")
w = corpus.load_web("single-y")
D = dual_diskoid(w)
sig = w.boundary_signature()
target = ((0, 0), (1, 0), (0, 1), (0, 0))
cfg = sample_polygon_config(sig, target, fp, random.Random(4))
bc = {D.boundary[k]: cfg[k] for k in range(len(sig))}
print("extensions of a sampled boundary configuration:",
      count_fibre(D, bc, fp))

print("\n== Euler characteristic at the torus-fixed points ==")
theta = corpus.load_web("theta")
D = dual_diskoid(theta)
counts = [(q, count_configurations(diskoid_linkage(D), FieldParam(q)).count)
          for q in (2, 3, 5)]
print("theta counts per prime:", counts, "= (q^2+q+1)(q+1)")
print("chi = %d (fixed points in the apartment, the count at q = 1), "
      "skein value at q = -1: %d" % (euler_estimate(D),
                                     evaluate_closed(theta, -1)))
