"""The four benchmark workloads: seeded inputs, timed jobs and answer checks.

A job is one user-level question, timed from the call to its answer,
including the cross-check that the matching CLI subcommand already makes.
Checks against the independent oracles run after the last job, untimed.

Each workload's cost must not depend on the seed, because run-to-run
spread across seeds is what the benchmark's bounds are checked against.
So the seed picks partition's signatures (a fixed number per length and
q) and fibre boundaries, and the order of the catalog and gram jobs;
the input sets of euler, catalog and gram are the same for every seed
(the rotation of a signature or the choice of basis pairs changes their
cost by 10-20%).  The library is only ever handed the inputs generated
here.
"""

from __future__ import annotations

import itertools
import random

from spiderweb import basis, building, corpus, diskoid, generate, oracle, skein, webs
from spiderweb.weights import W1, W2, format_signature, rotate_signature

# Per workload, what BENCHMARK.json (name and why only) cannot hold: the
# layers it loads, the layers that must not fire inside it, and the sizes
# (measured on a 2-vCPU Xeon virtual machine) that were kept out of it
# because one run could not hold them.
SPEC = {
    "euler": {
        "layers": ["building", "diskoid", "skein"],
        "absent": ["generate", "basis"],
        "hazards": [
            "full euler_estimate of the seed-77 5-vertex sphere: about 120 s "
            "(primes up to 23); it enters only as counts at q = 2, 3, 5, 7",
            "5-vertex sphere count at q = 11: 5.8 s, at q = 13: 10.7 s and "
            "184 MiB RSS",
            "euler_estimate of the 4-vertex diskoid (chi = 12): 3.8-5.7 s, "
            "which leaves too few rounds in a run to be steady",
        ],
    },
    "partition": {
        "layers": ["building", "diskoid", "basis"],
        "absent": ["generate", "skein"],
        "hazards": [
            "length-6 partition at q = 5: 140-171 s and 2.5 GB RSS",
            "length-6 partition at q = 3: 5-6 s per signature",
            "length-5 partition at q = 5: 3.6-5.9 s per signature",
            "w-mu fibre: 0.27 s at q = 2 and 0.5 s at q = 3 (precision N = 86)",
        ],
    },
    "catalog": {
        "layers": ["generate", "basis", "webs", "diskoid", "oracle"],
        "absent": ["building", "skein"],
        "hazards": [
            "SIG12 = (w1 w2 w2 w1)^3 catalog: about 44 s and 630 MiB RSS",
            "all signatures of length 8: about 47 s; one per rotation class "
            "(12 classes): about 3.6 s",
            "a seeded rotation of each signature: growth cost moves by up to "
            "20%, so job_p50_s followed the seed",
            "invariant_kernel_dim of (w1)^9: 5.6 s; of w1^8 w2^2: 131 s",
        ],
    },
    "gram": {
        "layers": ["skein", "webs", "oracle"],
        "absent": ["building"],
        "hazards": [
            "all 1,764 pairs of (w1)^9: 11.0 s in skein plus 1.9 s in the oracle",
            "a seeded sample of pairs, or a seeded rotation of the signature: "
            "the median pair's cost moves by 10-30% with the seed",
        ],
    },
}


class Mismatch(Exception):
    """A job's answer disagrees with its cross-check."""


class Job:
    """One timed question.  `run` returns a deterministic answer; `check`
    is the untimed oracle comparison applied to it."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check=None):
        self.name = name
        self.run = run
        self.check = check or (lambda answer: True)


def build(name, seed, size):
    """(inputs, jobs) of one workload.  `inputs` is a list of strings that
    names every generated input, for the input digest."""
    return _BUILDERS[name](random.Random(seed), size == "tiny")


# ----------------------------------------------------------------------
# helpers


def _gluable(sig):
    n1 = sum(1 for x in sig if x == W1)
    return (2 * n1 - len(sig)) % 3 == 0


def _gluable_signatures(n):
    return [s for s in itertools.product((W1, W2), repeat=n) if _gluable(s)]


def _rotation_classes(n):
    """Gluable signatures of length n, one tuple of rotations per class."""
    seen, out = set(), []
    for s in _gluable_signatures(n):
        if s in seen:
            continue
        rots = tuple(sorted({rotate_signature(s, i) for i in range(n)}))
        seen.update(rots)
        out.append(rots)
    return out


def _relabelled(w):
    """The web with its darts renamed by canonical rank, so isomorphic
    inputs are identical inputs (enumeration order follows dart names)."""
    rank = w.canonical_rank()

    def rot_min(tri):
        t = [rank[d] for d in tri]
        i = t.index(min(t))
        return tuple(t[i:] + t[:i])

    return webs.Web(w.mode, {rank[d]: rank[e] for d, e in w.theta.items()},
                    sorted(rot_min(tri) for tri in w.vertices),
                    [rank[d] for d in w.boundary],
                    [rank[d] for d in w.heads], w.circles)


def _closed_webs(rng, attempts=200):
    """Closed webs glue(w, mirror(w)) from the criterion-5 generator whose
    dual diskoid has at most five vertices, one per isomorphism class in
    order of first appearance."""
    out = {}
    for _ in range(attempts):
        sig = generate.random_signature(rng, max_legs=6)
        w = generate.random_web(sig, rng, max_vertices=4, split_bias=0.0)
        try:
            g = webs.glue(w, webs.mirror(w))
            D = diskoid.dual_diskoid(g)
        except (webs.WebError, diskoid.DiskoidError):
            continue
        if g.circles or g.n_vertices() > 8 or g.n_vertices() == 0 \
                or D.n_vertices() > 5:
            continue
        out.setdefault(g.canonical_key(), g)
    return [_relabelled(g) for g in out.values()]


def _fp(q, labels):
    return building.FieldParam(q, building.auto_precision(labels))


# ----------------------------------------------------------------------
# euler


def _sphere_count(q):
    """Configuration count of every 5-vertex sphere the generator makes:
    (q+1)^3 (q^2+q+1), whose value 24 at q = 1 the oracle confirms."""
    return (q + 1) ** 3 * (q * q + q + 1)


def _euler_job(label, g):
    def run():
        chi = building.euler_estimate(diskoid.dual_diskoid(g))
        sv = int(skein.evaluate_closed(g, -1))
        if chi != sv:
            raise Mismatch("chi %d != skein(q=-1) %d" % (chi, sv))
        return chi

    return Job("euler:" + label, run,
               lambda chi: chi == oracle.contract_closed(g))


def _count_job(label, g, q):
    link = building.diskoid_linkage(diskoid.dual_diskoid(g))
    fp = _fp(q, link.labels())

    def run():
        return building.count_configurations(link, fp).count

    def check(count):
        return count == _sphere_count(q) and \
            _sphere_count(1) == oracle.contract_closed(g) == \
            skein.evaluate_closed(g, -1)

    return Job("count:%s:q%d" % (label, q), run, check)


def _euler(rng, tiny):
    """Theta's Euler characteristic, then counts of the generator's 5-vertex
    spheres, the seed-77 one (the criterion-5 profile) first.  Every seed's
    stream yields the same two sphere classes (seeds 0-149 checked), so
    after relabelling the inputs do not depend on the seed."""
    theta = corpus.load_web("theta")
    jobs, inputs = [_euler_job("theta", theta)], [webs.serialize_web(theta)]
    spheres = {}
    for g in _closed_webs(random.Random(77)) + _closed_webs(rng):
        if diskoid.dual_diskoid(g).n_vertices() == 5:
            spheres.setdefault(g.canonical_key(), g)
    for k, g in enumerate(list(spheres.values())[:1 if tiny else None]):
        inputs.append(webs.serialize_web(g))
        for q in ((2,) if tiny else (2, 3, 5, 7)):
            jobs.append(_count_job("sphere%d" % k, g, q))
    return inputs, jobs


# ----------------------------------------------------------------------
# partition

# The criterion-6 partitions at q = 2 and their bucket sizes.
_CRITERION6 = (((W1, W2), [7]), ((W1, W1, W1), [21]),
               ((W1, W2, W1, W2), [42, 49]))


def _partition_job(sig, q, expect=None):
    fp = _fp(q, sig)

    def run():
        buckets = building.satake_partition(sig, fp)
        if set(buckets) != set(basis.minuscule_paths(sig)):
            raise Mismatch("buckets do not match the minuscule paths")
        return sorted(buckets.items())

    def check(items):
        sizes = [v for _k, v in items]
        total = building.count_configurations(
            building.polygon_linkage(sig), fp).count
        return all(v > 0 for v in sizes) and sum(sizes) == total and \
            (expect is None or sorted(sizes) == expect)

    return Job("partition:%s:q%d" % (format_signature(sig), q), run, check)


def _fibre_job(k, w, D, q, seed):
    sig = w.boundary_signature()
    target = basis.path_tag(w)
    link = building.diskoid_linkage(D)
    fp = _fp(q, link.labels())

    def boundary():
        cfg = building.sample_polygon_config(sig, target, fp,
                                             random.Random(seed))
        return {D.boundary[i]: cfg[i] for i in range(len(sig))}

    def run():
        return building.count_fibre(D, boundary(), fp)

    def check(n):
        # The boundary lies in the stratum of the web's own path, so its
        # fibre is not empty; an enumeration in shuffled order must agree.
        pinned = building.Linkage(link.vertices, link.base, link.edges,
                                  fixed=boundary())
        return n >= 1 and n == building.count_configurations(
            pinned, fp, rng=random.Random(seed)).count

    return Job("fibre:w-mu:q%d:%d" % (q, k), run, check)


def _partition(rng, tiny):
    jobs = [_partition_job(sig, 2, expect)
            for sig, expect in _CRITERION6[:1 if tiny else 3]]
    slots = [(4, 2, 1)] if tiny else \
        [(4, 3, 2), (4, 5, 2), (5, 2, 3), (5, 3, 1), (6, 2, 1)]
    for n, q, k in slots:
        for sig in rng.sample(_gluable_signatures(n), k):
            jobs.append(_partition_job(sig, q))
    w = corpus.load_web("w-mu")
    D = diskoid.dual_diskoid(w)
    for q, k in ((2, 1),) if tiny else ((2, 1), (3, 1)):
        for i in range(k):
            jobs.append(_fibre_job(i, w, D, q, rng.randrange(2 ** 32)))
    inputs = [j.name for j in jobs]
    inputs.append(webs.serialize_web(w))
    return inputs, jobs


# ----------------------------------------------------------------------
# catalog


def _catalog_job(sig):
    def run():
        cat = basis.enumerate_basis(sig)
        dim = oracle.invariant_kernel_dim(sig)
        if dim != len(cat):
            raise Mismatch("%d webs but kernel dimension %d" % (len(cat), dim))
        if len(cat):
            basis.rotated_catalog_check(cat, 1)
        duals = [(w, diskoid.dual_diskoid(w)) for w in cat.webs()]
        comparable = 0
        for (wi, Di), (wj, Dj) in itertools.permutations(duals, 2):
            le = diskoid.leq_S(Di, Dj)
            if le and (diskoid.leq_S(Dj, Di) or
                       wi.n_vertices() >= wj.n_vertices()):
                raise Mismatch("leq_S is not a strict order refined by "
                               "vertex count")
            comparable += le
        return len(cat), dim, comparable, \
            sorted(k.decode() for _p, _w, k in cat.entries)

    def check(answer):
        return answer[0] == answer[1] == len(basis.minuscule_paths(sig))

    return Job("catalog:" + format_signature(sig), run, check)


def _catalog(rng, tiny):
    classes = [c for n in range(2, 5 if tiny else 8) for c in _rotation_classes(n)]
    if not tiny:
        classes += [c for c in _rotation_classes(8) if c[0].count(W1) == 4][:2]
    sigs = [rots[0] for rots in classes]
    rng.shuffle(sigs)
    return [format_signature(s) for s in sigs], [_catalog_job(s) for s in sigs]


# ----------------------------------------------------------------------
# gram


def _gram_job(label, a, b):
    def run():
        g = webs.glue(a, webs.mirror(b))
        val = skein.evaluate_closed(g)
        if val.evaluate(-1) != oracle.contract_closed(g):
            raise Mismatch("skein(q=-1) differs from the tensor oracle")
        return str(val)

    return Job("gram:" + label, run)


# Every ordered pair of its basis webs is one job.
_GRAM_SIGNATURE = (W1, W1, W1, W2, W1, W2, W2, W2)


def _gram(rng, tiny):
    sig = (W1, W2, W1, W2) if tiny else _GRAM_SIGNATURE
    basis_webs = basis.enumerate_basis(sig).webs()
    pairs = list(itertools.product(range(len(basis_webs)), repeat=2))
    rng.shuffle(pairs)
    jobs = [_gram_job("%s:%d,%d" % (format_signature(sig), i, j),
                      basis_webs[i], basis_webs[j]) for i, j in pairs]
    return ["%s:%s" % (format_signature(sig), pairs)], jobs


_BUILDERS = {"euler": _euler, "partition": _partition,
             "catalog": _catalog, "gram": _gram}
