"""Spans around the calls into each spiderweb layer, timed from outside.

`install` wraps the public functions and methods listed in TRACED and
patches every module attribute that refers to them, so a call is seen
wherever the caller looks the name up (``basis.grown_webs`` as well as
``generate.grown_webs``).  Spans are kept in memory as
(name, start, end, parent index, job id) and written out when the round
ends.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

# layer -> public functions and methods wrapped in that layer.  laurent and
# weights are too fine-grained to wrap; render and cli are presentation.
TRACED = {
    "building": ["neighbors", "lattice_distance", "euler_estimate",
                 "count_configurations", "satake_partition", "count_fibre",
                 "sample_polygon_config"],
    "generate": ["grown_webs", "Grower.state_key"],
    "basis": ["enumerate_basis", "path_tag", "rotated_catalog_check"],
    "webs": ["Web.canonical_key"],
    "diskoid": ["distance_sets", "leq_S", "dual_diskoid"],
    "skein": ["normal_form", "evaluate_closed", "rewrite"],
    "oracle": ["contract_closed", "invariant_kernel_dim"],
}

# Job id of the untimed answer checks, whose spans no layer metric counts.
CHECK = "check"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = "setup"

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def _close(self, idx, name, t0, parent):
        self.spans[idx] = (name, t0, time.perf_counter(), parent, self.job)
        self.stack.pop()

    def wrap(self, name, fn):
        open_, close, clock = self._open, self._close, time.perf_counter

        def traced(*args, **kwargs):
            idx, parent = open_()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx, name, t0, parent)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, kind, job):
        """A benchmark span ``bench.<kind>`` that sets the job id of the
        library spans opened inside it."""
        prev, self.job = self.job, job
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, "bench." + kind, t0, parent)
            self.job = prev

    def write(self, path):
        with open(path, "w") as f:
            f.write("index\tname\tstart\tend\tparent\tjob\n")
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                f.write("%d\t%s\t%.9f\t%.9f\t%d\t%s\n"
                        % (i, name, t0, t1, parent, job))

    def layer_metrics(self):
        """Calls and self seconds per wrapped function and per layer, over
        setup and job spans; the untimed checks are left out."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _parent, job) in enumerate(self.spans):
            if name.startswith("bench.") or job == CHECK:
                continue
            self_s = t1 - t0 - child[i]
            layer = name.split(".", 1)[0]
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".s"] = out.get(name + ".s", 0.0) + self_s
            out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + self_s
        grows = [parent for name, _t0, _t1, parent, job in self.spans
                 if name == "generate.grown_webs" and job != CHECK]
        if grows:
            # catalogs produced per growth search; below 1 when the vertex
            # budget of enumerate_basis had to escalate
            out["basis.grow_yield"] = len(set(grows)) / len(grows)
        return out


def install(tracer):
    """Wrap every TRACED function and method in place."""
    mods = [m for n, m in list(sys.modules.items())
            if n.split(".")[0] == "spiderweb"]
    for layer, attrs in TRACED.items():
        mod = importlib.import_module("spiderweb." + layer)
        for attr in attrs:
            name = layer + "." + attr
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(mod, attr)
            wrapped = tracer.wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
