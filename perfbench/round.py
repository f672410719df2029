"""One round of a workload in a fresh interpreter: set up, run every job
once, check the answers, and print the round's record as one JSON line.

Started by run.py with ``src`` on PYTHONPATH; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import time
import traceback


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--spans", help="trace the round and write its spans here")
    args = ap.parse_args()

    import workloads

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    def span(kind, job):
        return tracer.span(kind, job) if tracer else contextlib.nullcontext()

    with span("setup", "setup"):
        inputs, jobs = workloads.build(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at

    answers, times, failures = [], [], []
    t_first = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        try:
            with span("job", job.name):
                answer = job.run()
        except Exception as exc:  # a failed job is counted, not fatal
            answer = None
            failures.append({"job": job.name, "error": repr(exc),
                             "traceback": traceback.format_exc(limit=4)})
        times.append(time.perf_counter() - t0)
        answers.append(answer)
    wall_s = time.perf_counter() - t_first
    # The high-water mark of set-up and jobs, before the untimed checks.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with span("check", "check"):
        for job, answer in zip(jobs, answers):
            if answer is None:
                continue
            try:
                ok = job.check(answer)
            except Exception as exc:
                ok = False
                failures.append({"job": job.name, "error": repr(exc)})
                continue
            if not ok:
                failures.append({"job": job.name,
                                 "error": "wrong answer %r" % (answer,)})

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "jobs": [j.name for j in jobs],
        "job_s": times,
        "failures": failures,
        "rss_mib": rss_mib,
        "inputs_digest": _digest(inputs),
        "answers_digest": _digest(answers),
        "traced": tracer is not None,
    }
    if tracer:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = len(tracer.spans)
        tracer.write(args.spans)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
