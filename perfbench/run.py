"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload euler --seed 1 --seconds 30 --trace 0

Run from the repository root.  A run is a sequence of rounds; each round
is a fresh interpreter (so the library's module-level caches start empty,
as they do for every CLI call) that sets up the workload, runs each of its
jobs once, and checks every answer.  Rounds repeat until --seconds would
be exceeded.  Over the untraced rounds:

    wall_s        mean time from the first job's call to the last job's
                  answer
    setup_s       median time from interpreter start to the first job:
                  imports, input generation and set-up catalogs
    job_p50_s     median over jobs of each job's mean latency
    peak_rss_mib  median ru_maxrss of the round interpreter

On a shared 2-CPU virtual machine the speed a process gets switches
between two levels every few seconds, so a median over rounds jumps
between them; a mean over rounds does not.

job_tail_s (the highest percentile with at least ten jobs beyond it) and
error_rate are printed where defined but are not gated.  With --trace 1,
untraced and traced rounds alternate; the traced ones wrap each layer's
public functions (tracing.py) and give the per-layer metrics, and
trace.overhead_s is the traced minus the untraced mean wall_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with the run's
environment, input and answer digests and every round, is written to
.perfbench/<workload>-seed<seed>-trace<t>.json, and the spans of the last
traced round to .perfbench/spans-<workload>.tsv.  A wrong answer or a job
that raises is a failure; the run then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench"
# A run must end within 180 s; a round still running at this point is
# killed and the run fails.
RUN_LIMIT_S = 170.0
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def run_info():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "loadavg_at_start": os.getloadavg(),
        "env": {k: v for k, v in child_env().items()
                if k in ("PYTHONHASHSEED", "OMP_NUM_THREADS",
                         "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_round(args, traced, env, time_left):
    cmd = [sys.executable, "-s", os.path.join(HERE, "round.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    if traced:
        cmd += ["--spans", os.path.join(OUT, "spans-%s.tsv" % args.workload)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=max(time_left, 1.0))
    except subprocess.TimeoutExpired:
        fail("a %s round did not finish within the run's time limit"
             % args.workload)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("a %s round exited with code %d" % (args.workload, proc.returncode))
    rec = json.loads(lines[-1])
    rec["round_s"] = time.monotonic() - spawned
    return rec


def job_tail(per_job):
    """(percentile, value, jobs beyond) for the highest percentile with at
    least ten jobs beyond it, or None when there are too few jobs."""
    for p in TAIL_PERCENTILES:
        if len(per_job) * (100 - p) / 100.0 >= 10:
            value = statistics.quantiles(per_job, n=100, method="inclusive")[p - 1]
            return p, value, sum(1 for v in per_job if v > value)
    return None


def summarize(rounds, bench):
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    per_job = [statistics.fmean(ts) for ts in zip(*(r["job_s"] for r in plain))]
    e2e = {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "job_p50_s": statistics.median(per_job),
        "peak_rss_mib": statistics.median(r["rss_mib"] for r in plain),
    }
    layers = {}
    if traced:
        names = [m["name"] for m in bench["per_layer"]]
        for name in names:
            layers[name] = statistics.median(r["layers"].get(name, 0)
                                             for r in traced)
        layers["trace.overhead_s"] = \
            statistics.fmean(r["wall_s"] for r in traced) - e2e["wall_s"]
    return per_job, e2e, layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few jobs of each kind, for the self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "spiderweb", "__init__.py")):
        fail("no spiderweb sources under ./src; run from the repository root", 2)
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as exc:
        fail("cannot read BENCHMARK.json: %s" % exc, 2)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)
    os.makedirs(OUT, exist_ok=True)

    info = run_info()
    env = child_env()
    start = time.monotonic()
    rounds = []
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        elapsed = time.monotonic() - start
        rounds.append(run_round(args, traced, env, RUN_LIMIT_S - elapsed))
        elapsed = time.monotonic() - start
        enough = len(rounds) >= (2 if args.trace else 1)
        if enough and elapsed + rounds[-1]["round_s"] > args.seconds:
            break

    failures = [f for r in rounds for f in r["failures"]]
    for key in ("inputs_digest", "answers_digest"):
        digests = {r[key] for r in rounds}
        if len(digests) > 1:
            failures.append({"job": "all", "error": "rounds disagree on %s: %s"
                             % (key, sorted(digests))})
    attempted = sum(len(r["jobs"]) for r in rounds)
    per_job, e2e, layers = summarize(rounds, bench)
    tail = job_tail(per_job)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("workload %s  seed %d  rounds %d (%d traced)  jobs %d per round"
          % (args.workload, args.seed, len(rounds),
             sum(r["traced"] for r in rounds), len(per_job)))
    for name, value in e2e.items():
        print("  %-14s %12.6f %s" % (name, value, units[name]))
    if tail:
        print("  %-14s %12.6f s  (p%d, %d of %d jobs beyond)"
              % ("job_tail_s", tail[1], tail[0], tail[2], len(per_job)))
    else:
        print("  %-14s %12s    (fewer than 20 jobs)" % ("job_tail_s", "undefined"))
    print("  %-14s %12.6f ratio  (%d of %d jobs failed)"
          % ("error_rate", len(failures) / attempted, len(failures), attempted))
    print("  inputs %s  answers %s"
          % (rounds[0]["inputs_digest"], rounds[0]["answers_digest"]))
    for f in failures[:10]:
        print("  FAILED %s: %s" % (f["job"], f["error"]))
    if layers:
        absent = sorted(n for n, v in layers.items() if n.endswith(".calls") and not v)
        print("  layer spans that never fired: %s" % (", ".join(absent) or "none"))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "info": info,
        "inputs_digest": rounds[0]["inputs_digest"],
        "answers_digest": rounds[0]["answers_digest"],
        "metrics": e2e, "layers": layers,
        "job_tail": tail and {"percentile": tail[0], "value": tail[1],
                              "jobs_beyond": tail[2], "jobs": len(per_job)},
        "error_rate": len(failures) / attempted, "failures": failures,
        "jobs": dict(zip(rounds[0]["jobs"], per_job)),
        "rounds": [{k: v for k, v in r.items() if k not in ("jobs", "layers")}
                   for r in rounds],
    }
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)

    metrics = layers if args.trace else e2e
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
