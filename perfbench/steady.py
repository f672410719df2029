"""Steadiness check: run each workload k times, one seed per run, and
report every metric's median, quartiles and spread (Q3 - Q1) / median.

    python3 perfbench/steady.py --runs 10

Run from the repository root.  Each run is an untraced
``perfbench/run.py`` of a workload of BENCHMARK.json with its
run_seconds, seeds 1..k, and its report (every metric by name and unit,
job_tail_s and error_rate included) is printed as it ends, so
``--runs 1`` runs every workload once with one command.

An end-to-end metric whose spread exceeds its bound is flagged; setup_s
is flagged too but does not fail the check, since only its median is
compared between commits.  The table is also written to
.perfbench/steady.json.  Exits 1 when a run fails or a gated
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    table, bad = {}, False
    for name in [w["name"] for w in bench["workloads"]]:
        values = {}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                print("%s seed %d: run failed (exit %d)"
                      % (name, seed, proc.returncode))
                bad = True
                continue
            for metric, m in json.loads(lines[-1])["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        table[name] = {}
        for metric, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3, s = spread(vals)
            bound = bounds.get(metric)
            flag = bound is not None and s > bound
            if flag and metric != "setup_s":
                bad = True
            table[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                   "spread": s, "bound": bound,
                                   "flagged": flag, "values": vals}
            print("%-10s %-14s median %12.6f  q1 %12.6f  q3 %12.6f  "
                  "spread %6.3f  bound %s%s"
                  % (name, metric, med, q1, q3, s, bound,
                     "  FLAGGED" if flag else ""), flush=True)
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "steady.json"), "w") as f:
        json.dump(table, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
