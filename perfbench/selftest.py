"""Self-test of the benchmark: a tiny-size run of every workload.

    python3 perfbench/selftest.py

Run from the repository root.  For each workload it runs run.py untraced
and traced at --size tiny and asserts that
  * the last line has exactly the keys correct, attempted, failed and
    metrics, and every metric BENCHMARK.json names, with its unit;
  * traced and untraced runs saw the same inputs and gave the same answers;
  * every span nests inside its parent and shares its job id;
  * no layer the workload lists as absent fires inside a job.
Finally it checks that run.py exits nonzero without a result in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench"
sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402


def run(workload, trace, cwd="."):
    """Run the copy of run.py that lies under `cwd`."""
    script = os.path.join(os.path.abspath(cwd), os.path.basename(HERE), "run.py")
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"], cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_result(lines, metrics):
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in metrics}
    assert got == want, "metrics differ: %r" % (set(got) ^ set(want))
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def check_spans(path, absent):
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    spans = [(name, float(t0), float(t1), int(parent), job)
             for _i, name, t0, t1, parent, job in rows]
    assert spans, "no spans written"
    for name, t0, t1, parent, job in spans:
        assert t0 <= t1, name
        if parent < 0:
            assert name.startswith("bench."), "unparented span %s" % name
            continue
        pname, p0, p1, _pp, pjob = spans[parent]
        assert p0 <= t0 and t1 <= p1, "%s escapes %s" % (name, pname)
        assert job == pjob, "%s has job %s under %s" % (name, job, pjob)
        if job not in ("setup", "check"):
            assert name.split(".")[0] not in absent, \
                "%s fired in job %s" % (name, job)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        records = []
        for trace in (0, 1):
            code, lines, err = run(name, trace)
            assert code == 0 and lines, "%s trace %d failed:\n%s" % (name, trace, err)
            check_result(lines, bench["per_layer" if trace else "end_to_end"])
            with open(os.path.join(OUT, "%s-seed1-trace%d.json" % (name, trace))) as f:
                records.append(json.load(f))
        for key in ("inputs_digest", "answers_digest"):
            assert records[0][key] == records[1][key], "%s: %s differs" % (name, key)
        check_spans(os.path.join(OUT, "spans-%s.tsv" % name),
                    workloads.SPEC[name]["absent"])
        print("ok  %s" % name)

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _err = run(bench["workloads"][0]["name"], 0, cwd=bare)
    assert code != 0 and not any('"correct"' in line for line in lines)
    shutil.rmtree(bare)
    print("ok  bare directory fails without a result")


if __name__ == "__main__":
    main()
