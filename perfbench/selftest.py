#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Each corruption, applied to the program's outputs just before they are
checked, must make a run report failed operations. Then two traced runs
of one seed must print the same counts, and neither may fail its
reconciliation of layer self-times.

    python3 perfbench/selftest.py

Run from the repository root; exits 1 if a corruption goes unnoticed,
a count differs or a traced run fails an operation.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (corruption, workload): the solver-output corruptions run on the
# paper's instances, the dropped delta on the serve daemon.
CASES = [
    ("out-of-range", "paper-sweep"),
    ("over-budget", "paper-sweep"),
    ("perturb-load", "paper-sweep"),
    ("out-of-range", "city-plan"),
    ("drop-delta", "serve-city"),
]

# Traced workloads whose counts are compared between two runs: between
# them they move every counter. Units that are not counts of work
# done, and the settle sample count (it grows with the passes a run
# makes in its time), are not compared.
TRACED = ["serve-city", "paper-sweep"]
COUNT_UNITS = {"count", "words", "bytes", "ratio"}
NOT_REPEATED = {"serve.settle_samples"}


def run(*args):
    return subprocess.run(
        ["python3", "perfbench/run.py", "--seed", "1", "--seconds", "1",
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900)


def counts(workload):
    out = run("--workload", workload, "--trace", "1")
    r = json.loads(out.stdout.strip().splitlines()[-1])
    return r, {k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] in COUNT_UNITS and k not in NOT_REPEATED}


def main():
    ok = True
    for kind, workload in CASES:
        out = run("--workload", workload, "--trace", "0", "--corrupt", kind)
        first = next((l for l in out.stderr.splitlines()
                      if l.startswith("perfbench:")), "")
        r = json.loads(out.stdout.strip().splitlines()[-1])
        caught = out.returncode == 0 and r["failed"] > 0 and not r["correct"]
        ok = ok and caught
        print(f"{kind:<14} {workload:<12} failed {r['failed']:>5} of "
              f"{r['attempted']:<6} {'caught' if caught else 'MISSED'}  "
              f"{first}")
    for workload in TRACED:
        (r1, c1), (r2, c2) = counts(workload), counts(workload)
        differ = sorted(k for k in c1 if c1[k] != c2.get(k))
        clean = r1["failed"] == 0 and r2["failed"] == 0
        ok = ok and clean and not differ
        print(f"traced twice   {workload:<12} {len(c1)} counts, "
              f"{'all repeat' if not differ else 'DIFFER: ' + ', '.join(differ)}"
              f"{'' if clean else ', FAILED operations'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
