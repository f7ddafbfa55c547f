#!/usr/bin/env python3
"""Steadiness of the benchmark: run workloads repeatedly, one seed per
run, and print for each end-to-end metric its median, quartiles and
spread (interquartile distance / median) against the metric's bound.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W]...

Run from the repository root. Exits 1 when a spread exceeds its bound,
a run fails, or the share of failed operations differs between runs of
one workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    start = time.monotonic()
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1]), time.monotonic() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        results = []
        for i in range(args.runs):
            r, wall = run_once(spec, w, args.first_seed + i)
            results.append(r)
            print(f"{w} seed {args.first_seed + i} ({wall:.1f} s): " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in r["metrics"].items()),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
        print(f"{w}: failed share {sorted(shares)}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  OVER", False
            elif spread > m["bound"] / 3:
                flag = "  above a third"
            print(f"  {m['name']:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.4f}{m['bound']:>8}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
