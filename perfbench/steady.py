#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly, one seed per run, and
prints for every end-to-end metric its median, quartiles and spread
(inter-quartile distance as a share of the median) against the metric's
bound in BENCHMARK.json.

    python3 perfbench/steady.py                      # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads upsert-ingest
    python3 perfbench/steady.py --first-seed 101     # a second, disjoint set of seeds

A spread is marked "ok" below its bound and "WIDE" otherwise, setup_s
included.  The runs' raw JSON goes to .perfbench_out/steady-<workload>.json.
Exits 1 if any run fails or reports failed operations, or any spread is
wide.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    all_ok = True
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(workload, seed, args.seconds, 0)
            if r is None:
                print(f"{workload}: seed {seed}: run failed")
                all_ok = False
                continue
            results.append(r)
        with open(os.path.join(ROOT, ".perfbench_out", f"steady-{workload}.json"), "w") as f:
            json.dump(results, f, indent=1)
        if len(results) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: {len(results)} runs, correct={correct}, failed share {shares}")
        all_ok = all_ok and correct and shares == [0.0]
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < bound
            all_ok = all_ok and ok
            print(f"  {name:<18} {med:>12.4g} {q1:>12.4g} {q3:>12.4g} {spread:>8.3f} {bound:>6.2f}"
                  f"  {units[name]:<6} {'ok' if ok else 'WIDE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
