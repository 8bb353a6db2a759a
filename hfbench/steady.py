#!/usr/bin/env python3
"""Steadiness check for the hfbench benchmark.

Runs two sets of runs of each workload on the same build (a fresh seed
for every run) and prints, for each set, every end-to-end metric's median
and quartiles. It labels each set's spread (Q3 - Q1 over the median)
"steady" within a third of the metric's bound in BENCHMARK.json, "noisy"
within the bound and "WIDE" beyond it, and reports whether a later set's
median differs from the first's, in either direction, by more than the
bound. Set-up time's spread is printed but not judged: a run takes its
set-up only five times, so its quartiles across runs are far less
settled than those of figures made from many operations; its set-to-set
agreement is judged like every other metric's.

Run from the repository root:

    python3 hfbench/steady.py                  # 2 sets x 5 runs, all workloads
    python3 hfbench/steady.py --runs 10 --workloads serve_mix paper_grid

Exits non-zero when a run fails, a spread is WIDE or the sets disagree.
Raw results go to hfbench/out/steady.jsonl, one line per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    ap.add_argument("--sets", type=int, default=2, help="sets of runs (default 2)")
    ap.add_argument("--workloads", nargs="*", help="subset of workloads")
    ap.add_argument("--first-seed", type=int, default=1, help="seed of the first run")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = load_spec(root)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    os.makedirs(os.path.join(root, "hfbench", "out"), exist_ok=True)
    log = open(os.path.join(root, "hfbench", "out", "steady.jsonl"), "a")

    all_ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            results = []
            for _ in range(args.runs):
                res = run_once(root, spec, workload, seed)
                log.write(json.dumps({"workload": workload, "set": s, "seed": seed, "result": res}) + "\n")
                log.flush()
                seed += 1
                if not res["correct"]:
                    all_ok = False
                results.append(res)
            sets.append(results)
        print(f"== {workload}")
        for s, results in enumerate(sets):
            shares = {r["failed"] / r["attempted"] for r in results}
            print(f"  set {s}: failed share {sorted(shares)}")
        print(f"  {'metric':<18} {'set':>3} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                if name == "setup_s":
                    label = "exempt"
                elif spread <= bound / 3:
                    label = "steady"
                elif spread <= bound:
                    label = "noisy"
                else:
                    label = "WIDE"
                    all_ok = False
                print(f"  {name:<18} {s:>3} {q1:>14.6g} {med:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6} {label}")
            for s in range(1, len(medians)):
                change = (medians[s] - medians[0]) / medians[0]
                agree = abs(change) <= bound
                all_ok &= agree
                print(f"  {name:<18} set {s} vs set 0: {change:+.4f} ({'agrees' if agree else 'DISAGREES'})")
    print("sets agree within the bounds" if all_ok else "NOT within the bounds")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
