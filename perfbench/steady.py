#!/usr/bin/env python3
"""Steadiness report: run one workload N times, each with another seed,
and print for every end-to-end metric its median, quartiles and spread
(Q3 - Q1 as a share of the median) against the metric's bound from
BENCHMARK.json.

    python3 perfbench/steady.py --workload join-update --runs 10 [--first-seed 1]

Run from the repository root.  Each run measures BENCHMARK.json's
run_seconds.  A spread above a third of the bound is flagged "wide",
above the bound "FAIL"; any FAIL, failed op or wrong answer makes the
exit code 1.  Per-run results are appended to
.perfbench_run/steady-<workload>.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    os.makedirs(".perfbench_run", exist_ok=True)
    log = open(os.path.join(".perfbench_run", "steady-%s.jsonl" % args.workload), "a")
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print("run %d (seed %d) exited %d" % (i + 1, seed, out.returncode))
            sys.exit(1)
        meta = next((l[5:] for l in lines if l.startswith("meta ")), "{}")
        result = json.loads(lines[-1])
        log.write(json.dumps({"seed": seed, "meta": json.loads(meta), "result": result}) + "\n")
        log.flush()
        if not result["correct"] or result["failed"]:
            ok = False
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: correct=%s failed=%d/%d steal=%.3f  %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            json.loads(meta).get("steal_share", 0.0),
            " ".join("%s=%.4g" % (n, result["metrics"][n]["value"]) for n in values)))
    print("%-18s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]
        flag = "FAIL" if spread > bound else ("wide" if spread > bound / 3 else "ok")
        ok = ok and spread <= bound
        print("%-18s %12.5g %12.5g %12.5g %8.3f %6.2f %s" % (name, med, q1, q3, spread, bound, flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
