#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale (a few hundred tuples, two
seconds a window): every workload, untraced and traced, must exit 0,
end with a well-formed result line naming every metric of
BENCHMARK.json with its unit, and fail no op.  It also checks that
perfbench/spec.json states server flags for every workload and predicts
a moving end-to-end metric and workload for every per-layer metric.

    python3 perfbench/smoke_test.py

Run from the repository root; takes about half a minute.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open("perfbench/spec.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    preds = spec["layer_predictions"]
    check(set(spec["workload_flags"]) == set(workloads), "workload_flags must name every workload")
    check(set(preds) == set(layers), "layer_predictions must cover exactly the per_layer metrics")
    for name, p in preds.items():
        check(set(p["moves"]) <= set(e2e), "%s predicts an unknown metric" % name)
        check(set(p["on"]) | set(p["flat_on"]) <= set(workloads), "%s names an unknown workload" % name)
    for workload in workloads:
        for trace, expected in (("0", e2e), ("1", layers)):
            cmd = bench["command"] + ["--workload", workload, "--seed", "3", "--seconds", "2",
                                      "--trace", trace, "--scale", "tiny"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
            check(out.returncode == 0, "%s trace %s exited %d" % (workload, trace, out.returncode))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s: result keys %s" % (workload, sorted(result)))
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %s: %d of %d ops failed" % (workload, trace, result["failed"],
                                                       result["attempted"]))
            metrics = result["metrics"]
            check(set(metrics) == set(expected),
                  "%s trace %s: metrics differ: %s" % (workload, trace,
                                                      sorted(set(metrics) ^ set(expected))))
            for name, unit in expected.items():
                check(metrics[name]["unit"] == unit, "%s: %s unit %s" % (workload, name, metrics[name]["unit"]))
                check(isinstance(metrics[name]["value"], (int, float)), "%s: %s not a number" % (workload, name))
                if trace == "0":
                    check(metrics[name]["value"] > 0, "%s: %s is 0" % (workload, name))
            print("ok %s trace %s (%d ops)" % (workload, trace, result["attempted"]))
    print("smoke test passed")


if __name__ == "__main__":
    main()
