#!/usr/bin/env python3
"""Benchmark entry point: build the server and the benchmark program from source,
then run one workload.

    python3 perfbench/run.py --workload point-lookup --seed 1 --seconds 20 --trace 0

Run from the repository root.  The server flags come from
perfbench/spec.json: the common ones, then the workload's own.  Everything the run writes stays under
.perfbench_run/ (and dune's _build/).  The last line of standard output
is the result object.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SERVER = "_build/default/bin/obda_server.exe"
PROGRAM = "_build/default/perfbench/perfbench.exe"


def main():
    os.chdir(ROOT)
    if not os.path.exists("dune-project") or not os.path.exists("bin/obda_server.ml"):
        sys.exit("perfbench: run from a checkout of the repository (no dune-project or server source here)")
    # no shared dune cache: the build writes only under _build/
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "bin/obda_server.exe", "perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    argv = sys.argv[1:]
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else ""
    flags = " ".join([spec["server_flags"], spec["workload_flags"].get(workload, "")]).strip()
    args = [PROGRAM, "--server", SERVER, "--server-flags", flags] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(PROGRAM, args)


if __name__ == "__main__":
    main()
