#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2e_bench/run.py --workload oltp|analytic|wire --seed N \
        --seconds S --trace 0|1

Run from the repository root. The engine (../src) and hdb_e2e are
compiled as an optimized (Release) tree under $CARGO_TARGET_DIR, or
.bench_build when that is unset; the first call builds, later calls only
re-check the build. Build output goes to stderr, so the last line on
stdout is hdb_e2e's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tree = os.path.join(build, "e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2e bench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(tree, "hdb_e2e")
    args = sys.argv[1:] + ["--trace-dir", os.path.join(build, "traces")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
