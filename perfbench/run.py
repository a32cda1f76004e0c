#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve-churn --seed 42 --seconds 10 --trace 0

Workloads: serve-churn, kv-hot-write, traverse, or all (the three in
one process). --trace 1 gives the per-layer metrics instead of the
end-to-end ones. --selftest runs the oracle self-test. The last line
of standard output is the JSON result; build output goes to stderr.
"""

import argparse
import os
import subprocess
import sys

HARNESS = os.path.join("_build", "default", "perfbench", "harness.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(
        os.path.join(root, "lib")
    ):
        print("run.py: run from the repository root (no dune-project or lib/ here)", file=sys.stderr)
        return 2

    # Keep every build artefact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/harness.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    if a.selftest:
        cmd = [HARNESS, "--selftest"]
    else:
        cmd = [
            HARNESS,
            "--workload", a.workload,
            "--seed", str(a.seed),
            "--seconds", str(a.seconds),
            "--trace", str(a.trace),
        ]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: harness timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
