#!/usr/bin/env python3
"""Builds the benchmark from source and runs one invocation of it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build; chain directories and traced runs' spans go to
.perfbench. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build,
the self-tests, or the run (including its correctness gate) fail.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def run_step(cmd, timeout=None, stdout=None):
    """Runs cmd to completion (killing it on timeout); returns (rc, stdout)."""
    proc = subprocess.Popen(cmd, stdout=stdout or sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run_step(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        if rc != 0:
            return False
    rc, _ = run_step(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1), "--target", "perfbench",
                      "perfbench_selftest"])
    return rc == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    rc, _ = run_step([os.path.join(build_dir, "perfbench_selftest")],
                     timeout=60)
    if rc != 0:
        print("perfbench: self-tests failed", file=sys.stderr)
        return 1

    try:
        rc, out = run_step(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", os.path.join(root, ".perfbench")],
            timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if rc != 0:
        # The reason is on stderr; the partial report is not a result.
        print(f"perfbench: run failed (exit {rc})", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
