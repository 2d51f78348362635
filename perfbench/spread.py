#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread on one or more workloads.

    python3 perfbench/spread.py --workload ycsb-cold [--workload ...]
                                [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed (from the root of a checkout) and, for
every end-to-end metric in BENCHMARK.json, prints its median, its quartiles
as statistics.quantiles(values, n=4) gives them, and the spread: the
distance between the quartiles as a share of the median. A spread above the
metric's bound (setup_s excepted) makes the exit code non-zero; the
benchmark aims to keep every spread below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    worst = 0.0
    ok = True
    for workload in args.workload:
        values = {m["name"]: [] for m in metrics}
        for seed in parse_seeds(args.seeds):
            start = time.monotonic()
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {out.returncode})")
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = [l[2:] for l in lines if l.startswith("# host:")]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s, "
                  f"failed {result['failed']} of {result['attempted']}; "
                  f"{' '.join(host)}\n    " +
                  " ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
                  flush=True)
        print(f"\n{workload}: {'metric':22s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                if spread > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif spread > m["bound"] / 3:
                    flag = "  over a third"
            print(f"{workload}: {m['name']:22s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.3f} {m['bound']:6.2f}{flag}")
        print()
    print(f"largest spread / bound (setup_s excepted): {worst:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
