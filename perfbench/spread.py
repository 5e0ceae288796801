#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload scan-large --seeds 1-10 [--seconds 10]

Runs the benchmark once per seed (through run.py, untraced) and prints,
for every end-to-end metric, its median and the distance between the
first and third quartile as a share of the median, beside the bound
BENCHMARK.json gives it.  Run it from the root of a source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds_of(args.seeds):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %d: incorrect result %s" % (seed, lines[-1]))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    print("%-20s %12s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        print("%-20s %12.4f %10.4f %8.2f" % (name, med, (q[2] - q[0]) / med, bounds[name]))


if __name__ == "__main__":
    main()
