#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median and the distance between the first and third
quartiles (Python's statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py --workloads ask etl stream --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workloads stream --seeds 1 2 3 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{proc.stdout[-2000:]}")
    return wall, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    opts = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in opts.workloads:
        walls, runs = zip(*[run_once(bench["command"], workload, seed, bench["run_seconds"],
                                      opts.trace)
                             for seed in opts.seeds])
        print(f"== {workload} ({len(runs)} seeds, run wall time median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            share = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or share < bound / 3 else "  <-- above a third of its bound"
            print(f"  {name:<36} median {med:<14.6g} spread {share:7.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
            print(f"    values {[round(v, 6) for v in values]}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
