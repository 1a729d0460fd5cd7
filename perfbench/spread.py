#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed,
and print each metric's median and spread (interquartile distance as a
share of the median, as statistics.quantiles(values, n=4) gives it).

Run from the repository root:

    python3 perfbench/spread.py --workloads clean_full,serve_jobs --runs 10

Results are also written as JSON to --out (default: stdout only).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    print(f"{workload:<18} seed {seed:<6} ran {elapsed:6.1f} s", flush=True)
    return result["metrics"]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    args = p.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            metrics = run_once(workload, args.first_seed + i, args.seconds, args.trace)
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
        report[workload] = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            spread = None
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            report[workload][name] = {"median": med, "spread": spread, "values": vs}
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"{workload:<18} {name:<28} median {med:>14.4f}  spread {shown}  "
                  f"values {[round(v, 4) for v in vs]}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
