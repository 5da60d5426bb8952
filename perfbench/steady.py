#!/usr/bin/env python3
"""Steadiness report: run workloads k times, each with another seed, and
print for every metric its median, quartiles, quartile spread and
(max - min) as shares of the median.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]
                                [--first-seed 1] [--trace 0]

Each run measures for run.py's default, the run_seconds of BENCHMARK.json.
Quartiles are Python's statistics.quantiles(values, n=4).  The raw result
lines go to --out (JSON lines) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          cwd=BENCH_DIR.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    prov = next((json.loads(l)["provenance"] for l in lines
                 if l.startswith('{"provenance"')), None)
    return prov, json.loads(lines[-1])


def report(workload, results):
    print(f"\n{workload}: {len(results)} runs, "
          f"{sum(not r['correct'] for r in results)} incorrect, "
          f"{sum(r['failed'] for r in results)}/"
          f"{sum(r['attempted'] for r in results)} operations failed")
    print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s} {'rng/med':>8s}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 \
            else (vals[0],) * 3
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(vals) - min(vals)) / med if med else float("nan")
        print(f"  {name + ' [' + unit + ']':28s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {iqr:8.2%} {rng:8.2%}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    out = open(args.out, "a") if args.out else None
    for workload in args.workload or list(WORKLOADS):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            prov, r = run_once(workload, seed, args.trace)
            results.append(r)
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "result": r, "provenance": prov}) +
                          "\n")
                out.flush()
        report(workload, results)
    if out:
        out.close()


if __name__ == "__main__":
    main()
