#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1] [--raw]

Runs BENCHMARK.json's command once per seed and workload, one run at a
time, and prints per metric the median, the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), and the bound
from BENCHMARK.json; a spread above a third of its bound is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw", action="store_true", help="also print every run's value")
    args = parser.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    status = 0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed",
                      file=sys.stderr)
                status = 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}  ({args.seeds} seeds from {args.first_seed}, {args.seconds:g} s)")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = m.get("bound")
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag = "  above bound/3" if spread <= bound else "  ABOVE BOUND"
            print(f"  {m['name']:<40} median {med:<12.6g} spread {spread:7.3f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
            if args.raw:
                print("    " + " ".join(f"{v:.4g}" for v in vals))
        sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())
