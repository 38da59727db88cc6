#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/series.py --runs 10 --out perfbench/results/base.jsonl

runs ``perfbench/run.py`` once per seed (1, 2, ...) and workload, rotating
the workload order from seed to seed so slow machine drift spreads over all
workloads. Each run's record is appended to ``--out``. The summary gives,
per workload and metric, the median, the quartiles and the interquartile
spread as a share of the median, against the metric's bound.

To compare a parent and a change, pass both checkouts: ``--checkout
PARENT CHANGE --out parent.jsonl change.jsonl`` alternates which side runs
first at each seed. Then run ``perfbench/compare.py parent.jsonl change.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_records, spread_table

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated subset of " + ",".join(names))
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", type=Path, nargs="+", default=[ROOT],
                        help="repository checkouts to run (default: this one)")
    parser.add_argument("--out", type=Path, nargs="+", required=True,
                        help="one results file per checkout")
    args = parser.parse_args(argv)
    if len(args.out) != len(args.checkout):
        parser.error("give one --out file per --checkout")
    workloads = args.workloads.split(",")

    for i in range(args.runs):
        seed = args.first_seed + i
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        sides = list(zip(args.checkout, args.out))
        if i % 2:
            sides.reverse()
        for name in order:
            for checkout, out in sides:
                cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(out.resolve())]
                done = subprocess.run(cmd, cwd=checkout, capture_output=True,
                                      text=True, timeout=600)
                report = done.stdout.strip().splitlines()
                if done.returncode == 0:
                    report = report[:-1]  # the JSON line is in the results file
                print(f"{checkout}: exit {done.returncode}", *report, sep="\n", flush=True)
                if done.returncode != 0:
                    print(done.stderr[-3000:], file=sys.stderr)
    for out in args.out:
        print(f"\n{out}")
        print(spread_table(load_records(out), contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
