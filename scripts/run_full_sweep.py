#!/usr/bin/env python
"""Long-schedule evaluation grid: both presets, all controller architectures.

Each (experiment, mode) cell trains the full seed list on the "paper"
profile and lands in results/full/<experiment>/<mode>/. Expect hours of
runtime. A cell with an ``aggregate.csv`` is finished and skipped unless
--force is given; a cell with seed files but no ``aggregate.csv`` was
interrupted and is rerun over its partial files, which a rerun rewrites byte
for byte. Exits as ``underlay-ppo run`` does: 2 on a configuration error, 1
on a training failure.
"""
import argparse
import sys
from pathlib import Path

from underlay_ppo.harness import ConfigError, build_config, run_experiment
from underlay_ppo.ppo import MODES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1,4,7")
    ap.add_argument("--out-root", default="results/full")
    ap.add_argument("--force", action="store_true")
    ap.add_argument(
        "--experiments", default="ex1,ex2", help="comma-separated preset names"
    )
    args = ap.parse_args()
    try:
        return _sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sweep(args) -> int:
    for experiment in args.experiments.split(","):
        for mode in MODES:
            out = Path(args.out_root) / experiment / mode
            if (out / "aggregate.csv").exists() and not args.force:
                print(f"skipping {out} (already done)", file=sys.stderr)
                continue
            overrides = [
                ("experiment", experiment),
                ("profile", "paper"),
                ("mode", mode),
                ("seeds", args.seeds),
                ("out", str(out)),
            ]
            if args.force or any(out.glob("seed_*.csv")):
                overrides.append(("force", "true"))
            cfg = build_config(None, overrides)
            print(f"running {experiment} / {mode} -> {out}", file=sys.stderr)
            status = run_experiment(cfg, verbose=True)
            if status != 0:
                return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
