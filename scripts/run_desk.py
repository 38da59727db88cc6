#!/usr/bin/env python
"""Quick desk-scale sweep: both user-count presets, distributed controllers.

Writes results under results/desk/<experiment>/ and prints final-window
summaries. Finishes in minutes; use run_full_sweep.py for the long schedule.
Exits as ``underlay-ppo run`` does: 2 on a configuration error (existing
results without --force, for one), 1 on a training failure.
"""
import argparse
import sys

from underlay_ppo.harness import (
    ConfigError,
    build_config,
    format_summary,
    run_experiment,
    summarize_dir,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="1,4,7")
    ap.add_argument("--out-root", default="results/desk")
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()
    try:
        return _sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sweep(args) -> int:
    for experiment in ("ex1", "ex2"):
        out = f"{args.out_root}/{experiment}"
        overrides = [
            ("experiment", experiment),
            ("profile", "desk"),
            ("mode", "coexist_dist"),
            ("seeds", args.seeds),
            ("out", out),
        ]
        if args.force:
            overrides.append(("force", "true"))
        cfg = build_config(None, overrides)
        status = run_experiment(cfg, verbose=True)
        if status != 0:
            return status
        print(f"\n== {experiment} ==")
        print(format_summary(summarize_dir(out, window=0.1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
