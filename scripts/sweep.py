#!/usr/bin/env python
"""Evaluation grid of one profile: experiment presets x controller modes.

    python scripts/sweep.py --profile desk
    python scripts/sweep.py --profile paper --experiments ex1 --seeds 1,4,7

Each (experiment, mode) cell trains the seed list into
<out-root>/<experiment>/<mode>/, where out-root defaults to
results/<profile>, and prints its final-window summary. A desk cell takes
about 20 s, a paper cell hours. A cell with an ``aggregate.csv`` is
finished and skipped unless --force is given, but only if its
``config_used.txt`` records the configuration this sweep would run; a cell
with seed files but no ``aggregate.csv`` was interrupted and is rerun over
its partial files, which a rerun rewrites byte for byte. Exits as
``underlay-ppo run`` does: 2 on a configuration error, 1 on a training
failure.
"""
import argparse
import sys
from pathlib import Path

from underlay_ppo.harness import (
    PROFILES,
    ConfigError,
    build_config,
    format_summary,
    run_experiment,
    summarize_dir,
)
from underlay_ppo.ppo import MODES


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--profile", required=True,
                    help=f"training scale preset: {', '.join(PROFILES)}")
    ap.add_argument(
        "--experiments", default="ex1,ex2", help="comma-separated preset names"
    )
    ap.add_argument("--seeds", help="comma-separated seed list (default: as for run)")
    ap.add_argument("--out-root", help="results root (default results/<profile>)")
    ap.add_argument("--force", action="store_true", help="retrain finished cells")
    args = ap.parse_args()
    try:
        return _sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _sweep(args) -> int:
    root = Path(args.out_root or f"results/{args.profile}")
    for experiment in args.experiments.split(","):
        for mode in MODES:
            out = root / experiment / mode
            overrides = [
                ("experiment", experiment),
                ("profile", args.profile),
                ("mode", mode),
                ("out", str(out)),
            ]
            if args.seeds is not None:
                overrides.append(("seeds", args.seeds))
            cfg = build_config(None, overrides)
            if (out / "aggregate.csv").exists() and not args.force:
                _check_record(out, cfg)
                print(f"skipping {out} (already done)", file=sys.stderr)
                continue
            print(f"running {experiment} / {mode} -> {out}", file=sys.stderr)
            force = args.force or any(out.glob("seed_*.csv"))
            status = run_experiment(cfg, force=force, verbose=True)
            if status != 0:
                return status
            print(f"\n== {experiment} / {mode} ==")
            print(format_summary(summarize_dir(out)))
    return 0


def _check_record(out: Path, cfg) -> None:
    """Refuse to skip a finished cell whose record differs from ``cfg``."""
    try:
        recorded = dict(build_config(out / "config_used.txt").settings)
    except ConfigError as exc:
        raise ConfigError(
            f"{out} is finished, but its record does not parse ({exc}); "
            "pass --force to retrain it"
        ) from None
    for key, value in cfg.settings:
        if recorded[key] != value:
            raise ConfigError(
                f"{out} is finished with {key}={recorded[key]}, not {key}={value}; "
                "pass --force to retrain it"
            )


if __name__ == "__main__":
    sys.exit(main())
