"""Command-line entry point.

Two subcommands: ``run`` trains a seed sweep and writes CSV metrics,
``summarize`` prints final-window means from a results directory.
Configuration errors exit with status 2, training failures with 1.
"""
from __future__ import annotations

import argparse
import sys

from .harness import (
    EXPERIMENTS,
    PROFILES,
    SUMMARY_WINDOW,
    ConfigError,
    build_config,
    format_summary,
    run_experiment,
    summarize_dir,
)
from .ppo import MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="underlay-ppo",
        description="PPO power control for spectrum-sharing link pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train a seed sweep and write CSV metrics")
    # the harness checks these values, as it checks --set and config lines
    run.add_argument("--experiment", help=f"user-count preset: {', '.join(EXPERIMENTS)}")
    run.add_argument("--mode", help=f"controller architecture: {', '.join(MODES)}")
    run.add_argument("--profile", help=f"training scale preset: {', '.join(PROFILES)}")
    run.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    run.add_argument("--config", help="flat key=value config file")
    run.add_argument("--out", help="output directory for CSV results")
    run.add_argument(
        "--set",
        dest="assignments",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    run.add_argument(
        "--force", action="store_true", help="overwrite existing results"
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress per-seed progress lines"
    )

    summ = sub.add_parser("summarize", help="print final-window metric means")
    summ.add_argument("--dir", required=True, help="results directory to read")
    summ.add_argument(
        "--window",
        type=float,
        default=SUMMARY_WINDOW,
        help="fraction of final iterations to average (default %(default)s)",
    )
    return parser


def _collect_overrides(args) -> list[tuple[str, str]]:
    overrides: list[tuple[str, str]] = []
    for key in ("experiment", "mode", "profile", "seeds", "out"):
        value = getattr(args, key)
        if value is not None:
            overrides.append((key, value))
    for assignment in args.assignments:
        key, sep, value = assignment.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        overrides.append((key.strip(), value.strip()))
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = build_config(args.config, _collect_overrides(args))
            return run_experiment(cfg, force=args.force, verbose=not args.quiet)
        summary = summarize_dir(args.dir, args.window)
        print(format_summary(summary))
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
