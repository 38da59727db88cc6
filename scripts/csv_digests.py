#!/usr/bin/env python3
"""Print, check or record sha256 digests of the CSVs a small run matrix writes.

    python3 scripts/csv_digests.py > digests.txt
    python3 scripts/csv_digests.py --check
    python3 scripts/csv_digests.py --record

Runs ``underlay-ppo run`` in process (``underlay_ppo.cli.main``) in a
temporary directory:

- the experiments custom, ex1 and ex2 under each of the three modes, with
  seeds 1 and 4, 4 iterations, batch 40 and 20-step episodes;
- then two cells of the paper profile (batch 500, 500-step episodes), seed 5:
  custom under coexist_dist for 3 iterations, and ex1 (K = 4 + 8) under
  centralized_full_csi for 2, under ``paper/``.

Prints one ``sha256  <cell>/<file>`` line per ``seed_*.csv``,
``aggregate.csv`` and ``config_used.txt``, where a cell is
``<experiment>/<mode>`` or ``paper/<experiment>/<mode>``; a run records no
output directory, so no digest depends on where the temporary directory is.
It imports the package from the ``src/`` next to this script, so each
checkout measures its own code.

``tests/csv_digests.json`` holds these lines, and the digests of the 3-seed
desk run's ``seed_{1,4,7}.csv`` and ``aggregate.csv`` (``desk_lines``), per
build: the numpy version and the OpenBLAS configuration string, because
another BLAS kernel may round differently. ``--check`` compares this
checkout's lines with the file and names the first differing file; the
tests compare both sets with it. ``--record`` computes both sets and writes
them as this build's entry. A change that must not alter results leaves the
file as it is.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from underlay_ppo import blas, harness  # noqa: E402
from underlay_ppo.cli import main as cli_main  # noqa: E402
from underlay_ppo.ppo import MODES  # noqa: E402

EXPERIMENTS = ("custom", "ex1", "ex2")
SETTINGS = ("iters=4", "batch=40", "episode_len=20")
# (experiment, mode, iters) of the paper-profile cells
PAPER_CELLS = (("custom", "coexist_dist", 3), ("ex1", "centralized_full_csi", 2))
RECORD = ROOT / "tests" / "csv_digests.json"
RECORD_COMMAND = "python3 scripts/csv_digests.py --record"


def cells():
    """(cell directory, run arguments) of every run, in output order."""
    for experiment in EXPERIMENTS:
        for mode in MODES:
            argv = ["--experiment", experiment, "--mode", mode, "--seeds", "1,4"]
            for setting in SETTINGS:
                argv += ["--set", setting]
            yield f"{experiment}/{mode}", argv
    for experiment, mode, iters in PAPER_CELLS:
        yield f"paper/{experiment}/{mode}", [
            "--experiment", experiment, "--mode", mode, "--profile", "paper",
            "--seeds", "5", "--set", f"iters={iters}"]


def file_lines(root: Path, files) -> list[str]:
    """One ``sha256  <path relative to root>`` line per file."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(root).as_posix()}" for path in files]


def digest_lines(root: Path) -> list[str]:
    """Run the matrix under ``root``; one digest line per file."""
    lines = []
    for cell, args in cells():
        out = root / cell
        status = cli_main(["run", *args, "--out", str(out), "--quiet"])
        if status != 0:
            raise SystemExit(f"{out}: exit status {status}")
        lines += file_lines(root, sorted(out.glob("seed_*.csv")) + [
            out / "aggregate.csv", out / "config_used.txt"])
    return lines


def desk_lines(out: Path, seeds) -> list[str]:
    """The digest lines of a finished desk run's seed CSVs and aggregate in
    ``out``, as the acceptance tests run it (``seeds`` in order)."""
    return file_lines(out, [out / f"seed_{seed}.csv" for seed in seeds] + [out / "aggregate.csv"])


def run_desk(out: Path) -> list[str]:
    """Run the 3-seed desk profile into ``out``; its ``desk_lines``."""
    cfg = harness.build_config(None, [("profile", "desk"), ("out", str(out))])
    if harness.run_experiment(cfg) != 0:
        raise SystemExit(f"{out}: the desk run failed")
    return desk_lines(out, cfg.seeds)


def build_key() -> str:
    """This build's key in the record: numpy's version and its OpenBLAS's
    configuration string, which names the CPU kernel it picked at run time."""
    return f"numpy {np.__version__}; {blas.openblas_config() or 'no bundled OpenBLAS'}"


def recorded(part: str) -> list[str]:
    """This build's recorded ``matrix`` or ``desk`` lines; raises LookupError,
    naming the command that records them, for a build with no entry."""
    builds = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
    if build_key() not in builds:
        raise LookupError(f"{RECORD.name} holds no digests for this build ({build_key()}); "
                          f"record them with: {RECORD_COMMAND}")
    return builds[build_key()][part]


def first_difference(got: list[str], want: list[str]) -> str | None:
    """The file of the first line where ``got`` and ``want`` differ, or None."""
    for line, other in zip(got, want):
        if line != other:
            return line.split("  ")[1]
    if len(got) != len(want):
        return f"line {min(len(got), len(want)) + 1} (the counts differ: {len(got)}, {len(want)})"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--check", action="store_true",
                        help=f"compare the lines with this build's entry in {RECORD.name}")
    action.add_argument("--record", action="store_true",
                        help=f"write this build's entry in {RECORD.name} (also runs the desk run)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp))
        desk = run_desk(Path(tmp) / "desk") if args.record else None
    if args.check:
        try:
            differs = first_difference(lines, recorded("matrix"))
        except LookupError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(f"first differing file: {differs}" if differs else
              f"all {len(lines)} digests equal the record of {build_key()}")
        return 1 if differs else 0
    if args.record:
        builds = json.loads(RECORD.read_text(encoding="utf-8")) if RECORD.exists() else {}
        builds[build_key()] = {"matrix": lines, "desk": desk}
        RECORD.write_text(json.dumps(builds, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(lines)} + {len(desk)} digests for {build_key()} in {RECORD}")
        return 0
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
