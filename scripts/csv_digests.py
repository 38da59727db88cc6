#!/usr/bin/env python3
"""Print sha256 digests of the CSVs a small run matrix writes.

    python3 scripts/csv_digests.py > digests.txt

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
A change that must not alter results leaves this output byte-identical: run
the script on both checkouts and diff the two outputs. It imports the package
from the ``src/`` next to this script, so each checkout measures its own code.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from underlay_ppo.cli import main as cli_main  # noqa: E402
from underlay_ppo.ppo import MODES  # noqa: E402

EXPERIMENTS = ("custom", "ex1", "ex2")
SETTINGS = ("iters=4", "batch=40", "episode_len=20")
# (experiment, mode, iters) of the paper-profile cells
PAPER_CELLS = (("custom", "coexist_dist", 3), ("ex1", "centralized_full_csi", 2))


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


def digest_lines(root: Path) -> list[str]:
    """Run the matrix under ``root``; one digest line per file."""
    lines = []
    for cell, args in cells():
        out = root / cell
        status = cli_main(["run", *args, "--out", str(out), "--quiet"])
        if status != 0:
            raise SystemExit(f"{out}: exit status {status}")
        files = sorted(out.glob("seed_*.csv")) + [
            out / "aggregate.csv", out / "config_used.txt"]
        for path in files:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp))
    print(*lines, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
