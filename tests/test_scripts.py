"""The sweep scripts load against the current package and handle their cells.

Importing each script as a module checks that every package name it imports
still exists. The sweep scripts' ``main`` runs with ``run_experiment``
stubbed or stopped before training, so nothing trains. ``csv_digests`` is
also run through its ``digest_lines``, the byte-identity check refactors
rest on.
"""
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from underlay_ppo import harness

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_import(monkeypatch):
    # csv_digests puts its checkout's src/ on sys.path; keep that local
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("run_desk", "run_full_sweep", "csv_digests"):
        assert callable(_load(name).main), name


def test_csv_digests_are_stable(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    module = _load("csv_digests")
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        runs.append(module.digest_lines())
    assert runs[0] == runs[1]
    assert len(runs[0]) == 36
    digests, paths = zip(*(line.split("  ") for line in runs[0]))
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
    assert set(paths) == {f"{e}/{m}/{f}" for e in module.EXPERIMENTS for m in module.MODES
                          for f in ("seed_1.csv", "seed_4.csv", "aggregate.csv",
                                    "config_used.txt")}


def _run_main(monkeypatch, module, *args):
    monkeypatch.setattr(sys, "argv", [f"{module.__name__}.py", *args])
    return module.main()


def test_full_sweep_reruns_a_partial_cell_and_skips_a_finished_one(
        monkeypatch, tmp_path, capsys):
    module = _load("run_full_sweep")
    ran = []
    monkeypatch.setattr(module, "run_experiment",
                        lambda cfg, verbose=False: ran.append((cfg.mode, cfg.force)) or 0)
    partial, finished = (tmp_path / "ex1" / mode for mode in module.MODES[:2])
    partial.mkdir(parents=True)
    (partial / "seed_1.csv").write_text("interrupted\n")
    finished.mkdir(parents=True)
    (finished / "aggregate.csv").write_text("done\n")
    assert _run_main(monkeypatch, module, "--out-root", str(tmp_path), "--experiments",
                     "ex1") == 0
    # the partial cell runs with force, the finished one not at all, a fresh one unforced
    assert ran == [(module.MODES[0], True), (module.MODES[2], False)]
    assert f"skipping {finished}" in capsys.readouterr().err


def test_full_sweep_config_error_exits_2(monkeypatch, tmp_path, capsys):
    module = _load("run_full_sweep")
    monkeypatch.setattr(module, "run_experiment", pytest.fail)
    assert _run_main(monkeypatch, module, "--out-root", str(tmp_path), "--seeds", "1,x") == 2
    assert capsys.readouterr().err.startswith("error: command line: malformed value")


def test_run_desk_over_existing_results_exits_2(monkeypatch, tmp_path, capsys):
    module = _load("run_desk")
    monkeypatch.setattr(harness, "train", pytest.fail)
    (tmp_path / "ex1").mkdir()
    (tmp_path / "ex1" / "seed_1.csv").write_text("earlier\n")
    assert _run_main(monkeypatch, module, "--out-root", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pass --force to overwrite" in err
