"""The sweep scripts load against the current package.

No test runs the scripts' ``main``; importing each one as a module checks
that every package name it imports still exists. ``csv_digests`` is also run
through its ``digest_lines``, the byte-identity check refactors rest on.
"""
import importlib.util
import re
import sys
from pathlib import Path

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
