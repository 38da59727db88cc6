"""The sweep scripts load against the current package.

No test runs the scripts' ``main``; importing each one as a module checks
that every package name it imports still exists.
"""
import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_import(monkeypatch):
    # csv_digests puts its checkout's src/ on sys.path; keep that local
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("run_desk", "run_full_sweep", "csv_digests"):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), name
