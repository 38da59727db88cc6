"""The scripts load against the current package and handle their cells.

Importing each script as a module checks that every package name it imports
still exists. The sweep's ``main`` runs with ``train`` or ``run_experiment``
stubbed, so nothing trains. ``csv_digests`` is also run through its
``digest_lines``, whose output must equal this build's entry in
``tests/csv_digests.json``: the byte-identity check refactors rest on.
"""
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from underlay_ppo import harness, ppo
from underlay_ppo.env import METRIC_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_import(monkeypatch):
    # csv_digests puts its checkout's src/ on sys.path; keep that local
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("sweep", "csv_digests"):
        assert callable(_load(name).main), name


def test_csv_digests_are_stable(monkeypatch, tmp_path):
    # two different absolute roots: no file may record where it was written;
    # the second pass trains with zero workers, so the episodes the update
    # worker draws ahead are compared with those the caller draws itself
    monkeypatch.setattr(sys, "path", list(sys.path))
    module = _load("csv_digests")
    runs = [module.digest_lines(tmp_path / "first")]
    monkeypatch.setattr(ppo, "_update_worker", lambda: None)
    runs.append(module.digest_lines(tmp_path / "second"))
    assert runs[0] == runs[1]
    differs = module.first_difference(runs[0], module.recorded("matrix"))
    assert differs is None, f"first file that differs from the record: {differs}"
    assert len(runs[0]) == 42
    digests, paths = zip(*(line.split("  ") for line in runs[0]))
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
    assert set(paths[:36]) == {f"{e}/{m}/{f}" for e in module.EXPERIMENTS for m in module.MODES
                               for f in ("seed_1.csv", "seed_4.csv", "aggregate.csv",
                                         "config_used.txt")}
    assert paths[36:] == tuple(f"paper/{cell}/{f}"
                               for cell in ("custom/coexist_dist", "ex1/centralized_full_csi")
                               for f in ("seed_5.csv", "aggregate.csv", "config_used.txt"))


def test_csv_digests_name_the_first_differing_file_and_an_unrecorded_build(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    module = _load("csv_digests")
    want = [f"{i:064x}  cell/file_{i}.csv" for i in range(3)]
    assert module.first_difference(want, want) is None
    changed = want[:1] + [f"{9:064x}  cell/file_1.csv"] + want[2:]
    assert module.first_difference(changed, want) == "cell/file_1.csv"
    assert module.first_difference(want[:2], want).startswith("line 3 (the counts differ")
    monkeypatch.setattr(module, "build_key", lambda: "numpy 0; an unrecorded BLAS")
    with pytest.raises(LookupError, match=r"\(numpy 0; an unrecorded BLAS\); record them "
                                          r"with: python3 scripts/csv_digests.py --record$"):
        module.recorded("matrix")


def _run_main(monkeypatch, module, *args):
    monkeypatch.setattr(sys, "argv", [f"{module.__name__}.py", *args])
    return module.main()


def _one_row(*args, **kwargs):
    return [{"iter": 1, **{m: 0.0 for m in METRIC_FIELDS}}]


def _finish(monkeypatch, module, root, *args):
    """Sweep the desk profile into ``root`` with a one-row stub for training."""
    with monkeypatch.context() as patch:
        patch.setattr(harness, "train", _one_row)
        assert _run_main(patch, module, "--profile", "desk", "--out-root", str(root),
                         *args) == 0


def _recording(module, root, ran):
    """run_experiment that records each cell it trains and whether forced."""
    def run(cfg, force=False, verbose=False):
        ran.append((Path(cfg.out_dir).relative_to(root).as_posix(), force))
        return harness.run_experiment(cfg, force, verbose)
    return run


def test_sweep_trains_every_mode_and_skips_finished_cells(monkeypatch, tmp_path, capsys):
    module = _load("sweep")
    _finish(monkeypatch, module, tmp_path, "--experiments", "ex1")
    printed = capsys.readouterr().out
    assert all(f"== ex1 / {mode} ==" in printed for mode in module.MODES)
    ran = []
    monkeypatch.setattr(module, "run_experiment", _recording(module, tmp_path, ran))
    monkeypatch.setattr(harness, "train", _one_row)
    # the default experiments: ex1 finished, so only ex2 trains
    assert _run_main(monkeypatch, module, "--profile", "desk", "--out-root", str(tmp_path)) == 0
    assert ran == [(f"ex2/{mode}", False) for mode in module.MODES]
    err = capsys.readouterr().err
    assert all(f"skipping {tmp_path / 'ex1' / mode}" in err for mode in module.MODES)


def test_sweep_reruns_a_partial_cell_and_skips_a_finished_one(monkeypatch, tmp_path, capsys):
    module = _load("sweep")
    _finish(monkeypatch, module, tmp_path, "--experiments", "ex1")
    partial, finished, fresh = (tmp_path / "ex1" / mode for mode in module.MODES)
    (partial / "aggregate.csv").unlink()
    for path in fresh.iterdir():
        path.unlink()
    ran = []
    monkeypatch.setattr(module, "run_experiment", _recording(module, tmp_path, ran))
    monkeypatch.setattr(harness, "train", _one_row)
    assert _run_main(monkeypatch, module, "--profile", "desk", "--out-root", str(tmp_path),
                     "--experiments", "ex1") == 0
    # the partial cell runs with force, the finished one not at all, a fresh one unforced
    assert ran == [(f"ex1/{module.MODES[0]}", True), (f"ex1/{module.MODES[2]}", False)]
    assert f"skipping {finished}" in capsys.readouterr().err


@pytest.mark.parametrize("args, record_line, message, detail", [
    (["--seeds", "2"], None, "is finished with ", "seeds=1,4,7, not seeds=2"),
    (["--profile", "paper"], None, "is finished with ", "batch=200, not batch=500"),
    # a record from a version that still wrote force=
    ([], "force=false\n", "is finished, but its record does not parse (",
     "unknown key 'force'"),
], ids=["seeds", "profile", "earlier-version-record"])
def test_sweep_refuses_a_finished_cell_with_another_record(
        monkeypatch, tmp_path, capsys, args, record_line, message, detail):
    module = _load("sweep")
    root = tmp_path / "desk"
    _finish(monkeypatch, module, root, "--experiments", "ex1")
    cell = root / "ex1" / module.MODES[0]
    if record_line is not None:
        with open(cell / "config_used.txt", "a", encoding="utf-8") as f:
            f.write(record_line)
    before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    capsys.readouterr()
    monkeypatch.setattr(module, "run_experiment", pytest.fail)
    assert _run_main(monkeypatch, module, "--profile", "desk", "--out-root", str(root),
                     "--experiments", "ex1", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cell} {message}") and detail in err
    assert err.rstrip().endswith("pass --force to retrain it")
    assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before


def test_sweep_config_error_exits_2(monkeypatch, tmp_path, capsys):
    module = _load("sweep")
    monkeypatch.setattr(module, "run_experiment", pytest.fail)
    assert _run_main(monkeypatch, module, "--profile", "desk", "--out-root", str(tmp_path),
                     "--seeds", "1,x") == 2
    assert capsys.readouterr().err.startswith("error: command line: malformed value")


def test_sweep_bad_profile_is_the_harness_config_error(monkeypatch, tmp_path, capsys):
    # the harness alone checks the profile, as it does for underlay-ppo run
    module = _load("sweep")
    monkeypatch.setattr(module, "run_experiment", pytest.fail)
    root = tmp_path / "bogus"
    assert _run_main(monkeypatch, module, "--profile", "bogus", "--out-root", str(root)) == 2
    assert capsys.readouterr().err.startswith(
        "error: command line: invalid value for 'profile': 'bogus' (choose from ")
    assert not root.exists()
