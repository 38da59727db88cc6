"""Every function in ``src/`` is one that a run calls, or is listed with a reason.

A fresh interpreter sets ``sys.setprofile`` before it imports the package (so
what runs at import, like ``geometry.ranged``, counts), then runs the CLI in
every mode for two iterations from a ``--config`` file, once with the update
worker and once with zero workers (``worker.Inline`` runs the worker's tasks
in the caller, where the profiler sees them), and ``summarize`` on each
result. It records the code objects entered in ``src/underlay_ppo``; the
worker's own process is not profiled. Each ``def`` in ``src/`` that neither
run entered must be in ``NOT_RUN`` with its reason, and each entry there must
name a ``def`` that no run enters.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "underlay_ppo"

# module.qualname -> why no run enters it
NOT_RUN = {
    "env.SpectrumSharingEnv.reset": "README's library API; perfbench traces it",
    "ppo.ppo_update": "the tests' reference for the two update halves; perfbench traces it",
    "ppo.build_centralized_obs": "perfbench traces it",
    "nets.ValueNet.value": "perfbench traces it",
    "ppo.observe": "README's library API; acceptance criterion 9",
    "blas.openblas_config": "scripts/csv_digests.py records the run-time BLAS with it",
    "worker._serve": "the worker's child-side loop, in a process the profiler does not see",
    "worker._Pickler.reducer_override": "pickles the worker's replies, on the child side",
    # error paths, each with a test that reaches it
    "nets._FlatParams.first_nonfinite": "test_nets.py::TestFlatLayout::"
                                        "test_first_nonfinite_names_the_block",
    "ppo._first_nonfinite": "test_ppo.py::test_divergence_from_the_batch_names_the_array",
    "worker.Worker._lost": "test_ppo.py::TestUpdateWorker::"
                           "test_worker_killed_mid_call_is_named_and_replaced",
    "worker._rebuilt": "test_ppo.py::TestUpdateWorker::test_worker_exception_is_reraised",
}

_RUN = """
import atexit, json, sys
from pathlib import Path

package, out = sys.argv[1], Path(sys.argv[2])
entered = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


# registered before the package's handlers, so it runs after them (the worker's close)
atexit.register(lambda: (out / "entered.json").write_text(json.dumps(sorted(entered))))
sys.setprofile(profile)
from underlay_ppo import cli, ppo

config = out / "run.cfg"
config.write_text("seeds=1\\niters=2\\nbatch=20\\nepisode_len=10\\n")
for workers in ("worker", "zero-workers"):
    if workers == "zero-workers":
        ppo._update_worker = lambda: None
    for mode in ppo.MODES:
        run = out / workers / mode
        assert cli.main(["run", "--config", str(config), "--mode", mode, "--out", str(run),
                         "--quiet"]) == 0
        assert cli.main(["summarize", "--dir", str(run)]) == 0
"""


def _defs() -> dict[tuple[str, int], str]:
    """Every ``def`` in the package: (file, first line of the code object,
    which is the first decorator's) -> ``module.qualname``."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = name
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the update worker is forked on Linux only")
def test_every_def_in_src_is_run_or_listed(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-c", _RUN, str(PACKAGE), str(tmp_path)], env=env,
                   capture_output=True, text=True, timeout=300, check=True)
    entered = {tuple(key) for key in json.loads((tmp_path / "entered.json").read_text())}
    defs = _defs()
    not_run = {name for key, name in defs.items() if key not in entered}
    unlisted, stale = sorted(not_run - NOT_RUN.keys()), sorted(NOT_RUN.keys() - not_run)
    assert not unlisted, f"no run enters these, and NOT_RUN gives no reason: {unlisted}"
    assert not stale, f"in NOT_RUN, but a run enters them or no def has the name: {stale}"
