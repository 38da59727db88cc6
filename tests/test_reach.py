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

Each reason cites evidence, which is checked too, so the list cannot go
stale unnoticed: "perfbench traces it" holds while perfbench's tracer wraps
the name, a test named ``test_*.py::...`` must exist, a script named
``scripts/*.py`` must call the name, and the quoted text of "README's library
API" must still be in README.
"""
import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "underlay_ppo"

# module.qualname -> why no run enters it
NOT_RUN = {
    "env.SpectrumSharingEnv.reset": "README's library API, `env.reset(rng, episode_len)`; "
                                    "perfbench traces it",
    "ppo.ppo_update": "the tests' reference for the two update halves; perfbench traces it",
    "ppo.build_centralized_obs": "perfbench traces it",
    "nets.ValueNet.value": "perfbench traces it",
    "blas.openblas_config": "scripts/csv_digests.py records the run-time BLAS with it",
    # the worker's child side, in a process the profiler does not see
    "worker._serve": "the worker's loop; test_ppo.py::TestUpdateWorker::"
                     "test_train_equals_the_serial_reference",
    "worker._Pickler.reducer_override": "pickles the worker's replies; test_ppo.py::"
                                        "TestWorkerFaults::"
                                        "test_exception_that_does_not_pickle_is_named",
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


def _traced() -> set[str]:
    """``module.qualname`` of every attribute that perfbench's tracer wraps,
    read from its module's target lists; loading it installs no wrapper."""
    spec = importlib.util.spec_from_file_location(
        "benchtrace", ROOT / "perfbench" / "hook" / "benchtrace.py")
    benchtrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(benchtrace)
    return {f"{module.removeprefix('underlay_ppo.')}.{path}"
            for module, path, _ in benchtrace.ITERATION_TARGETS + benchtrace.LAYER_TARGETS}


def _test_exists(node_id: str) -> bool:
    """Whether ``tests/<file>::<class>::...::<test>`` names a class or function."""
    file, *names = node_id.split("::")
    scope = ast.parse((ROOT / "tests" / file).read_text())
    for name in names:
        scope = next((node for node in scope.body if getattr(node, "name", None) == name), None)
        if scope is None:
            return False
    return True


def _calls(script: str, name: str) -> bool:
    """Whether ``script`` calls ``name`` (``module.qualname``) by that dotted name."""
    tree = ast.parse((ROOT / script).read_text())
    return any(isinstance(node, ast.Call) and ast.unparse(node.func) == name
               for node in ast.walk(tree))


@pytest.mark.parametrize("name", sorted(NOT_RUN))
def test_each_reason_cites_evidence_that_holds(name):
    reason, cited = NOT_RUN[name], 0
    if "perfbench traces it" in reason:
        cited += 1
        assert name in _traced(), f"{name}: perfbench's tracer no longer wraps it"
    for node_id in re.findall(r"test_\w+\.py(?:::\w+)+", reason):
        cited += 1
        assert _test_exists(node_id), f"{name}: no test {node_id}"
    for script in re.findall(r"scripts/\w+\.py", reason):
        cited += 1
        assert _calls(script, name), f"{name}: {script} does not call it"
    if reason.startswith("README's library API"):
        cited += 1
        quoted = re.findall(r"`([^`]+)`", reason)
        readme = (ROOT / "README.md").read_text()
        assert quoted and all(text in readme for text in quoted), \
            f"{name}: README does not document {quoted}"
    assert cited, f"{name}: the reason cites no evidence that can be checked: {reason!r}"
