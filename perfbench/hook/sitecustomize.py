"""Benchmark hook for the processes the benchmark launches.

``perfbench/run.py`` starts the shipped CLI (``python3 -m underlay_ppo``)
with this directory on PYTHONPATH, so Python imports this module at start-up.
It does nothing unless PERFBENCH_RECORD is set; then it installs a
``benchtrace.Recorder`` before the CLI runs and writes the spans to
``$PERFBENCH_RECORD-<pid>.json`` at exit. PERFBENCH_DETAIL=1 records every
layer; PERFBENCH_SETUP_PROBE=1 ends the process once set-up is done.
"""
import os

if os.environ.get("PERFBENCH_RECORD"):
    import benchtrace

    benchtrace.record_child(
        os.environ["PERFBENCH_RECORD"],
        detail=os.environ.get("PERFBENCH_DETAIL") == "1",
        setup_probe=os.environ.get("PERFBENCH_SETUP_PROBE") == "1",
    )
