"""Smoke tests of the benchmark: tiny runs of every workload in both modes.

Run with ``python3 -m pytest -q perfbench``; about 15 seconds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run  # puts hook/ on sys.path
import benchtrace  # noqa: E402
import compare  # noqa: E402

if str(run.SRC_DIR) not in sys.path:
    sys.path.insert(0, str(run.SRC_DIR))

CONTRACT = run.load_contract()
WORKLOADS = sorted(run.WORKLOADS)  # paper-csi-k12-e80 too, which runs by name only


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload, untraced and traced, one iteration per seed per job."""
    out = tmp_path_factory.mktemp("perfbench") / "runs.jsonl"
    lines = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = _bench("--workload", name, "--seed", "2", "--seconds", "0.1",
                          "--trace", str(trace), "--iters", "1", "--out", str(out))
            assert done.returncode == 0, done.stdout + done.stderr
            lines[name, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return lines, records, out


def test_every_metric_reported_with_its_unit(smoke):
    lines, _, _ = smoke
    for (name, trace), line in lines.items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, (name, trace)
        specs = CONTRACT["per_layer" if trace else "end_to_end"]
        assert list(line["metrics"]) == [s["name"] for s in specs]
        for spec in specs:
            metric = line["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))
        if not trace:
            assert all(line["metrics"][s["name"]]["value"] > 0 for s in specs)


def test_traced_digest_matches_untraced(smoke):
    _, records, _ = smoke
    for name in WORKLOADS:
        digests = {r["digest_aggregate_csv"] for r in records if r["workload"] == name}
        assert len(digests) == 1 and None not in digests, name


def test_self_times_fit_inside_parent_spans(smoke):
    _, records, _ = smoke
    for record in records:
        if not record["trace"]:
            continue
        with open(run.ROOT / record["spans_file"], encoding="utf-8") as f:
            dumps = json.load(f)
        for dump in dumps:
            spans = dump["spans"]
            children = [0] * len(spans)
            for s in spans:
                assert s[2] >= s[1]
                if s[3] >= 0:
                    parent = spans[s[3]]
                    assert parent[1] <= s[1] and s[2] <= parent[2]
                    children[s[3]] += s[2] - s[1]
            assert all(s[2] - s[1] >= c for s, c in zip(spans, children))
        stats = run.SpanStats(dumps)
        assert min(min(v) for v in stats.self_times.values()) >= 0
        assert stats.iterations >= 1


def test_result_file_round_trips_through_compare(smoke):
    _, _, out = smoke
    records = compare.load_records(out)
    table, regressed = compare.compare_table(records, records, CONTRACT)
    assert not regressed
    rows = table.splitlines()[1:]
    expected = len(WORKLOADS) * (len(CONTRACT["per_layer"]) + len(CONTRACT["end_to_end"])
                                 + len(run.NOT_GATED))
    assert len(rows) == expected
    assert all(row.rstrip().endswith(("within bound", "no gain")) for row in rows)
    assert compare.main([str(out), str(out)]) == 0
    assert len(compare.spread_table(records, CONTRACT).splitlines()) == expected + 1


def test_recorder_restores_attributes_after_a_raise():
    from underlay_ppo import env, harness, nets, ppo

    originals = [(harness, "train"), (ppo, "_collect"), (env, "evaluate_links"),
                 (nets.AdamState, "step"), (env.SpectrumSharingEnv, "step")]
    before = [owner.__dict__[attr] for owner, attr in originals]
    recorder = benchtrace.Recorder(detail=True)
    with pytest.raises(RuntimeError):
        with recorder:
            assert all(owner.__dict__[attr] is not fn
                       for (owner, attr), fn in zip(originals, before))
            raise RuntimeError("boom")
    assert recorder.restored
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(originals, before))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(101)]) == (90.0, 90.0, 10)
    value, percentile, beyond = run.tail([float(i) for i in range(11)])
    assert (value, percentile, beyond) == (5.0, 50.0, 5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
