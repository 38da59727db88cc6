#!/usr/bin/env python3
"""underlay-ppo benchmark: closed-loop training workloads timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload desk-coexist-k4 --seed 1 --seconds 20 --trace 0

A run repeats one job -- a complete ``underlay-ppo run`` of the workload's
config and seeds -- until ``--seconds`` are used up; each job starts only
after the previous one ended. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` records spans at every layer boundary and reports the
per-layer metrics. Names and units come from BENCHMARK.json.

Every job's CSVs are checked, and the sha256 of its ``aggregate.csv`` must
equal that of the run's first job. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record (environment, digest, tail percentile, load average) is
appended to ``perfbench/results/runs.jsonl`` (``--out`` to change it).
README.md next to this file defines each workload and metric.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HOOK_DIR = BENCH_DIR / "hook"
SRC_DIR = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

sys.path.insert(0, str(HOOK_DIR))
import benchtrace  # noqa: E402

SETUP_PROBES = 9  # set-up launches per untraced in-process run
JOB_TIMEOUT_S = 150
TAIL_BEYOND = 10  # samples required above the reported tail value


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    iters: int  # training iterations per seed in one job
    seed_offsets: tuple[int, ...]  # job seeds are --seed plus these
    in_process: bool  # call cli.main here, or launch the CLI as a process


WORKLOADS = {
    "desk-coexist-k4": Workload(
        ("--experiment", "custom", "--mode", "coexist_dist", "--profile", "desk"),
        iters=10, seed_offsets=(0,), in_process=True,
    ),
    "paper-csi-k12-e80": Workload(
        ("--experiment", "ex1", "--mode", "centralized_full_csi",
         "--profile", "paper", "--set", "update_epochs=80"),
        iters=3, seed_offsets=(0,), in_process=True,
    ),
    "desk-sweep-ex2": Workload(
        ("--experiment", "ex2", "--mode", "coexist_dist", "--profile", "desk"),
        iters=4, seed_offsets=(0, 3, 6), in_process=False,
    ),
}


@dataclass
class Job:
    """One complete CLI run: its timings, its recorder dumps, its checks."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    dumps: list = field(default_factory=list)
    setup_s: float | None = None
    digest: str | None = None
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def iteration_ms(self) -> list[float]:
        out = []
        for dump in self.dumps:
            it = dump["names"].index(benchtrace.ITERATION)
            out += [(s[2] - s[1]) / 1e6 for s in dump["spans"] if s[0] == it]
        return out


# -- running jobs -----------------------------------------------------------

def _child_env(record_prefix: Path, detail: bool, setup_probe: bool) -> dict:
    env = dict(os.environ)
    paths = [str(SRC_DIR), str(HOOK_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PERFBENCH_RECORD"] = str(record_prefix)
    env["PERFBENCH_DETAIL"] = "1" if detail else "0"
    env["PERFBENCH_SETUP_PROBE"] = "1" if setup_probe else "0"
    return env


def run_child(argv, work: Path, tag: str, detail: bool, setup_probe: bool) -> Job:
    """Launch ``python -m underlay_ppo`` with the benchmark hook and wait."""
    job = Job()
    prefix = work / f"rec-{tag}"
    env = _child_env(prefix, detail, setup_probe)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(work / f"log-{tag}.txt", "wb") as log:
        start_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, "-m", "underlay_ppo", *argv],
                                cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            status = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            status = proc.wait()
            job.errors.append(f"timed out after {JOB_TIMEOUT_S} s")
        end_ns = time.monotonic_ns()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    job.wall_s = (end_ns - start_ns) / 1e9
    job.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if status != 0:
        log_tail = (work / f"log-{tag}.txt").read_text(errors="replace")[-2000:]
        job.errors.append(f"exit status {status}: {log_tail}")
    for path in sorted(work.glob(f"rec-{tag}-*.json")):
        with open(path, encoding="utf-8") as f:
            dump = json.load(f)
        job.dumps.append(dump)
        if not dump["restored"]:
            job.errors.append("rebound attributes not restored")
        if dump["pid"] == proc.pid and dump["setup_mark_ns"] is not None:
            job.setup_s = (dump["setup_mark_ns"] - start_ns) / 1e9
    if job.setup_s is None:
        job.errors.append("no set-up mark recorded (ppo.build_agents not reached)")
    return job


def run_in_process(argv, detail: bool) -> Job:
    """Call the CLI's main() in this process, with a recorder installed."""
    from underlay_ppo import cli

    job = Job()
    recorder = benchtrace.Recorder(detail)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with recorder:
        try:
            status = cli.main(argv)
        except Exception:
            status = traceback.format_exc()
    job.wall_s = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    job.cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    job.dumps.append(recorder.dump())
    if status != 0:
        job.errors.append(f"cli.main failed: {status}")
    if not recorder.restored:
        job.errors.append("rebound attributes not restored")
    return job


def check_outputs(out: Path, seeds, iters: int) -> tuple[list[str], str | None]:
    """Output checks of one job; returns (errors, sha256 of aggregate.csv)."""
    from underlay_ppo.ppo import METRIC_FIELDS

    errors = []
    try:
        settings = dict(line.split("=", 1) for line in
                        (out / "config_used.txt").read_text().splitlines())
        k_p, k_s = int(settings["k_p"]), int(settings["k_s"])
    except (OSError, KeyError, ValueError) as exc:
        return [f"config_used.txt unreadable: {exc}"], None
    limits = {"nqos_p": k_p, "active_p": k_p, "active_s": k_s}
    for path in [out / f"seed_{s}.csv" for s in seeds] + [out / "aggregate.csv"]:
        try:
            with open(path, newline="", encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            values = [[float(row[k]) for k in METRIC_FIELDS] for row in rows]
        except (OSError, KeyError, ValueError) as exc:
            errors.append(f"{path.name}: {exc!r}")
            continue
        if len(rows) != iters:
            errors.append(f"{path.name}: {len(rows)} rows, expected {iters}")
        for i, row in enumerate(values, start=1):
            named = dict(zip(METRIC_FIELDS, row))
            bad = [k for k, v in named.items() if not math.isfinite(v)]
            bad += [k for k, top in limits.items() if not 0.0 <= named[k] <= top]
            if bad:
                errors.append(f"{path.name} row {i}: out of range {bad}")
    digest = None
    if (out / "aggregate.csv").exists():
        digest = hashlib.sha256((out / "aggregate.csv").read_bytes()).hexdigest()
    return errors, digest


class Runner:
    def __init__(self, name: str, seed: int, iters: int, work: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.iters = iters
        self.seeds = [seed + off for off in self.workload.seed_offsets]
        self.work = work
        self.count = 0
        self.reference_digest = None

    def argv(self, out: Path) -> list[str]:
        return ["run", *self.workload.cli_args,
                "--seeds", ",".join(str(s) for s in self.seeds),
                "--set", f"iters={self.iters}",
                "--out", str(out), "--force", "--quiet"]

    def job(self, detail: bool) -> Job:
        self.count += 1
        out = self.work / "out"
        argv = self.argv(out)
        if self.workload.in_process:
            job = run_in_process(argv, detail)
        else:
            job = run_child(argv, self.work, str(self.count), detail, False)
        errors, job.digest = check_outputs(out, self.seeds, self.iters)
        job.errors += errors
        if self.reference_digest is None:
            self.reference_digest = job.digest
        elif job.digest != self.reference_digest:
            job.errors.append(f"aggregate.csv digest {job.digest} differs from "
                              f"the first job's {self.reference_digest}")
        return job

    def setup_probe(self) -> Job:
        self.count += 1
        out = self.work / f"probe-{self.count}"
        return run_child(self.argv(out), self.work, str(self.count),
                         detail=False, setup_probe=True)

    def phase(self, budget_s: float, details: tuple[bool, ...]) -> list[list[Job]]:
        """Repeat rounds of jobs, one job per entry of ``details`` (traced or
        not), while the next round is expected to fit in the budget."""
        rounds = [[] for _ in details]
        start = time.perf_counter()
        while True:
            for jobs, detail in zip(rounds, details):
                jobs.append(self.job(detail))
            typical = statistics.median(sum(r) for r in zip(
                *([j.wall_s for j in jobs] for jobs in rounds)))
            if time.perf_counter() - start + typical > budget_s:
                return rounds


# -- metrics ----------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). The percentile is never
    below the median: with fewer than 2 * TAIL_BEYOND + 1 samples it is the
    upper median, with fewer samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    percentile = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], percentile, n - 1 - k


# Reported in every untraced run but not gated by BENCHMARK.json, as
# name: (unit, better): their run-to-run spread exceeded the largest bound
# allowed while the machine's speed drifted (README.md, "Measured drift").
NOT_GATED = {
    "iter_ms_p50": ("ms", "lower"),
    "wall_s": ("s", "lower"),
    "train_steps_per_s": ("1/s", "higher"),
    "cpu_s_per_iter": ("s", "lower"),
}


def end_to_end_metrics(jobs: list[Job], setup: list[float],
                       batch: int, peak_rss_mb: float) -> tuple[dict, dict]:
    iters = [ms for j in jobs for ms in j.iteration_ms()]
    tail_ms, percentile, beyond = tail(iters)
    values = {
        "setup_s": statistics.median(setup),
        "iter_ms_min": min(iters),
        "iter_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "iter_ms_p50": statistics.median(iters),
        "wall_s": statistics.median(j.wall_s for j in jobs),
        "train_steps_per_s": batch * len(iters) / (sum(iters) / 1e3),
        "cpu_s_per_iter": sum(j.cpu_s for j in jobs) / len(iters),
    }
    info = {"tail_percentile": percentile, "tail_samples": len(iters),
            "tail_beyond": beyond,
            "not_gated": {name: {"value": values[name], "unit": unit}
                          for name, (unit, _) in NOT_GATED.items()},
            "iteration_ms": iters,
            "job_wall_s": [j.wall_s for j in jobs],
            "job_cpu_s": [j.cpu_s for j in jobs]}
    return values, info


class SpanStats:
    """Durations and self times (ns) per span name, over recorder dumps."""

    def __init__(self, dumps):
        self.durations = defaultdict(list)
        self.self_times = defaultdict(list)
        for dump in dumps:
            spans, names = dump["spans"], dump["names"]
            covered = [0] * len(spans)
            for s in spans:
                if s[3] >= 0:
                    covered[s[3]] += s[2] - s[1]
            for s, child_ns in zip(spans, covered):
                self.durations[names[s[0]]].append(s[2] - s[1])
                self.self_times[names[s[0]]].append(s[2] - s[1] - child_ns)
        self.iterations = len(self.durations[benchtrace.ITERATION])

    def total(self, name: str) -> int:
        return sum(self.durations[name])


_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def layer_metric(stat_name: str, stats: SpanStats, job_walls_s: float,
                 untraced_iter_ms: float) -> float:
    """Value of one per-layer metric named ``<span>.<statistic>``."""
    iteration_ns = stats.total(benchtrace.ITERATION)
    special = {
        "ppo.collect_share": lambda: stats.total("ppo.collect") / iteration_ns,
        "ppo.update_share": lambda: stats.total("ppo.ppo_update") / iteration_ns,
        "harness.parallelism": lambda: stats.total("harness.train") / 1e9 / job_walls_s,
        "trace.overhead_ratio": lambda: statistics.median(
            stats.durations[benchtrace.ITERATION]) / 1e6 / untraced_iter_ms,
    }
    if stat_name in special:
        return special[stat_name]()
    span, stat = stat_name.rsplit(".", 1)
    if span not in benchtrace.SPAN_NAMES:
        raise ValueError(f"per-layer metric {stat_name!r} names no traced span")
    durations = stats.durations[span]
    if stat == "calls":
        return len(durations) / stats.iterations
    if stat == "busy_ms_per_iter":
        return sum(durations) / 1e6 / stats.iterations
    source = stats.self_times[span] if stat.startswith("self_") else durations
    unit = stat.removeprefix("self_").removesuffix("_p50")
    if unit not in _SCALE:
        raise ValueError(f"unknown statistic in per-layer metric {stat_name!r}")
    return statistics.median(source) / _SCALE[unit] if source else 0.0


# -- environment and output -------------------------------------------------

def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy older than 1.26
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run(name: str, seed: int, seconds: float, trace: bool, iters: int | None) -> dict:
    contract = load_contract()
    specs = contract["per_layer" if trace else "end_to_end"]
    work = RESULTS_DIR / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(name, seed, iters or WORKLOADS[name].iters, work)
    load_before = os.getloadavg()
    try:
        probes = []
        if not trace and runner.workload.in_process:
            probes = [runner.setup_probe() for _ in range(SETUP_PROBES)]
        warm_up = runner.job(detail=False)
        if trace:
            # alternate, so drift of the machine's speed hits both alike
            traced, measured = runner.phase(seconds, (True, False))
        else:
            traced = []
            (measured,) = runner.phase(seconds, (False,))
        batch = int(dict(line.split("=", 1) for line in
                         (work / "out" / "config_used.txt").read_text().splitlines())["batch"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    load_after = os.getloadavg()

    everything = probes + [warm_up] + traced + measured
    failures = [e for j in everything for e in j.errors]
    failed = sum(not j.ok for j in everything)
    good = [j for j in measured if j.ok]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "iters_per_job": runner.iters, "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "correct": failed == 0, "attempted": len(everything), "failed": failed,
        "fail_ratio": failed / len(everything),
        "jobs": len(measured), "traced_jobs": len(traced),
        "digest_aggregate_csv": runner.reference_digest,
        "environment": environment(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "failures": failures[:20],
    }
    if not good or (trace and not any(j.ok for j in traced)):
        record["metrics"] = {}
        return record
    if trace:
        ok_traced = [j for j in traced if j.ok]
        stats = SpanStats([d for j in ok_traced for d in j.dumps])
        walls = sum(j.wall_s for j in ok_traced)
        untraced_ms = statistics.median(ms for j in good for ms in j.iteration_ms())
        values = {spec["name"]: layer_metric(spec["name"], stats, walls, untraced_ms)
                  for spec in specs}
        spans_file = RESULTS_DIR / f"spans-{name}-seed{seed}.json"
        with open(spans_file, "w", encoding="utf-8") as f:
            json.dump([d for j in ok_traced for d in j.dumps], f, separators=(",", ":"))
        record["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        if runner.workload.in_process:
            setup = [j.setup_s for j in probes if j.ok]
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            setup = [j.setup_s for j in good]
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        values, info = end_to_end_metrics(good, setup, batch, peak_kb / 1024)
        record.update(info)
    record["metrics"] = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                         for spec in specs}
    return record


def report(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"{record['workload']} seed {record['seed']} ({mode}): "
          f"{record['jobs']} timed jobs of {record['iters_per_job']} iterations per seed, "
          f"{record['traced_jobs']} traced jobs, {record['attempted']} runs in all")
    for name, metric in record["metrics"].items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<42} {record['fail_ratio']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} runs failed)")
    for name, metric in record.get("not_gated", {}).items():
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']} (not gated)")
    if "tail_percentile" in record:
        print(f"  iter_ms_tail is p{record['tail_percentile']:.1f} of "
              f"{record['tail_samples']} iterations "
              f"({record['tail_beyond']} beyond it)")
    print(f"  aggregate.csv sha256 {record['digest_aggregate_csv']}")
    env = record["environment"]
    print(f"  python {env['python']}, numpy {env['numpy']}, "
          f"BLAS {env['blas'].get('name')} {env['blas'].get('version')}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
          f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}, {env['cpu_count']} cpus, "
          f"load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iters", type=int,
                        help="iterations per seed in one job (default: the workload's)")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR / "runs.jsonl",
                        help="JSON-lines file the run record is appended to")
    args = parser.parse_args(argv)
    if not (SRC_DIR / "underlay_ppo" / "__init__.py").is_file():
        print(f"error: {SRC_DIR / 'underlay_ppo'} not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.iters)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    report(record)
    if not record["metrics"]:
        print("error: no job succeeded; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
