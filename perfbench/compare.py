#!/usr/bin/env python3
"""Compare two benchmark result files, workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as ``perfbench/run.py`` and ``series.py`` write
them. For every workload, trace mode and metric the table shows each side's
median and quartiles, the change's median as a share of the base median
(with the base value) and how many seed-matched pairs the change wins. The
verdict follows perfbench/README.md, "Comparing two commits":

- ``gain``: the change wins at least 9 of 10 pairs (ties count for
  neither), at least 10 pairs were run, and the medians differ by more than
  the base's interquartile range;
- ``REGRESSION``: the change's median is worse than the base's by more than
  the metric's bound;
- ``unresolved``: either side's interquartile spread exceeds the bound,
  unless every change run beats every base run (``better, every run``);
- ``within bound``: none of these.

Per-layer and not-gated metrics have no bound; they can show ``gain`` or
``no gain``.
Exits 1 when any end-to-end metric regressed.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import NOT_GATED

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(path) -> dict:
    """{(workload, trace): {metric: {seed: value}}}, the last run per seed kept.

    Metrics reported but not gated are included.
    """
    grouped = defaultdict(lambda: defaultdict(dict))
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, metric in {**rec["metrics"], **rec.get("not_gated", {})}.items():
                grouped[(rec["workload"], rec["trace"])][name][rec["seed"]] = metric["value"]
    return grouped


def summary(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(values) -> float:
    median, q1, q3 = summary(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def metric_specs(contract) -> dict:
    """Gated and per-layer metrics from BENCHMARK.json, then the reported
    but not gated ones, which have no bound."""
    specs = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    for name, (unit, better) in NOT_GATED.items():
        specs[name] = {"name": name, "unit": unit, "better": better}
    return specs


def verdict(base: dict, change: dict, spec: dict) -> tuple[str, int, int]:
    """Verdict for one metric; base/change map seed -> value."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    bound = spec.get("bound")
    pairs = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) > 0 for s in pairs)
    b_med, b_q1, b_q3 = summary(base.values())
    c_med = summary(change.values())[0]
    gap = sign * (c_med - b_med)
    if bound is not None and max(spread(base.values()), spread(change.values())) > bound:
        if min(sign * v for v in change.values()) > max(sign * v for v in base.values()):
            return "better, every run", wins, len(pairs)
        return "unresolved (spread > bound)", wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gap > b_q3 - b_q1):
        return "gain", wins, len(pairs)
    if bound is not None and -gap > bound * abs(b_med):
        return "REGRESSION", wins, len(pairs)
    return ("within bound" if bound is not None else "no gain"), wins, len(pairs)


def _fmt(values) -> str:
    median, q1, q3 = summary(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare_table(base: dict, change: dict, contract) -> tuple[str, bool]:
    """Rendered comparison and whether any end-to-end metric regressed."""
    specs = metric_specs(contract)
    lines = [f"{'workload':<20} {'trace':>5} {'metric':<44} {'base median [q1, q3]':>30} "
             f"{'change median [q1, q3]':>30} {'change/base':>24} {'wins':>6}  verdict"]
    regressed = False
    for key in sorted(set(base) & set(change)):
        b_metrics, c_metrics = base[key], change[key]
        for name in [n for n in specs if n in b_metrics and n in c_metrics]:
            b, c = b_metrics[name], c_metrics[name]
            text, wins, pairs = verdict(b, c, specs[name])
            regressed |= text == "REGRESSION"
            b_med, c_med = summary(b.values())[0], summary(c.values())[0]
            ratio = f"{c_med / b_med:.3f} of {b_med:.4g}" if b_med else "base 0"
            lines.append(
                f"{key[0]:<20} {key[1]:>5} {name:<44} {_fmt(b.values()):>30} "
                f"{_fmt(c.values()):>30} {ratio:>24} {wins:>3}/{pairs:<2}  {text}")
    return "\n".join(lines), regressed


def spread_table(records: dict, contract) -> str:
    """Median, quartiles and spread per workload and metric of one file."""
    specs = metric_specs(contract)
    lines = [f"{'workload':<20} {'trace':>5} {'metric':<44} {'n':>3} "
             f"{'median [q1, q3]':>32} {'spread':>8} {'bound':>6}"]
    for key in sorted(records):
        for name, by_seed in records[key].items():
            bound = specs.get(name, {}).get("bound")
            mark = "" if bound is None else f"{bound:>6.2f}" + (
                "  ABOVE BOUND" if spread(by_seed.values()) > bound else
                "  above bound/3" if spread(by_seed.values()) > bound / 3 else "")
            lines.append(f"{key[0]:<20} {key[1]:>5} {name:<44} {len(by_seed):>3} "
                         f"{_fmt(by_seed.values()):>32} "
                         f"{spread(by_seed.values()):>8.4f} {mark}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        contract = json.load(f)
    table, regressed = compare_table(load_records(argv[0]), load_records(argv[1]),
                                     contract)
    print(table)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
