"""Experiment harness: flat key=value configs, seed sweeps, CSV metrics.

Config files hold one ``key=value`` per line with ``#`` comments. Values are
applied in order: built-in defaults, then the selected profile and experiment
preset, then the file's lines, then command-line overrides. Unknown keys and
malformed values are rejected on every line; range checks run once on the
resolved values and name the location that supplied the offending value, or,
for a rule across fields, each field and the location that supplied it.

Besides the run-level keys, every key is a field of ``ChannelParams``,
``RadioConfig``, ``EnvConfig`` or ``PpoHyper`` and takes its default and type.

Each run writes one ``seed_<seed>.csv`` per seed plus ``aggregate.csv`` with
per-iteration cross-seed means. Columns are fixed: iter, seed (per-seed files
only), then the metric fields in the order defined by ``env.METRIC_FIELDS``.
Numbers are written locale-independently with 9 significant digits; rerunning
an identical config reproduces the files byte for byte. ``config_used.txt``
holds every resolved setting but the output directory, which is where the file
itself lives, floats in their shortest round-trip form, so passing it back as
``--config <out>/config_used.txt --out <new dir>`` reruns the same run.
Overwriting existing results is a choice of the invocation (``--force``), not
a setting.
"""
from __future__ import annotations

import csv
import math
import sys
import time
import traceback
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .blas import openblas_found
from .env import METRIC_FIELDS, EnvConfig
from .geometry import ChannelParams
from .phy import RadioConfig
from .ppo import MODE_COEXIST, MODES, PpoHyper, train

SEED_COLUMNS = ("iter", "seed") + METRIC_FIELDS
AGGREGATE_COLUMNS = ("iter",) + METRIC_FIELDS

EXPERIMENTS = ("ex1", "ex2", "custom")
PROFILES = ("desk", "paper")


class ConfigError(ValueError):
    """Configuration problem the caller can fix; message names the culprit."""


# run-level keys; every other key is a config dataclass field (_FIELD_DEFAULTS)
_RUN_DEFAULTS = {
    "experiment": "custom",
    "mode": MODE_COEXIST,
    "profile": "desk",
    # Default seeds were chosen by hand; nothing checks at run time that a
    # seed's topology admits a joint QoS solution (some draws place an
    # interfering transmitter a few metres from a victim receiver, where no
    # power allocation can satisfy every primary link).
    "seeds": (1, 4, 7),
    "out": "",
}
# nested sections (EnvConfig.channel, .radio) have no plain default and are no keys
_FIELD_DEFAULTS = {
    f.name: f.default
    for cls in (ChannelParams, RadioConfig, EnvConfig, PpoHyper)
    for f in fields(cls)
    if f.default is not MISSING
}

# user-count presets; scale knobs come from the profile
_EXPERIMENT_PRESETS = {
    "ex1": {"k_p": 4, "k_s": 8},
    "ex2": {"k_p": 8, "k_s": 4},
    "custom": {},
}

# "desk" runs the ``PpoHyper`` defaults
_PROFILE_PRESETS = {
    "desk": {},
    "paper": {
        "iters": 4000,
        "batch": 500,
        "episode_len": 500,
        "lr_policy": 3e-4,
        "lr_value": 1e-3,
    },
}

_CHOICE_KEYS = {
    "experiment": EXPERIMENTS,
    "mode": MODES,
    "profile": PROFILES,
}
_EXPANSIONS = {
    "kappa": ("kappa_t_p", "kappa_r_p", "kappa_t_s", "kappa_r_s"),
    "p_max": ("p_max_p", "p_max_s"),
}

KNOWN_KEYS = frozenset(set(_RUN_DEFAULTS) | set(_FIELD_DEFAULTS) | set(_EXPANSIONS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description."""

    mode: str
    seeds: tuple[int, ...]
    out_dir: str | None
    env: EnvConfig
    hyper: PpoHyper
    settings: tuple[tuple[str, str], ...]


def _parse_value(key: str, raw):
    """Parse one setting; raises ConfigError naming the key."""
    if key in _CHOICE_KEYS:
        if raw not in _CHOICE_KEYS[key]:
            raise ConfigError(
                f"invalid value for '{key}': {raw!r} (choose from "
                f"{', '.join(_CHOICE_KEYS[key])})"
            )
        return raw
    if key == "out":
        return raw
    if key == "seeds":
        try:
            seeds = tuple(int(part) for part in raw.split(",") if part.strip() != "")
        except ValueError:
            raise ConfigError(f"malformed value for 'seeds': {raw!r}") from None
        if not seeds:
            raise ConfigError("'seeds' must list at least one integer")
        if len(set(seeds)) != len(seeds):
            raise ConfigError("'seeds' must not contain duplicates")
        if min(seeds) < 0:
            raise ConfigError("'seeds' must be non-negative")
        return seeds
    kind = type(_FIELD_DEFAULTS[_EXPANSIONS.get(key, (key,))[0]])
    try:
        value = kind(raw)
        # nan and infinities are malformed rather than out of range
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"malformed value for '{key}': {raw!r}")


def read_config_file(path) -> list[tuple[str, str, str]]:
    """Read flat key=value lines; returns (key, raw value, location) triples."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line.strip()!r}"
            )
        key, _, raw = stripped.partition("=")
        items.append((key.strip(), raw.strip(), f"{path}:{lineno}"))
    return items


def _build(cls, settings: dict, **sections):
    names = [f.name for f in fields(cls) if f.default is not MISSING]
    return cls(**{name: settings[name] for name in names}, **sections)


def build_config(config_file=None, overrides=()) -> ExperimentConfig:
    """Resolve defaults, profile/experiment presets, file lines and overrides.

    ``overrides`` is an ordered sequence of (key, raw value) pairs; they are
    applied last, so command-line flags beat the config file.
    """
    items = list(read_config_file(config_file)) if config_file else []
    items += [(key, raw, "command line") for key, raw in overrides]

    parsed = []
    for key, raw, where in items:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        try:
            parsed.append((key, _parse_value(key, raw), where))
        except ConfigError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    settings = {**_RUN_DEFAULTS, **_FIELD_DEFAULTS}
    # resolved name -> (key as written, location that supplied the value)
    sources = {name: (name, "built-in default") for name in settings}

    def assign(key, value, where):
        for name in _EXPANSIONS.get(key, (key,)):
            settings[name] = value
            sources[name] = (key, where)

    # presets apply before every file line and override, wherever they are chosen
    chosen = {key: value for key, value, _ in parsed}
    for name, presets in (("profile", _PROFILE_PRESETS), ("experiment", _EXPERIMENT_PRESETS)):
        preset = chosen.get(name, settings[name])
        for key, value in presets[preset].items():
            assign(key, value, f"{name} preset '{preset}'")
    for key, value, where in parsed:
        assign(key, value, where)

    try:
        channel, radio = _build(ChannelParams, settings), _build(RadioConfig, settings)
        env_cfg = _build(EnvConfig, settings, channel=channel, radio=radio)
        hyper = _build(PpoHyper, settings)
    except ValueError as exc:
        # every range check raises ValueError("<field> <rule>"); a cross-field
        # rule names its other fields in <rule>, and each gets its supplier too
        name, _, rule = str(exc).partition(" ")
        key, where = sources[name]
        others = "".join(f"; '{sources[n][0]}' from {sources[n][1]}"
                         for n in rule.split() if n in _FIELD_DEFAULTS)
        raise ConfigError(f"{where}: value out of range for '{key}': {rule}{others}") from None

    rendered = tuple(
        sorted((k, _render_setting(v)) for k, v in settings.items() if k != "out")
    )
    return ExperimentConfig(
        mode=settings["mode"],
        seeds=settings["seeds"],
        out_dir=settings["out"] or None,
        env=env_cfg,
        hyper=hyper,
        settings=rendered,
    )


def _render_setting(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)  # for a float, the shortest form that parses back to it


def _fmt(value) -> str:
    return format(float(value), ".9g")


def write_seed_csv(path, seed: int, history) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SEED_COLUMNS)
        for row in history:
            writer.writerow(
                [str(int(row["iter"])), str(int(seed))]
                + [_fmt(row[k]) for k in METRIC_FIELDS]
            )


def write_aggregate_csv(path, histories) -> None:
    """Per-iteration cross-seed means; seeds are averaged in sorted order."""
    ordered = sorted(histories, key=lambda pair: pair[0])
    lengths = {len(h) for _, h in ordered}
    if len(lengths) != 1:
        raise ValueError("seed histories differ in length")
    n_iter = lengths.pop()
    n_seeds = len(ordered)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(AGGREGATE_COLUMNS)
        for i in range(n_iter):
            means = [
                sum(h[i][k] for _, h in ordered) / n_seeds for k in METRIC_FIELDS
            ]
            writer.writerow([str(i + 1)] + [_fmt(v) for v in means])


def read_metrics_csv(path) -> list[dict]:
    """Every row of a metrics CSV as {column: float}; a file that cannot be
    read as UTF-8, or a cell that is not a number, raises ConfigError naming
    the file (and the column)."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    for row in rows:
        for key, value in row.items():
            try:
                row[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{path}: column '{key}' holds {value!r}, not a number") from None
    return rows


def run_experiment(cfg: ExperimentConfig, force: bool = False, verbose: bool = False) -> int:
    """Train every seed and write CSVs; returns a process-style exit status.

    Refuses to overwrite an existing result directory unless forced. A
    training failure leaves the seed and a traceback in failure_diagnostics.txt
    and returns 1; the next run into the directory removes it. Under an
    unknown BLAS, whose thread count ``train`` cannot pin, it says so once.
    """
    if cfg.out_dir is None:
        raise ConfigError("no output directory configured; set --out or out=...")
    out = Path(cfg.out_dir)
    existing = sorted(out.glob("seed_*.csv"))
    if (out / "aggregate.csv").exists():
        existing.append(out / "aggregate.csv")
    if existing and not force:
        raise ConfigError(
            f"{out} already holds results ({existing[0].name}, ...); "
            "pass --force to overwrite"
        )
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from None
    for stale in existing:
        stale.unlink()
    # a report left by an earlier failed run does not count as results
    (out / "failure_diagnostics.txt").unlink(missing_ok=True)
    (out / "config_used.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in cfg.settings), encoding="utf-8"
    )

    if not openblas_found():
        print("note: unknown BLAS, so the BLAS thread count is not pinned; results "
              "from batch 400 up may depend on it", file=sys.stderr)
    histories = []
    try:
        for seed in cfg.seeds:
            start = time.perf_counter()
            rng = np.random.default_rng(seed)
            history = train(cfg.env, cfg.hyper, cfg.mode, rng)
            write_seed_csv(out / f"seed_{seed}.csv", seed, history)
            histories.append((seed, history))
            if verbose:
                elapsed = time.perf_counter() - start
                print(
                    f"seed {seed}: {len(history)} iterations in {elapsed:.1f}s",
                    file=sys.stderr,
                )
    except Exception:
        (out / "failure_diagnostics.txt").write_text(
            f"seed {seed} failed\n{traceback.format_exc()}", encoding="utf-8")
        if verbose:
            print(
                f"training failed; see {out / 'failure_diagnostics.txt'}",
                file=sys.stderr,
            )
        return 1
    write_aggregate_csv(out / "aggregate.csv", histories)
    return 0


def summarize_dir(csv_dir, window: float = 0.1) -> dict:
    """Mean of every metric over the final ``window`` fraction of iterations.

    Returns {"seeds": {seed: {metric: mean}}, "mean": {metric: mean},
    "rows_used": n}; the cross-seed mean averages the per-seed window means.
    Every seed file must hold the same number of iterations, so that all
    windows cover the same ones.
    """
    if not 0.0 < window <= 1.0:
        raise ConfigError("window must lie in (0, 1]")
    csv_dir = Path(csv_dir)
    files = sorted(csv_dir.glob("seed_*.csv"))
    if not files:
        raise ConfigError(f"no seed_*.csv files found in {csv_dir}")
    per_seed: dict[int, dict[str, float]] = {}
    rows_used = None
    first = None  # (path, row count) of the first file
    files_of: dict[int, Path] = {}  # the file of each seed
    for path in files:
        rows = read_metrics_csv(path)
        if not rows:
            raise ConfigError(f"{path} is empty")
        missing = [c for c in SEED_COLUMNS if c not in rows[0]]
        if missing:
            raise ConfigError(f"{path} has no '{missing[0]}' column")
        if first is None:
            first = (path, len(rows))
        elif len(rows) != first[1]:
            raise ConfigError(f"seed files differ in length: {first[0]} has {first[1]} rows, "
                              f"{path} has {len(rows)}")
        k = max(1, int(round(len(rows) * window)))
        tail = rows[-k:]
        seed = int(rows[0]["seed"])
        if (other := files_of.setdefault(seed, path)) != path:
            raise ConfigError(f"{other} and {path} both hold seed {seed}")
        per_seed[seed] = {
            m: sum(r[m] for r in tail) / len(tail) for m in METRIC_FIELDS
        }
        rows_used = k
    seeds = sorted(per_seed)
    overall = {
        m: sum(per_seed[s][m] for s in seeds) / len(seeds) for m in METRIC_FIELDS
    }
    return {"seeds": per_seed, "mean": overall, "rows_used": rows_used}


def format_summary(summary: dict) -> str:
    seeds = sorted(summary["seeds"])
    header = ["metric"] + [f"seed {s}" for s in seeds] + ["mean"]
    width = max(14, max(len(m) for m in METRIC_FIELDS) + 2)
    lines = [
        f"final-window means over {summary['rows_used']} iterations",
        "".join(f"{h:>{width}}" for h in header),
    ]
    for metric in METRIC_FIELDS:
        cells = [f"{metric:>{width}}"]
        for s in seeds:
            cells.append(f"{summary['seeds'][s][metric]:>{width}.6g}")
        cells.append(f"{summary['mean'][metric]:>{width}.6g}")
        lines.append("".join(cells))
    return "\n".join(lines)
