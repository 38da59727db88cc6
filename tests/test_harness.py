import codecs
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from underlay_ppo import blas, cli, harness, ppo
from underlay_ppo.env import EnvConfig
from underlay_ppo.geometry import ChannelParams
from underlay_ppo.phy import RadioConfig
from underlay_ppo.harness import (
    AGGREGATE_COLUMNS,
    SEED_COLUMNS,
    ConfigError,
    build_config,
    format_summary,
    read_config_file,
    read_metrics_csv,
    run_experiment,
    summarize_dir,
    write_aggregate_csv,
    write_seed_csv,
)
from underlay_ppo.ppo import METRIC_FIELDS, PpoHyper

TINY = [("iters", "3"), ("batch", "10"), ("episode_len", "5")]


# exact config_used.txt bytes; the output directory is not among them
USED_DEFAULT = """\
alpha_los=2.4
alpha_nlos=3.78
batch=200
clip=0.1
d0=18.0
d1=36.0
episode_len=200
experiment=custom
gamma=0.1
iters=300
k_p=2
k_s=2
kappa_r_p=0.1
kappa_r_s=0.1
kappa_t_p=0.1
kappa_t_s=0.1
lam=0.94
lr_policy=0.001
lr_value=0.003
max_displacement=5.0
mode=coexist_dist
nakagami_m=10.0
noise_power=5.0118723362727144e-14
p_circuit=0.1
p_max_p=1.0
p_max_s=1.0
pair_ring_max=30.0
pair_ring_min=10.0
profile=desk
radius=100.0
rate_threshold=0.5
rho_decode=0.1
seeds=1,4,7
shadow_std_los_db=5.0
shadow_std_nlos_db=8.6
tau=1.0
update_epochs=10
"""

USED_PAPER_EX1 = """\
alpha_los=2.4
alpha_nlos=3.78
batch=500
clip=0.1
d0=18.0
d1=36.0
episode_len=500
experiment=ex1
gamma=0.1
iters=4000
k_p=4
k_s=8
kappa_r_p=0.1
kappa_r_s=0.1
kappa_t_p=0.1
kappa_t_s=0.1
lam=0.94
lr_policy=0.0003
lr_value=0.001
max_displacement=5.0
mode=coexist_dist
nakagami_m=10.0
noise_power=5.0118723362727144e-14
p_circuit=0.1
p_max_p=1.0
p_max_s=1.0
pair_ring_max=30.0
pair_ring_min=10.0
profile=paper
radius=100.0
rate_threshold=0.5
rho_decode=0.1
seeds=1,4,7
shadow_std_los_db=5.0
shadow_std_nlos_db=8.6
tau=1.0
update_epochs=10
"""


# a child run whose training fails with a message outside ASCII; prints the
# locale's preferred encoding, then run_experiment's exit status
_FAILING_RUN = """
import locale, sys
from underlay_ppo import harness

def diverge(*args, **kwargs):
    raise RuntimeError("diverged at caf\\u00e9")

harness.train = diverge
print(locale.getpreferredencoding(False), flush=True)
cfg = harness.build_config(None, [("iters", "3"), ("batch", "10"), ("episode_len", "5"),
                                  ("seeds", "0"), ("out", sys.argv[1])])
print(harness.run_experiment(cfg))
"""


# a child run of two seeds whose every iteration records how many threads its
# process and its update worker have; prints the (caller, worker) pairs
_THREAD_COUNTING_RUN = """
import os, sys
from underlay_ppo import harness, ppo, worker

counts = []

def count_threads(row):
    counts.append((len(os.listdir("/proc/self/task")),
                   len(os.listdir(f"/proc/{worker._worker.pid}/task"))))

harness.train = lambda *args: ppo.train(*args, on_iteration=count_threads)
cfg = harness.build_config(None, [("iters", "3"), ("batch", "10"), ("episode_len", "5"),
                                  ("seeds", "0,1"), ("out", sys.argv[1])])
assert harness.run_experiment(cfg) == 0
print(counts)
"""


def _unloadable(path):
    raise OSError(f"cannot load {path}")


def tiny_cfg(out=None, extra=()):
    overrides = list(TINY) + [("seeds", "0,1")] + list(extra)
    if out is not None:
        overrides.append(("out", str(out)))
    return build_config(None, overrides)


class TestConfigDefaults:
    def test_empty_config_matches_documented_defaults(self):
        cfg = build_config(None, [])
        assert cfg.hyper.gamma == 0.1
        assert cfg.hyper.clip == 0.1
        assert cfg.hyper.lam == 0.94
        assert cfg.env.radio.rate_threshold == 0.5
        assert cfg.env.radio.kappa_t_p == 0.1
        assert cfg.env.radio.kappa_r_s == 0.1
        assert dict(cfg.settings)["experiment"] == "custom"
        assert cfg.mode == "coexist_dist"
        assert dict(cfg.settings)["profile"] == "desk"
        assert cfg.seeds == (1, 4, 7)
        assert cfg.out_dir is None

    def test_desk_profile_scale(self):
        cfg = build_config(None, [])
        assert cfg.hyper.iters == 300
        assert cfg.hyper.batch == 200
        assert cfg.hyper.episode_len == 200

    def test_desk_profile_runs_the_dataclass_defaults(self):
        assert build_config(None, []).hyper == PpoHyper()

    def test_paper_profile_scale(self):
        cfg = build_config(None, [("profile", "paper")])
        assert cfg.hyper.iters == 4000
        assert cfg.hyper.batch == 500
        assert cfg.hyper.episode_len == 500
        assert cfg.hyper.lr_policy == 3e-4

    def test_experiment_presets(self):
        ex1 = build_config(None, [("experiment", "ex1")])
        assert (ex1.env.k_p, ex1.env.k_s) == (4, 8)
        ex2 = build_config(None, [("experiment", "ex2")])
        assert (ex2.env.k_p, ex2.env.k_s) == (8, 4)


class TestConfigFileParsing:
    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# a comment line\n"
            "\n"
            "gamma=0.5   # trailing comment\n"
            "k_p = 3\n"
            "seeds=4,5\n"
        )
        cfg = build_config(path, [])
        assert cfg.hyper.gamma == 0.5
        assert cfg.env.k_p == 3
        assert cfg.seeds == (4, 5)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma=0.5\nnot_a_key=1\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:2.*not_a_key"):
            build_config(path, [])

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma=0.5\njust some words\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:2"):
            read_config_file(path)

    def test_out_of_range_names_key_and_line(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("\n\ngamma=1.5\n")
        with pytest.raises(ConfigError, match=r"cfg\.txt:3.*'gamma'"):
            build_config(path, [])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            build_config(tmp_path / "nope.txt", [])

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("k_p=3\n", encoding="utf-8-sig")
        assert build_config(path, []).env.k_p == 3


class TestConfigPrecedence:
    def test_cli_beats_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("gamma=0.5\n")
        cfg = build_config(path, [("gamma", "0.9")])
        assert cfg.hyper.gamma == 0.9

    def test_file_beats_profile(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("profile=paper\niters=7\nbatch=10\nepisode_len=5\n")
        cfg = build_config(path, [])
        assert dict(cfg.settings)["profile"] == "paper"
        assert cfg.hyper.iters == 7

    def test_profile_key_applies_regardless_of_position(self, tmp_path):
        # preset application happens before line-by-line overrides
        path = tmp_path / "cfg.txt"
        path.write_text("iters=7\nprofile=paper\n")
        cfg = build_config(path, [])
        assert cfg.hyper.iters == 7

    def test_kappa_master_key_expands(self):
        cfg = build_config(None, [("kappa", "0.2")])
        radio = cfg.env.radio
        assert (radio.kappa_t_p, radio.kappa_r_p) == (0.2, 0.2)
        assert (radio.kappa_t_s, radio.kappa_r_s) == (0.2, 0.2)

    def test_kappa_specific_after_master(self):
        cfg = build_config(None, [("kappa", "0.2"), ("kappa_r_s", "0.05")])
        assert cfg.env.radio.kappa_r_s == 0.05
        assert cfg.env.radio.kappa_t_p == 0.2

    def test_p_max_master_key(self):
        cfg = build_config(None, [("p_max", "2.5")])
        assert cfg.env.radio.p_max_p == 2.5
        assert cfg.env.radio.p_max_s == 2.5


class TestConfigValidation:
    def test_bad_values(self):
        cases = [
            ("gamma", "nope"),
            ("seeds", "1,1"),
            ("seeds", ""),
            ("k_p", "0"),
            ("kappa", "0.7"),
            ("mode", "telepathy"),
            ("noise_power", "-1"),
        ]
        for key, value in cases:
            with pytest.raises(ConfigError):
                build_config(None, [(key, value)])

    @pytest.mark.parametrize("key, value", [
        ("radius", "nan"),
        ("noise_power", "nan"),
        ("d0", "nan"),
        ("nakagami_m", "nan"),
        ("rate_threshold", "nan"),
        ("lr_policy", "inf"),
        ("p_max", "inf"),
        ("max_displacement", "inf"),
        ("alpha_nlos", "inf"),
        ("gamma", "-inf"),
    ])
    def test_non_finite_numbers_are_malformed(self, key, value):
        expected = f"command line: malformed value for '{key}'"
        with pytest.raises(ConfigError, match=expected):
            build_config(None, [(key, value)])

    @pytest.mark.parametrize("line", ["pair_ring_min=40", "alpha_los=4"])
    def test_cross_field_error_names_key_and_line(self, tmp_path, line):
        path = tmp_path / "cfg.txt"
        path.write_text(f"gamma=0.5\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ConfigError, match=rf"cfg\.txt:2.*'{key}'"):
            build_config(path, [])

    # -1 breaks the range rule of every numeric key, so each check must name its key
    @pytest.mark.parametrize("key", sorted(
        harness.KNOWN_KEYS - {"experiment", "mode", "profile", "seeds", "out"}
    ))
    def test_every_range_check_names_its_key(self, key):
        expected = f"^command line: value out of range for '{key}': "
        with pytest.raises(ConfigError, match=expected):
            build_config(None, [(key, "-1")])

    # the same rule for code that builds the dataclasses without the harness
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cls, name", [
        (cls, f.name)
        for cls in (ChannelParams, RadioConfig, EnvConfig, PpoHyper)
        for f in dataclasses.fields(cls)
        if isinstance(f.default, float)
    ])
    def test_config_dataclasses_reject_non_finite(self, cls, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            cls(**{name: bad})

    # a float count passes the range checks but fails later as an array size
    @pytest.mark.parametrize("bad", [2.0, 2.5])
    @pytest.mark.parametrize("cls, name", [
        (EnvConfig, "k_p"), (EnvConfig, "k_s"), (PpoHyper, "iters"), (PpoHyper, "batch"),
        (PpoHyper, "episode_len"), (PpoHyper, "update_epochs"),
    ])
    def test_config_dataclasses_reject_non_integer_counts(self, cls, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
            cls(**{name: bad})
        default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
        assert getattr(cls(**{name: np.int64(default)}), name) == default

    def test_only_resolved_values_are_range_checked(self):
        cfg = build_config(None, [("gamma", "1.5"), ("gamma", "0.5")])
        assert cfg.hyper.gamma == 0.5

    def test_preset_and_default_locations(self):
        with pytest.raises(ConfigError, match=r"^profile preset 'paper': .*'batch'"):
            build_config(None, [("profile", "paper"), ("episode_len", "7")])
        with pytest.raises(ConfigError, match=r"^built-in default: .*'alpha_los'"):
            build_config(None, [("alpha_nlos", "2")])

    @pytest.mark.parametrize("overrides, culprits", [
        ([("profile", "paper"), ("episode_len", "300")],
         ("'batch'", "profile preset 'paper'", "'episode_len'")),
        ([("alpha_nlos", "2")], ("'alpha_los'", "built-in default", "'alpha_nlos'")),
        ([("pair_ring_max", "5")], ("'pair_ring_min'", "built-in default", "'pair_ring_max'")),
    ], ids=["episode_len", "alpha_nlos", "pair_ring_max"])
    def test_cross_field_error_names_every_field_and_supplier(self, overrides, culprits):
        # the field set on the command line is named with its location, not
        # only the first field of the rule
        with pytest.raises(ConfigError) as err:
            build_config(None, overrides)
        message = str(err.value)
        assert f"'{overrides[-1][0]}' from command line" in message
        assert all(culprit in message for culprit in culprits)

    def test_cross_field_check_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            build_config(None, [("pair_ring_min", "40"), ("pair_ring_max", "20")])
        with pytest.raises(ConfigError):
            build_config(None, [("batch", "10"), ("episode_len", "7"), ("iters", "2")])


SMALLEST = math.ulp(0.0)  # the smallest positive float


class TestRangeEdges:
    """Each range rule at its edges. The field lists are written out by hand,
    not read from the dataclasses, so that a field that loses its range shows."""

    @pytest.mark.parametrize("cls, name, others", [
        (ChannelParams, "alpha_los", {}), (ChannelParams, "d0", {}), (ChannelParams, "d1", {}),
        (RadioConfig, "noise_power", {}), (RadioConfig, "p_max_p", {}),
        (RadioConfig, "p_max_s", {}), (RadioConfig, "tau", {}), (RadioConfig, "p_circuit", {}),
        (EnvConfig, "radius", {}), (EnvConfig, "pair_ring_min", {}),
        (EnvConfig, "pair_ring_max", {"pair_ring_min": SMALLEST}),
        (PpoHyper, "lr_policy", {}), (PpoHyper, "lr_value", {}),
    ])
    def test_positive(self, cls, name, others):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            cls(**{name: 0.0})
        assert getattr(cls(**others, **{name: SMALLEST}), name) == SMALLEST

    def test_positive_alpha_nlos(self):
        # no positive alpha_los lies below the smallest positive float
        with pytest.raises(ValueError, match="^alpha_nlos must be positive$"):
            ChannelParams(alpha_nlos=0.0)
        assert ChannelParams(alpha_los=SMALLEST, alpha_nlos=2 * SMALLEST).alpha_nlos > 0.0

    @pytest.mark.parametrize("cls, name", [
        (ChannelParams, "shadow_std_los_db"), (ChannelParams, "shadow_std_nlos_db"),
        (ChannelParams, "max_displacement"), (RadioConfig, "rate_threshold"),
        (RadioConfig, "rho_decode"),
    ])
    def test_non_negative(self, cls, name):
        assert getattr(cls(**{name: 0.0}), name) == 0.0
        with pytest.raises(ValueError, match=f"^{name} must be non-negative$"):
            cls(**{name: -SMALLEST})

    @pytest.mark.parametrize("cls, name, others", [
        (EnvConfig, "k_p", {}), (EnvConfig, "k_s", {}), (PpoHyper, "iters", {}),
        (PpoHyper, "batch", {"episode_len": 1}), (PpoHyper, "episode_len", {}),
        (PpoHyper, "update_epochs", {}),
    ])
    def test_counts(self, cls, name, others):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1$"):
            cls(**{name: 0})
        assert getattr(cls(**others, **{name: 1}), name) == 1

    @pytest.mark.parametrize("name", ["kappa_t_p", "kappa_r_p", "kappa_t_s", "kappa_r_s"])
    def test_kappa(self, name):
        assert getattr(RadioConfig(**{name: 0.5}), name) == 0.5
        assert getattr(RadioConfig(**{name: 0.0}), name) == 0.0
        for bad in (0.5000001, -SMALLEST):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 0.5\]$"):
                RadioConfig(**{name: bad})

    def test_nakagami_m(self):
        assert ChannelParams(nakagami_m=0.5).nakagami_m == 0.5
        with pytest.raises(ValueError, match="^nakagami_m must be >= 0.5$"):
            ChannelParams(nakagami_m=np.nextafter(0.5, 0.0))

    @pytest.mark.parametrize("name", ["gamma", "lam", "clip"])
    def test_unit_interval(self, name):
        assert getattr(PpoHyper(**{name: 1.0}), name) == 1.0
        assert getattr(PpoHyper(**{name: SMALLEST}), name) == SMALLEST
        for bad in (0.0, np.nextafter(1.0, 2.0)):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\]$"):
                PpoHyper(**{name: bad})

    def test_field_rules_come_before_rules_across_fields(self):
        with pytest.raises(ValueError, match="^nakagami_m must be >= 0.5$"):
            ChannelParams(alpha_los=5.0, nakagami_m=0.1)
        with pytest.raises(ValueError, match="^episode_len must be >= 1$"):
            PpoHyper(episode_len=0)  # before batch % episode_len divides by zero


class TestCsvRoundTrip:
    def make_history(self, n=3):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(n):
            row = {"iter": i + 1}
            row.update({m: float(v) for m, v in
                        zip(METRIC_FIELDS, rng.standard_normal(len(METRIC_FIELDS)))})
            rows.append(row)
        return rows

    def test_seed_csv_layout(self, tmp_path):
        path = tmp_path / "seed_3.csv"
        history = self.make_history()
        write_seed_csv(path, 3, history)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        header = raw.split(b"\r\n", 1)[0].decode()
        assert header == ",".join(SEED_COLUMNS)
        back = read_metrics_csv(path)
        assert len(back) == 3
        assert back[0]["seed"] == 3.0
        for m in METRIC_FIELDS:
            assert back[1][m] == pytest.approx(history[1][m], rel=1e-8)

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "seed_0.csv"
        history = self.make_history(1)
        history[0]["reward_p"] = 0.123456789123456
        write_seed_csv(path, 0, history)
        text = path.read_text()
        assert "0.123456789" in text
        assert "0.1234567891" not in text

    def test_aggregate_is_cross_seed_mean(self, tmp_path):
        h0 = self.make_history(2)
        h1 = self.make_history(2)
        for r in h1:
            for m in METRIC_FIELDS:
                r[m] += 1.0
        path = tmp_path / "aggregate.csv"
        write_aggregate_csv(path, [(1, h1), (0, h0)])
        rows = read_metrics_csv(path)
        header = path.read_bytes().split(b"\r\n", 1)[0].decode()
        assert header == ",".join(AGGREGATE_COLUMNS)
        for i, row in enumerate(rows):
            for m in METRIC_FIELDS:
                expect = (h0[i][m] + h1[i][m]) / 2.0
                assert row[m] == pytest.approx(expect, rel=1e-8)

    def test_aggregate_rejects_ragged_histories(self, tmp_path):
        with pytest.raises(ValueError):
            write_aggregate_csv(
                tmp_path / "agg.csv",
                [(0, self.make_history(2)), (1, self.make_history(3))],
            )


class TestRunExperiment:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_cfg(out)
        assert run_experiment(cfg) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["aggregate.csv", "config_used.txt", "seed_0.csv", "seed_1.csv"]
        assert len(read_metrics_csv(out / "seed_0.csv")) == 3
        assert len(read_metrics_csv(out / "aggregate.csv")) == 3
        used = (out / "config_used.txt").read_text()
        assert "gamma=0.1\n" in used
        assert "iters=3\n" in used

    def test_seed_csv_is_the_library_run_of_that_seed(self, tmp_path):
        """The harness and the library mean the same run by a seed: each
        ``seed_<s>.csv`` holds the bytes ``write_seed_csv`` writes for
        ``train(cfg.env, cfg.hyper, cfg.mode, s)``."""
        cfg = tiny_cfg(tmp_path / "run")
        assert run_experiment(cfg) == 0
        for seed in cfg.seeds:
            path = tmp_path / f"library_{seed}.csv"
            write_seed_csv(path, seed, ppo.train(cfg.env, cfg.hyper, cfg.mode, seed))
            assert path.read_bytes() == (tmp_path / "run" / f"seed_{seed}.csv").read_bytes()

    @pytest.mark.parametrize("overrides, expected", [
        ([], USED_DEFAULT),
        ([("profile", "paper"), ("experiment", "ex1")], USED_PAPER_EX1),
    ])
    def test_config_used_bytes(self, tmp_path, monkeypatch, overrides, expected):
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: [])
        out = tmp_path / "run"
        assert run_experiment(build_config(None, overrides + [("out", str(out))])) == 0
        used = (out / "config_used.txt").read_bytes()
        assert used == expected.encode("utf-8")

    @pytest.mark.parametrize("overrides", [[], [("profile", "paper"), ("experiment", "ex1"),
                                                ("lr_policy", "1.2345678912345e-4")]],
                             ids=["default", "paper-ex1"])
    def test_config_used_reproduces_the_run(self, tmp_path, monkeypatch, overrides):
        # config_used.txt read back as the config file, with the output
        # directory given again, resolves to the same settings and config
        # values; the default noise_power (10**-13.3) has no 9-digit form that
        # parses back to it
        monkeypatch.setattr(harness, "train", lambda *args, **kwargs: [])
        out = tmp_path / "run"
        cfg = build_config(None, overrides + [("out", str(out))])
        assert run_experiment(cfg) == 0
        again = build_config(out / "config_used.txt", [("out", str(out))])
        assert again.settings == cfg.settings
        assert dataclasses.asdict(again) == dataclasses.asdict(cfg)

    def test_refuses_overwrite_without_force(self, tmp_path):
        out = tmp_path / "run"
        assert run_experiment(tiny_cfg(out)) == 0
        with pytest.raises(ConfigError, match="--force"):
            run_experiment(tiny_cfg(out))

    def test_force_removes_stale_seeds(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "seed_99.csv").write_text("stale\n")
        assert run_experiment(tiny_cfg(out), force=True) == 0
        assert not (out / "seed_99.csv").exists()
        assert (out / "seed_0.csv").exists()

    def test_missing_out_dir_rejected(self):
        with pytest.raises(ConfigError, match="output directory"):
            run_experiment(tiny_cfg(out=None))

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_cfg(out_a))
        run_experiment(tiny_cfg(out_b))
        for name in ("seed_0.csv", "seed_1.csv", "aggregate.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_order_does_not_matter(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(build_config(None, TINY + [("seeds", "0,1"), ("out", str(out_a))]))
        run_experiment(build_config(None, TINY + [("seeds", "1,0"), ("out", str(out_b))]))
        for name in ("seed_0.csv", "seed_1.csv", "aggregate.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_training_failure_leaves_diagnostics(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(harness, "train", boom)
        out = tmp_path / "run"
        assert run_experiment(tiny_cfg(out)) == 1
        diag = (out / "failure_diagnostics.txt").read_text()
        assert "synthetic failure" in diag
        assert not (out / "aggregate.csv").exists()

    def test_divergence_names_seed_iteration_agent_and_block(self, tmp_path, monkeypatch):
        real_build_agents = ppo.build_agents

        def poisoned(*args, **kwargs):
            agents = real_build_agents(*args, **kwargs)
            agents[1].value.weights[-1][0, 0] = np.inf
            return agents

        monkeypatch.setattr(ppo, "build_agents", poisoned)
        out = tmp_path / "run"
        with np.errstate(invalid="ignore"):
            assert run_experiment(tiny_cfg(out)) == 1
        diag = (out / "failure_diagnostics.txt").read_text()
        assert diag.startswith("seed 0 failed\n")
        assert "TrainingDiverged: iteration 1, agent 's'" in diag
        assert "first non-finite block: value w2 (parameters)" in diag

    def test_unknown_blas_is_reported_and_not_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(blas, "_thread_controls", lambda: None)
        assert run_experiment(tiny_cfg(tmp_path / "run")) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "BLAS thread count is not pinned" in lines[0]

    # the linalg extension cannot be loaded, or it links no scipy-openblas
    @pytest.mark.parametrize("cdll", [_unloadable, lambda path: object()],
                             ids=["library-not-loadable", "symbol-missing"])
    def test_failed_blas_lookup_counts_as_unknown_blas(
            self, tmp_path, monkeypatch, capsys, cdll):
        real = blas._thread_controls()
        # a process looks the library up once; this one does so afresh at every call
        monkeypatch.setattr(blas, "_lookup", blas._lookup.__wrapped__)
        monkeypatch.setattr(blas.ctypes, "CDLL", cdll)
        seen = []
        assert not blas.openblas_found()
        assert run_experiment(tiny_cfg(tmp_path / "run")) == 0
        if real is not None:  # train leaves the real thread count alone
            get, set_ = real
            before = get()
            set_(2)
            outside = get()
            try:
                ppo.train(EnvConfig(), PpoHyper(iters=1, batch=5, episode_len=5), ppo.MODE_COEXIST,
                          0, on_iteration=lambda row: seen.append(get()))
            finally:
                set_(before)
            assert seen == [outside]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "BLAS thread count is not pinned" in lines[0]

    def test_rerun_removes_failure_diagnostics(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        out = tmp_path / "run"
        monkeypatch.setattr(harness, "train", boom)
        assert run_experiment(tiny_cfg(out)) == 1
        assert (out / "failure_diagnostics.txt").exists()
        monkeypatch.undo()
        # the failed run wrote no CSVs, so the rerun needs no --force
        assert run_experiment(tiny_cfg(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["aggregate.csv", "config_used.txt", "seed_0.csv", "seed_1.csv"]

    def test_failure_report_is_utf8_under_c_locale(self, tmp_path):
        """Under the C locale, without UTF-8 mode or locale coercion, a failure
        message outside ASCII still reaches failure_diagnostics.txt, which is
        UTF-8 like every other file the run writes, and the run returns 1."""
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = tmp_path / "run"
        done = subprocess.run([sys.executable, "-c", _FAILING_RUN, str(out)], env=env,
                              capture_output=True, text=True, errors="replace", timeout=120)
        encoding, *status = done.stdout.split()
        if codecs.lookup(encoding).name == "utf-8":
            pytest.skip(f"the child's preferred encoding is still {encoding}")
        assert done.returncode == 0, done.stderr
        assert status == ["1"]
        report = (out / "failure_diagnostics.txt").read_text(encoding="utf-8")
        assert report.startswith("seed 0 failed\n")
        assert "RuntimeError: diverged at caf\u00e9" in report

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_no_blas_thread_runs_beside_training(self, tmp_path):
        """Neither the caller nor its update worker runs a second thread while
        a two-seed run trains: the worker's fork stops OpenBLAS's pool, and no
        set call restarts it (``blas`` module doc). The child starts on two
        BLAS threads, so that its import starts a pool for the fork to stop."""
        if not blas.openblas_found():
            pytest.skip("numpy does not use its bundled OpenBLAS")
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", _THREAD_COUNTING_RUN, str(tmp_path / "run")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == repr([(1, 1)] * 6)


class TestSummarize:
    def test_window_math(self, tmp_path):
        out = tmp_path / "run"
        cfg = build_config(
            None, [("iters", "20"), ("batch", "5"), ("episode_len", "5"),
                   ("seeds", "0"), ("out", str(out))]
        )
        run_experiment(cfg)
        summary = summarize_dir(out, window=0.1)
        assert summary["rows_used"] == 2
        rows = read_metrics_csv(out / "seed_0.csv")
        expect = (rows[-1]["reward_p"] + rows[-2]["reward_p"]) / 2.0
        assert summary["seeds"][0]["reward_p"] == pytest.approx(expect)
        assert summary["mean"]["reward_p"] == pytest.approx(expect)

    def test_full_window(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out))
        summary = summarize_dir(out, window=1.0)
        assert summary["rows_used"] == 3
        assert sorted(summary["seeds"]) == [0, 1]

    def test_bad_window(self, tmp_path):
        with pytest.raises(ConfigError):
            summarize_dir(tmp_path, window=0.0)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ConfigError, match="no seed"):
            summarize_dir(tmp_path, window=0.5)

    def test_unequal_seed_lengths_rejected(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out))  # seeds 0 and 1, 3 iterations each
        short = out / "seed_1.csv"
        lines = short.read_text(encoding="utf-8").splitlines(keepends=True)
        short.write_text("".join(lines[:2]), encoding="utf-8")  # header and 1 row
        with pytest.raises(ConfigError, match=r"seed_0\.csv has 3 rows, .*seed_1\.csv has 1"):
            summarize_dir(out, window=0.1)

    def test_missing_metric_column_names_file_and_column(self, tmp_path):
        (tmp_path / "seed_1.csv").write_text("iter,seed\n1,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"seed_1\.csv has no 'reward_p' column"):
            summarize_dir(tmp_path, window=0.5)

    def test_non_numeric_cell_names_file_and_column(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out))
        path = out / "seed_1.csv"
        header, first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = first.split(",")
        cells[SEED_COLUMNS.index("reward_p")] = "abc"
        path.write_text("".join([header, ",".join(cells), *rest]), encoding="utf-8")
        with pytest.raises(ConfigError, match=r"seed_1\.csv: column 'reward_p' holds 'abc'"):
            summarize_dir(out, window=0.5)

    def test_duplicate_seed_value_names_both_files(self, tmp_path):
        """Two files holding the same seed would collapse into one seed of the
        cross-seed mean; the summary refuses them and names both."""
        out = tmp_path / "run"
        assert run_experiment(tiny_cfg(out, [("seeds", "4")])) == 0
        (out / "seed_1.csv").write_bytes((out / "seed_4.csv").read_bytes())
        with pytest.raises(ConfigError, match=r"seed_1\.csv and .*seed_4\.csv both hold seed 4"):
            summarize_dir(out, window=0.5)

    def test_format_summary_layout(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_cfg(out))
        text = format_summary(summarize_dir(out, window=1.0))
        lines = text.splitlines()
        assert "seed 0" in lines[1] and "mean" in lines[1]
        assert len(lines) == 2 + len(METRIC_FIELDS)


class TestCli:
    def test_run_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "run"
        status = cli.main(
            ["run", "--seeds", "0", "--out", str(out), "--quiet",
             "--set", "iters=3", "--set", "batch=10", "--set", "episode_len=5"]
        )
        assert status == 0
        assert (out / "aggregate.csv").exists()
        status = cli.main(["summarize", "--dir", str(out), "--window", "1.0"])
        assert status == 0
        printed = capsys.readouterr().out
        assert "reward_p" in printed

    def test_summarize_without_window_uses_the_summarize_dir_default(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["run", "--seeds", "0", "--out", str(out), "--quiet",
                         "--set", "iters=20", "--set", "batch=5", "--set", "episode_len=5"]) == 0
        capsys.readouterr()
        assert cli.main(["summarize", "--dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed == format_summary(summarize_dir(out)) + "\n"
        # 20 iterations: the default window averages 2 of them, a full one all 20
        assert "over 2 iterations" in printed

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert cli.main(["run", "--seeds=-1,2", "--out", str(out), "--quiet"]) == 2
        assert "'seeds' must be non-negative" in capsys.readouterr().err
        assert not (out / "failure_diagnostics.txt").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        status = cli.main(["run", "--set", "bogus=1", "--out", str(tmp_path / "x")])
        assert status == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["experiment", "mode", "profile"])
    def test_bad_choice_flag_is_the_config_error_set_gives(self, tmp_path, capsys, key):
        # the harness alone checks a choice, whether a flag, --set or a config line gives it
        out = tmp_path / "x"
        assert cli.main(["run", f"--{key}", "telepathy", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: command line: invalid value for '{key}': 'telepathy' "
                              "(choose from ")
        assert cli.main(["run", "--set", f"{key}=telepathy", "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_run_help_lists_every_choice(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", "--help"])
        assert exited.value.code == 0
        printed = capsys.readouterr().out
        for key, choices in [("experiment", harness.EXPERIMENTS), ("mode", ppo.MODES),
                             ("profile", harness.PROFILES)]:
            assert f"--{key}" in printed
            assert all(choice in printed for choice in choices), key

    def test_zero_tau_is_config_error(self, tmp_path, capsys):
        # tau = rho_decode = 0 would leave the EE denominator zero and the
        # first step's secondary rewards infinite
        out = tmp_path / "x"
        status = cli.main(["run", "--seeds", "1", "--out", str(out), "--quiet",
                           "--set", "tau=0", "--set", "rho_decode=0", "--set", "iters=1",
                           "--set", "batch=5", "--set", "episode_len=5"])
        assert status == 2
        assert "'tau': must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_is_config_error(self, capsys):
        status = cli.main(["run", "--quiet", "--set", "iters=1",
                           "--set", "batch=5", "--set", "episode_len=5"])
        assert status == 2

    @pytest.mark.parametrize("value", ["true", "maybe"])
    def test_force_is_no_config_key(self, tmp_path, capsys, value):
        # overwriting is a choice of the invocation (--force), not a setting
        out = tmp_path / "x"
        assert cli.main(["run", "--out", str(out), "--set", f"force={value}"]) == 2
        assert "command line: unknown key 'force'" in capsys.readouterr().err
        assert not out.exists()

    def test_record_rerun_without_out_keeps_the_results(self, tmp_path, capsys):
        # config_used.txt names no output directory, so rerunning it without
        # --out cannot overwrite the results it came from, even after --force
        out = tmp_path / "run"
        assert cli.main(["run", "--seeds", "0", "--out", str(out), "--quiet", "--force",
                         "--set", "iters=2", "--set", "batch=5", "--set", "episode_len=5"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert cli.main(["run", "--config", str(out / "config_used.txt"), "--quiet"]) == 2
        assert "no output directory configured" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_bytes("k_p = 2  # caf\u00e9\n".encode("latin-1"))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"error: cannot read config file {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes("iter,seed,caf\u00e9\n1,1,0\n".encode("latin-1")),
        lambda path: path.mkdir(),
    ], ids=["latin-1", "directory"])
    def test_unreadable_seed_file_is_config_error(self, tmp_path, capsys, make):
        make(tmp_path / "seed_1.csv")
        assert cli.main(["summarize", "--dir", str(tmp_path)]) == 2
        assert f"error: cannot read {tmp_path / 'seed_1.csv'}: " in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["nan", "inf", "1.5", "-1"])
    def test_seed_that_is_not_a_non_negative_integer_is_config_error(self, tmp_path, capsys,
                                                                      seed):
        path = tmp_path / "seed_1.csv"
        row = dict.fromkeys(SEED_COLUMNS, "0") | {"seed": seed}
        path.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n", encoding="utf-8")
        assert cli.main(["summarize", "--dir", str(tmp_path)]) == 2
        assert f"error: {path}: column 'seed' holds " in capsys.readouterr().err

    def test_malformed_set_flag(self, tmp_path, capsys):
        status = cli.main(["run", "--out", str(tmp_path / "x"), "--set", "oops"])
        assert status == 2

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "results.txt"
        out.write_text("not a directory\n", encoding="utf-8")
        status = cli.main(["run", "--seeds", "0", "--out", str(out), "--quiet",
                           "--set", "iters=1", "--set", "batch=5", "--set", "episode_len=5"])
        assert status == 2
        assert f"cannot use {out} as the output directory" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_overwrite_cycle(self, tmp_path, capsys):
        out = tmp_path / "run"
        args = ["run", "--seeds", "0", "--out", str(out), "--quiet",
                "--set", "iters=2", "--set", "batch=5", "--set", "episode_len=5"]
        assert cli.main(args) == 0
        assert cli.main(args) == 2
        assert cli.main(args + ["--force"]) == 0
