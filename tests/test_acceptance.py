"""End-to-end acceptance gate.

Every numbered check below is self-contained: exact oracle comparisons for
the math kernels, closed-form spot values for the physics, and a scaled
three-seed training run for the learning-dynamics checks.  Each check
emits a single ``CRITERION <n> PASS/FAIL`` line on the real stdout so the
full slate is visible in a test transcript even under output capture.

The training-based checks (5-7) share one desk-profile run via a
module-scoped fixture; the determinism check (8) repeats that run with an
identical configuration and compares the CSV bytes.
"""

import csv
import importlib.util
import itertools
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    coupled,
    gae_loops,
    gain_matrix,
    gaussian_log_prob,
    logprob_grads_from_forward,
    make_agent,
    max_rel_err,
    numeric_grad,
    observe,
    random_gains,
    sindr_loops,
    unshrunk_policy,
)
from underlay_ppo import harness
from underlay_ppo.env import EnvConfig, SpectrumSharingEnv, reward_primary
from underlay_ppo.geometry import ChannelParams, los_probability
from underlay_ppo.phy import (
    RadioConfig,
    evaluate_links,
    nqos,
)
from underlay_ppo.ppo import (
    OBS_CENTRALIZED_DIST,
    OBS_CENTRALIZED_FULL_CSI,
    OBS_PRIMARY,
    OBS_SECONDARY,
    PpoHyper,
    TrajectoryBatch,
    clip_envelope,
    compute_gae,
    episode_heads,
    normalize_advantages,
    observation_dim,
    policy_objective,
    value_objective,
)


CRITERION_LINES = []


def report(num, ok, detail):
    """Record and print one pass/fail line per criterion.

    conftest echoes the recorded lines in the terminal summary, where they
    survive output capture.
    """
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} {status}: {detail}"
    CRITERION_LINES.append(line)
    print(f"\n{line}", flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def synthetic_batch(rng, n, obs_dim, action_dim):
    """Generic trajectory batch with normalized GAE advantages."""
    batch = TrajectoryBatch(
        obs=rng.standard_normal((n, obs_dim)),
        actions=rng.standard_normal((n, action_dim)),
        log_probs_old=rng.standard_normal(n) * 0.3,
        rewards=rng.standard_normal(n),
        dones=np.zeros(n),
        values=rng.standard_normal(n),
        bootstrap_value=float(rng.standard_normal()),
    )
    batch.dones[-1] = 1.0
    batch.returns, adv = compute_gae(
        batch, PpoHyper(gamma=0.5, lam=0.9, iters=1, batch=n, episode_len=n)
    )
    batch.advantages = normalize_advantages(adv)
    return batch


# --- shared desk-profile training run (criteria 5-7) -----------------------


def run_desk(out_dir):
    cfg = harness.build_config(None, [("profile", "desk"), ("out", str(out_dir))])
    assert cfg.env.k_p == 2 and cfg.env.k_s == 2
    assert cfg.hyper.iters == 300
    assert cfg.hyper.batch == 200 and cfg.hyper.episode_len == 200
    assert len(cfg.seeds) == 3
    start = time.monotonic()
    rc = harness.run_experiment(cfg, verbose=False)
    elapsed = time.monotonic() - start
    assert rc == 0
    return cfg, elapsed


def read_aggregate(out_dir):
    with open(out_dir / "aggregate.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def window_mean(rows, field):
    return sum(float(r[field]) for r in rows) / len(rows)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    cfg, elapsed = run_desk(out)
    rows = read_aggregate(out)
    tail = rows[-max(1, round(0.10 * len(rows))):]
    head = rows[:10]
    return {
        "out": out,
        "cfg": cfg,
        "elapsed": elapsed,
        "rows": rows,
        "head": head,
        "tail": tail,
    }


# --- criteria ---------------------------------------------------------------


def test_criterion_1_exact_gradients():
    """Surrogate, value-MSE, and log-prob gradients match finite differences."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    hyper = PpoHyper(iters=1, batch=12, episode_len=12)
    agent = make_agent(rng, "a", 6, 4, hyper, hidden=(8,))
    for p in itertools.chain(agent.policy.params(), agent.value.params()):
        p += 0.1 * rng.standard_normal(p.shape)
    batch = synthetic_batch(rng, 12, obs_dim=6, action_dim=4)

    envelope = clip_envelope(batch.advantages, hyper.clip)
    _, pol_grads, _ = policy_objective(agent.policy, batch, envelope)
    pol_numeric = numeric_grad(
        lambda: policy_objective(agent.policy, batch, envelope)[0],
        agent.policy.params(),
        h=1e-5,
    )
    surrogate_err = max_rel_err(agent.policy.blocks(pol_grads), pol_numeric)

    _, val_grads = value_objective(agent.value, batch)
    val_numeric = numeric_grad(
        lambda: value_objective(agent.value, batch)[0],
        agent.value.params(),
        h=1e-5,
    )
    value_err = max_rel_err(agent.value.blocks(val_grads), val_numeric)

    pol2 = unshrunk_policy(rng, 6, 4, hidden=(8,))
    obs = rng.standard_normal((9, 6))
    actions = rng.standard_normal((9, 4))
    weights = rng.standard_normal(9)

    def logp_sum():
        mean, log_std, _ = pol2.forward(obs)
        return float(np.sum(weights * gaussian_log_prob(mean, log_std, actions)))

    mean, log_std, cache = pol2.forward(obs)
    logp_grads = logprob_grads_from_forward(pol2, cache, mean, log_std, actions, weights)
    logp_numeric = numeric_grad(logp_sum, pol2.params(), h=1e-5)
    logp_err = max_rel_err(pol2.blocks(logp_grads), logp_numeric)

    elapsed = time.monotonic() - start
    worst = max(surrogate_err, value_err, logp_err)
    report(
        1,
        worst < 1e-4 and elapsed < 10.0,
        f"max rel err {worst:.2e} (surrogate {surrogate_err:.2e}, "
        f"value {value_err:.2e}, log-prob {logp_err:.2e}) "
        f"vs 1e-4 in {elapsed:.1f}s",
    )


def test_criterion_2_gae_oracle():
    """Backward-recursion GAE equals the O(N^2) discounted-sum oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    batches = 0
    for gamma in (0.1, 0.5, 0.99):
        for lam in (0.5, 0.94, 1.0):
            for _ in range(12):
                n = int(rng.integers(1, 65))
                rewards = rng.standard_normal(n)
                dones = (rng.random(n) < 0.2).astype(float)
                values = rng.standard_normal(n)
                bootstrap = float(rng.standard_normal())
                batch = TrajectoryBatch(
                    obs=np.zeros((n, 1)),
                    actions=np.zeros((n, 1)),
                    log_probs_old=np.zeros(n),
                    rewards=rewards,
                    dones=dones,
                    values=values,
                    bootstrap_value=bootstrap,
                )
                h = PpoHyper(
                    gamma=gamma, lam=lam, iters=1, batch=n, episode_len=n
                )
                got_r, got_a = compute_gae(batch, h)
                ref_r, ref_a = gae_loops(
                    rewards, dones, values, bootstrap, gamma, lam
                )
                worst = max(
                    worst,
                    float(np.max(np.abs(got_r - ref_r))),
                    float(np.max(np.abs(got_a - ref_a))),
                )
                batches += 1
    elapsed = time.monotonic() - start
    report(
        2,
        batches >= 100 and worst < 1e-10 and elapsed < 5.0,
        f"{batches} batches, max abs err {worst:.2e} vs 1e-10 "
        f"in {elapsed:.1f}s",
    )


def test_criterion_3_sindr_oracle():
    """Vectorized SINDR matches naive loops; nqos matches a recount."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        k_p = int(rng.integers(1, 9))
        k_s = int(rng.integers(1, 9))
        cfg = RadioConfig(
            kappa_t_p=float(rng.uniform(0.0, 0.3)),
            kappa_r_p=float(rng.uniform(0.0, 0.3)),
            kappa_t_s=float(rng.uniform(0.0, 0.3)),
            kappa_r_s=float(rng.uniform(0.0, 0.3)),
            noise_power=float(10.0 ** rng.uniform(-9, 0)),
        )
        h = random_gains(rng, k_p, k_s)
        pp = rng.uniform(0.0, 1.0, k_p)
        ps = rng.uniform(0.0, 1.0, k_s)
        power = np.concatenate((pp, ps))
        sindr, rate, _, _ = evaluate_links(h, power, k_p, cfg, coupled(h, k_p, cfg))
        ref_p, ref_s = sindr_loops(h, pp, ps, cfg)
        worst = max(
            worst,
            float(np.max(np.abs(sindr[:k_p] / np.asarray(ref_p) - 1.0))),
            float(np.max(np.abs(sindr[k_p:] / np.asarray(ref_s) - 1.0))),
        )
        rate_p = rate[:k_p]
        count = nqos(rate_p, cfg)
        recount = int(sum(1 for r in rate_p if r < cfg.rate_threshold))
        assert count == recount
    report(3, worst < 1e-12, f"1000 instances, max rel err {worst:.2e} vs 1e-12")


def test_criterion_4_closed_form_spot_values():
    """Hand-computable values for LOS probability, SINDR, and reward."""
    p_los = float(los_probability(36.0, ChannelParams()))
    los_ok = abs(p_los - 0.683940) <= 1e-6

    h = gain_matrix(np.ones((2, 2)), 1)
    cfg = RadioConfig(
        kappa_t_p=0.1, kappa_r_p=0.1, kappa_t_s=0.1, kappa_r_s=0.1,
        noise_power=1.0,
    )
    sindr_p = evaluate_links(h, np.array([1.0, 0.0]), 1, cfg, coupled(h, 1, cfg))[0][:1]
    sindr_ok = abs(sindr_p[0] - 1.0 / 1.02) <= 1e-12

    r = reward_primary(np.array([1.0, 1.0]), 0.5, 0.5)
    reward_ok = r == -2.4

    report(
        4,
        los_ok and sindr_ok and reward_ok,
        f"los_probability(36)={p_los:.6f}, single-link "
        f"SINDR={sindr_p[0]:.12f} vs {1.0 / 1.02:.12f}, "
        f"boundary-violation reward={r}",
    )


def test_criterion_5_boundary_learning(desk_run):
    """Out-of-range action penalties collapse to near zero for both agents."""
    head, tail = desk_run["head"], desk_run["tail"]
    checks = {}
    for field in ("delta_p", "delta_s"):
        early = window_mean(head, field)
        late = window_mean(tail, field)
        checks[field] = (early, late, late <= 0.05 * early)
    ok = all(c[2] for c in checks.values()) and desk_run["elapsed"] < 900.0
    detail = ", ".join(
        f"{f}: {early:.4f} -> {late:.5f} ({'<=' if good else '>'} 5%)"
        for f, (early, late, good) in checks.items()
    )
    report(5, ok, f"{detail}; run took {desk_run['elapsed']:.0f}s")


def test_criterion_6_qos_protection(desk_run):
    """Mean count of primary links below the rate threshold ends <= 0.2."""
    late = window_mean(desk_run["tail"], "nqos_p")
    report(
        6,
        late <= 0.2,
        f"mean nqos_p over last 10% = {late:.4f} vs 0.2 "
        f"(first-10 mean {window_mean(desk_run['head'], 'nqos_p'):.4f})",
    )


def test_criterion_7_reward_improvement(desk_run):
    """Both rewards strictly improve and primary per-user rate clears QoS."""
    head, tail = desk_run["head"], desk_run["tail"]
    rp_early, rp_late = window_mean(head, "reward_p"), window_mean(tail, "reward_p")
    rs_early, rs_late = window_mean(head, "reward_s"), window_mean(tail, "reward_s")
    per_user_rate = window_mean(tail, "sum_rate_p") / desk_run["cfg"].env.k_p
    ok = rp_late > rp_early and rs_late > rs_early and per_user_rate >= 0.5
    report(
        7,
        ok,
        f"reward_p {rp_early:.3f} -> {rp_late:.3f}, "
        f"reward_s {rs_early:.3f} -> {rs_late:.3f}, "
        f"per-user primary rate {per_user_rate:.3f} vs 0.5",
    )


def _csv_digests(monkeypatch):
    """``scripts/csv_digests.py`` as a module; its ``sys.path`` entry stays local."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = Path(__file__).resolve().parents[1] / "scripts" / "csv_digests.py"
    spec = importlib.util.spec_from_file_location("csv_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_criterion_8_determinism(desk_run, tmp_path, monkeypatch):
    """A repeated run with identical config writes byte-identical CSVs, whose
    digests equal this build's record in ``tests/csv_digests.json``."""
    rerun = tmp_path / "rerun"
    run_desk(rerun)
    names = [f"seed_{s}.csv" for s in desk_run["cfg"].seeds] + ["aggregate.csv"]
    mismatched = [
        name
        for name in names
        if (desk_run["out"] / name).read_bytes() != (rerun / name).read_bytes()
    ]
    digests = _csv_digests(monkeypatch)
    try:
        differs = digests.first_difference(
            digests.desk_lines(desk_run["out"], desk_run["cfg"].seeds), digests.recorded("desk"))
    except LookupError as exc:
        differs = str(exc)
    if mismatched:
        detail = f"files differ: {mismatched}"
    elif differs:
        detail = f"{len(names)} CSVs byte-identical across two runs, but not to the record: {differs}"
    else:
        detail = f"{len(names)} CSVs byte-identical across two runs and to the record"
    report(8, not mismatched and not differs, detail)


def test_criterion_9_observation_dims():
    """Observation widths for the 4-primary / 8-secondary configuration."""
    dims = (
        observation_dim(OBS_PRIMARY, 4, 8),
        observation_dim(OBS_SECONDARY, 4, 8),
        observation_dim(OBS_CENTRALIZED_DIST, 4, 8),
        observation_dim(OBS_CENTRALIZED_FULL_CSI, 4, 8),
    )
    sizes_ok = dims == (20, 73, 157, 157)

    # the live environment must agree with the formula
    rng = np.random.default_rng(3)
    env = SpectrumSharingEnv(EnvConfig(k_p=4, k_s=8), rng)
    env.reset(rng, 4)
    def observed(kind):
        return observe(env, kind, episode_heads(env, kind))

    live_ok = (
        observed(OBS_PRIMARY).shape == (20,)
        and observed(OBS_SECONDARY).shape == (73,)
        and observed(OBS_CENTRALIZED_DIST).shape == (157,)
        and observed(OBS_CENTRALIZED_FULL_CSI).shape == (157,)
    )
    report(
        9,
        sizes_ok and live_ok,
        f"primary/secondary/centralized dims {dims} vs (20, 73, 157, 157), "
        f"live observations match",
    )
