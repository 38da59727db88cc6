import hashlib
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    caller_source,
    gae_loops,
    gaussian_log_prob,
    logprob_grads_from_forward,
    make_agent,
    max_rel_err,
    numeric_grad,
    observation_reference,
    per_net_sample_action,
    ppo_update_reference,
    reset_nodes_reference,
    train_reference,
)
from underlay_ppo import blas, ppo, worker
from underlay_ppo import env as env_module
from underlay_ppo.env import EnvConfig, SpectrumSharingEnv
from underlay_ppo.nets import (
    AdamState,
    LOG_STD_MAX,
    LOG_STD_MIN,
    GaussianPolicyNet,
    ValueNet,
    _log_density,
)
from underlay_ppo.ppo import (
    MODE_CENTRALIZED_DIST,
    MODE_CENTRALIZED_FULL_CSI,
    MODE_COEXIST,
    MODES,
    METRIC_FIELDS,
    OBS_CENTRALIZED_DIST,
    OBS_CENTRALIZED_FULL_CSI,
    OBS_PRIMARY,
    OBS_SECONDARY,
    PpoHyper,
    Agent,
    TrainingDiverged,
    TrajectoryBatch,
    _collect,
    build_agents,
    build_centralized_obs,
    clip_envelope,
    compute_gae,
    episode_heads,
    normalize_advantages,
    observation_dim,
    observe,
    policy_objective,
    ppo_update,
    train,
    value_objective,
)

SMALL_ENV = EnvConfig(k_p=2, k_s=2)


def tiny_hyper(**kwargs):
    base = dict(iters=2, batch=10, episode_len=5)
    base.update(kwargs)
    return PpoHyper(**base)


def collect_scored(env, agents, hyper, rng):
    """``_collect``, then each batch scored by its agent's value net as
    ``train`` scores it."""
    batches, means = _collect(env, agents, hyper, caller_source(env, hyper, rng))
    for agent, batch in zip(agents, batches):
        ppo._score(agent, batch, hyper)
    return batches, means


def random_batch(rng, n=8, obs_dim=4, action_dim=2, ratio_noise=0.3):
    """A synthetic trajectory batch with generic (kink-free) geometry."""
    batch = TrajectoryBatch(
        obs=rng.standard_normal((n, obs_dim)),
        actions=rng.standard_normal((n, action_dim)),
        log_probs_old=rng.standard_normal(n) * ratio_noise,
        rewards=rng.standard_normal(n),
        dones=np.zeros(n),
        values=rng.standard_normal(n),
        bootstrap_value=float(rng.standard_normal()),
    )
    batch.dones[-1] = 1.0
    batch.returns, adv = compute_gae(batch, PpoHyper(
        gamma=0.5, lam=0.9, iters=1, batch=n, episode_len=n))
    batch.advantages = normalize_advantages(adv)
    return batch


class TestPpoHyper:
    def test_defaults(self):
        h = PpoHyper()
        assert h.gamma == 0.1 and h.lam == 0.94 and h.clip == 0.1
        assert h.update_epochs == 10

    def test_batch_must_tile_episodes(self):
        with pytest.raises(ValueError):
            PpoHyper(batch=250, episode_len=200)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            PpoHyper(gamma=1.5)
        with pytest.raises(ValueError):
            PpoHyper(lam=0.0)
        with pytest.raises(ValueError):
            PpoHyper(clip=-0.1)
        with pytest.raises(ValueError):
            PpoHyper(iters=0)


class TestComputeGae:
    def test_single_terminal_transition(self):
        batch = TrajectoryBatch(
            obs=np.zeros((1, 2)), actions=np.zeros((1, 1)),
            log_probs_old=np.zeros(1), rewards=np.array([1.0]),
            dones=np.array([1.0]), values=np.array([0.3]),
            bootstrap_value=7.0,  # must be ignored past a terminal
        )
        h = PpoHyper(gamma=0.5, lam=0.5, iters=1, batch=1, episode_len=1)
        returns, adv = compute_gae(batch, h)
        np.testing.assert_allclose(returns, [1.0])
        np.testing.assert_allclose(adv, [0.7])

    def test_two_step_hand_recursion(self):
        batch = TrajectoryBatch(
            obs=np.zeros((2, 2)), actions=np.zeros((2, 1)),
            log_probs_old=np.zeros(2), rewards=np.array([1.0, 1.0]),
            dones=np.array([0.0, 1.0]), values=np.zeros(2),
            bootstrap_value=0.0,
        )
        h = PpoHyper(gamma=0.5, lam=1.0, iters=1, batch=2, episode_len=2)
        returns, adv = compute_gae(batch, h)
        np.testing.assert_allclose(returns, [1.5, 1.0])
        np.testing.assert_allclose(adv, [1.5, 1.0])

    def test_live_bootstrap(self):
        batch = TrajectoryBatch(
            obs=np.zeros((1, 2)), actions=np.zeros((1, 1)),
            log_probs_old=np.zeros(1), rewards=np.array([1.0]),
            dones=np.array([0.0]), values=np.array([0.5]),
            bootstrap_value=0.25,
        )
        h = PpoHyper(gamma=0.5, lam=0.5, iters=1, batch=1, episode_len=1)
        returns, adv = compute_gae(batch, h)
        np.testing.assert_allclose(returns, [1.125])
        np.testing.assert_allclose(adv, [0.625])

    def test_gamma_zero_collapse(self):
        rng = np.random.default_rng(0)
        n = 12
        batch = TrajectoryBatch(
            obs=np.zeros((n, 2)), actions=np.zeros((n, 1)),
            log_probs_old=np.zeros(n), rewards=rng.standard_normal(n),
            dones=(rng.random(n) < 0.3).astype(float),
            values=rng.standard_normal(n), bootstrap_value=1.0,
        )
        h = PpoHyper(gamma=1e-12, lam=0.94, iters=1, batch=n, episode_len=n)
        returns, adv = compute_gae(batch, h)
        np.testing.assert_allclose(returns, batch.rewards, atol=1e-10)
        np.testing.assert_allclose(adv, batch.rewards - batch.values, atol=1e-10)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        for gamma in (0.1, 0.5, 0.99):
            for lam in (0.5, 0.94, 1.0):
                for _ in range(12):
                    n = int(rng.integers(1, 65))
                    rewards = rng.standard_normal(n)
                    dones = (rng.random(n) < 0.2).astype(float)
                    values = rng.standard_normal(n)
                    bootstrap = float(rng.standard_normal())
                    batch = TrajectoryBatch(
                        obs=np.zeros((n, 1)), actions=np.zeros((n, 1)),
                        log_probs_old=np.zeros(n), rewards=rewards,
                        dones=dones, values=values, bootstrap_value=bootstrap,
                    )
                    h = PpoHyper(gamma=gamma, lam=lam, iters=1,
                                 batch=n, episode_len=n)
                    got_r, got_a = compute_gae(batch, h)
                    ref_r, ref_a = gae_loops(rewards, dones, values,
                                             bootstrap, gamma, lam)
                    np.testing.assert_allclose(got_r, ref_r, atol=1e-10)
                    np.testing.assert_allclose(got_a, ref_a, atol=1e-10)

    def test_lambda_one_gamma_one_telescopes(self):
        # no terminals, zero bootstrap: advantage + value = suffix reward sum
        rng = np.random.default_rng(2)
        n = 16
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        batch = TrajectoryBatch(
            obs=np.zeros((n, 1)), actions=np.zeros((n, 1)),
            log_probs_old=np.zeros(n), rewards=rewards,
            dones=np.zeros(n), values=values, bootstrap_value=0.0,
        )
        h = PpoHyper(gamma=1.0, lam=1.0, iters=1, batch=n, episode_len=n)
        returns, adv = compute_gae(batch, h)
        suffix = np.cumsum(rewards[::-1])[::-1]
        np.testing.assert_allclose(adv + values, suffix, atol=1e-9)
        np.testing.assert_allclose(returns, suffix, atol=1e-9)

    def test_terminal_cuts_isolate_prefix(self):
        rng = np.random.default_rng(3)
        n = 10
        cut = 4  # dones[cut] = 1 separates the episodes
        rewards = rng.standard_normal(n)
        values = rng.standard_normal(n)
        dones = np.zeros(n)
        dones[cut] = 1.0
        dones[-1] = 1.0

        def run(rew, val, don):
            batch = TrajectoryBatch(
                obs=np.zeros((n, 1)), actions=np.zeros((n, 1)),
                log_probs_old=np.zeros(n), rewards=rew, dones=don,
                values=val, bootstrap_value=0.0,
            )
            h = PpoHyper(gamma=0.9, lam=0.9, iters=1, batch=n, episode_len=n)
            return compute_gae(batch, h)

        base_r, base_a = run(rewards, values, dones)
        shuffled = np.arange(n)
        shuffled[cut + 1 :] = shuffled[cut + 1 :][::-1]
        perm_r, perm_a = run(rewards[shuffled], values[shuffled], dones[shuffled])
        np.testing.assert_allclose(perm_r[: cut + 1], base_r[: cut + 1], atol=1e-12)
        np.testing.assert_allclose(perm_a[: cut + 1], base_a[: cut + 1], atol=1e-12)

    def test_empty_batch_rejected(self):
        batch = TrajectoryBatch(
            obs=np.zeros((0, 1)), actions=np.zeros((0, 1)),
            log_probs_old=np.zeros(0), rewards=np.zeros(0),
            dones=np.zeros(0), values=np.zeros(0), bootstrap_value=0.0,
        )
        with pytest.raises(ValueError):
            compute_gae(batch, PpoHyper(iters=1, batch=5, episode_len=5))


class TestNormalizeAdvantages:
    def test_standardizes(self):
        rng = np.random.default_rng(4)
        adv = rng.standard_normal(50) * 3.0 + 2.0
        out = normalize_advantages(adv)
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0, rel=1e-12)

    def test_constant_input_floors(self):
        out = normalize_advantages(np.full(5, 3.3))
        np.testing.assert_array_equal(out, 0.0)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20))
    @settings(max_examples=50)
    def test_ordering_preserved(self, values):
        # positive affine map: sorting the inputs must sort the outputs
        adv = np.array(values)
        out = normalize_advantages(adv)
        assert np.all(np.diff(out[np.argsort(adv, kind="stable")]) >= 0.0)


class TestClipEnvelope:
    def test_spot_values(self):
        assert clip_envelope(2.0, 0.1) == pytest.approx(2.2, abs=1e-15)
        assert clip_envelope(-1.0, 0.1) == pytest.approx(-0.9, abs=1e-15)
        assert clip_envelope(0.0, 0.1) == 0.0

    def test_array_form(self):
        out = clip_envelope(np.array([1.0, -1.0, 0.0]), 0.2)
        np.testing.assert_allclose(out, [1.2, -0.8, 0.0])

    @given(st.floats(min_value=-50, max_value=50), st.floats(min_value=0.01, max_value=0.5))
    @settings(max_examples=60)
    def test_never_below_advantage_for_ratio_one(self, a, eps):
        # at ratio 1 the linear term a never exceeds the envelope
        assert a <= clip_envelope(a, eps) + 1e-12 * abs(a)


class TestPolicyObjective:
    def test_ratio_one_identity(self):
        rng = np.random.default_rng(5)
        pol = make_agent(rng, "t", 4, 2, tiny_hyper(), hidden=(6,)).policy
        batch = random_batch(rng)
        mean, log_std, cache = pol.forward(batch.obs)
        batch.log_probs_old = gaussian_log_prob(mean, log_std, batch.actions)
        envelope = clip_envelope(batch.advantages, tiny_hyper().clip)
        obj, grads, stats = policy_objective(pol, batch, envelope)
        assert obj == pytest.approx(float(batch.advantages.mean()), abs=1e-12)
        assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert stats["clip_fraction"] == 0.0
        # with clipping inactive the gradient is the plain surrogate gradient
        plain = logprob_grads_from_forward(
            pol, cache, mean, log_std, batch.actions, batch.advantages / len(batch)
        )
        assert max_rel_err(grads, plain, floor=1e-12) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        pol = make_agent(rng, "t", 4, 2, tiny_hyper(), hidden=(8,)).policy
        for p in pol.params():
            p += 0.1 * rng.standard_normal(p.shape)
        batch = random_batch(rng)
        envelope = clip_envelope(batch.advantages, tiny_hyper().clip)

        def objective():
            return policy_objective(pol, batch, envelope)[0]

        _, grads, _ = policy_objective(pol, batch, envelope)
        numeric = numeric_grad(objective, pol.params(), h=1e-5)
        assert max_rel_err(pol.blocks(grads), numeric) < 1e-4

    def test_objective_bounded_by_linear_term(self):
        rng = np.random.default_rng(7)
        pol = make_agent(rng, "t", 4, 2, tiny_hyper(), hidden=(6,)).policy
        for _ in range(10):
            batch = random_batch(rng, ratio_noise=1.0)
            envelope = clip_envelope(batch.advantages, tiny_hyper().clip)
            obj, _, stats = policy_objective(pol, batch, envelope)
            mean0, log_std0, _ = pol.forward(batch.obs)
            ratio = np.exp(
                gaussian_log_prob(mean0, log_std0, batch.actions)
                - batch.log_probs_old
            )
            assert obj <= float(np.mean(ratio * batch.advantages)) + 1e-12
            assert 0.0 <= stats["clip_fraction"] <= 1.0


class TestValueObjective:
    def test_perfect_fit_is_zero(self):
        rng = np.random.default_rng(8)
        agent = make_agent(rng, "t", 3, 1, tiny_hyper(), hidden=(5,))
        batch = random_batch(rng, obs_dim=3, action_dim=1)
        v, _ = agent.value.forward(batch.obs)
        batch.returns = v.copy()
        loss, grads = value_objective(agent.value, batch)
        assert loss == pytest.approx(0.0, abs=1e-24)
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_unit_loss_case(self):
        rng = np.random.default_rng(9)
        agent = make_agent(rng, "t", 3, 1, tiny_hyper(), hidden=(5,))
        batch = random_batch(rng, obs_dim=3, action_dim=1)
        v, _ = agent.value.forward(batch.obs)
        batch.returns = v - 1.0
        loss, _ = value_objective(agent.value, batch)
        assert loss == pytest.approx(1.0, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        agent = make_agent(rng, "t", 4, 1, tiny_hyper(), hidden=(6,))
        batch = random_batch(rng, obs_dim=4, action_dim=1)

        def loss():
            return value_objective(agent.value, batch)[0]

        _, grads = value_objective(agent.value, batch)
        numeric = numeric_grad(loss, agent.value.params(), h=1e-5)
        assert max_rel_err(agent.value.blocks(grads), numeric) < 1e-4


class TestPpoUpdate:
    def test_zero_advantages_freeze_policy(self):
        rng = np.random.default_rng(11)
        agent = make_agent(rng, "t", 4, 2, tiny_hyper(), hidden=(6,))
        batch = random_batch(rng)
        batch.advantages = np.zeros(len(batch))
        before = [p.copy() for p in agent.policy.params()]
        ppo_update(agent, batch, tiny_hyper())
        for b, p in zip(before, agent.policy.params()):
            np.testing.assert_array_equal(b, p)

    def test_value_loss_decreases(self):
        rng = np.random.default_rng(12)
        agent = make_agent(rng, "t", 4, 2, tiny_hyper(lr_value=1e-2), hidden=(8,))
        batch = random_batch(rng)
        before, _ = value_objective(agent.value, batch)
        stats = ppo_update(agent, batch, tiny_hyper(lr_value=1e-2))
        after, _ = value_objective(agent.value, batch)
        assert after < before
        assert stats["value_loss"] <= before

    def test_update_improves_surrogate(self):
        rng = np.random.default_rng(13)
        h = tiny_hyper(lr_policy=1e-2)
        agent = make_agent(rng, "t", 4, 2, h, hidden=(8,))
        batch = random_batch(rng)
        envelope = clip_envelope(batch.advantages, h.clip)
        before, _, _ = policy_objective(agent.policy, batch, envelope)
        ppo_update(agent, batch, h)
        after, _, _ = policy_objective(agent.policy, batch, envelope)
        assert after > before

    def test_requires_prepared_batch(self):
        rng = np.random.default_rng(14)
        agent = make_agent(rng, "t", 4, 2, tiny_hyper(), hidden=(6,))
        batch = random_batch(rng)
        batch.advantages = None
        with pytest.raises(ValueError):
            ppo_update(agent, batch, tiny_hyper())

    def test_poisoned_parameters_raise(self):
        rng = np.random.default_rng(15)
        agent = make_agent(rng, "t", 4, 2, tiny_hyper(), hidden=(6,))
        batch = random_batch(rng)
        # poison the linear output layer; a hidden layer's tanh would mask it
        agent.value.weights[-1][0, 0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match=r"agent 't'.*value loss.*value w1 \(parameters\)"):
            ppo_update(agent, batch, tiny_hyper())


    @pytest.mark.parametrize("mode", [MODE_COEXIST, MODE_CENTRALIZED_FULL_CSI])
    def test_matches_allocating_reference(self, mode):
        """Three epochs on a desk-sized rollout leave every agent's parameters,
        Adam moments and step count, and the stats, bit-identical to the
        fresh-array reference forms of the same expressions."""
        rng = np.random.default_rng(26)
        hyper = PpoHyper(iters=1, batch=200, episode_len=200, update_epochs=3)
        env = SpectrumSharingEnv(SMALL_ENV, rng)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        batches, _ = collect_scored(env, agents, hyper, rng)
        for agent, batch in zip(agents, batches):
            batch.returns, raw_adv = compute_gae(batch, hyper)
            batch.advantages = normalize_advantages(raw_adv)
            policy = GaussianPolicyNet(agent.policy.dims, agent.policy.flat.copy())
            value = ValueNet(agent.value.dims, agent.value.flat.copy())
            ref = Agent(agent.name, agent.kind, policy, value,
                        AdamState(policy.flat, hyper.lr_policy), AdamState(value.flat, hyper.lr_value))
            stats = ppo_update(agent, batch, hyper)
            assert stats == ppo_update_reference(ref, batch, hyper)
            for got, want in ((agent.opt_policy, ref.opt_policy),
                              (agent.opt_value, ref.opt_value)):
                assert got.t == want.t == hyper.update_epochs
                assert got.m.tobytes() == want.m.tobytes()
                assert got.v.tobytes() == want.v.tobytes()
            assert agent.policy.flat.tobytes() == policy.flat.tobytes()
            assert agent.value.flat.tobytes() == value.flat.tobytes()


class TestWorkspaces:
    """The objectives run in per-net workspaces: an epoch after the first
    allocates no batch-sized array, and what outlives a call keeps its bytes."""

    @pytest.mark.parametrize("net", ["policy", "value"])
    def test_a_second_epoch_allocates_less_than_one_hidden_product(self, net):
        rng = np.random.default_rng(29)
        hyper = PpoHyper(iters=1)
        agent = make_agent(rng, "t", 7, 2, hyper, hidden=(64, 64))
        batch = random_batch(rng, n=200, obs_dim=7, action_dim=2)
        envelope = clip_envelope(batch.advantages, hyper.clip)
        if net == "policy":
            def objective():
                return policy_objective(agent.policy, batch, envelope, agent.policy.workspace)
        else:
            def objective():
                return value_objective(agent.value, batch, agent.value.workspace)
        objective()  # the first epoch makes the workspace
        tracemalloc.start()
        try:
            objective()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 64 * 8  # the bytes of one (200, 64) float64 array

    @pytest.mark.parametrize("mode", MODES)
    def test_arrays_that_outlive_a_call_keep_their_bytes(self, mode):
        """A rollout's blocks (the stacked pass's actions among them), the
        scored values and ``ValueNet.value`` stay put through an update that
        runs in the nets' workspaces, and so do the objectives' default
        results."""
        rng = np.random.default_rng(30)
        hyper = tiny_hyper(batch=20, episode_len=10)
        env = SpectrumSharingEnv(SMALL_ENV, rng)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        batches, _ = collect_scored(env, agents, hyper, rng)
        final = [observe(env, agent.kind, episode_heads(env, agent.kind)) for agent in agents]
        kept = [(batch, agent.value.value(ob)) for agent, batch, ob in zip(agents, batches, final)]
        before = [[a.copy() for a in (b.obs, b.actions, b.log_probs_old, b.values, b.returns)]
                  for b, _ in kept]
        flats = [agent.value.flat.copy() for agent in agents]
        outside = [value_objective(agent.value, batch)[1] for agent, batch in zip(agents, batches)]
        kept_grads = [grad.copy() for grad in outside]
        for agent, batch in zip(agents, batches):
            ppo_update(agent, batch, hyper)
            assert ("grad", agent.policy.flat.shape) in agent.policy.workspace
            assert ("grad", agent.value.flat.shape) in agent.value.workspace
        assert [g.tobytes() for g in outside] == [g.tobytes() for g in kept_grads]
        for agent, (batch, value), arrays, ob, flat in zip(agents, kept, before, final, flats):
            after = (batch.obs, batch.actions, batch.log_probs_old, batch.values, batch.returns)
            assert [a.tobytes() for a in after] == [a.tobytes() for a in arrays]
            agent.value.flat[...] = flat  # the parameters that gave ``value``
            assert agent.value.value(ob) == value


class TestBuildAgents:
    def test_coexist_has_two_agents(self):
        agents = build_agents(
            MODE_COEXIST, SMALL_ENV, tiny_hyper(), np.random.default_rng(16)
        )
        assert [(a.name, a.kind) for a in agents] == [("p", OBS_PRIMARY), ("s", OBS_SECONDARY)]
        assert agents[0].policy.obs_dim == observation_dim("primary", 2, 2)
        assert agents[0].policy.action_dim == 2
        assert agents[1].policy.obs_dim == observation_dim("secondary", 2, 2)

    def test_centralized_has_one_agent(self):
        for mode in (MODE_CENTRALIZED_DIST, MODE_CENTRALIZED_FULL_CSI):
            agents = build_agents(
                mode, SMALL_ENV, tiny_hyper(), np.random.default_rng(17)
            )
            assert [(a.name, a.kind) for a in agents] == [("c", mode)]
            assert agents[0].policy.action_dim == 4
            assert agents[0].policy.obs_dim == observation_dim(mode, 2, 2)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            build_agents("solo", SMALL_ENV, tiny_hyper(), np.random.default_rng(18))


class TestTrain:
    def test_history_length_and_fields(self):
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                     np.random.default_rng(19))
        assert len(rows) == 3
        assert [int(r["iter"]) for r in rows] == [1, 2, 3]
        for field in METRIC_FIELDS:
            assert field in rows[0]
        assert "policy_objective_p" in rows[0]
        assert "value_loss_s" in rows[0]

    def test_on_iteration_sees_each_returned_row(self):
        seen = []
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                     np.random.default_rng(24), on_iteration=seen.append)
        assert len(seen) == len(rows) == 3
        assert all(got is row for got, row in zip(seen, rows))

    @pytest.mark.parametrize("mode", MODES)
    def test_on_iteration_leaves_the_history_unchanged(self, mode):
        plain = train(SMALL_ENV, tiny_hyper(iters=3), mode, np.random.default_rng(37))
        hooked = train(SMALL_ENV, tiny_hyper(iters=3), mode, np.random.default_rng(37),
                       on_iteration=lambda row: None)
        assert hooked == plain

    def test_error_in_on_iteration_stops_the_loop(self):
        seen = []

        def stop_after_second(row):
            seen.append(row["iter"])
            if len(seen) == 2:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError, match="stop"):
            train(SMALL_ENV, tiny_hyper(iters=4), MODE_COEXIST,
                  np.random.default_rng(38), on_iteration=stop_after_second)
        assert seen == [1, 2]

    @pytest.mark.parametrize("mode", MODES)
    def test_shorter_run_is_a_prefix_of_a_longer_one(self, mode):
        """Iteration k depends only on the seed and iterations 1..k-1, not on ``iters``."""
        full = train(SMALL_ENV, tiny_hyper(iters=4), mode, np.random.default_rng(39))
        short = train(SMALL_ENV, tiny_hyper(iters=2), mode, np.random.default_rng(39))
        assert short == full[:2]

    def test_bit_exact_reproducibility(self):
        r1 = train(SMALL_ENV, tiny_hyper(), MODE_COEXIST, np.random.default_rng(20))
        r2 = train(SMALL_ENV, tiny_hyper(), MODE_COEXIST, np.random.default_rng(20))
        assert r1 == r2

    def test_seeds_differ(self):
        r1 = train(SMALL_ENV, tiny_hyper(), MODE_COEXIST, np.random.default_rng(21))
        r2 = train(SMALL_ENV, tiny_hyper(), MODE_COEXIST, np.random.default_rng(22))
        assert r1 != r2

    def test_centralized_modes_run(self):
        for mode in (MODE_CENTRALIZED_DIST, MODE_CENTRALIZED_FULL_CSI):
            rows = train(SMALL_ENV, tiny_hyper(), mode, np.random.default_rng(23))
            assert len(rows) == 2
            assert "policy_objective_c" in rows[0]


def _train_in_child(conn, mode=MODE_COEXIST, seed=41):
    rows = train(SMALL_ENV, tiny_hyper(iters=3), mode, np.random.default_rng(seed))
    conn.send((rows, None if worker._worker is None else worker._worker.pid))


def _nan_at(objective, width, call):
    """``objective`` (``policy_objective`` or ``value_objective``), except that
    its ``call``-th call (from 1) on a net of input width ``width`` returns a
    nan objective. Each process counts its own calls; one process updates a
    given net."""
    calls = 0

    def patched(net, *args):
        nonlocal calls
        out = objective(net, *args)
        if net.dims[0] == width:
            calls += 1
            if calls == call:
                return (float("nan"), *out[1:])
        return out

    return patched


@pytest.fixture
def own_worker():
    """Kill this process's update worker before and after the test, so that
    its ``train`` forks one that has its monkeypatches and no later test
    inherits them."""
    def kill():
        if worker._worker is not None:
            worker._worker.close(kill=True)

    kill()
    yield
    kill()


_FRESH_TRAIN = """
import sys
import numpy as np
from underlay_ppo import ppo, worker
from underlay_ppo.env import EnvConfig
rows = ppo.train(EnvConfig(k_p=2, k_s=2), ppo.PpoHyper(iters=3, batch=10, episode_len=5),
                 ppo.MODE_COEXIST, np.random.default_rng(int(sys.argv[1])))
print(worker._worker.pid)
print(repr(rows))
"""


def _fresh_process(seed: int) -> tuple[int, str]:
    """(worker pid, repr of the history) of a coexist ``train`` in a new
    interpreter, which has exited when this returns."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _FRESH_TRAIN, str(seed)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    pid, rows = done.stdout.strip().split("\n")
    return int(pid), rows


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (zombies have)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> list[int]:
    """The running processes whose parent is ``pid``, from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry.name))
    return found


def _poll(predicate, timeout: float):
    """``predicate()``'s first truthy value within ``timeout`` seconds, else its last."""
    deadline = time.monotonic() + timeout
    while not (value := predicate()) and time.monotonic() < deadline:
        time.sleep(0.05)
    return value


def _kill_and_wait(pid: int) -> None:
    """SIGKILL ``pid``, a child of this process, and wait for its exit
    without reaping it."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the update worker is forked on Linux only")
class TestUpdateWorker:
    """Every mode updates in a forked worker process beside the caller, and
    runs the value epochs during the next rollout; no result depends on it,
    and no reply or process outlives its owner."""

    @pytest.mark.parametrize("mode", MODES)
    def test_train_equals_the_serial_reference(self, mode):
        """Each hook call finds the call's worker held, owing the value reply."""
        hyper, held = tiny_hyper(iters=3), []

        def check_worker(row):
            current = worker._worker
            held.append(current is not None and current.in_call and current.busy == 1)

        got = train(SMALL_ENV, hyper, mode, np.random.default_rng(40), on_iteration=check_worker)
        assert held == [True] * 3
        assert worker._worker is not None and worker._worker.alive()
        assert repr(got) == repr(train_reference(SMALL_ENV, hyper, mode,
                                                 np.random.default_rng(40)))

    @pytest.mark.parametrize("mode", MODES)
    def test_hook_sees_this_rows_value_losses_pending_and_the_last_rows_set(self, mode):
        """``on_iteration`` gets its row with every ``value_loss_<agent>`` key
        in place, holding None, while the row of the call before is complete."""
        seen, earlier = [], []

        def snapshot(row):
            seen.append((dict(row), dict(earlier[-1]) if earlier else None))
            earlier.append(row)

        rows = train(SMALL_ENV, tiny_hyper(iters=3), mode, np.random.default_rng(56),
                     on_iteration=snapshot)
        want = train_reference(SMALL_ENV, tiny_hyper(iters=3), mode, np.random.default_rng(56))
        assert repr(rows) == repr(want)
        for i, (row, last) in enumerate(seen):
            pending = {key: None for key in want[i] if key.startswith("value_loss_")}
            assert len(pending) == len(ppo.MODE_AGENTS[mode])
            assert list(row) == list(want[i])
            assert repr(row) == repr({**want[i], **pending})
            assert repr(last) == repr(want[i - 1] if i else None)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_workers_equal_the_serial_reference(self, mode):
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        child = ctx.Process(target=_train_in_child, args=(there, mode, 57), daemon=True)
        child.start()
        there.close()
        assert here.poll(60)
        rows, theirs = here.recv()
        child.join(30)
        assert child.exitcode == 0 and theirs is None
        assert repr(rows) == repr(train_reference(SMALL_ENV, tiny_hyper(iters=3), mode,
                                                  np.random.default_rng(57)))

    def test_value_half_divergence_names_its_iteration_and_agent(self, monkeypatch, own_worker):
        """Iteration 2's value half fails in the worker during rollout 3; the
        error names iteration 2, the worker owes no reply and serves the next
        call as a fresh process would."""
        seen = []
        monkeypatch.setattr(ppo, "value_objective", _nan_at(ppo.value_objective, 7, 14))
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match="iteration 2, agent 's': non-finite value loss"):
            train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(42),
                  on_iteration=lambda row: seen.append(row["iter"]))
        assert seen == [1, 2]
        pid = worker._worker.pid
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(43))
        assert worker._worker.pid == pid
        assert repr(rows) == _fresh_process(43)[1]

    @pytest.mark.parametrize("name, width", [("p", 6), ("s", 7)])
    @pytest.mark.parametrize("policy_epoch, value_epoch, label", [
        (5, 2, "value loss"), (2, 5, "policy objective"), (3, 3, "policy objective")])
    def test_the_earliest_failing_epoch_wins(self, monkeypatch, own_worker, name, width,
                                             policy_epoch, value_epoch, label):
        """Nan objectives injected into one agent's halves in iteration 1: the
        error is the one the interleaved loop meets first, and ``ppo_update``
        raises the same."""
        real_policy, real_value = ppo.policy_objective, ppo.value_objective

        def inject():  # fresh call counts
            monkeypatch.setattr(ppo, "policy_objective",
                                _nan_at(real_policy, width, policy_epoch))
            monkeypatch.setattr(ppo, "value_objective", _nan_at(real_value, width, value_epoch))

        inject()
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match=f"iteration 1, agent '{name}': non-finite {label}"):
            train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(55))
        inject()
        rng = np.random.default_rng(58)
        agent = make_agent(rng, name, width, 2, tiny_hyper(), (8,))
        with pytest.raises(TrainingDiverged, match=f"agent '{name}': non-finite {label}"):
            ppo_update(agent, random_batch(rng, obs_dim=width), tiny_hyper())

    @pytest.mark.parametrize("daemon", [True, False], ids=["daemonic", "plain"])
    def test_forked_process_trains_with_zero_workers_or_its_own(self, daemon):
        train(SMALL_ENV, tiny_hyper(iters=1), MODE_COEXIST, np.random.default_rng(0))
        ours = worker._worker.pid
        ctx = multiprocessing.get_context("fork")
        here, there = ctx.Pipe()
        child = ctx.Process(target=_train_in_child, args=(there,), daemon=daemon)
        child.start()
        there.close()
        assert here.poll(60)
        rows, theirs = here.recv()
        child.join(30)
        assert child.exitcode == 0
        if daemon:
            assert theirs is None
        else:
            assert theirs not in (None, ours)
        assert rows == train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                             np.random.default_rng(41))
        assert worker._worker.pid == ours

    def test_local_divergence_mid_update_leaves_no_stale_reply(self, monkeypatch):
        real_build_agents = ppo.build_agents

        def poisoned(*args, **kwargs):
            agents = real_build_agents(*args, **kwargs)
            agents[0].value.weights[-1][0, 0] = np.inf
            return agents

        monkeypatch.setattr(ppo, "build_agents", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match="iteration 1, agent 'p'"):
            train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(42))
        monkeypatch.undo()
        assert worker._worker is not None and worker._worker.alive()  # both results were read
        assert worker._worker.busy == 0
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(43))
        assert repr(rows) == _fresh_process(43)[1]

    def test_train_nested_in_a_hook_leaves_the_outer_worker_alone(self):
        nested = []

        def train_again(row):
            nested.append(train(SMALL_ENV, tiny_hyper(iters=2), MODE_COEXIST,
                                np.random.default_rng(49)))

        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(50),
                     on_iteration=train_again)
        want = repr(train_reference(SMALL_ENV, tiny_hyper(iters=2), MODE_COEXIST,
                                    np.random.default_rng(49)))
        assert [repr(history) for history in nested] == [want] * 3
        assert repr(rows) == repr(train_reference(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                                                  np.random.default_rng(50)))

    def test_killed_worker_is_replaced_by_the_next_call(self):
        train(SMALL_ENV, tiny_hyper(iters=1), MODE_COEXIST, np.random.default_rng(0))
        pid = worker._worker.pid
        _kill_and_wait(pid)
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(44))
        assert worker._worker.pid != pid
        assert repr(rows) == repr(train_reference(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                                                  np.random.default_rng(44)))

    def test_worker_killed_mid_call_is_named_and_replaced(self):
        with pytest.raises(RuntimeError,
                           match=r"update worker of agent 'p', 's' \(pid \d+\) exited"):
            train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(45),
                  on_iteration=lambda row: _kill_and_wait(worker._worker.pid))
        assert worker._worker is None
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(46))
        assert repr(rows) == repr(train_reference(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                                                  np.random.default_rng(46)))

    def test_worker_exception_is_reraised(self):
        rng = np.random.default_rng(47)
        hyper = tiny_hyper()
        agent = make_agent(rng, "s", 4, 2, hyper, (8,))
        worker = ppo._update_worker()
        peer = ppo._Schedule(worker, [agent], hyper, SpectrumSharingEnv(SMALL_ENV, rng), rng)
        peer.result("value")  # ship's
        peer.update([random_batch(rng, obs_dim=3)])  # the net takes 4 inputs
        assert peer.result("policy") == []  # the first agent's policy half runs in the caller
        with pytest.raises(ValueError, match="matmul") as raised:
            ppo._record_values({"iter": 1}, [agent], peer.result("value"))
        printed = "".join(traceback.format_exception(raised.value))
        assert re.search(r'File ".*nets\.py", line \d+, in forward', printed)
        assert not worker.busy and worker.alive()

    def test_worker_ignores_sigint(self):
        train(SMALL_ENV, tiny_hyper(iters=1), MODE_COEXIST, np.random.default_rng(0))
        pid = worker._worker.pid
        os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        train(SMALL_ENV, tiny_hyper(iters=1), MODE_COEXIST, np.random.default_rng(0))
        assert worker._worker.pid == pid

    def test_worker_ends_with_its_process(self):
        pid, _ = _fresh_process(48)
        assert not _running(pid)

    def test_worker_ends_with_a_killed_cli(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        cli = subprocess.Popen(
            [sys.executable, "-m", "underlay_ppo", "run", "--profile", "desk", "--seeds", "1",
             "--set", "iters=100000", "--out", str(tmp_path / "run"), "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            workers = _poll(lambda: _children(cli.pid), 60)
            time.sleep(0.5)  # mid-run
        finally:
            cli.kill()
            cli.wait()
        assert len(workers) == 1
        assert _poll(lambda: not _running(workers[0]), 10)


@pytest.fixture(params=[1, 0], ids=["worker", "zero-workers"])
def workers(request, monkeypatch):
    """Train with this process's update worker, or with none (``worker.Inline``)."""
    if not request.param:
        monkeypatch.setattr(ppo, "_update_worker", lambda: None)
    return request.param


def drawn_state(mode, hyper, seed, episodes, reset_only=False, bit_generator=np.random.PCG64,
                cfg=SMALL_ENV):
    """The generator state that ``train(cfg, hyper, mode,
    Generator(bit_generator(seed)))`` reaches after ``episodes`` whole
    episodes' draws (``env.reset``, then the noise block), replayed in the
    caller; with ``reset_only`` one more ``env.reset`` follows. PCG64 is
    ``default_rng``'s bit generator."""
    rng = np.random.Generator(bit_generator(seed))
    env = SpectrumSharingEnv(cfg, rng)
    build_agents(mode, cfg, hyper, rng)
    for _ in range(episodes):
        env.reset(rng, hyper.episode_len)
        rng.standard_normal((hyper.episode_len, cfg.k_p + cfg.k_s))
    if reset_only:
        env.reset(rng, hyper.episode_len)
    return rng.bit_generator.state


def failing_draws(log: Path, fail_at: int):
    """A ``sample_gain_matrices`` that appends the drawing process's pid to
    ``log`` and raises after its draws in call ``fail_at``, so that the
    caller's and the worker's calls count as one sequence."""
    real = env_module.sample_gain_matrices

    def failing_draw(*args):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        calls = len(log.read_text().split())
        block = real(*args)
        if calls == fail_at:
            raise FloatingPointError(f"draw {calls} failed")
        return block

    return failing_draw


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the update worker is forked on Linux only")
class TestEpisodeSource:
    """Iteration 1's episodes are drawn in the caller, and the worker draws
    each later rollout's ahead; the caller's generator
    is where the serial loop leaves it at every return and raise, a draw
    that fails there is raised where its episode starts, and a hook that
    draws from the generator is refused, with a worker and with none."""

    @pytest.mark.parametrize("episodes", [1, 2])
    @pytest.mark.parametrize("iters", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_generator_ends_where_the_serial_loop_leaves_it(self, monkeypatch, tmp_path,
                                                            own_worker, workers, mode, iters,
                                                            episodes):
        """The generator ends where a replay of the rollouts' draws leaves it,
        the history equals the serial reference, and the episodes drawn, in
        whichever process draws, are exactly the ones the rollouts start."""
        hyper, drawn = tiny_hyper(iters=iters, batch=5 * episodes), tmp_path / "drawn"
        want = drawn_state(mode, hyper, 60, iters * episodes)
        reference = train_reference(SMALL_ENV, hyper, mode, np.random.default_rng(60))
        real = env_module.sample_gain_matrices

        def counted_draw(*args):
            with open(drawn, "ab") as f:
                f.write(b".")
            return real(*args)

        monkeypatch.setattr(env_module, "sample_gain_matrices", counted_draw)
        rng = np.random.default_rng(60)
        rows = train(SMALL_ENV, hyper, mode, rng)
        assert worker._worker is not None or not workers
        assert drawn.read_bytes() == b"." * (iters * episodes)
        assert rng.bit_generator.state == want
        assert repr(rows) == repr(reference)

    @pytest.mark.parametrize("episodes", [1, 2])
    @pytest.mark.parametrize("stop", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_generator_ends_where_the_serial_loop_leaves_it_after_a_raise(
            self, workers, mode, stop, episodes):
        """A hook that raises in iteration ``stop``: the episodes the worker
        drew beyond it are not taken."""
        def raise_at_stop(row):
            if row["iter"] == stop:
                raise RuntimeError("stop")

        hyper = tiny_hyper(iters=3, batch=5 * episodes)
        rng = np.random.default_rng(61)
        with pytest.raises(RuntimeError, match="stop"):
            train(SMALL_ENV, hyper, mode, rng, on_iteration=raise_at_stop)
        assert rng.bit_generator.state == drawn_state(mode, hyper, 61, stop * episodes)

    @pytest.mark.parametrize("episodes", [1, 2])
    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_failed_draw_is_raised_where_its_episode_starts(self, monkeypatch, tmp_path,
                                                           own_worker, workers, failing,
                                                           episodes):
        """``sample_gain_matrices`` raises after its draws in the last episode
        of iteration ``failing``: the caller raises it after ``failing - 1``
        hook calls, with its type and message, and the generator where the
        failing draw left it. Iteration 1's draws run in the caller, later
        ones in the worker, whose traceback is then the exception's cause."""
        hyper, seen, log = tiny_hyper(iters=3, batch=5 * episodes), [], tmp_path / "draws"
        want = drawn_state(MODE_COEXIST, hyper, 62, failing * episodes - 1, reset_only=True)
        monkeypatch.setattr(env_module, "sample_gain_matrices",
                            failing_draws(log, failing * episodes))
        rng = np.random.default_rng(62)
        with pytest.raises(FloatingPointError, match=f"^draw {failing * episodes} failed$") as raised:
            train(SMALL_ENV, hyper, MODE_COEXIST, rng, on_iteration=seen.append)
        assert len(seen) == failing - 1
        assert rng.bit_generator.state == want
        in_caller = [pid == str(os.getpid()) for pid in log.read_text().split()]
        assert in_caller == [not workers or i < episodes for i in range(failing * episodes)]
        cause = raised.value.__cause__
        if in_caller[-1]:
            assert cause is None
        else:
            assert isinstance(cause, worker.WorkerTraceback) and "failing_draw" in str(cause)

    def test_draws_run_under_the_callers_error_state(self, monkeypatch, own_worker, workers):
        real = env_module.sample_gain_matrices

        def overflowing_draw(*args):
            np.float64(1e308) * 10.0
            return real(*args)

        monkeypatch.setattr(env_module, "sample_gain_matrices", overflowing_draw)
        with np.errstate(over="ignore"):  # a worker forked here keeps this state as its own
            train(SMALL_ENV, tiny_hyper(iters=1), MODE_COEXIST, np.random.default_rng(66))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            train(SMALL_ENV, tiny_hyper(iters=1), MODE_COEXIST, np.random.default_rng(66))

    def test_an_earlier_divergence_wins_over_a_failed_draw(self, monkeypatch, tmp_path,
                                                           own_worker, workers):
        """Iteration 1's value half diverges and iteration 3's draw fails; the
        worker ships both on one reply, and the divergence is raised."""
        monkeypatch.setattr(env_module, "sample_gain_matrices",
                            failing_draws(tmp_path / "draws", 3))
        monkeypatch.setattr(ppo, "value_objective", _nan_at(ppo.value_objective, 7, 1))
        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDiverged, match="iteration 1, agent 's': non-finite value loss"):
            train(SMALL_ENV, tiny_hyper(iters=3, batch=5), MODE_COEXIST,
                  np.random.default_rng(63))

    @pytest.mark.parametrize("mode", MODES)
    def test_hook_that_draws_from_the_generator_is_refused(self, workers, mode):
        seen = []

        def drawing_hook(row):
            seen.append(row["iter"])
            rng.random()

        rng = np.random.default_rng(64)
        with pytest.raises(RuntimeError, match="on_iteration must not draw from it"):
            train(SMALL_ENV, tiny_hyper(iters=3), mode, rng, on_iteration=drawing_hook)
        assert seen == [1]
        want = np.random.default_rng()
        want.bit_generator.state = drawn_state(mode, tiny_hyper(iters=3), 64, 2)
        want.random()
        assert rng.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox,
                                               np.random.SFC64])
    def test_bit_generators_whose_state_holds_arrays(self, workers, bit_generator):
        """The generator ends where the serial loop leaves it, and a hook that
        draws from it is refused, also where its state holds arrays."""
        def state(rng):
            return pickle.dumps(rng.bit_generator.state)

        hyper = tiny_hyper(iters=3)
        rng = np.random.Generator(bit_generator(67))
        train(SMALL_ENV, hyper, MODE_COEXIST, rng)
        want = np.random.Generator(bit_generator())
        want.bit_generator.state = drawn_state(MODE_COEXIST, hyper, 67, 6,
                                               bit_generator=bit_generator)
        assert state(rng) == state(want)

        rng = np.random.Generator(bit_generator(68))
        with pytest.raises(RuntimeError, match="on_iteration must not draw from it"):
            train(SMALL_ENV, hyper, MODE_COEXIST, rng, on_iteration=lambda row: rng.random())
        want.bit_generator.state = drawn_state(MODE_COEXIST, hyper, 68, 2,
                                               bit_generator=bit_generator)
        want.random()
        assert state(rng) == state(want)

    def test_blocks_beyond_the_pipe_buffer_flow(self):
        """Batch 500 at K = 4 + 8, full CSI: each episode's gain block (577 KB)
        and each batch (628 KB) overflow a 64 KiB pipe, and the call ends."""
        cfg, hyper = EnvConfig(k_p=4, k_s=8), PpoHyper(iters=3, batch=500, episode_len=500)
        def timed_out(signum, frame):
            raise TimeoutError("train did not finish")

        signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(120)
        try:
            rows = train(cfg, hyper, MODE_CENTRALIZED_FULL_CSI, np.random.default_rng(65))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        assert [row["iter"] for row in rows] == [1, 2, 3]
        assert not worker._worker.busy and worker._worker.alive()


@pytest.mark.parametrize("mode", MODES)
def test_train_scores_no_observation_after_the_last_step(monkeypatch, own_worker, workers, mode):
    """Every batch ends on a done step, so ``train`` builds no final observation
    and runs no single-row value pass; its history still equals the reference,
    which bootstraps from the true value of the observation after the last step."""
    hyper = tiny_hyper(iters=3)
    want = train_reference(SMALL_ENV, hyper, mode, np.random.default_rng(59))

    def refused(*args):
        raise AssertionError("train scored the observation after the last step")

    monkeypatch.setattr(ValueNet, "value", refused)
    monkeypatch.setattr(ppo, "observe", refused)
    rows = train(SMALL_ENV, hyper, mode, np.random.default_rng(59))
    assert worker._worker is not None or not workers
    assert repr(rows) == repr(want)


def test_divergence_from_the_batch_names_the_array(monkeypatch, workers):
    """A policy mean bias of 1e308 keeps every parameter and gradient finite,
    but the clip penalty of its actions overflows the rewards to -inf and so
    the advantages to nan: the error names the first non-finite array that
    the policy half reads from its batch."""
    real_build_agents = ppo.build_agents

    def biased(*args, **kwargs):
        agents = real_build_agents(*args, **kwargs)
        agents[0].policy.b_mean[...] = 1e308
        return agents

    monkeypatch.setattr(ppo, "build_agents", biased)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as raised:
        train(SMALL_ENV, tiny_hyper(), MODE_COEXIST, np.random.default_rng(67))
    assert str(raised.value).startswith("iteration 1, agent 'p': non-finite policy objective")
    assert str(raised.value).endswith("first non-finite block: advantages (batch)")


def test_value_divergence_from_the_batch_names_the_returns():
    rng = np.random.default_rng(68)
    batch = random_batch(rng)
    batch.returns[3] = -np.inf
    agent = make_agent(rng, "c", 4, 2, tiny_hyper(), (8,))
    with np.errstate(invalid="ignore"), pytest.raises(
            TrainingDiverged, match=r"non-finite value loss .*block: returns \(batch\)$"):
        ppo_update(agent, batch, tiny_hyper())


class Odd(Exception):
    """An exception that does not pickle when it holds a lambda."""


def killing_reads(monkeypatch, kill_at: int, mid_reply: bool = False) -> list:
    """Wrap the update worker's read of a result so that read ``kill_at``
    (counted from 1 over the process) first SIGKILLs the worker and drops
    what it wrote, as if it died before it replied. With ``mid_reply`` the
    kill waits for the reply's first bytes instead and drops nothing, so the
    worker dies while it writes and the read meets a truncated reply.
    Returns the list that gets the killed worker's pid."""
    real, reads, killed = worker.Worker.result, [], []

    def read(self):
        reads.append(None)
        if len(reads) == kill_at:
            if mid_reply:
                self.replies.peek(1)
            killed.append(self.pid)
            _kill_and_wait(self.pid)
            if not mid_reply:
                self.replies.read()  # up to the end-of-file its death leaves
        return real(self)

    monkeypatch.setattr(worker.Worker, "result", read)
    return killed


def lost_worker(mode: str, pid: int) -> str:
    """The message that names ``mode``'s agents and the lost worker's pid."""
    names = ", ".join(repr(name) for name, _ in ppo.MODE_AGENTS[mode])
    return re.escape(f"the update worker of agent {names} (pid {pid}) exited")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the update worker is forked on Linux only")
class TestWorkerFaults:
    """The worker is SIGKILLed before each read of a result: the call raises
    and names it, drops it, leaves the generator where the serial loop leaves
    it at the last episode start, and the next call trains as the serial
    reference does."""

    READS = 1 + 2 * 3  # a 3-iteration call reads ship's result, then each iteration's two

    @pytest.mark.parametrize("read", range(1, READS + 1))
    @pytest.mark.parametrize("mode", MODES)
    def test_worker_killed_before_a_read(self, monkeypatch, own_worker, mode, read):
        hyper = tiny_hyper(iters=3)
        started = min((read + 1) // 2, hyper.iters) * (hyper.batch // hyper.episode_len)
        killed = killing_reads(monkeypatch, read)
        rng = np.random.default_rng(69)
        with pytest.raises(RuntimeError) as raised:
            train(SMALL_ENV, hyper, mode, rng)
        monkeypatch.undo()
        assert re.match(lost_worker(mode, killed[0]), str(raised.value))
        assert worker._worker is None
        assert rng.bit_generator.state == drawn_state(mode, hyper, 69, started)
        rows = train(SMALL_ENV, hyper, mode, np.random.default_rng(70))
        assert repr(rows) == repr(train_reference(SMALL_ENV, hyper, mode,
                                                  np.random.default_rng(70)))

    def test_exception_that_does_not_pickle_is_named(self, monkeypatch, own_worker, workers):
        """Iteration 1's value half of agent 's' raises an exception that
        holds a lambda. With a worker the call raises a ``RuntimeError`` that
        names its type and message, caused by the worker's traceback, and the
        worker, owing nothing, is kept; with none the exception itself is raised."""
        real = ppo.value_objective

        def odd(net, *args):
            if net.dims[0] == 7:
                raise Odd("holds a lambda", lambda: 0)
            return real(net, *args)

        monkeypatch.setattr(ppo, "value_objective", odd)
        with pytest.raises(RuntimeError if workers else Odd) as raised:
            train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(73))
        if workers:
            assert re.match(r"Odd: \('holds a lambda', <function ", str(raised.value))
            cause = raised.value.__cause__
            assert isinstance(cause, worker.WorkerTraceback) and "in odd" in str(cause)
            assert worker._worker.busy == 0 and worker._worker.alive()
        else:
            assert raised.value.args[0] == "holds a lambda"

    @pytest.mark.parametrize("read", [1, 3])
    def test_worker_killed_mid_reply(self, monkeypatch, own_worker, read):
        """Batch 500 at K = 4 + 8, full CSI: the replies that carry the next
        iteration's episodes (577 KB each) overflow the 64 KiB pipe, so the
        worker is still writing when it is killed."""
        cfg, hyper = EnvConfig(k_p=4, k_s=8), PpoHyper(iters=3, batch=500, episode_len=500)
        killed = killing_reads(monkeypatch, read, mid_reply=True)
        rng = np.random.default_rng(71)
        with pytest.raises(RuntimeError) as raised:
            train(cfg, hyper, MODE_CENTRALIZED_FULL_CSI, rng)
        monkeypatch.undo()
        assert re.match(lost_worker(MODE_CENTRALIZED_FULL_CSI, killed[0]), str(raised.value))
        assert worker._worker is None
        assert rng.bit_generator.state == drawn_state(MODE_CENTRALIZED_FULL_CSI, hyper, 71,
                                                      (read + 1) // 2, cfg=cfg)
        rows = train(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST, np.random.default_rng(72))
        assert repr(rows) == repr(train_reference(SMALL_ENV, tiny_hyper(iters=3), MODE_COEXIST,
                                                  np.random.default_rng(72)))


class TestCollect:
    @pytest.mark.parametrize("mode", [MODE_COEXIST, MODE_CENTRALIZED_FULL_CSI])
    def test_batched_values_match_per_row_values(self, mode):
        rng = np.random.default_rng(24)
        hyper = tiny_hyper()
        env = SpectrumSharingEnv(SMALL_ENV, rng)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        batches, _ = collect_scored(env, agents, hyper, rng)
        for agent, batch in zip(agents, batches):
            per_row = [agent.value.value(ob) for ob in batch.obs]
            np.testing.assert_allclose(batch.values, per_row, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_batch_matches_a_replay_of_its_actions(self, mode):
        """One- and two-episode rollouts against a replay on a twin rng that
        draws what the rollout contract says: at each episode start the gains
        (env.reset), then one (episode_len, K) noise block, and nothing else.
        Each agent's actions are mean + exp(log_std) * z for its column slice
        of the block; observations (rebuilt by the oracle from the replayed
        positions), rewards (the two systems' sum for the centralized agent),
        dones, metric means and the final rng state match, bit for bit."""
        def observed(env, nodes):  # each agent's observation, in agent order
            kinds = [OBS_PRIMARY, OBS_SECONDARY] if mode == MODE_COEXIST else [mode]
            return [observation_reference(env, kind, nodes, SMALL_ENV.k_p, SMALL_ENV.radius)
                    for kind in kinds]

        for episodes in (1, 2):
            rng = np.random.default_rng(25)
            hyper = tiny_hyper(batch=5 * episodes, episode_len=5)
            env = SpectrumSharingEnv(SMALL_ENV, rng)
            agents = build_agents(mode, SMALL_ENV, hyper, rng)
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            batches, means = collect_scored(env, agents, hyper, rng)
            joint = np.concatenate([batch.actions for batch in batches], axis=1)
            ends = np.cumsum([agent.policy.action_dim for agent in agents])
            cols = [slice(end - agent.policy.action_dim, end)
                    for agent, end in zip(agents, ends)]
            seen, rewards, dones = [], [], []
            sums = np.zeros(len(METRIC_FIELDS))
            for idx, raw in enumerate(joint):
                if idx % hyper.episode_len == 0:
                    nodes = reset_nodes_reference(env, twin)
                    env.reset(twin, hyper.episode_len)
                    noise = twin.standard_normal((hyper.episode_len, joint.shape[1]))
                seen.append(observed(env, nodes))
                z = noise[idx % hyper.episode_len]
                for agent, batch, col in zip(agents, batches, cols):
                    mean, log_std, _ = agent.policy.forward(batch.obs[idx])
                    np.testing.assert_array_equal(batch.actions[idx],
                                                  mean + np.exp(log_std) * z[col])
                env.step(raw)
                row = env.metric_rows()[-1]
                rewards.append([row[0], row[1]] if mode == MODE_COEXIST else [row[0] + row[1]])
                dones.append(float(env.step_index == hyper.episode_len))
                sums += row

            assert dones == [0.0, 0.0, 0.0, 0.0, 1.0] * episodes
            for i, (agent, batch) in enumerate(zip(agents, batches)):
                np.testing.assert_array_equal(batch.obs, [obs[i] for obs in seen])
                np.testing.assert_array_equal(batch.rewards, [r[i] for r in rewards])
                np.testing.assert_array_equal(batch.dones, dones)
            assert list(means.values()) == (sums / hyper.batch).tolist()
            assert rng.bit_generator.state == twin.bit_generator.state


    @pytest.mark.parametrize("mode", MODES)
    def test_log_probs_old_are_per_step_densities_of_the_noise(self, mode):
        """Each row of ``log_probs_old`` is ``_log_density`` of that step's noise
        columns under that step's log-std, the per-step value a row-by-row
        rollout takes, bit for bit."""
        rng = np.random.default_rng(26)
        hyper = tiny_hyper(batch=10, episode_len=5)
        env = SpectrumSharingEnv(SMALL_ENV, rng)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        batches, _ = _collect(env, agents, hyper, caller_source(env, hyper, rng))
        noise = []
        for _ in range(hyper.batch // hyper.episode_len):
            env.reset(twin, hyper.episode_len)
            noise.extend(twin.standard_normal((hyper.episode_len, SMALL_ENV.k_p + SMALL_ENV.k_s)))
        start = 0
        for agent, batch in zip(agents, batches):
            col = slice(start, start + agent.policy.action_dim)
            start = col.stop
            want = [float(_log_density(z[col], agent.policy.forward(ob)[1]))
                    for z, ob in zip(noise, batch.obs)]
            assert batch.log_probs_old.tolist() == want

    @pytest.mark.parametrize("k_p, k_s", [(k_p, k_s) for k_p in range(1, 5) for k_s in range(1, 5)])
    @pytest.mark.parametrize("mode", MODES)
    def test_stacked_pass_equals_the_per_net_pass(self, monkeypatch, mode, k_p, k_s):
        """``_collect`` with the stacked ``sample_action`` equals, bit for bit,
        a rollout that runs each policy on its own (``per_net_sample_action``),
        on policies whose log-std clamp saturates on some rows."""
        cfg = EnvConfig(k_p=k_p, k_s=k_s)
        hyper = tiny_hyper(batch=12, episode_len=6)

        def rollout():
            rng = np.random.default_rng(31)
            env = SpectrumSharingEnv(cfg, rng)
            agents = build_agents(mode, cfg, hyper, rng)
            for i, agent in enumerate(agents):  # biased onto the clamp's ends, in turn
                policy = agent.policy
                policy.w_log_std[...] = rng.standard_normal(policy.w_log_std.shape)
                policy.b_log_std[...] = np.resize([LOG_STD_MAX, LOG_STD_MIN][i:], policy.action_dim)
            batches, means = _collect(env, agents, hyper, caller_source(env, hyper, rng))
            return agents, batches, means, rng.bit_generator.state

        agents, batches, means, state = rollout()
        with monkeypatch.context() as patch:
            patch.setattr(ppo, "sample_action",
                          per_net_sample_action([agent.policy for agent in agents]))
            _, ref_batches, ref_means, ref_state = rollout()
        assert ppo.sample_action is not per_net_sample_action
        for batch, ref in zip(batches, ref_batches):
            for name in ("obs", "actions", "log_probs_old", "rewards", "dones"):
                assert getattr(batch, name).tobytes() == getattr(ref, name).tobytes(), name
        assert list(means.values()) == list(ref_means.values()) and state == ref_state
        raw = np.concatenate([agent.policy.forward(batch.obs)[2][2]
                              for agent, batch in zip(agents, batches)], axis=1)
        assert 0.0 < ((raw > LOG_STD_MAX) | (raw < LOG_STD_MIN)).mean() < 1.0

    def test_episode_length_comes_from_the_hyperparameters(self):
        """One env, built without a length, rolls out 10-step episodes under one
        ``PpoHyper`` and 4-step ones under the next."""
        rng = np.random.default_rng(28)
        env = SpectrumSharingEnv(EnvConfig(), rng)
        for batch, episode_len in ((10, 10), (8, 4)):
            hyper = PpoHyper(batch=batch, episode_len=episode_len)
            agents = build_agents(MODE_COEXIST, EnvConfig(), hyper, rng)
            batches, _ = _collect(env, agents, hyper, caller_source(env, hyper, rng))
            dones = ([0.0] * (episode_len - 1) + [1.0]) * (batch // episode_len)
            for got in batches:
                assert got.obs.shape[0] == len(got) == batch
                assert got.dones.tolist() == dones
            assert len(env.raw) == env.step_index == episode_len

    def test_nan_policy_bias_stops_the_first_step(self):
        rng = np.random.default_rng(27)
        hyper = tiny_hyper()
        env = SpectrumSharingEnv(SMALL_ENV, rng)
        agents = build_agents(MODE_COEXIST, SMALL_ENV, hyper, rng)
        agents[1].policy.b_mean[0] = np.nan
        seen = []
        step = env.step

        def recording_step(raw):
            seen.append(env.step_index)
            return step(raw)

        env.step = recording_step
        with pytest.raises(ValueError, match="raw actions must be finite"):
            _collect(env, agents, hyper, caller_source(env, hyper, rng))
        assert seen == [0]


class TestObserve:
    """``observe`` on ``episode_heads`` against ``oracles.observation_reference``,
    which builds each observation afresh at its step from the positions the
    reset jittered into and that step's gains."""

    KINDS = [OBS_PRIMARY, OBS_SECONDARY, OBS_CENTRALIZED_DIST, OBS_CENTRALIZED_FULL_CSI]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k_p, k_s", [(2, 2), (4, 8), (3, 1)])
    def test_matches_reference_at_every_step(self, kind, k_p, k_s):
        steps = 6
        cfg = EnvConfig(k_p=k_p, k_s=k_s)
        env = SpectrumSharingEnv(cfg, np.random.default_rng(50))
        rng = np.random.default_rng(51)
        nodes = reset_nodes_reference(env, rng)
        env.reset(rng, steps)
        heads = episode_heads(env, kind)
        actions = np.random.default_rng(52)
        for t in range(steps + 1):  # the reset, then every step; row T is the bootstrap's
            if t:
                env.step(actions.uniform(0.0, 1.0, k_p + k_s))
            got = observe(env, kind, heads)
            want = observation_reference(env, kind, nodes, k_p, cfg.radius)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.shape == (observation_dim(kind, k_p, k_s),)
            if kind in (OBS_CENTRALIZED_DIST, OBS_CENTRALIZED_FULL_CSI):
                assert build_centralized_obs(env, heads[t]).tobytes() == want.tobytes()
        assert env.step_index == steps

    def test_unknown_kind_names_itself(self):
        env = SpectrumSharingEnv(SMALL_ENV, np.random.default_rng(53))
        env.reset(np.random.default_rng(54), 3)
        heads = episode_heads(env, OBS_PRIMARY)
        for call in (lambda: observation_dim("tertiary", 2, 2),
                     lambda: episode_heads(env, "tertiary"),
                     lambda: observe(env, "tertiary", heads)):
            with pytest.raises(ValueError, match="'tertiary'"):
                call()


# Trains in a fresh interpreter, so the BLAS thread count set in its
# environment applies from the first numpy import; prints a digest of the
# full-precision history, then the BLAS numpy was built against.
_THREADED_TRAIN = """
import hashlib, sys
import numpy as np
from underlay_ppo.env import EnvConfig
from underlay_ppo.ppo import PpoHyper, train
k_p, k_s, mode = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
hyper = PpoHyper(iters=3, batch=200, episode_len=200)
rows = train(EnvConfig(k_p=k_p, k_s=k_s), hyper, mode, np.random.default_rng(5))
print(hashlib.sha256(repr(rows).encode()).hexdigest())
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}")
"""


def _thread_env(threads: int) -> dict:
    """Environment of a fresh interpreter with ``threads`` BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
                PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def _history_digest(threads: int, k_p: int, k_s: int, mode: str) -> tuple[str, str]:
    done = subprocess.run(
        [sys.executable, "-c", _THREADED_TRAIN, str(k_p), str(k_s), mode],
        env=_thread_env(threads), capture_output=True, text=True, timeout=300, check=True)
    digest, blas = done.stdout.strip().split("\n")
    return digest, blas


class TestBlasThreadCount:
    """Training results do not depend on the BLAS thread count.

    This covers the rollout, the batched value pass and the PPO update. At
    batch 200 that held before ``train`` pinned numpy's bundled OpenBLAS to
    one thread: with OpenBLAS 0.3.31 (the scipy-openblas64 build numpy 2.4
    ships, DYNAMIC_ARCH, Haswell kernels) on a 2-core x86-64 machine, no
    product of that size is split across threads. From some size between
    200 and 399 rows OpenBLAS splits the weight-gradient products across
    threads and their sums round differently; the pin is what makes batch
    500 agree. Under another BLAS nothing is pinned, and the split point is
    that library's choice.
    """

    @pytest.mark.parametrize("k_p, k_s, mode", [
        (2, 2, MODE_COEXIST),
        (4, 8, MODE_CENTRALIZED_FULL_CSI),
    ])
    def test_history_same_with_one_and_two_threads(self, k_p, k_s, mode):
        one, blas = _history_digest(1, k_p, k_s, mode)
        two, _ = _history_digest(2, k_p, k_s, mode)
        assert len(one) == 64
        assert one == two, (
            f"histories differ between 1 and 2 BLAS threads under {blas!r}; if "
            "that is not OpenBLAS 0.3.31 on 2 cores, a different BLAS split a "
            "product across threads, which need not be a defect of the program")

    def test_paper_batch_harness_csvs_same_with_one_and_two_threads(self, tmp_path):
        """Batch 500 through the CLI: equal ``aggregate.csv`` under 1 and 2 threads.

        ``train`` pins the bundled OpenBLAS to one thread. Unpinned, this
        run's files differed from iteration 23 on (OpenBLAS 0.3.31, 2 cores).
        """
        digests = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "underlay_ppo", "run", "--profile", "paper",
                 "--seeds", "5", "--set", "iters=30", "--out", str(out), "--quiet"],
                env=_thread_env(threads), capture_output=True, text=True, timeout=300,
                check=True)
            digests.append(hashlib.sha256((out / "aggregate.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_train_restores_the_callers_thread_count(self):
        controls = blas._thread_controls()
        if controls is None:
            pytest.skip("numpy does not use its bundled OpenBLAS")
        get, set_ = controls
        before = get()
        seen = []

        def stop_after_first(row):
            seen.append(get())
            raise RuntimeError("stop")

        try:
            set_(2)
            train(SMALL_ENV, tiny_hyper(iters=2), MODE_COEXIST, np.random.default_rng(34))
            assert get() == 2
            with pytest.raises(RuntimeError, match="stop"):
                train(SMALL_ENV, tiny_hyper(iters=2), MODE_COEXIST,
                      np.random.default_rng(34), on_iteration=stop_after_first)
            assert seen == [1] and get() == 2
        finally:
            set_(before)
