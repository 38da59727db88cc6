import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    gae_loops,
    gaussian_log_prob,
    logprob_grads_from_forward,
    max_rel_err,
    numeric_grad,
    observation_reference,
    ppo_update_reference,
    reset_nodes_reference,
)
from underlay_ppo import blas
from underlay_ppo.env import EnvConfig, SpectrumSharingEnv
from underlay_ppo.nets import (
    AdamState,
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
    make_agent,
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
        env = SpectrumSharingEnv(SMALL_ENV, rng, hyper.episode_len)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        batches, _ = _collect(env, agents, mode, hyper, rng)
        for agent, batch in zip(agents, batches):
            batch.returns, raw_adv = compute_gae(batch, hyper)
            batch.advantages = normalize_advantages(raw_adv)
            policy = GaussianPolicyNet(agent.policy.dims, agent.policy.flat.copy())
            value = ValueNet(agent.value.dims, agent.value.flat.copy())
            ref = Agent(agent.name, policy, value, AdamState(policy.flat, hyper.lr_policy),
                        AdamState(value.flat, hyper.lr_value))
            stats = ppo_update(agent, batch, hyper)
            assert stats == ppo_update_reference(ref, batch, hyper)
            for got, want in ((agent.opt_policy, ref.opt_policy),
                              (agent.opt_value, ref.opt_value)):
                assert got.t == want.t == hyper.update_epochs
                assert got.m.tobytes() == want.m.tobytes()
                assert got.v.tobytes() == want.v.tobytes()
            assert agent.policy.flat.tobytes() == policy.flat.tobytes()
            assert agent.value.flat.tobytes() == value.flat.tobytes()


class TestBuildAgents:
    def test_coexist_has_two_agents(self):
        agents = build_agents(
            MODE_COEXIST, SMALL_ENV, tiny_hyper(), np.random.default_rng(16)
        )
        assert [a.name for a in agents] == ["p", "s"]
        assert agents[0].policy.obs_dim == observation_dim("primary", 2, 2)
        assert agents[0].policy.action_dim == 2
        assert agents[1].policy.obs_dim == observation_dim("secondary", 2, 2)

    def test_centralized_has_one_agent(self):
        for mode in (MODE_CENTRALIZED_DIST, MODE_CENTRALIZED_FULL_CSI):
            agents = build_agents(
                mode, SMALL_ENV, tiny_hyper(), np.random.default_rng(17)
            )
            assert len(agents) == 1
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


class TestCollect:
    @pytest.mark.parametrize("mode", [MODE_COEXIST, MODE_CENTRALIZED_FULL_CSI])
    def test_batched_values_match_per_row_values(self, mode):
        rng = np.random.default_rng(24)
        hyper = tiny_hyper()
        env = SpectrumSharingEnv(SMALL_ENV, rng, hyper.episode_len)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        batches, _ = _collect(env, agents, mode, hyper, rng)
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
        dones, bootstraps, metric means and the final rng state match, bit for
        bit."""
        def observed(env, nodes):  # each agent's observation, in agent order
            kinds = [OBS_PRIMARY, OBS_SECONDARY] if mode == MODE_COEXIST else [mode]
            return [observation_reference(env, kind, nodes, SMALL_ENV.k_p, SMALL_ENV.radius)
                    for kind in kinds]

        for episodes in (1, 2):
            rng = np.random.default_rng(25)
            hyper = tiny_hyper(batch=5 * episodes, episode_len=5)
            env = SpectrumSharingEnv(SMALL_ENV, rng, hyper.episode_len)
            agents = build_agents(mode, SMALL_ENV, hyper, rng)
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            batches, means = _collect(env, agents, mode, hyper, rng)
            joint = np.concatenate([batch.actions for batch in batches], axis=1)
            ends = np.cumsum([agent.policy.action_dim for agent in agents])
            cols = [slice(end - agent.policy.action_dim, end)
                    for agent, end in zip(agents, ends)]
            seen, rewards, dones = [], [], []
            sums = np.zeros(len(METRIC_FIELDS))
            for idx, raw in enumerate(joint):
                if idx % hyper.episode_len == 0:
                    nodes = reset_nodes_reference(env, twin)
                    env.reset(twin)
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
            final = observed(env, nodes)

            assert dones == [0.0, 0.0, 0.0, 0.0, 1.0] * episodes
            for i, (agent, batch) in enumerate(zip(agents, batches)):
                np.testing.assert_array_equal(batch.obs, [obs[i] for obs in seen])
                np.testing.assert_array_equal(batch.rewards, [r[i] for r in rewards])
                np.testing.assert_array_equal(batch.dones, dones)
                assert batch.bootstrap_value == agent.value.value(final[i])
            assert list(means.values()) == (sums / hyper.batch).tolist()
            assert rng.bit_generator.state == twin.bit_generator.state


    @pytest.mark.parametrize("mode", MODES)
    def test_log_probs_old_are_per_step_densities_of_the_noise(self, mode):
        """Each row of ``log_probs_old`` is ``_log_density`` of that step's noise
        columns under that step's log-std, the per-step value a row-by-row
        rollout takes, bit for bit."""
        rng = np.random.default_rng(26)
        hyper = tiny_hyper(batch=10, episode_len=5)
        env = SpectrumSharingEnv(SMALL_ENV, rng, hyper.episode_len)
        agents = build_agents(mode, SMALL_ENV, hyper, rng)
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        batches, _ = _collect(env, agents, mode, hyper, rng)
        noise = []
        for _ in range(hyper.batch // hyper.episode_len):
            env.reset(twin)
            noise.extend(twin.standard_normal((hyper.episode_len, SMALL_ENV.k_p + SMALL_ENV.k_s)))
        start = 0
        for agent, batch in zip(agents, batches):
            col = slice(start, start + agent.policy.action_dim)
            start = col.stop
            want = [float(_log_density(z[col], agent.policy.forward(ob)[1]))
                    for z, ob in zip(noise, batch.obs)]
            assert batch.log_probs_old.tolist() == want

    def test_nan_policy_bias_stops_the_first_step(self):
        rng = np.random.default_rng(27)
        hyper = tiny_hyper()
        env = SpectrumSharingEnv(SMALL_ENV, rng, hyper.episode_len)
        agents = build_agents(MODE_COEXIST, SMALL_ENV, hyper, rng)
        agents[1].policy.b_mean[0] = np.nan
        seen = []
        step = env.step

        def recording_step(raw):
            seen.append(env.step_index)
            return step(raw)

        env.step = recording_step
        with pytest.raises(ValueError, match="raw actions must be finite"):
            _collect(env, agents, MODE_COEXIST, hyper, rng)
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
        env = SpectrumSharingEnv(cfg, np.random.default_rng(50), steps)
        rng = np.random.default_rng(51)
        nodes = reset_nodes_reference(env, rng)
        env.reset(rng)
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
        env = SpectrumSharingEnv(SMALL_ENV, np.random.default_rng(53), 3)
        env.reset(np.random.default_rng(54))
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
