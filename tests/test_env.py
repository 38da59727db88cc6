import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from underlay_ppo.env import (
    ACTIVE_POWER_FRACTION,
    METRIC_FIELDS,
    EnvConfig,
    SpectrumSharingEnv,
    reward_primary,
    reward_secondary,
)
from underlay_ppo.geometry import perturb_topology
from underlay_ppo.phy import RadioConfig, evaluate_links
from underlay_ppo.ppo import (
    OBS_CENTRALIZED_DIST,
    OBS_CENTRALIZED_FULL_CSI,
    OBS_PRIMARY,
    OBS_SECONDARY,
    episode_heads,
    observation_dim,
    observe,
)

from oracles import (
    clamp_and_penalize,
    distance_features_reference,
    gain_matrix,
    gains_reference,
    step_reference,
)


def metric(row, name):
    """One entry of a step's metric row, by its METRIC_FIELDS name."""
    return row[METRIC_FIELDS.index(name)]


def make_env(seed=0, episode_len=10, **kwargs):
    cfg = EnvConfig(**kwargs)
    return SpectrumSharingEnv(cfg, np.random.default_rng(seed), episode_len), cfg


def assert_gains_are_step_slice(world):
    """``world.gains`` is the read-only block slice for ``world.step_index``."""
    block, gains = world.episode_gains, world.gains
    assert isinstance(block, np.ndarray) and not block.flags.writeable
    assert gains.shape == block.shape[1:] and not gains.flags.writeable
    assert np.shares_memory(gains, block[world.step_index])
    np.testing.assert_array_equal(gains, block[world.step_index])


def observed(world, kind):
    """An agent of ``kind``'s observation of ``world`` at its step index."""
    return observe(world, kind, episode_heads(world, kind))


def world_features_reference(env, seed, which):
    """The distance features of the first reset from ``default_rng(seed)``,
    recomputed from the positions that reset's jitter gives."""
    cfg = env.cfg
    nodes = perturb_topology(env.base_nodes, cfg.k_p, np.random.default_rng(seed),
                             cfg.channel.max_displacement, cfg.radius)
    return distance_features_reference(nodes, cfg.k_p, cfg.radius, which)


class TestObservationDims:
    def test_formulas(self):
        assert observation_dim(OBS_PRIMARY, 4, 8) == 20
        assert observation_dim(OBS_SECONDARY, 4, 8) == 73
        assert observation_dim(OBS_CENTRALIZED_DIST, 4, 8) == 157
        assert observation_dim(OBS_CENTRALIZED_FULL_CSI, 4, 8) == 157
        assert observation_dim(OBS_SECONDARY, 4, 2) == 7
        assert observation_dim(OBS_CENTRALIZED_DIST, 1, 1) == 7

    def test_symmetry_of_centralized(self):
        assert observation_dim(OBS_CENTRALIZED_DIST, 8, 4) == 157

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            observation_dim("tertiary", 2, 2)


class TestClampAndPenalize:
    def test_in_bounds_identity(self):
        applied, delta = clamp_and_penalize(np.array([0.2, 0.5]), 1.0)
        np.testing.assert_array_equal(applied, [0.2, 0.5])
        assert delta == 0.0

    def test_spot_value(self):
        applied, delta = clamp_and_penalize(np.array([-0.2, 1.3]), 1.0)
        np.testing.assert_array_equal(applied, [0.0, 1.0])
        assert delta == pytest.approx(0.5, abs=1e-15)

    def test_exact_bounds_no_penalty(self):
        applied, delta = clamp_and_penalize(np.array([0.0, 1.0]), 1.0)
        np.testing.assert_array_equal(applied, [0.0, 1.0])
        assert delta == 0.0

    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=6
        )
    )
    @settings(max_examples=80)
    def test_penalty_iff_infeasible(self, raw):
        raw = np.array(raw)
        applied, delta = clamp_and_penalize(raw, 1.0)
        assert np.all(applied >= 0.0) and np.all(applied <= 1.0)
        feasible = bool(np.all((raw >= 0.0) & (raw <= 1.0)))
        assert (delta == 0.0) == feasible
        assert delta >= 0.0


class TestRewards:
    def test_primary_lower_branch(self):
        assert reward_primary(np.array([1.0, 1.0]), 0.5, 0.0) == 1.0

    def test_primary_upper_branch_exact(self):
        assert reward_primary(np.array([1.0, 1.0]), 0.5, 0.5) == -2.4

    def test_primary_zero_margin(self):
        assert reward_primary(np.array([0.5, 0.5]), 0.5, 0.0) == 0.0

    def test_secondary_lower_branch(self):
        assert reward_secondary(np.array([1.5, 0.5]), 0.0, 0.0) == 2.0
        assert reward_secondary(np.array([0.5, 0.25]), 1.0, 0.0) == -9.25

    def test_secondary_upper_branch(self):
        got = reward_secondary(np.array([1.5, 0.5]), 1.0, 0.1)
        assert got == pytest.approx(0.2 - 2.0 - 0.5, abs=1e-12)

    def test_secondary_zero_case(self):
        assert reward_secondary(np.zeros(3), 0.0, 0.0) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=60)
    def test_branch_selection(self, margin_rate, delta):
        rates = np.array([margin_rate])
        got = reward_primary(rates, 0.5, delta)
        if delta > 0.0:
            assert got == pytest.approx(
                0.1 * (margin_rate - 0.5) - 5.0 * delta, abs=1e-12
            )
        else:
            assert got == pytest.approx(margin_rate - 0.5, abs=1e-12)


class TestReset:
    def test_initial_state(self):
        env, cfg = make_env(seed=1, episode_len=10)
        rng = np.random.default_rng(2)
        world = env.reset(rng)
        obs_p, obs_s = observed(world, OBS_PRIMARY), observed(world, OBS_SECONDARY)
        assert world.step_index == 0
        assert obs_p.shape == (observation_dim(OBS_PRIMARY, cfg.k_p, cfg.k_s),)
        assert obs_s.shape == (observation_dim(OBS_SECONDARY, cfg.k_p, cfg.k_s),)
        # metric slots are zero before the first step
        np.testing.assert_array_equal(obs_p[cfg.k_p**2 :], 0.0)
        np.testing.assert_array_equal(obs_s[cfg.k_s**2 :], 0.0)

    def test_jitter_stays_near_base(self):
        # the twin replays each reset's jitter; its features are the world's
        env, cfg = make_env(seed=3)
        base = env.base_nodes
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(10):
            world = env.reset(rng)
            nodes = perturb_topology(base, cfg.k_p, twin, cfg.channel.max_displacement,
                                     cfg.radius)
            twin.bit_generator.state = rng.bit_generator.state
            np.testing.assert_array_equal(world.distances.ravel(), distance_features_reference(
                nodes, cfg.k_p, cfg.radius, "all"))
            drift = np.linalg.norm(nodes - base, axis=-1)
            assert np.all(drift <= cfg.channel.max_displacement + 1e-9)

    def test_resets_differ_but_share_base(self):
        env, _ = make_env(seed=5)
        rng = np.random.default_rng(6)
        w1 = env.reset(rng)
        w2 = env.reset(rng)
        assert not np.array_equal(w1.distances, w2.distances)


class TestStep:
    def test_metrics_and_done_flag(self):
        env, cfg = make_env(seed=7, episode_len=3)
        rng = np.random.default_rng(8)
        world = env.reset(rng)
        raw = np.full(cfg.k_p + cfg.k_s, 0.5)
        for t in range(3):
            row = env.step(world, raw)
            assert (world.step_index == env.episode_len) == (t == 2)
            assert metric(row, "sum_power_p") == pytest.approx(0.5 * cfg.k_p)
            assert 0 <= metric(row, "nqos_p") <= cfg.k_p
            assert metric(row, "delta_p") == 0.0 and metric(row, "delta_s") == 0.0
        with pytest.raises(RuntimeError):
            env.step(world, raw)

    def test_zero_powers_propagate(self):
        env, cfg = make_env(seed=9, episode_len=4)
        rng = np.random.default_rng(10)
        world = env.reset(rng)
        row = env.step(world, np.zeros(cfg.k_p + cfg.k_s))
        assert metric(row, "sum_rate_p") == 0.0
        assert metric(row, "sum_ee_s") == 0.0
        assert metric(row, "nqos_p") == cfg.k_p
        assert metric(row, "reward_p") == pytest.approx(-cfg.k_p * 0.5)
        assert metric(row, "active_p") == 0 and metric(row, "active_s") == 0

    def test_active_count_threshold(self):
        env, cfg = make_env(seed=11, episode_len=4)
        rng = np.random.default_rng(12)
        world = env.reset(rng)
        raw = np.array([0.0, 0.5, 2.0 * ACTIVE_POWER_FRACTION, 0.5 * ACTIVE_POWER_FRACTION])
        row = env.step(world, raw)
        assert metric(row, "active_p") == 1
        assert metric(row, "active_s") == 1

    def test_gains_resampled_each_step(self):
        env, cfg = make_env(seed=13, episode_len=5)
        rng = np.random.default_rng(14)
        world = env.reset(rng)
        g0 = world.gains.copy()
        env.step(world, np.full(cfg.k_p + cfg.k_s, 0.4))
        g1 = world.gains.copy()
        assert not np.array_equal(g0, g1)

    def test_action_shape_validated(self):
        env, cfg = make_env(seed=15, episode_len=2)
        rng = np.random.default_rng(16)
        world = env.reset(rng)
        # one entry too many, one system's links only, a batch of one
        for shape in ((cfg.k_p + cfg.k_s + 1,), (cfg.k_p,), (1, cfg.k_p + cfg.k_s)):
            with pytest.raises(ValueError, match="shape"):
                env.step(world, np.zeros(shape))
        assert world.step_index == 0

    def test_nan_action_rejected(self):
        env, cfg = make_env(seed=15, episode_len=2)
        rng = np.random.default_rng(16)
        world = env.reset(rng)
        # the clip penalty catches nan and both infinities, in either system
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                env.step(world, np.array([bad, 0.5, 0.0, 0.0]))
            with pytest.raises(ValueError, match="finite"):
                env.step(world, np.array([0.0, 0.0, 0.5, bad]))
        assert world.step_index == 0

    def test_observations_carry_this_steps_metrics(self):
        env, cfg = make_env(seed=17, episode_len=3)
        rng = np.random.default_rng(18)
        world = env.reset(rng)
        row = env.step(world, np.full(cfg.k_p + cfg.k_s, 0.7))
        obs_p, obs_s = observed(world, OBS_PRIMARY), observed(world, OBS_SECONDARY)
        np.testing.assert_array_equal(obs_p[cfg.k_p**2 :], world.rate_p)
        np.testing.assert_array_equal(obs_s[cfg.k_s**2 : cfg.k_s**2 + cfg.k_s], world.ee_s)
        assert obs_s[-1] == world.nqos_p == metric(row, "nqos_p")

    def test_determinism(self):
        rows = []
        for _ in range(2):
            env, cfg = make_env(seed=19, episode_len=4)
            rng = np.random.default_rng(20)
            world = env.reset(rng)
            row = env.step(world, np.repeat([0.3, 0.6], (cfg.k_p, cfg.k_s)))
            rows.append(row.tolist())
        assert rows[0] == rows[1]

    def test_same_powers_same_stream_same_physics(self):
        # identical world snapshots yield identical metrics, regardless of
        # which controller shape produced the actions
        env, cfg = make_env(seed=21, episode_len=3)
        world_a = env.reset(np.random.default_rng(22))
        world_b = copy.deepcopy(world_a)
        raw = np.repeat([0.45, 0.55], (cfg.k_p, cfg.k_s))
        row_a = env.step(world_a, raw)
        row_b = env.step(world_b, raw)
        assert (row_a[0], row_a[1]) == (row_b[0], row_b[1])
        np.testing.assert_array_equal(row_a, row_b)


class TestStepMatchesReferenceChain:
    """env.step against oracles.step_reference, which clamps system by system.

    Raw actions mix entries inside the box, negative, above the cap and zero;
    the caps differ per system so a swapped cap shows.
    """

    @pytest.mark.parametrize("k_p, k_s", [(2, 2), (4, 8)])
    def test_row_rewards_and_observations_bit_for_bit(self, k_p, k_s):
        steps = 40
        env, cfg = make_env(seed=40, episode_len=steps, k_p=k_p, k_s=k_s,
                            radio=RadioConfig(p_max_p=0.8, p_max_s=1.7))
        radio = cfg.radio
        world = env.reset(np.random.default_rng(41))
        draws = np.random.default_rng(42)
        penalties = []
        for t in range(steps):
            gains = world.episode_gains[t + 1]
            raw_p = draws.uniform(-1.0, 2.0, k_p) * radio.p_max_p
            raw_s = draws.uniform(-1.0, 2.0, k_s) * radio.p_max_s
            raw_p[t % k_p] = 0.0
            raw_s[(t + 1) % k_s] = 0.0
            if t == 0:  # every entry inside the box
                raw_p, raw_s = np.full(k_p, 0.5), np.full(k_s, 0.25)
            got = env.step(world, np.concatenate((raw_p, raw_s)))
            row, links = step_reference(gains, raw_p, raw_s, radio,
                                        ACTIVE_POWER_FRACTION)
            assert got.dtype == np.float64 and got.shape == (len(METRIC_FIELDS),)
            np.testing.assert_array_equal(got, row)
            penalties.append((metric(got, "delta_p"), metric(got, "delta_s")))
            assert (metric(got, "reward_p"), metric(got, "reward_s")) == (row[0], row[1])
            _, rate, ee_s, nqos_p = links
            np.testing.assert_array_equal(observed(world, OBS_PRIMARY), np.concatenate(
                (world_features_reference(env, 41, "primary"), rate[:k_p])))
            np.testing.assert_array_equal(observed(world, OBS_SECONDARY), np.concatenate(
                (world_features_reference(env, 41, "secondary"), ee_s, [nqos_p])))
            np.testing.assert_array_equal(world.rate_p, rate[:k_p])
            np.testing.assert_array_equal(world.ee_s, ee_s)
            assert world.nqos_p == nqos_p
        # the draws reached both branches of each reward
        penalties = np.array(penalties)
        assert np.all(penalties[0] == 0.0) and np.all(penalties[1:].max(axis=0) > 0.0)
        assert world.step_index == env.episode_len


class TestPerEpisodeGeometry:
    """The episode's geometry and gain block against a twin rng redoing the reset."""

    @pytest.mark.parametrize("k_p, k_s", [(2, 2), (4, 8)])
    def test_matches_reference_over_episodes(self, k_p, k_s):
        episodes, steps = 3, 50
        env, cfg = make_env(seed=32, episode_len=steps, k_p=k_p, k_s=k_s)
        radio = cfg.radio
        rng = np.random.default_rng(33)
        twin = np.random.default_rng()
        actions = np.random.default_rng(34)
        for _ in range(episodes):
            # the twin redoes the reset's draws: the jitter, then the whole
            # episode's gain block, slice 0 for the reset observation
            twin.bit_generator.state = rng.bit_generator.state
            world = env.reset(rng)
            obs_p, obs_s = observed(world, OBS_PRIMARY), observed(world, OBS_SECONDARY)
            nodes = perturb_topology(env.base_nodes, k_p, twin, cfg.channel.max_displacement,
                                     cfg.radius)
            block = gains_reference(nodes, cfg.channel, twin, steps + 1)
            after_reset = rng.bit_generator.state
            assert after_reset == twin.bit_generator.state
            assert_gains_are_step_slice(world)
            np.testing.assert_array_equal(world.gains, block[0])
            with pytest.raises(ValueError, match="read-only"):
                world.gains[0, 0] = 1.0
            np.testing.assert_array_equal(obs_p[: k_p * k_p], distance_features_reference(
                nodes, k_p, cfg.radius, "primary"))
            np.testing.assert_array_equal(obs_s[: k_s * k_s], distance_features_reference(
                nodes, k_p, cfg.radius, "secondary"))
            np.testing.assert_array_equal(
                observed(world, OBS_CENTRALIZED_DIST)[: (k_p + k_s) ** 2],
                distance_features_reference(nodes, k_p, cfg.radius, "all"))
            for t in range(steps):
                raw_p = actions.uniform(-0.2, 1.2, k_p)
                raw_s = actions.uniform(-0.2, 1.2, k_s)
                env.step(world, np.concatenate((raw_p, raw_s)))
                ref = block[t + 1]
                assert_gains_are_step_slice(world)
                np.testing.assert_array_equal(world.gains, ref)
                power = np.concatenate((
                    clamp_and_penalize(raw_p, radio.p_max_p)[0],
                    clamp_and_penalize(raw_s, radio.p_max_s)[0],
                ))
                _, rate, ee_s, nqos_p = evaluate_links(gain_matrix(ref, k_p), power, k_p, radio)
                np.testing.assert_array_equal(world.rate_p, rate[:k_p])
                np.testing.assert_array_equal(world.ee_s, ee_s)
                assert world.nqos_p == nqos_p
            # steps draw nothing: the stream is where the reset left it
            assert rng.bit_generator.state == after_reset
            with pytest.raises(RuntimeError):
                env.step(world, np.concatenate((raw_p, raw_s)))


class TestObservationContent:
    def test_primary_sees_only_primary_distances(self):
        env, cfg = make_env(seed=24)
        world = env.reset(np.random.default_rng(25))
        obs_p = observed(world, OBS_PRIMARY)
        head = world_features_reference(env, 25, "primary")
        np.testing.assert_array_equal(obs_p[: cfg.k_p**2], head)
        assert obs_p.shape[0] == cfg.k_p**2 + cfg.k_p

    def test_secondary_sees_only_secondary_distances(self):
        env, cfg = make_env(seed=26)
        world = env.reset(np.random.default_rng(27))
        obs_s = observed(world, OBS_SECONDARY)
        head = world_features_reference(env, 27, "secondary")
        np.testing.assert_array_equal(obs_s[: cfg.k_s**2], head)

    def test_centralized_variants(self):
        env, cfg = make_env(seed=28)
        world = env.reset(np.random.default_rng(29))
        dim = observation_dim(OBS_CENTRALIZED_DIST, cfg.k_p, cfg.k_s)
        obs_d = observed(world, OBS_CENTRALIZED_DIST)
        obs_c = observed(world, OBS_CENTRALIZED_FULL_CSI)
        assert obs_d.shape == obs_c.shape == (dim,)
        head = world_features_reference(env, 29, "all")
        np.testing.assert_array_equal(obs_d[: head.size], head)
        # CSI features are log-compressed into [-1, 1]
        assert np.all(obs_c[: head.size] >= -1.0)
        assert np.all(obs_c[: head.size] <= 1.0)
        with pytest.raises(ValueError):
            episode_heads(world, "bogus")

    def test_all_observations_finite(self):
        env, cfg = make_env(seed=30, episode_len=6)
        rng = np.random.default_rng(31)
        world = env.reset(rng)
        for t in range(7):
            if t:
                env.step(world, rng.random(cfg.k_p + cfg.k_s))
            assert np.all(np.isfinite(observed(world, OBS_PRIMARY)))
            assert np.all(np.isfinite(observed(world, OBS_SECONDARY)))
            assert np.all(np.isfinite(observed(world, OBS_CENTRALIZED_FULL_CSI)))


class TestEnvConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(k_p=0)
        with pytest.raises(ValueError):
            EnvConfig(radius=-1.0)
        with pytest.raises(ValueError):
            EnvConfig(pair_ring_min=30.0, pair_ring_max=10.0)
