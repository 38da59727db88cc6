import copy
import pickle

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
from underlay_ppo.phy import RadioConfig, coupling_weights, evaluate_links
from underlay_ppo.ppo import (
    OBS_CENTRALIZED_DIST,
    OBS_CENTRALIZED_FULL_CSI,
    OBS_PRIMARY,
    OBS_SECONDARY,
    episode_heads,
    observation_dim,
)

from oracles import (
    clamp_and_penalize,
    coupled,
    distance_features_reference,
    gain_matrix,
    gains_reference,
    measurements,
    observe,
    step_reference,
)


def metric(row, name):
    """One entry of a step's metric row, by its METRIC_FIELDS name."""
    return row[METRIC_FIELDS.index(name)]


def step_row(env, raw):
    """Take one step; returns its metric row, the last of ``env.metric_rows``."""
    env.step(raw)
    return env.metric_rows()[-1]


def make_env(seed=0, **kwargs):
    cfg = EnvConfig(**kwargs)
    return SpectrumSharingEnv(cfg, np.random.default_rng(seed)), cfg


def assert_gains_are_step_slice(env):
    """The gain block and its slice for ``env.step_index`` are read-only."""
    block, gains = env.episode_gains, env.episode_gains[env.step_index]
    assert isinstance(block, np.ndarray) and not block.flags.writeable
    assert gains.shape == block.shape[1:] and not gains.flags.writeable


def observed(env, kind):
    """An agent of ``kind``'s observation of ``env`` at its step index."""
    return observe(env, kind, episode_heads(env, kind))


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
        env, cfg = make_env(seed=1)
        rng = np.random.default_rng(2)
        env.reset(rng, 10)
        obs_p, obs_s = observed(env, OBS_PRIMARY), observed(env, OBS_SECONDARY)
        assert env.step_index == 0
        assert obs_p.shape == (observation_dim(OBS_PRIMARY, cfg.k_p, cfg.k_s),)
        assert obs_s.shape == (observation_dim(OBS_SECONDARY, cfg.k_p, cfg.k_s),)
        # metric slots are zero before the first step
        np.testing.assert_array_equal(obs_p[cfg.k_p**2 :], 0.0)
        np.testing.assert_array_equal(obs_s[cfg.k_s**2 :], 0.0)

    def test_jitter_stays_near_base(self):
        # the twin replays each reset's jitter; its features are the env's
        env, cfg = make_env(seed=3)
        base = env.base_nodes
        rng, twin = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(10):
            env.reset(rng, 10)
            nodes = perturb_topology(base, cfg.k_p, twin, cfg.channel.max_displacement,
                                     cfg.radius)
            twin.bit_generator.state = rng.bit_generator.state
            np.testing.assert_array_equal(env.distances.ravel(), distance_features_reference(
                nodes, cfg.k_p, cfg.radius, "all"))
            drift = np.linalg.norm(nodes - base, axis=-1)
            assert np.all(drift <= cfg.channel.max_displacement + 1e-9)

    def test_resets_differ_but_share_base(self):
        env, _ = make_env(seed=5)
        rng = np.random.default_rng(6)
        env.reset(rng, 10)
        first = env.distances
        env.reset(rng, 10)
        assert not np.array_equal(first, env.distances)


class TestEpisodeOwnership:
    """The env holds one episode at a time; a reset starts the next afresh."""

    # step_index, the sixth per-episode value, is an int
    BLOCKS = ("distances", "episode_gains", "coupled", "measured", "raw")

    def partial_episode(self, seed):
        env, cfg = make_env(seed=seed)
        rng = np.random.default_rng(seed + 1)
        env.reset(rng, 5)
        for _ in range(3):
            env.step(np.full(cfg.k_p + cfg.k_s, 0.5))
        return env, rng

    def test_step_before_the_first_reset_asks_for_one(self):
        env, cfg = make_env(seed=37)
        with pytest.raises(RuntimeError, match="reset first"):
            env.step(np.zeros(cfg.k_p + cfg.k_s))

    def test_env_before_the_first_reset_holds_an_episode_of_zero_steps(self):
        """Its metric rows are an empty block and its last measurement the
        zeros a reset leaves, so no reader meets a missing attribute."""
        env, cfg = make_env(seed=40)
        assert env.step_index == 0
        assert env.metric_rows().shape == (0, len(METRIC_FIELDS))
        np.testing.assert_array_equal(env.measured[env.step_index],
                                      np.zeros(cfg.k_p + 2 * cfg.k_s + 1))

    def test_reset_sizes_the_episode_it_is_given(self):
        env, cfg = make_env(seed=36)
        rng = np.random.default_rng(37)
        raw = np.full(cfg.k_p + cfg.k_s, 0.5)
        for steps in (3, 5):
            env.reset(rng, steps)
            assert len(env.raw) == steps
            assert len(env.episode_gains) == len(env.coupled) == len(env.measured) == steps + 1
            for _ in range(steps):
                env.step(raw)
            assert env.metric_rows().shape == (steps, len(METRIC_FIELDS))
            with pytest.raises(RuntimeError, match="reset first"):
                env.step(raw)

    def test_reset_after_a_partial_episode_starts_at_zero(self):
        env, rng = self.partial_episode(38)
        assert env.step_index == 3 and env.measured[1:4].any(axis=1).all()
        env.reset(rng, 5)
        assert env.step_index == 0
        np.testing.assert_array_equal(env.measured, 0.0)

    def test_reset_shares_no_memory_with_the_previous_episode(self):
        env, rng = self.partial_episode(39)
        before = {name: getattr(env, name) for name in self.BLOCKS}
        head = episode_heads(env, OBS_CENTRALIZED_DIST)
        assert np.shares_memory(head, env.distances)
        kept = head.copy()
        env.reset(rng, 5)
        for name in self.BLOCKS:
            assert not np.shares_memory(getattr(env, name), before[name]), name
        np.testing.assert_array_equal(head, kept)


class TestResetHalves:
    """``reset`` is ``draw_episode``, which alone draws, then ``start_episode``,
    which alone writes the env; an episode drawn in another process (here,
    pickled) starts the same episode, its gain block read-only."""

    def test_halves_equal_reset_across_a_pickle(self):
        env, cfg = make_env(seed=71, k_p=3, k_s=2)
        twin = copy.deepcopy(env)
        rng, other = np.random.default_rng(72), np.random.default_rng(72)
        raw = np.full(cfg.k_p + cfg.k_s, 0.5)
        for steps in (4, 6):
            env.reset(rng, steps)
            before = {name: getattr(twin, name) for name in ("step_index", "raw")}  # kept
            episode = pickle.loads(pickle.dumps(twin.draw_episode(other, steps)))
            assert all(getattr(twin, name) is value for name, value in before.items())
            assert episode[1].flags.writeable and other.bit_generator.state == rng.bit_generator.state
            twin.start_episode(episode)
            assert other.bit_generator.state == rng.bit_generator.state  # starting drew nothing
            assert_gains_are_step_slice(twin)
            for _ in range(steps):
                env.step(raw)
                twin.step(raw)
            for name in TestEpisodeOwnership.BLOCKS:
                assert getattr(twin, name).tobytes() == getattr(env, name).tobytes(), name
            assert env.metric_rows().tobytes() == twin.metric_rows().tobytes()


class TestStep:
    def test_metrics_and_done_flag(self):
        env, cfg = make_env(seed=7)
        rng = np.random.default_rng(8)
        env.reset(rng, 3)
        raw = np.full(cfg.k_p + cfg.k_s, 0.5)
        for t in range(3):
            row = step_row(env, raw)
            assert (env.step_index == 3) == (t == 2)
            assert metric(row, "sum_power_p") == pytest.approx(0.5 * cfg.k_p)
            assert 0 <= metric(row, "nqos_p") <= cfg.k_p
            assert metric(row, "delta_p") == 0.0 and metric(row, "delta_s") == 0.0
        with pytest.raises(RuntimeError):
            env.step(raw)

    def test_zero_powers_propagate(self):
        env, cfg = make_env(seed=9)
        rng = np.random.default_rng(10)
        env.reset(rng, 4)
        row = step_row(env, np.zeros(cfg.k_p + cfg.k_s))
        assert metric(row, "sum_rate_p") == 0.0
        assert metric(row, "sum_ee_s") == 0.0
        assert metric(row, "nqos_p") == cfg.k_p
        assert metric(row, "reward_p") == pytest.approx(-cfg.k_p * 0.5)
        assert metric(row, "active_p") == 0 and metric(row, "active_s") == 0

    def test_active_count_threshold(self):
        env, cfg = make_env(seed=11)
        rng = np.random.default_rng(12)
        env.reset(rng, 4)
        raw = np.array([0.0, 0.5, 2.0 * ACTIVE_POWER_FRACTION, 0.5 * ACTIVE_POWER_FRACTION])
        row = step_row(env, raw)
        assert metric(row, "active_p") == 1
        assert metric(row, "active_s") == 1

    def test_gains_resampled_each_step(self):
        env, cfg = make_env(seed=13)
        rng = np.random.default_rng(14)
        env.reset(rng, 5)
        g0 = env.episode_gains[env.step_index].copy()
        env.step(np.full(cfg.k_p + cfg.k_s, 0.4))
        g1 = env.episode_gains[env.step_index].copy()
        assert not np.array_equal(g0, g1)

    def test_action_shape_validated(self):
        env, cfg = make_env(seed=15)
        rng = np.random.default_rng(16)
        env.reset(rng, 2)
        # one entry too many, one system's links only, a batch of one
        for shape in ((cfg.k_p + cfg.k_s + 1,), (cfg.k_p,), (1, cfg.k_p + cfg.k_s)):
            with pytest.raises(ValueError, match="shape"):
                env.step(np.zeros(shape))
        assert env.step_index == 0

    def test_nan_action_rejected(self):
        env, cfg = make_env(seed=15)
        rng = np.random.default_rng(16)
        env.reset(rng, 2)
        # the clip penalty catches nan and both infinities, in either system
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                env.step(np.array([bad, 0.5, 0.0, 0.0]))
            with pytest.raises(ValueError, match="finite"):
                env.step(np.array([0.0, 0.0, 0.5, bad]))
        assert env.step_index == 0

    @pytest.mark.parametrize("system", ["primary", "secondary"])
    def test_step_after_a_rejected_one_matches_the_reference(self, system):
        """A step refused for a non-finite entry has already written its vector
        into ``raw``; the valid step that follows takes that row, and every
        metric row equals ``step_reference``'s, bit for bit."""
        env, cfg = make_env(seed=43, radio=RadioConfig(p_max_p=0.8, p_max_s=1.7))
        env.reset(np.random.default_rng(44), 4)
        draws = np.random.default_rng(45)
        want = []
        for t, bad in enumerate((np.nan, np.inf, -np.inf)):
            raw = draws.uniform(-1.0, 2.0, cfg.k_p + cfg.k_s)  # both boxes left on most steps
            refused = 3.0 * raw
            refused[0 if system == "primary" else -1] = bad
            with pytest.raises(ValueError, match="finite"):
                env.step(refused)
            assert env.step_index == t
            env.step(raw)
            want.append(step_reference(env.episode_gains[t + 1], raw[:cfg.k_p], raw[cfg.k_p:],
                                       cfg.radio, ACTIVE_POWER_FRACTION)[0])
        assert env.metric_rows().tobytes() == np.array(want).tobytes()

    def test_observations_carry_this_steps_metrics(self):
        env, cfg = make_env(seed=17)
        rng = np.random.default_rng(18)
        env.reset(rng, 3)
        row = step_row(env, np.full(cfg.k_p + cfg.k_s, 0.7))
        obs_p, obs_s = observed(env, OBS_PRIMARY), observed(env, OBS_SECONDARY)
        rate_p, ee_s, nqos_p = measurements(env)
        np.testing.assert_array_equal(obs_p[cfg.k_p**2 :], rate_p)
        np.testing.assert_array_equal(obs_s[cfg.k_s**2 : cfg.k_s**2 + cfg.k_s], ee_s)
        assert obs_s[-1] == nqos_p == metric(row, "nqos_p")

    def test_determinism(self):
        rows = []
        for _ in range(2):
            env, cfg = make_env(seed=19)
            rng = np.random.default_rng(20)
            env.reset(rng, 4)
            row = step_row(env, np.repeat([0.3, 0.6], (cfg.k_p, cfg.k_s)))
            rows.append(row.tolist())
        assert rows[0] == rows[1]

    def test_same_powers_same_stream_same_physics(self):
        # identical env snapshots yield identical metrics, regardless of
        # which controller shape produced the actions
        env_a, cfg = make_env(seed=21)
        env_a.reset(np.random.default_rng(22), 3)
        env_b = copy.deepcopy(env_a)
        raw = np.repeat([0.45, 0.55], (cfg.k_p, cfg.k_s))
        row_a = step_row(env_a, raw)
        row_b = step_row(env_b, raw)
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
        env, cfg = make_env(seed=40, k_p=k_p, k_s=k_s,
                            radio=RadioConfig(p_max_p=0.8, p_max_s=1.7))
        radio = cfg.radio
        env.reset(np.random.default_rng(41), steps)
        draws = np.random.default_rng(42)
        penalties = []
        for t in range(steps):
            gains = env.episode_gains[t + 1]
            raw_p = draws.uniform(-1.0, 2.0, k_p) * radio.p_max_p
            raw_s = draws.uniform(-1.0, 2.0, k_s) * radio.p_max_s
            raw_p[t % k_p] = 0.0
            raw_s[(t + 1) % k_s] = 0.0
            if t == 0:  # every entry inside the box
                raw_p, raw_s = np.full(k_p, 0.5), np.full(k_s, 0.25)
            got = step_row(env, np.concatenate((raw_p, raw_s)))
            row, links = step_reference(gains, raw_p, raw_s, radio,
                                        ACTIVE_POWER_FRACTION)
            assert got.dtype == np.float64 and got.shape == (len(METRIC_FIELDS),)
            np.testing.assert_array_equal(got, row)
            penalties.append((metric(got, "delta_p"), metric(got, "delta_s")))
            assert (metric(got, "reward_p"), metric(got, "reward_s")) == (row[0], row[1])
            _, rate, ee_s, nqos_p = links
            np.testing.assert_array_equal(observed(env, OBS_PRIMARY), np.concatenate(
                (world_features_reference(env, 41, "primary"), rate[:k_p])))
            np.testing.assert_array_equal(observed(env, OBS_SECONDARY), np.concatenate(
                (world_features_reference(env, 41, "secondary"), ee_s, [nqos_p])))
            seen = measurements(env)
            np.testing.assert_array_equal(seen[0], rate[:k_p])
            np.testing.assert_array_equal(seen[1], ee_s)
            assert seen[2] == nqos_p
        # the draws reached both branches of each reward
        penalties = np.array(penalties)
        assert np.all(penalties[0] == 0.0) and np.all(penalties[1:].max(axis=0) > 0.0)
        assert env.step_index == steps


class TestMetricRows:
    """``metric_rows`` against ``oracles.step_reference``, row by row, and the
    reward functions on blocks against their single-row calls."""

    @pytest.mark.parametrize("k_p, k_s", [(2, 2), (4, 8), (8, 4), (3, 1)])
    def test_every_row_matches_step_reference(self, k_p, k_s):
        steps = 60
        env, cfg = make_env(seed=60, k_p=k_p, k_s=k_s,
                            radio=RadioConfig(p_max_p=0.8, p_max_s=1.7))
        radio = cfg.radio
        env.reset(np.random.default_rng(61), steps)
        draws = np.random.default_rng(62)
        want = []
        for t in range(steps):
            # each system's raws stay inside its box on about half the steps
            raw_p = draws.uniform(-1.0, 2.0, k_p) * radio.p_max_p
            raw_s = draws.uniform(-1.0, 2.0, k_s) * radio.p_max_s
            if draws.random() < 0.5:
                raw_p = draws.uniform(0.0, 1.0, k_p) * radio.p_max_p
            if draws.random() < 0.5:
                raw_s = draws.uniform(0.0, 1.0, k_s) * radio.p_max_s
            env.step(np.concatenate((raw_p, raw_s)))
            want.append(step_reference(env.episode_gains[t + 1], raw_p, raw_s, radio,
                                       ACTIVE_POWER_FRACTION)[0])
        got = env.metric_rows()
        assert got.dtype == np.float64 and got.shape == (steps, len(METRIC_FIELDS))
        want = np.array(want)
        assert got.tobytes() == want.tobytes()
        # both branches of both rewards were taken
        for delta in ("delta_p", "delta_s"):
            column = got[:, METRIC_FIELDS.index(delta)]
            assert np.any(column == 0.0) and np.any(column > 0.0)

    def test_rewards_on_blocks_equal_single_row_calls(self):
        rng = np.random.default_rng(63)
        rates = np.vstack(([1.0, 1.0], rng.uniform(0.0, 3.0, (40, 2))))
        ees = np.vstack(([1.5, 0.5], rng.uniform(0.0, 2.0, (40, 2))))
        nqos = np.concatenate(([1.0], rng.integers(0, 3, 40).astype(float)))
        deltas = np.where(rng.random((41, 2)) < 0.5, 0.0, rng.uniform(0.0, 2.0, (41, 2)))
        deltas[0] = 0.5, 0.1  # row 0 is the -2.4 case of test_primary_upper_branch_exact
        primary = reward_primary(rates, 0.5, deltas[:, 0])
        secondary = reward_secondary(ees, nqos, deltas[:, 1])
        assert primary.shape == secondary.shape == (41,)
        assert primary[0] == reward_primary(np.array([1.0, 1.0]), 0.5, 0.5) == -2.4
        for i in range(41):
            assert primary[i] == reward_primary(rates[i], 0.5, float(deltas[i, 0]))
            assert secondary[i] == reward_secondary(ees[i], float(nqos[i]),
                                                    float(deltas[i, 1]))


class TestPerEpisodeGeometry:
    """The episode's geometry and gain block against a twin rng redoing the reset."""

    @pytest.mark.parametrize("k_p, k_s", [(2, 2), (4, 8)])
    def test_matches_reference_over_episodes(self, k_p, k_s):
        episodes, steps = 3, 50
        env, cfg = make_env(seed=32, k_p=k_p, k_s=k_s)
        radio = cfg.radio
        rng = np.random.default_rng(33)
        twin = np.random.default_rng()
        actions = np.random.default_rng(34)
        for _ in range(episodes):
            # the twin redoes the reset's draws: the jitter, then the whole
            # episode's gain block, slice 0 for the reset observation
            twin.bit_generator.state = rng.bit_generator.state
            env.reset(rng, steps)
            obs_p, obs_s = observed(env, OBS_PRIMARY), observed(env, OBS_SECONDARY)
            nodes = perturb_topology(env.base_nodes, k_p, twin, cfg.channel.max_displacement,
                                     cfg.radius)
            block = gains_reference(nodes, cfg.channel, twin, steps + 1)
            after_reset = rng.bit_generator.state
            assert after_reset == twin.bit_generator.state
            assert_gains_are_step_slice(env)
            np.testing.assert_array_equal(env.episode_gains[env.step_index], block[0])
            with pytest.raises(ValueError, match="read-only"):
                env.episode_gains[env.step_index][0, 0] = 1.0
            np.testing.assert_array_equal(obs_p[: k_p * k_p], distance_features_reference(
                nodes, k_p, cfg.radius, "primary"))
            np.testing.assert_array_equal(obs_s[: k_s * k_s], distance_features_reference(
                nodes, k_p, cfg.radius, "secondary"))
            np.testing.assert_array_equal(
                observed(env, OBS_CENTRALIZED_DIST)[: (k_p + k_s) ** 2],
                distance_features_reference(nodes, k_p, cfg.radius, "all"))
            for t in range(steps):
                raw_p = actions.uniform(-0.2, 1.2, k_p)
                raw_s = actions.uniform(-0.2, 1.2, k_s)
                env.step(np.concatenate((raw_p, raw_s)))
                ref = block[t + 1]
                assert_gains_are_step_slice(env)
                np.testing.assert_array_equal(env.episode_gains[env.step_index], ref)
                power = np.concatenate((
                    clamp_and_penalize(raw_p, radio.p_max_p)[0],
                    clamp_and_penalize(raw_s, radio.p_max_s)[0],
                ))
                h = gain_matrix(ref, k_p)
                _, rate, ee_s, nqos_p = evaluate_links(h, power, k_p, radio, coupled(h, k_p, radio))
                seen = measurements(env)
                np.testing.assert_array_equal(seen[0], rate[:k_p])
                np.testing.assert_array_equal(seen[1], ee_s)
                assert seen[2] == nqos_p
            # steps draw nothing: the stream is where the reset left it
            assert rng.bit_generator.state == after_reset
            with pytest.raises(RuntimeError):
                env.step(np.concatenate((raw_p, raw_s)))


    @pytest.mark.parametrize("k_p, k_s", [(2, 2), (4, 8), (8, 4)])
    def test_coupled_block_is_gains_times_weights(self, k_p, k_s):
        env, cfg = make_env(seed=35, k_p=k_p, k_s=k_s,
                            radio=RadioConfig(kappa_t_p=0.05, kappa_r_s=0.2))
        env.reset(np.random.default_rng(36), 30)
        weights = coupling_weights(cfg.radio, k_p, k_s)
        assert env.coupled.shape == env.episode_gains.shape
        for t, gains in enumerate(env.episode_gains):
            assert env.coupled[t].tobytes() == (gains * weights).tobytes()


class TestObservationContent:
    def test_primary_sees_only_primary_distances(self):
        env, cfg = make_env(seed=24)
        env.reset(np.random.default_rng(25), 10)
        obs_p = observed(env, OBS_PRIMARY)
        head = world_features_reference(env, 25, "primary")
        np.testing.assert_array_equal(obs_p[: cfg.k_p**2], head)
        assert obs_p.shape[0] == cfg.k_p**2 + cfg.k_p

    def test_secondary_sees_only_secondary_distances(self):
        env, cfg = make_env(seed=26)
        env.reset(np.random.default_rng(27), 10)
        obs_s = observed(env, OBS_SECONDARY)
        head = world_features_reference(env, 27, "secondary")
        np.testing.assert_array_equal(obs_s[: cfg.k_s**2], head)

    def test_centralized_variants(self):
        env, cfg = make_env(seed=28)
        env.reset(np.random.default_rng(29), 10)
        dim = observation_dim(OBS_CENTRALIZED_DIST, cfg.k_p, cfg.k_s)
        obs_d = observed(env, OBS_CENTRALIZED_DIST)
        obs_c = observed(env, OBS_CENTRALIZED_FULL_CSI)
        assert obs_d.shape == obs_c.shape == (dim,)
        head = world_features_reference(env, 29, "all")
        np.testing.assert_array_equal(obs_d[: head.size], head)
        # CSI features are log-compressed into [-1, 1]
        assert np.all(obs_c[: head.size] >= -1.0)
        assert np.all(obs_c[: head.size] <= 1.0)
        with pytest.raises(ValueError):
            episode_heads(env, "bogus")

    def test_all_observations_finite(self):
        env, cfg = make_env(seed=30)
        rng = np.random.default_rng(31)
        env.reset(rng, 6)
        for t in range(7):
            if t:
                env.step(rng.random(cfg.k_p + cfg.k_s))
            assert np.all(np.isfinite(observed(env, OBS_PRIMARY)))
            assert np.all(np.isfinite(observed(env, OBS_SECONDARY)))
            assert np.all(np.isfinite(observed(env, OBS_CENTRALIZED_FULL_CSI)))


class TestEnvConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnvConfig(k_p=0)
        with pytest.raises(ValueError):
            EnvConfig(radius=-1.0)
        with pytest.raises(ValueError):
            EnvConfig(pair_ring_min=30.0, pair_ring_max=10.0)
