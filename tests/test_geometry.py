import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distances_reference, gain_matrix, node_array
from underlay_ppo import geometry
from underlay_ppo.geometry import (
    ChannelParams,
    clamp_to_disc,
    link_geometry,
    los_probability,
    perturb_topology,
    sample_disc_points,
    sample_gain_matrices,
    sample_topology,
)

PARAMS = ChannelParams()
RING = (10.0, 30.0)


def small_topology():
    """Hand-placed world of two primary pairs and one secondary pair, radius
    50, for feature-layout checks."""
    return node_array(
        p_tx=[[0.0, 0.0], [10.0, 0.0]],
        p_rx=[[0.0, 5.0], [10.0, 5.0]],
        s_tx=[[-20.0, 0.0]],
        s_rx=[[-20.0, 10.0]],
        radius=50.0,
    )


def same_length_links(d, params=PARAMS):
    """``link_geometry`` of one primary and one secondary pair that share their
    tx and their rx in a disc of radius 100, so all four links have length d."""
    tx, rx = [[0.0, 0.0]], [[d, 0.0]]
    return link_geometry(node_array(tx, rx, tx, rx, radius=100.0), 100.0, params)


def scaled_distances(nodes, radius):
    return link_geometry(nodes, radius, PARAMS)[2]


def gains(nodes, rng, draws, params=PARAMS):
    """``sample_gain_matrices`` on the link geometry of a node array."""
    p_los, d_eff, _ = link_geometry(nodes, 100.0, params)
    return sample_gain_matrices(p_los, d_eff, params, rng, draws)


def offsets_reference(rng, n, max_displacement):
    """n offsets of length u * max_displacement in uniform directions, drawn
    as ``perturb_topology`` does: all lengths, then all angles."""
    dist = rng.uniform(0.0, max_displacement, n)
    ang = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack((dist * np.cos(ang), dist * np.sin(ang)), axis=1)


class TestChannelParams:
    def test_defaults(self):
        assert PARAMS.alpha_los == 2.4
        assert PARAMS.alpha_nlos == 3.78
        assert PARAMS.d0 == 18.0 and PARAMS.d1 == 36.0
        assert PARAMS.nakagami_m == 10.0

    def test_rejects_reversed_exponents(self):
        with pytest.raises(ValueError):
            ChannelParams(alpha_los=3.0, alpha_nlos=2.0)

    def test_rejects_bad_nakagami(self):
        with pytest.raises(ValueError):
            ChannelParams(nakagami_m=0.4)


class TestDiscSampling:
    def test_points_inside(self):
        rng = np.random.default_rng(0)
        pts = sample_disc_points(rng, 5000, 37.0)
        assert pts.shape == (5000, 2)
        assert np.all(np.linalg.norm(pts, axis=1) <= 37.0)

    def test_radius_squared_uniform(self):
        # for a uniform disc, (r/R)^2 is Uniform(0,1)
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1)
        pts = sample_disc_points(rng, 20000, 1.0)
        u = np.sum(pts**2, axis=1)
        stat = scipy_stats.kstest(u, "uniform")
        assert stat.pvalue > 1e-3

    def test_mean_radius(self):
        rng = np.random.default_rng(2)
        pts = sample_disc_points(rng, 200000, 1.0)
        r = np.linalg.norm(pts, axis=1)
        assert abs(r.mean() - 2.0 / 3.0) < 0.005

    def test_clamp_is_projection(self):
        pts = np.array([[3.0, 4.0], [0.1, 0.0], [-30.0, 40.0]])
        out = clamp_to_disc(pts, 1.0)
        np.testing.assert_allclose(out[0], [0.6, 0.8], rtol=1e-12)
        np.testing.assert_allclose(out[1], [0.1, 0.0])
        assert np.linalg.norm(out[2]) == pytest.approx(1.0)


class TestLosProbability:
    def test_one_inside_d0(self):
        grid = np.linspace(0.0, PARAMS.d0, 500)
        np.testing.assert_array_equal(los_probability(grid, PARAMS), 1.0)

    def test_below_one_outside_d0(self):
        grid = np.linspace(PARAMS.d0 + 1e-9, 1e4, 2000)
        p = los_probability(grid, PARAMS)
        assert np.all(p < 1.0)
        assert np.all(p > 0.0)

    def test_spot_values(self):
        assert los_probability(36.0, PARAMS) == pytest.approx(
            0.6839397205857212, rel=1e-12
        )
        assert los_probability(72.0, PARAMS) == pytest.approx(
            0.3515014624274595, rel=1e-12
        )

    def test_zero_distance(self):
        assert los_probability(0.0, PARAMS) == 1.0

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_negative_distance_rejected(self, bad):
        with pytest.raises(ValueError):
            los_probability(bad, PARAMS)

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.0, max_value=1e4),
    )
    @settings(max_examples=60)
    def test_bounded_and_monotone(self, d1, d2):
        lo, hi = sorted((d1, d2))
        p_lo = los_probability(lo, PARAMS)
        p_hi = los_probability(hi, PARAMS)
        assert 0.0 <= p_hi <= p_lo <= 1.0


class TestTopology:
    def test_sampled_inside_disc(self):
        rng = np.random.default_rng(3)
        nodes = sample_topology(rng, 4, 8, 100.0, RING)
        assert nodes.shape == (2, 12, 2) and nodes.dtype == np.float64
        assert np.all(np.linalg.norm(nodes, axis=-1) <= 100.0 * (1.0 + 1e-9))

    def test_pair_distances_bounded_by_ring(self):
        # clamping can only shorten a pair link, never stretch it
        rng = np.random.default_rng(4)
        for _ in range(20):
            nodes = sample_topology(rng, 3, 3, 60.0, pair_ring=RING)
            d = np.linalg.norm(nodes[0] - nodes[1], axis=1)
            assert np.all(d <= 30.0 + 1e-9)

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            node_array(
                p_tx=[[200.0, 0.0]],
                p_rx=[[0.0, 0.0]],
                s_tx=[[0.0, 0.0]],
                s_rx=[[0.0, 0.0]],
                radius=100.0,
            )

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="inside the disc"):
            node_array(
                p_tx=[[0.0, 0.0]],
                p_rx=[[0.0, 0.0]],
                s_tx=[[0.0, 0.0]],
                s_rx=[[np.nan, 0.0]],
                radius=100.0,
            )

    @pytest.mark.parametrize("groups, radius, match", [
        (([[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]), 0.0, "radius"),
        (([[0.0, 0.0]], [[0.0, 0.0]], np.zeros((0, 2)), np.zeros((0, 2))), 1.0, "n >= 1"),
        (([0.0, 0.0], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]), 1.0, r"\(n, 2\)"),
        (([[0.0, 0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]), 1.0, r"\(n, 2\)"),
        (([[0.0, 0.0]] * 2, [[0.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]), 1.0, "counts"),
    ], ids=["radius", "empty", "1-d", "three-columns", "counts"])
    def test_hand_built_layout_checks(self, groups, radius, match):
        with pytest.raises(ValueError, match=match):
            node_array(*groups, radius=radius)

    def test_perturb_displacement_bounded(self):
        rng = np.random.default_rng(5)
        nodes = sample_topology(rng, 4, 4, 80.0, RING)
        moved = perturb_topology(nodes, 4, rng, 5.0, 80.0)
        step = np.linalg.norm(moved - nodes, axis=-1)
        assert np.all(step <= 5.0 + 1e-9)
        assert np.all(np.linalg.norm(moved, axis=-1) <= 80.0 * (1.0 + 1e-9))

    def test_perturb_zero_is_identity(self):
        rng = np.random.default_rng(6)
        nodes = sample_topology(rng, 2, 2, 50.0, RING)
        moved = perturb_topology(nodes, 2, np.random.default_rng(7), 0.0, 50.0)
        np.testing.assert_array_equal(moved, nodes)

    def test_perturb_integer_positions(self):
        one = np.array([[1, 2]])
        nodes = node_array(p_tx=one, p_rx=one * 3, s_tx=-one, s_rx=one * 0, radius=50.0)
        assert nodes.dtype.kind == "i"
        moved = perturb_topology(nodes, 1, np.random.default_rng(8), 2.0, 50.0)
        assert moved.dtype == np.float64
        step = np.linalg.norm(moved[1, 0] - nodes[1, 0])
        assert 0.0 < step <= 2.0 + 1e-9

    @pytest.mark.parametrize("k_p, k_s", [(2, 3), (3, 1)])
    def test_perturb_moves_each_group_by_its_rows_of_one_draw(self, k_p, k_s):
        # a twin generator replays the one offset draw over all 2K nodes, in
        # the order p_tx, p_rx, s_tx, s_rx; the disc is wide enough that
        # nothing is clamped
        nodes = sample_topology(np.random.default_rng(9), k_p, k_s, 50.0, RING)
        rng, twin = np.random.default_rng(10), np.random.default_rng(10)
        moved = perturb_topology(nodes, k_p, rng, 5.0, 1000.0)
        offsets = offsets_reference(twin, 2 * (k_p + k_s), 5.0)
        assert rng.bit_generator.state == twin.bit_generator.state
        rows = np.cumsum([0, k_p, k_p, k_s, k_s])
        groups = [nodes[0, :k_p], nodes[1, :k_p], nodes[0, k_p:], nodes[1, k_p:]]
        after = [moved[0, :k_p], moved[1, :k_p], moved[0, k_p:], moved[1, k_p:]]
        for i, (before, got) in enumerate(zip(groups, after)):
            np.testing.assert_array_equal(got, before + offsets[rows[i]:rows[i + 1]])

    def test_seed_determinism(self):
        a = sample_topology(np.random.default_rng(42), 3, 5, 100.0, RING)
        b = sample_topology(np.random.default_rng(42), 3, 5, 100.0, RING)
        c = sample_topology(np.random.default_rng(43), 3, 5, 100.0, RING)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a[0, :3], c[0, :3])


class TestGainSampling:
    def test_matrices_positive_and_shaped(self):
        rng = np.random.default_rng(8)
        nodes = sample_topology(rng, 4, 8, 100.0, RING)
        [h] = gains(nodes, rng, 1)
        assert h.shape == (12, 12)
        assert np.all(h > 0.0)
        assert np.all(np.isfinite(h))

    def test_draws_are_read_only_views_of_one_block(self):
        rng = np.random.default_rng(17)
        nodes = sample_topology(rng, 2, 3, 100.0, RING)
        block = gains(nodes, rng, 2)
        assert type(block) is np.ndarray and block.dtype == np.float64
        assert block.shape == (2, 5, 5) and not block.flags.writeable
        h1, h2 = block
        assert np.shares_memory(h1, block) and np.shares_memory(h2, block)
        with pytest.raises(ValueError, match="read-only"):
            h1[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            h2[4, 4] = 1.0

    def test_seed_determinism(self):
        nodes = sample_topology(np.random.default_rng(10), 3, 3, 100.0, RING)
        [h1] = gains(nodes, np.random.default_rng(11), 1)
        [h2] = gains(nodes, np.random.default_rng(11), 1)
        [h3] = gains(nodes, np.random.default_rng(12), 1)
        np.testing.assert_array_equal(h1, h2)
        assert not np.array_equal(h1, h3)

    @pytest.mark.parametrize("short", [0.0, 0.25])
    def test_distance_floor(self, short):
        # below one meter (coincident nodes included) the draw is identical
        # to the one-meter draw
        p_los_short, d_eff_short, _ = same_length_links(short)
        p_los_floor, d_eff_floor, _ = same_length_links(1.0)
        np.testing.assert_array_equal(d_eff_short, 1.0)
        [g_short] = sample_gain_matrices(
            p_los_short, d_eff_short, PARAMS, np.random.default_rng(13), 1)
        [g_floor] = sample_gain_matrices(
            p_los_floor, d_eff_floor, PARAMS, np.random.default_rng(13), 1)
        np.testing.assert_array_equal(g_short, g_floor)

    def test_fading_means_near_unity(self):
        # LOS fading is Gamma(m, 1/m), NLOS is Exp(1); both unit mean.
        # Force each mode via extreme d0 and check the full gain against
        # the closed-form mean path loss * shadowing factor.
        # 200_000 gains: 50_000 draws of the four 50 m links
        draws = 50_000
        rng = np.random.default_rng(14)
        los_params = ChannelParams(d0=1e9, shadow_std_los_db=0.0)
        p_los, d_eff, _ = same_length_links(50.0, los_params)
        block = sample_gain_matrices(p_los, d_eff, los_params, rng, draws)
        expect = 50.0**-2.4
        assert abs(block.mean() / expect - 1.0) < 0.02

        # d >> d0 and d >> d1 drives the LOS probability to ~ d0 / d
        nlos_params = ChannelParams(d0=1e-9, d1=1e-9, shadow_std_nlos_db=0.0)
        p_los, d_eff, _ = same_length_links(50.0, nlos_params)
        block = sample_gain_matrices(p_los, d_eff, nlos_params, rng, draws)
        expect = 50.0**-3.78
        assert abs(block.mean() / expect - 1.0) < 0.02


class TestGainMatricesValidation:
    # Hand-built gain matrices in the tests go through oracles.gain_matrix,
    # which makes the checks the simulator's draws get: these pin that it does.
    @staticmethod
    def stacked(bad):
        h = np.ones((3, 3))
        h[1, 0] = bad
        return h

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_constructor_rejects(self, bad):
        with pytest.raises(ValueError, match="^gain entries must be positive and finite"):
            gain_matrix(self.stacked(bad), 2)

    @pytest.mark.parametrize("shape, k_p", [((3, 2), 1), ((3,), 1), ((3, 3), 0), ((3, 3), 3)],
                             ids=["not-square", "1-d", "no-primary", "no-secondary"])
    def test_constructor_rejects_shape_and_split(self, shape, k_p):
        with pytest.raises(ValueError):
            gain_matrix(np.ones(shape), k_p)

    def test_constructor_stores_read_only_copy(self):
        given = self.stacked(2.0)
        h = gain_matrix(given, 2)
        np.testing.assert_array_equal(h, [[1, 1, 1], [2, 1, 1], [1, 1, 1]])
        assert h.dtype == np.float64
        assert given.flags.writeable and not np.shares_memory(given, h)
        with pytest.raises(ValueError, match="read-only"):
            h[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_drawn_gains_check_rejects(self, bad, monkeypatch):
        # one bad entry in the last draw of the block fails the whole block
        def draw(p_los, d_eff, params, rng, size):
            block = np.ones(size)
            block[-1, 1, 2] = bad
            return block

        monkeypatch.setattr(geometry, "_draw_gains", draw)
        nodes = sample_topology(np.random.default_rng(3), 2, 1, 100.0, RING)
        with pytest.raises(ValueError, match="positive and finite"):
            gains(nodes, np.random.default_rng(4), 3)


class TestDistanceFeatures:
    """``link_geometry``'s third item: the (K, K) tx -> rx distances over the radius."""

    def test_primary_row_major_layout(self):
        scaled = scaled_distances(small_topology(), 50.0)
        # rows are transmitters, columns receivers
        expect = (
            np.array(
                [
                    [np.linalg.norm([0.0 - 0.0, 0.0 - 5.0]),
                     np.linalg.norm([0.0 - 10.0, 0.0 - 5.0])],
                    [np.linalg.norm([10.0 - 0.0, 0.0 - 5.0]),
                     np.linalg.norm([10.0 - 10.0, 0.0 - 5.0])],
                ]
            )
            / 50.0
        )
        np.testing.assert_allclose(scaled[:2, :2], expect, rtol=1e-12)

    def test_population_sizes(self):
        rng = np.random.default_rng(15)
        nodes = sample_topology(rng, 4, 8, 100.0, RING)
        scaled = scaled_distances(nodes, 100.0)
        assert scaled.shape == (12, 12)
        np.testing.assert_array_equal(scaled, distances_reference(nodes) / 100.0)

    def test_all_population_prefix(self):
        # the primary links come first, then the secondary one
        nodes = small_topology()
        scaled = scaled_distances(nodes, 50.0)
        assert scaled.shape == (3, 3)
        np.testing.assert_array_equal(scaled, distances_reference(nodes) / 50.0)
        assert scaled[2, 2] == pytest.approx(10.0 / 50.0, rel=1e-12)

    def test_scaled_range(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            nodes = sample_topology(rng, 3, 3, 100.0, RING)
            scaled = scaled_distances(nodes, 100.0)
            np.testing.assert_array_equal(scaled, distances_reference(nodes) / 100.0)
            assert np.all(scaled >= 0.0)
            assert np.all(scaled <= 2.0)
