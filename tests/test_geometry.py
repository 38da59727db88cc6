import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gain_matrix
from underlay_ppo import geometry
from underlay_ppo.geometry import (
    ChannelParams,
    Topology,
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
    """Hand-placed two-pair world for feature-layout checks."""
    return Topology(
        p_tx=np.array([[0.0, 0.0], [10.0, 0.0]]),
        p_rx=np.array([[0.0, 5.0], [10.0, 5.0]]),
        s_tx=np.array([[-20.0, 0.0]]),
        s_rx=np.array([[-20.0, 10.0]]),
        radius=50.0,
    )


def same_length_topology(d):
    """Both pairs share their tx and their rx, so all four links have length d."""
    tx, rx = np.array([[0.0, 0.0]]), np.array([[d, 0.0]])
    return Topology(p_tx=tx, p_rx=rx, s_tx=tx, s_rx=rx, radius=100.0)


def features(topo, which):
    return link_geometry(topo, PARAMS).features[which]


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
        topo = sample_topology(rng, 4, 8, 100.0, RING)
        for pts in (topo.p_tx, topo.p_rx, topo.s_tx, topo.s_rx):
            assert np.all(np.linalg.norm(pts, axis=1) <= 100.0 * (1.0 + 1e-9))
        assert topo.k_p == 4 and topo.k_s == 8

    def test_pair_distances_bounded_by_ring(self):
        # clamping can only shorten a pair link, never stretch it
        rng = np.random.default_rng(4)
        for _ in range(20):
            topo = sample_topology(rng, 3, 3, 60.0, pair_ring=RING)
            d = np.linalg.norm(topo.p_tx - topo.p_rx, axis=1)
            assert np.all(d <= 30.0 + 1e-9)

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            Topology(
                p_tx=np.array([[200.0, 0.0]]),
                p_rx=np.array([[0.0, 0.0]]),
                s_tx=np.array([[0.0, 0.0]]),
                s_rx=np.array([[0.0, 0.0]]),
                radius=100.0,
            )

    def test_nan_position_rejected(self):
        with pytest.raises(ValueError, match="inside the disc"):
            Topology(
                p_tx=np.array([[0.0, 0.0]]),
                p_rx=np.array([[0.0, 0.0]]),
                s_tx=np.array([[0.0, 0.0]]),
                s_rx=np.array([[np.nan, 0.0]]),
                radius=100.0,
            )

    def test_perturb_displacement_bounded(self):
        rng = np.random.default_rng(5)
        topo = sample_topology(rng, 4, 4, 80.0, RING)
        moved = perturb_topology(topo, rng, 5.0)
        for before, after in (
            (topo.p_tx, moved.p_tx),
            (topo.p_rx, moved.p_rx),
            (topo.s_tx, moved.s_tx),
            (topo.s_rx, moved.s_rx),
        ):
            step = np.linalg.norm(after - before, axis=1)
            assert np.all(step <= 5.0 + 1e-9)
            assert np.all(np.linalg.norm(after, axis=1) <= 80.0 * (1.0 + 1e-9))

    def test_perturb_zero_is_identity(self):
        rng = np.random.default_rng(6)
        topo = sample_topology(rng, 2, 2, 50.0, RING)
        moved = perturb_topology(topo, np.random.default_rng(7), 0.0)
        np.testing.assert_array_equal(moved.p_tx, topo.p_tx)
        np.testing.assert_array_equal(moved.s_rx, topo.s_rx)

    def test_perturb_integer_positions(self):
        one = np.array([[1, 2]])
        topo = Topology(p_tx=one, p_rx=one * 3, s_tx=-one, s_rx=one * 0, radius=50.0)
        moved = perturb_topology(topo, np.random.default_rng(8), 2.0)
        assert moved.p_tx.dtype == np.float64
        step = np.linalg.norm(moved.p_rx - topo.p_rx, axis=1)
        assert 0.0 < step.max() <= 2.0 + 1e-9

    def test_seed_determinism(self):
        a = sample_topology(np.random.default_rng(42), 3, 5, 100.0, RING)
        b = sample_topology(np.random.default_rng(42), 3, 5, 100.0, RING)
        c = sample_topology(np.random.default_rng(43), 3, 5, 100.0, RING)
        np.testing.assert_array_equal(a.p_tx, b.p_tx)
        np.testing.assert_array_equal(a.s_rx, b.s_rx)
        assert not np.array_equal(a.p_tx, c.p_tx)


class TestGainSampling:
    def test_matrices_positive_and_shaped(self):
        rng = np.random.default_rng(8)
        topo = sample_topology(rng, 4, 8, 100.0, RING)
        [h] = sample_gain_matrices(link_geometry(topo, PARAMS), rng, 1)
        assert h.shape == (12, 12)
        assert np.all(h > 0.0)
        assert np.all(np.isfinite(h))

    def test_draws_are_read_only_views_of_one_block(self):
        rng = np.random.default_rng(17)
        topo = sample_topology(rng, 2, 3, 100.0, RING)
        block = sample_gain_matrices(link_geometry(topo, PARAMS), rng, 2)
        assert type(block) is np.ndarray and block.dtype == np.float64
        assert block.shape == (2, 5, 5) and not block.flags.writeable
        h1, h2 = block
        assert np.shares_memory(h1, block) and np.shares_memory(h2, block)
        with pytest.raises(ValueError, match="read-only"):
            h1[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            h2[4, 4] = 1.0

    def test_seed_determinism(self):
        topo = sample_topology(np.random.default_rng(10), 3, 3, 100.0, RING)
        links = link_geometry(topo, PARAMS)
        [h1] = sample_gain_matrices(links, np.random.default_rng(11), 1)
        [h2] = sample_gain_matrices(links, np.random.default_rng(11), 1)
        [h3] = sample_gain_matrices(links, np.random.default_rng(12), 1)
        np.testing.assert_array_equal(h1, h2)
        assert not np.array_equal(h1, h3)

    @pytest.mark.parametrize("short", [0.0, 0.25])
    def test_distance_floor(self, short):
        # below one meter (coincident nodes included) the draw is identical
        # to the one-meter draw
        links_short = link_geometry(same_length_topology(short), PARAMS)
        links_floor = link_geometry(same_length_topology(1.0), PARAMS)
        np.testing.assert_array_equal(links_short.d_eff, 1.0)
        [g_short] = sample_gain_matrices(links_short, np.random.default_rng(13), 1)
        [g_floor] = sample_gain_matrices(links_floor, np.random.default_rng(13), 1)
        np.testing.assert_array_equal(g_short, g_floor)

    def test_fading_means_near_unity(self):
        # LOS fading is Gamma(m, 1/m), NLOS is Exp(1); both unit mean.
        # Force each mode via extreme d0 and check the full gain against
        # the closed-form mean path loss * shadowing factor.
        # 200_000 gains: 50_000 draws of the four 50 m links
        draws = 50_000
        rng = np.random.default_rng(14)
        topo = same_length_topology(50.0)
        los_params = ChannelParams(d0=1e9, shadow_std_los_db=0.0)
        gains = sample_gain_matrices(link_geometry(topo, los_params), rng, draws)
        expect = 50.0**-2.4
        assert abs(gains.mean() / expect - 1.0) < 0.02

        # d >> d0 and d >> d1 drives the LOS probability to ~ d0 / d
        nlos_params = ChannelParams(d0=1e-9, d1=1e-9, shadow_std_nlos_db=0.0)
        gains = sample_gain_matrices(link_geometry(topo, nlos_params), rng, draws)
        expect = 50.0**-3.78
        assert abs(gains.mean() / expect - 1.0) < 0.02


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
            block[-1, 5] = bad
            return block

        monkeypatch.setattr(geometry, "_draw_gains", draw)
        links = link_geometry(sample_topology(np.random.default_rng(3), 2, 1, 100.0, RING),
                              PARAMS)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_gain_matrices(links, np.random.default_rng(4), 3)


class TestDistanceFeatures:
    def test_primary_row_major_layout(self):
        topo = small_topology()
        feats = features(topo, "primary")
        # rows are transmitters, columns receivers, flattened row-major
        expect = (
            np.array(
                [
                    np.linalg.norm([0.0 - 0.0, 0.0 - 5.0]),
                    np.linalg.norm([0.0 - 10.0, 0.0 - 5.0]),
                    np.linalg.norm([10.0 - 0.0, 0.0 - 5.0]),
                    np.linalg.norm([10.0 - 10.0, 0.0 - 5.0]),
                ]
            )
            / 50.0
        )
        np.testing.assert_allclose(feats, expect, rtol=1e-12)

    def test_population_sizes(self):
        rng = np.random.default_rng(15)
        topo = sample_topology(rng, 4, 8, 100.0, RING)
        assert features(topo, "primary").shape == (16,)
        assert features(topo, "secondary").shape == (64,)
        assert features(topo, "all").shape == (144,)

    def test_all_population_prefix(self):
        # the "all" matrix leads with primary->primary distances
        topo = small_topology()
        all_feats = features(topo, "all")
        prim = features(topo, "primary")
        k = topo.k_p + topo.k_s
        np.testing.assert_array_equal(all_feats[:2], prim[:2])
        assert all_feats.shape == (k * k,)

    def test_scaled_range(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            topo = sample_topology(rng, 3, 3, 100.0, RING)
            feats = features(topo, "all")
            assert np.all(feats >= 0.0)
            assert np.all(feats <= 2.0)
