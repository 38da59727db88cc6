import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gain_matrix, random_gains, sindr_loops
from underlay_ppo.phy import (
    DEFAULT_NOISE_POWER_W,
    RadioConfig,
    energy_efficiency,
    evaluate_links,
    nqos,
)


def unit_gains(k_p=1, k_s=1):
    """An all-ones gain matrix, handy for closed-form spot checks."""
    return gain_matrix(np.ones((k_p + k_s, k_p + k_s)), k_p)


CFG_UNIT_NOISE = RadioConfig(noise_power=1.0)


class TestRadioConfig:
    def test_defaults(self):
        cfg = RadioConfig()
        assert cfg.kappa_t_p == cfg.kappa_r_p == 0.1
        assert cfg.kappa_t_s == cfg.kappa_r_s == 0.1
        assert cfg.noise_power == DEFAULT_NOISE_POWER_W
        assert cfg.rate_threshold == 0.5
        assert cfg.p_max_p == cfg.p_max_s == 1.0

    def test_noise_default_matches_bandwidth_budget(self):
        # -173 dBm/Hz over 10 MHz is -103 dBm
        assert DEFAULT_NOISE_POWER_W == pytest.approx(10 ** (-103 / 10) * 1e-3)

    def test_kappa_range_enforced(self):
        with pytest.raises(ValueError):
            RadioConfig(kappa_t_p=0.6)
        with pytest.raises(ValueError):
            RadioConfig(kappa_r_s=-0.1)


class TestDistortion:
    """Distortion terms, read through the SINDR denominators they enter."""

    def test_cross_terms_use_secondary_transmit_kappa(self):
        # distinct kappas reveal which coefficient multiplies which sum
        cfg = RadioConfig(
            kappa_t_p=0.3, kappa_r_p=0.0, kappa_t_s=0.2, kappa_r_s=0.0,
            noise_power=1.0,
        )
        sindr = evaluate_links(unit_gains(), np.array([1.0, 1.0]), 1, cfg)[0]
        # primary receiver: noise 1, own-system 0.09, secondary's 0.04, interference 1
        assert sindr[0] == pytest.approx(1.0 / 2.13, rel=1e-12)
        # secondary receiver: both distortion sums carry the secondary transmit kappa
        assert sindr[1] == pytest.approx(1.0 / 2.08, rel=1e-12)

    def test_receiver_term_scales_with_direct_gain(self):
        cfg = RadioConfig(
            kappa_t_p=0.0, kappa_r_p=0.1, kappa_t_s=0.0, kappa_r_s=0.0,
            noise_power=1.0,
        )
        h = gain_matrix([[0.5, 1.0], [1.0, 1.0]], 1)
        # direct power 0.5 * 2 = 1 over noise 1 plus receiver distortion 0.01 * 1
        sindr = evaluate_links(h, np.array([2.0, 0.0]), 1, cfg)[0]
        assert sindr[0] == pytest.approx(1.0 / 1.01, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (5,), (1, 4)], ids=["short", "long", "2-d"])
    def test_dimension_mismatch(self, shape):
        with pytest.raises(ValueError, match="power vector must have shape"):
            evaluate_links(unit_gains(2, 2), np.ones(shape), 2, CFG_UNIT_NOISE)


class TestSindr:
    def test_single_link_spot_value(self):
        sindr = evaluate_links(unit_gains(), np.array([1.0, 0.0]), 1, CFG_UNIT_NOISE)[0]
        assert sindr[0] == pytest.approx(1.0 / 1.02, abs=1e-12)

    def test_two_symmetric_links(self):
        # both primary links identical: distortion 0.03, interference 1
        p = np.array([1.0, 1.0, 0.0])
        sindr = evaluate_links(unit_gains(2, 1), p, 2, CFG_UNIT_NOISE)[0]
        np.testing.assert_allclose(sindr[:2], 1.0 / 2.03, rtol=1e-12)

    def test_zero_power_means_zero_sindr(self):
        sindr = evaluate_links(unit_gains(3, 2), np.zeros(5), 3, CFG_UNIT_NOISE)[0]
        np.testing.assert_array_equal(sindr, np.zeros(5))

    def test_scale_invariance_without_impairments(self):
        # kappa = 0 and negligible noise: scaling every power cancels out
        cfg = RadioConfig(
            kappa_t_p=0.0, kappa_r_p=0.0, kappa_t_s=0.0, kappa_r_s=0.0,
            noise_power=1e-300,
        )
        rng = np.random.default_rng(21)
        h = random_gains(rng, 3, 4)
        p = np.concatenate((rng.random(3) + 0.1, rng.random(4) + 0.1))
        base = evaluate_links(h, p, 3, cfg)[0]
        scaled = evaluate_links(h, 17.0 * p, 3, cfg)[0]
        np.testing.assert_allclose(base, scaled, rtol=1e-9)

    def test_interferer_power_never_helps(self):
        rng = np.random.default_rng(22)
        cfg = RadioConfig(noise_power=1e-10)
        h = random_gains(rng, 2, 2)
        p = np.array([0.5, 0.3, 0.4, 0.2])
        base = evaluate_links(h, p, 2, cfg)[0]
        bumped = p.copy()
        bumped[1] += 0.4
        got = evaluate_links(h, bumped, 2, cfg)[0]
        assert got[0] <= base[0]
        assert np.all(got[2:] <= base[2:])

    def test_more_impairment_never_helps(self):
        rng = np.random.default_rng(23)
        h = random_gains(rng, 3, 3)
        p = np.concatenate((rng.random(3), rng.random(3)))
        lo = evaluate_links(h, p, 3, RadioConfig(noise_power=1e-10))[0]
        hi_cfg = RadioConfig(
            kappa_t_p=0.2, kappa_r_p=0.2, kappa_t_s=0.2, kappa_r_s=0.2,
            noise_power=1e-10,
        )
        hi = evaluate_links(h, p, 3, hi_cfg)[0]
        assert np.all(hi <= lo)

    @given(st.floats(min_value=1e-3, max_value=1.0), st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=40)
    def test_own_power_monotone(self, p_small, p_big):
        lo, hi = sorted((p_small, p_big))
        h = unit_gains(2, 1)
        s_lo = evaluate_links(h, np.array([lo, 0.5, 0.3]), 2, CFG_UNIT_NOISE)[0]
        s_hi = evaluate_links(h, np.array([hi, 0.5, 0.3]), 2, CFG_UNIT_NOISE)[0]
        assert s_hi[0] >= s_lo[0]


class TestEnergyEfficiency:
    def test_spot_value(self):
        cfg = RadioConfig()
        ee = energy_efficiency(np.array([1.0]), np.array([1.0]), cfg)
        assert ee[0] == pytest.approx(1.0 / 1.2, rel=1e-12)

    def test_zero_rate_gives_zero(self):
        cfg = RadioConfig()
        ee = energy_efficiency(np.array([0.0, 1.0]), np.array([0.0, 0.5]), cfg)
        assert ee[0] == 0.0
        assert ee[1] > 0.0

    def test_nonnegative_and_increasing_in_rate(self):
        cfg = RadioConfig()
        rates = np.linspace(0.01, 8.0, 50)
        ee = energy_efficiency(rates, np.full(50, 0.7), cfg)
        assert np.all(ee >= 0.0)
        assert np.all(np.diff(ee) > 0.0)


class TestNqos:
    def test_strict_inequality(self):
        cfg = RadioConfig(rate_threshold=0.5)
        assert nqos(np.array([0.5, 0.49999, 0.7]), cfg) == 1

    def test_bounds(self):
        cfg = RadioConfig()
        rng = np.random.default_rng(24)
        for _ in range(50):
            rates = rng.random(6) * 2.0
            count = nqos(rates, cfg)
            assert 0 <= count <= 6
            assert count == int(np.sum(rates < cfg.rate_threshold))


class TestEvaluateLinks:
    def test_chain_consistency(self):
        rng = np.random.default_rng(25)
        cfg = RadioConfig(noise_power=1e-9)
        h = random_gains(rng, 3, 4)
        p = np.concatenate((rng.random(3), rng.random(4)))
        sindr, rate, ee_s, nqos_p = evaluate_links(h, p, 3, cfg)
        assert sindr.shape == rate.shape == (7,) and ee_s.shape == (4,)
        np.testing.assert_allclose(rate, np.log2(1.0 + sindr), rtol=1e-15)
        np.testing.assert_allclose(ee_s, energy_efficiency(rate[3:], p[3:], cfg))
        assert nqos_p == int(np.sum(rate[:3] < cfg.rate_threshold))

    def test_all_outputs_finite(self):
        rng = np.random.default_rng(26)
        cfg = RadioConfig()
        for _ in range(30):
            h = random_gains(rng, 4, 4, scale=1e-4)
            p = np.concatenate((rng.random(4), rng.random(4)))
            for field in evaluate_links(h, p, 4, cfg)[:3]:
                assert np.all(np.isfinite(field))


class TestCouplingForm:
    """evaluate_links against the loop oracle, wide ranges."""

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(40)
        worst = 0.0
        for _ in range(500):
            k_p, k_s = (int(k) for k in rng.integers(1, 9, 2))
            cfg = RadioConfig(
                kappa_t_p=float(rng.uniform(0.0, 0.5)),
                kappa_r_p=float(rng.uniform(0.0, 0.5)),
                kappa_t_s=float(rng.uniform(0.0, 0.5)),
                kappa_r_s=float(rng.uniform(0.0, 0.5)),
                noise_power=float(10.0 ** rng.uniform(-16.0, -8.0)),
            )
            g = 10.0 ** rng.uniform(-14.0, 0.0, (k_p + k_s, k_p + k_s))
            h = gain_matrix(g, k_p)
            power = rng.uniform(0.0, 1.0, k_p + k_s)
            power[rng.random(k_p + k_s) < 0.25] = 0.0
            pp, ps = power[:k_p], power[k_p:]

            sindr, rate, ee_s, _ = evaluate_links(h, power, k_p, cfg)
            got = (sindr[:k_p], sindr[k_p:])
            ref = sindr_loops(h, pp, ps, cfg)
            for g_arr, r_arr in zip(got, ref):
                r_arr = np.asarray(r_arr)
                zero = r_arr == 0.0
                np.testing.assert_array_equal(g_arr[zero], 0.0)
                if not zero.all():
                    worst = max(worst, float(np.max(
                        np.abs(g_arr[~zero] / r_arr[~zero] - 1.0))))
            # a silent link has exactly zero SINDR, rate and EE
            for arr in (sindr, rate):
                np.testing.assert_array_equal(arr[power == 0.0], 0.0)
            np.testing.assert_array_equal(ee_s[ps == 0.0], 0.0)
        assert worst <= 1e-12

