"""Link-level physics: transceiver distortion, SINDR, rates, energy efficiency.

Hardware impairment is modeled through error-vector-magnitude style
coefficients: a transmit distortion that propagates through every channel the
transmitter excites, and a receive distortion that rides on the direct link's
received power. Both systems (primary "p", secondary "s") share the band, so
each receiver sees its own system's residual interference plus everything the
other system radiates.

All of it is one coupling form. Stack the K = k_p + k_s links, primary
first; let H be the (K, K) gain matrix (H[j, k]: transmitter j to receiver
k) and p the joint K-vector of powers. Then, at every receiver at once,

    distortion = p @ (H * W_dist)
    sindr      = diag(H) * p / (noise + p @ (H * W)),   W = W_dist + 1 - I

where W_dist[j, k] = kt[j, k]**2 + [j == k] * kr[k]**2 (transmit and
receive distortion) and the off-diagonal ones of W add the interference of
every other transmitter. ``coupling_weights`` builds W from the four kappas;
it is the one home of the transmit-kappa choice below. ``evaluate_links``
takes H and p as plain arrays and checks only p's shape: H was checked where
it was drawn, and ``env.step`` clips p into [0, p_max] after a finite check.
It returns plain arrays too, the SINDRs and rates of all K links in the
stacked order, and builds no result object per step.

Modelling choice (secondary-kappa cross terms): kt[j, k] is kappa_t_p only
when transmitter j and receiver k are both primary, and kappa_t_s otherwise.
So at a primary receiver each transmitter's distortion carries that
transmitter's own kappa, but at a secondary receiver the distortion of the
primary transmitters is scaled by kappa_t_s as well. This is deliberate, not
a typo for kappa_t_p; test_cross_terms_use_secondary_transmit_kappa and the
loop oracle in tests/oracles.py pin it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import require_finite

# -173 dBm/Hz thermal noise density over a 10 MHz band = -103 dBm.
DEFAULT_NOISE_POWER_W = 10.0 ** (-13.3)


@dataclass(frozen=True)
class RadioConfig:
    """Impairment coefficients, budgets and QoS constants for both systems."""

    kappa_t_p: float = 0.1
    kappa_r_p: float = 0.1
    kappa_t_s: float = 0.1
    kappa_r_s: float = 0.1
    noise_power: float = DEFAULT_NOISE_POWER_W
    p_max_p: float = 1.0
    p_max_s: float = 1.0
    rate_threshold: float = 0.5
    tau: float = 1.0
    p_circuit: float = 0.1
    rho_decode: float = 0.1

    def __post_init__(self):
        require_finite(self)
        for name in ("kappa_t_p", "kappa_r_p", "kappa_t_s", "kappa_r_s"):
            k = getattr(self, name)
            if not 0.0 <= k <= 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5]")
        for name in ("noise_power", "p_max_p", "p_max_s", "tau", "p_circuit"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("rate_threshold", "rho_decode"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@lru_cache(maxsize=16)
def coupling_weights(cfg: RadioConfig, k_p: int, k_s: int) -> np.ndarray:
    """Read-only (K, K) weight matrix W of the coupling form; see module doc."""
    primary = np.arange(k_p + k_s) < k_p
    kt = np.where(np.outer(primary, primary), cfg.kappa_t_p, cfg.kappa_t_s)
    kr = np.where(primary, cfg.kappa_r_p, cfg.kappa_r_s)
    w = kt**2 + np.diag(kr**2) + (1.0 - np.eye(k_p + k_s))
    w.flags.writeable = False
    return w


def energy_efficiency(
    rate_s: np.ndarray, p_s: np.ndarray, cfg: RadioConfig
) -> np.ndarray:
    """Bits per joule proxy: rate / (tau * (p + p_circuit) + rho_decode * rate),
    0 at zero rate (the denominator is at least tau * p_circuit > 0)."""
    return rate_s / (cfg.tau * (p_s + cfg.p_circuit) + cfg.rho_decode * rate_s)


def nqos(rate_p: np.ndarray, cfg: RadioConfig) -> int:
    """Number of primary links that NACK: the only signal between the systems.

    A link NACKs iff its rate is strictly below the threshold; hitting the
    threshold exactly counts as satisfied.
    """
    return np.count_nonzero(rate_p < cfg.rate_threshold)


def evaluate_links(gains: np.ndarray, power: np.ndarray, k_p: int, cfg: RadioConfig):
    """Full physics chain for one channel draw: SINDR, rates, EE, NACK count.

    ``gains`` is the (K, K) matrix H and ``power`` the joint applied powers,
    the ``k_p`` primary links first (see module doc). Each link k sees its
    own direct power over noise + distortion + same-system interference
    (j != k) + everything the other system transmits. Returns
    ``(sindr, rate, ee_s, nqos_p)``: the (K,) SINDRs and rates, primary links
    first, the (k_s,) secondary energy efficiencies and the NACK count.
    """
    k = gains.shape[0]
    if power.shape != (k,):
        raise ValueError("the power vector must have shape (K,) of the gain matrix")
    w = coupling_weights(cfg, k_p, k - k_p)
    sindr = gains.diagonal() * power / (cfg.noise_power + power @ (gains * w))
    # SINDRs of positive gains and non-negative powers need no sign check
    rate = np.log2(1.0 + sindr)
    return sindr, rate, energy_efficiency(rate[k_p:], power[k_p:], cfg), nqos(rate[:k_p], cfg)
