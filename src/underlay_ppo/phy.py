"""Link-level physics: transceiver distortion, SINDR, rates, energy efficiency.

Hardware impairment is modeled through error-vector-magnitude style
coefficients: a transmit distortion that propagates through every channel the
transmitter excites, and a receive distortion that rides on the direct link's
received power. Both systems (primary "p", secondary "s") share the band, so
each receiver sees its own system's residual interference plus everything the
other system radiates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GainMatrices, require_finite

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
        for name in ("noise_power", "p_max_p", "p_max_s", "p_circuit"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("rate_threshold", "tau", "rho_decode"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Applied (already clamped) transmit powers for both systems, in watts."""

    p_primary: np.ndarray
    p_secondary: np.ndarray

    def __post_init__(self):
        for name in ("p_primary", "p_secondary"):
            p = getattr(self, name)
            if p.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            if p.size and not (0.0 <= p.min() and p.max() < np.inf):  # nan fails both
                raise ValueError(f"{name} entries must be finite and non-negative")


@dataclass(frozen=True, eq=False)
class LinkMetrics:
    """Per-link physics results for one channel draw and power allocation."""

    sindr_p: np.ndarray
    sindr_s: np.ndarray
    rate_p: np.ndarray
    rate_s: np.ndarray
    ee_s: np.ndarray
    nack_p: np.ndarray
    nqos_p: int


def _check_dims(h: GainMatrices, p: PowerAllocation) -> None:
    if p.p_primary.shape[0] != h.k_p or p.p_secondary.shape[0] != h.k_s:
        raise ValueError("power vector lengths must match gain matrix dimensions")


def _distortion_and_sindr(h: GainMatrices, p: PowerAllocation, cfg: RadioConfig):
    """(d_p, d_s, sindr_p, sindr_s) in one pass over the stacked gains.

    Each direct gain is read once and each cross product (``ps @ h_sp``,
    ``pp @ h_ps``) is computed once and shared by the distortion and the
    interference sums.

    Modelling choice (secondary-kappa cross terms): at a primary receiver
    each transmitter's distortion carries that transmitter's own kappa
    (kappa_t_p for primary, kappa_t_s for secondary transmitters), but at a
    secondary receiver the distortion of the primary transmitters is scaled
    by kappa_t_s as well. This is deliberate, not a typo for kappa_t_p;
    test_cross_terms_use_secondary_transmit_kappa and the loop oracle in
    tests/oracles.py pin it.
    """
    _check_dims(h, p)
    pp, ps = p.p_primary, p.p_secondary
    diag = h.stacked().diagonal()
    diag_pp, diag_ss = diag[: h.k_p], diag[h.k_p :]
    from_s = ps @ h.h_sp  # secondary transmitters at primary receivers
    from_p = pp @ h.h_ps  # primary transmitters at secondary receivers
    kt_s2 = cfg.kappa_t_s**2
    d_p = cfg.kappa_r_p**2 * diag_pp * pp + cfg.kappa_t_p**2 * (pp @ h.h_pp) + kt_s2 * from_s
    d_s = cfg.kappa_r_s**2 * diag_ss * ps + kt_s2 * (ps @ h.h_ss) + kt_s2 * from_p

    off_pp = h.h_pp.copy()
    np.fill_diagonal(off_pp, 0.0)
    off_ss = h.h_ss.copy()
    np.fill_diagonal(off_ss, 0.0)

    denom_p = cfg.noise_power + d_p + pp @ off_pp + from_s
    denom_s = cfg.noise_power + d_s + ps @ off_ss + from_p
    return d_p, d_s, diag_pp * pp / denom_p, diag_ss * ps / denom_s


def distortion_powers(
    h: GainMatrices, p: PowerAllocation, cfg: RadioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate distortion power at each primary and secondary receiver.

    Receiver distortion scales with the direct link's received power
    (kappa_r**2 * h_kk * P_k). Transmit distortion from every transmitter,
    the desired one included, arrives through the corresponding channel, so
    the sums run over all j including j = k. See ``_distortion_and_sindr``
    for the secondary-kappa cross-term modelling choice.
    """
    d_p, d_s, _, _ = _distortion_and_sindr(h, p, cfg)
    return d_p, d_s


def compute_sindr(
    h: GainMatrices, p: PowerAllocation, cfg: RadioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Per-link SINDR for both systems.

    Each link k sees its own direct power over noise + distortion + same-system
    interference (j != k) + everything the other system transmits.
    """
    _, _, sindr_p, sindr_s = _distortion_and_sindr(h, p, cfg)
    return sindr_p, sindr_s


def compute_rates(sindr: np.ndarray) -> np.ndarray:
    """Spectral efficiency log2(1 + sindr) in bit/s/Hz."""
    sindr = np.asarray(sindr, dtype=float)
    if np.any(sindr < 0.0):
        raise ValueError("sindr must be non-negative")
    return np.log2(1.0 + sindr)


def energy_efficiency(
    rate_s: np.ndarray, p_s: np.ndarray, cfg: RadioConfig
) -> np.ndarray:
    """Bits per joule proxy: rate / (tau * (p + p_circuit) + rho_decode * rate)."""
    rate_s = np.asarray(rate_s, dtype=float)
    p_s = np.asarray(p_s, dtype=float)
    denom = cfg.tau * (p_s + cfg.p_circuit) + cfg.rho_decode * rate_s
    return np.divide(rate_s, denom, out=np.zeros_like(rate_s), where=rate_s > 0.0)


def nqos(rate_p: np.ndarray, cfg: RadioConfig) -> tuple[np.ndarray, int]:
    """Per-link NACK flags and their count for the primary system.

    A link NACKs iff its rate is strictly below the threshold; hitting the
    threshold exactly counts as satisfied.
    """
    rate_p = np.asarray(rate_p, dtype=float)
    nack = (rate_p < cfg.rate_threshold).astype(np.int64)
    return nack, int(nack.sum())


def evaluate_links(h: GainMatrices, p: PowerAllocation, cfg: RadioConfig) -> LinkMetrics:
    """Full physics chain for one channel draw: SINDR, rates, EE, QoS flags."""
    _, _, sindr_p, sindr_s = _distortion_and_sindr(h, p, cfg)
    # SINDRs of positive gains and non-negative powers need no sign check
    rate_p = np.log2(1.0 + sindr_p)
    rate_s = np.log2(1.0 + sindr_s)
    ee_s = energy_efficiency(rate_s, p.p_secondary, cfg)
    nack_p, count = nqos(rate_p, cfg)
    return LinkMetrics(
        sindr_p=sindr_p,
        sindr_s=sindr_s,
        rate_p=rate_p,
        rate_s=rate_s,
        ee_s=ee_s,
        nack_p=nack_p,
        nqos_p=count,
    )
