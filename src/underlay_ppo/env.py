"""Shared-spectrum power-control environment.

One world is stepped jointly by both systems. The primary agent tries to keep
every licensed link above a rate threshold; the secondary agent maximizes its
energy efficiency while a single integer (the primary's NACK count from the
previous step) tells it how much trouble it is causing. Raw actions are
unconstrained real vectors; the environment clips them into [0, p_max] and
charges a penalty proportional to the clipped-away amount.

Episodes have fixed length T. Node positions get a fresh small jitter around
their home locations at every reset; shadowing and fading change every step.
Observation vectors hold the previous step's metrics, so agents act on what
they last measured.

Positions are fixed within an episode, so everything derived from them (the
distance matrix, the LOS probabilities and the floored distances) is
computed once at ``reset``; the env keeps only ``distances``, the (K, K)
distances over the radius. No power action changes the channel either, so
``reset`` also draws the episode's gains at once into a read-only
(T + 1, K, K) block ``episode_gains`` (slice 0 for the reset observation,
t + 1 for step t) and multiplies it by ``phy.coupling_weights`` once into
``coupled`` (elementwise, so slice t is ``gains[t] * W``, bit for bit).
``step`` draws nothing. A rollout draws only at episode starts: first the
gains here in ``reset``, then the episode's action-noise block in
``ppo._collect``.

Row contract: ``step`` takes the joint raw power vector, primary links
first, clips it once against the stacked caps and charges each system the
sum of its slice of ``|raw - applied|``. It does only what the next
observation needs and writes into the episode's blocks: row t of
``applied`` and ``penalties`` for step t, and row t + 1 of ``measured``
(primary rates, secondary EEs, NACK count, then secondary rates; row 0 is
the reset's zeros). ``metric_rows`` turns the blocks of the steps taken so
far into a (t, 12) float64 block in ``METRIC_FIELDS`` order, each row the
bits a single step's computation gives; the two rewards come first, and a
rollout's CSV row is the mean of its step rows. The environment builds no
observation; ``ppo`` builds each from its head and a measurement row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ChannelParams,
    link_geometry,
    perturb_topology,
    require_finite,
    sample_gain_matrices,
    sample_topology,
)
from .phy import RadioConfig, coupling_weights, evaluate_links

# applied powers above this fraction of the cap count as "active" users
ACTIVE_POWER_FRACTION = 1e-3

# the sum exactly as ndarray.sum computes it, minus the method's Python-level
# argument handling (a step takes two sums)
_sum = np.add.reduce

# per-step scalar metrics, in the order of the step row and the CSV columns
METRIC_FIELDS = (
    "reward_p", "reward_s", "sum_rate_p", "sum_rate_s", "sum_ee_s", "sum_power_p",
    "sum_power_s", "nqos_p", "delta_p", "delta_s", "active_p", "active_s",
)


@dataclass(frozen=True)
class EnvConfig:
    """Static description of one world: population sizes, geometry, radio."""

    k_p: int = 2
    k_s: int = 2
    radius: float = 100.0
    pair_ring_min: float = 10.0
    pair_ring_max: float = 30.0
    channel: ChannelParams = field(default_factory=ChannelParams)
    radio: RadioConfig = field(default_factory=RadioConfig)

    def __post_init__(self):
        require_finite(self)
        for name in ("k_p", "k_s"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("radius", "pair_ring_min", "pair_ring_max"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.pair_ring_min > self.pair_ring_max:
            raise ValueError("pair_ring_min must not exceed pair_ring_max")


def reward_primary(rate_p: np.ndarray, rate_threshold: float, delta_p):
    """Sum of rate margins; scaled down and fined while actions leave the box.
    Takes one step's rates and penalty, or (t, k_p) and (t,) blocks of them."""
    margin = _sum(rate_p - rate_threshold, axis=-1)
    return np.where(delta_p > 0.0, 0.1 * margin - 5.0 * delta_p, margin)


def reward_secondary(ee_s: np.ndarray, nqos_p, delta_s):
    """Total secondary EE minus the primary-NACK fine, boundary-penalized.
    Takes one step's values, or (t, k_s), (t,) and (t,) blocks of them."""
    total = _sum(ee_s, axis=-1)
    return np.where(delta_s > 0.0, 0.1 * total - 2.0 * nqos_p - 5.0 * delta_s,
                    total - 10.0 * nqos_p)


class SpectrumSharingEnv:
    """Joint world for one primary and one secondary system, and its episode.

    The constructor draws home positions once; every reset jitters them by at
    most ``channel.max_displacement`` (displacements do not accumulate over
    episodes), draws the episode's channel and allocates its blocks afresh
    (see module doc), so no array taken from one episode changes under the
    next. Every episode lasts ``episode_len`` steps.
    """

    def __init__(self, cfg: EnvConfig, rng: np.random.Generator, episode_len: int):
        self.cfg = cfg
        self.episode_len = episode_len
        self.step_index = episode_len  # no episode yet: ``step`` asks for a reset
        self.base_nodes = sample_topology(
            rng,
            cfg.k_p,
            cfg.k_s,
            cfg.radius,
            (cfg.pair_ring_min, cfg.pair_ring_max),
        )
        radio = cfg.radio
        # per-link power caps and "active" floors of the joint vector
        self._p_max = np.repeat((radio.p_max_p, radio.p_max_s), (cfg.k_p, cfg.k_s))
        self._active_floor = ACTIVE_POWER_FRACTION * self._p_max

    def reset(self, rng: np.random.Generator) -> None:
        """Start an episode; its measurements, and so the first observations'
        metric slots, are zero."""
        cfg, k_p, k_s, t_len = self.cfg, self.cfg.k_p, self.cfg.k_s, self.episode_len
        nodes = perturb_topology(self.base_nodes, k_p, rng, cfg.channel.max_displacement,
                                 cfg.radius)
        p_los, d_eff, self.distances = link_geometry(nodes, cfg.radius, cfg.channel)
        gains = sample_gain_matrices(p_los, d_eff, cfg.channel, rng, t_len + 1)
        self.episode_gains, self.coupled = gains, gains * coupling_weights(cfg.radio, k_p, k_s)
        self.step_index, self.measured = 0, np.zeros((t_len + 1, k_p + 2 * k_s + 1))
        self.applied, self.penalties = np.empty((t_len, k_p + k_s)), np.empty((t_len, 2))

    def step(self, raw) -> None:
        """Advance the world by one slot under the joint raw power vector and
        write the step into the episode's blocks (see module doc)."""
        t, k_p = self.step_index, self.cfg.k_p
        if t >= self.episode_len:
            raise RuntimeError("step() called on a finished episode; reset first")
        if np.shape(raw) != self._p_max.shape:
            raise ValueError("the raw action vector must have shape (k_p + k_s,)")
        raw = np.asarray(raw, dtype=float)
        applied = raw.clip(0.0, self._p_max, out=self.applied[t])
        excess = np.abs(raw - applied)
        self.penalties[t] = delta_p, delta_s = _sum(excess[:k_p]), _sum(excess[k_p:])
        # a nan or infinite raw action makes its clip penalty non-finite
        if not math.isfinite(delta_p + delta_s):
            raise ValueError("raw actions must be finite")

        self.step_index = t = t + 1
        _, rate, ee_s, nqos_p = evaluate_links(
            self.episode_gains[t], applied, k_p, self.cfg.radio, self.coupled[t])
        np.concatenate((rate[:k_p], ee_s, (nqos_p,), rate[k_p:]), out=self.measured[t])

    def metric_rows(self) -> np.ndarray:
        """The (t, 12) metric rows of the t steps taken so far in the episode,
        in ``METRIC_FIELDS`` order (see module doc)."""
        t, k_p, k = self.step_index, self.cfg.k_p, self.cfg.k_p + self.cfg.k_s
        measured, applied = self.measured[1:t + 1], self.applied[:t]
        rate_p, ee_s, nqos_p = measured[:, :k_p], measured[:, k_p:k], measured[:, k]
        delta_p, delta_s = self.penalties[:t].T
        active = applied > self._active_floor
        return np.column_stack((
            reward_primary(rate_p, self.cfg.radio.rate_threshold, delta_p),
            reward_secondary(ee_s, nqos_p, delta_s),
            _sum(rate_p, axis=-1), _sum(measured[:, k + 1:], axis=-1), _sum(ee_s, axis=-1),
            _sum(applied[:, :k_p], axis=-1), _sum(applied[:, k_p:], axis=-1),
            nqos_p, delta_p, delta_s,
            np.count_nonzero(active[:, :k_p], axis=-1), np.count_nonzero(active[:, k_p:], axis=-1),
        ))
