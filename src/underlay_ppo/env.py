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
computed once at ``reset``; the world keeps only the distances over the
radius. No power action changes the channel either, so ``reset`` also draws
the whole episode's gains at once: a read-only (T + 1, K, K) block, slice 0
for the reset observation and t + 1 for step t. ``step`` draws nothing; it
moves ``WorldState.gains`` on to the step's slice. A rollout draws only at
episode starts: first the gains here in ``reset``, then the episode's
action-noise block in ``ppo._collect``.

Row contract: ``step`` takes the joint raw power vector, primary links
first, and returns its 12 scalar metrics (rewards, summed rates, EE and
powers, NACK count, clip penalties, active-link counts) as one float64 vector
in ``METRIC_FIELDS`` order; the two rewards are its first two entries, and a
rollout's CSV row is the mean of its step rows. ``step`` clips the raw vector
once against the stacked caps, and each system's penalty sums its slice of
``|raw - applied|``.

The environment builds no observation. ``step`` keeps what the agents
measure in ``WorldState``: the primary rates, the secondary energy
efficiencies and the NACK count (zeros after a reset). ``ppo`` builds each
agent's observation from ``world``.
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
from .phy import RadioConfig, evaluate_links

# applied powers above this fraction of the cap count as "active" users
ACTIVE_POWER_FRACTION = 1e-3

# the sum of a 1-D array exactly as ndarray.sum computes it, minus the
# method's Python-level argument handling (a step takes nine sums)
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


@dataclass(eq=False)
class WorldState:
    """Mutable per-episode state; exclusively owned by one rollout.

    ``distances`` (the (K, K) tx -> rx distances over the radius, see
    ``geometry.link_geometry``) and ``episode_gains`` (the read-only
    (T + 1, K, K) block of the episode's channel draws) are fixed at reset;
    ``gains`` is the slice for ``step_index``. ``rate_p``, ``ee_s`` and
    ``nqos_p`` are what the last step measured, all zero after a reset.
    """

    distances: np.ndarray
    episode_gains: np.ndarray
    step_index: int
    rate_p: np.ndarray
    ee_s: np.ndarray
    nqos_p: float

    @property
    def gains(self) -> np.ndarray:
        return self.episode_gains[self.step_index]


def reward_primary(rate_p: np.ndarray, rate_threshold: float, delta_p: float) -> float:
    """Sum of rate margins; scaled down and fined while actions leave the box."""
    margin = float(_sum(rate_p - rate_threshold))
    if delta_p > 0.0:
        return 0.1 * margin - 5.0 * delta_p
    return margin


def reward_secondary(ee_s: np.ndarray, nqos_p: float, delta_s: float) -> float:
    """Total secondary EE minus the primary-NACK fine, boundary-penalized."""
    total = float(_sum(ee_s))
    if delta_s > 0.0:
        return 0.1 * total - 2.0 * nqos_p - 5.0 * delta_s
    return total - 10.0 * nqos_p


class SpectrumSharingEnv:
    """Joint world for one primary and one secondary system.

    The constructor draws home positions once; every reset jitters them by at
    most ``channel.max_displacement`` (displacements do not accumulate over
    episodes) and draws the episode's channel. Every episode lasts
    ``episode_len`` steps.
    """

    def __init__(self, cfg: EnvConfig, rng: np.random.Generator, episode_len: int):
        self.cfg = cfg
        self.episode_len = episode_len
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

    def reset(self, rng: np.random.Generator) -> WorldState:
        """Start an episode; its measurements, and so the first observations'
        metric slots, are zero."""
        cfg, k_p = self.cfg, self.cfg.k_p
        nodes = perturb_topology(
            self.base_nodes, k_p, rng, cfg.channel.max_displacement, cfg.radius)
        p_los, d_eff, distances = link_geometry(nodes, cfg.radius, cfg.channel)
        return WorldState(
            distances=distances,
            episode_gains=sample_gain_matrices(
                p_los, d_eff, cfg.channel, rng, self.episode_len + 1),
            step_index=0, rate_p=np.zeros(k_p), ee_s=np.zeros(cfg.k_s), nqos_p=0.0,
        )

    def step(self, world: WorldState, raw) -> np.ndarray:
        """Advance the world by one slot under the joint raw power vector;
        returns the step's metric row (see module doc)."""
        if world.step_index >= self.episode_len:
            raise RuntimeError("step() called on a finished episode; reset first")
        radio, k_p = self.cfg.radio, self.cfg.k_p
        if np.shape(raw) != self._p_max.shape:
            raise ValueError("the raw action vector must have shape (k_p + k_s,)")
        raw = np.asarray(raw, dtype=float)
        applied = raw.clip(0.0, self._p_max)
        excess = np.abs(raw - applied)
        delta_p, delta_s = float(_sum(excess[:k_p])), float(_sum(excess[k_p:]))
        # a nan or infinite raw action makes its clip penalty non-finite
        if not math.isfinite(delta_p + delta_s):
            raise ValueError("raw actions must be finite")

        world.step_index += 1
        _, rate, ee_s, nqos_p = evaluate_links(world.gains, applied, k_p, radio)
        rate_p, nqos_p = rate[:k_p], float(nqos_p)
        world.rate_p, world.ee_s, world.nqos_p = rate_p, ee_s, nqos_p
        active = applied > self._active_floor
        return np.array((
            reward_primary(rate_p, radio.rate_threshold, delta_p),
            reward_secondary(ee_s, nqos_p, delta_s),
            _sum(rate_p), _sum(rate[k_p:]), _sum(ee_s),
            _sum(applied[:k_p]), _sum(applied[k_p:]), nqos_p, delta_p, delta_s,
            np.count_nonzero(active[:k_p]), np.count_nonzero(active[k_p:]),
        ))
