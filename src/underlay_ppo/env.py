"""Shared-spectrum power-control environment.

One world is stepped jointly by both systems. The primary agent tries to keep
every licensed link above a rate threshold; the secondary agent maximizes its
energy efficiency while a single integer (the primary's NACK count from the
previous step) tells it how much trouble it is causing. Raw actions are
unconstrained real vectors; the environment clips them into [0, p_max] and
charges a penalty proportional to the clipped-away amount.

An episode lasts the T steps its ``reset`` is given. Node positions get a
fresh small jitter around their home locations at every reset; shadowing and
fading change every step. Observation vectors hold the previous step's
metrics, so agents act on what they last measured.

Positions are fixed within an episode, so everything derived from them (the
distance matrix, the LOS probabilities and the floored distances) is
computed once at ``reset``; the env keeps only ``distances``, the (K, K)
distances over the radius. No power action changes the channel either, so
``reset`` also draws the episode's gains at once into a read-only
(T + 1, K, K) block ``episode_gains`` (slice 0 for the reset observation,
t + 1 for step t) and multiplies it by ``phy.coupling_weights`` once into
``coupled`` (elementwise, so slice t is ``gains[t] * W``, bit for bit).
``step`` draws nothing. ``reset`` is its two halves in sequence: the random
``draw_episode`` (the jitter, ``link_geometry`` and the gain block) and the
deterministic ``start_episode`` (the coupled block and fresh measurement
and action blocks). A rollout draws only at episode starts: first the env's
draws, then the episode's action-noise block (``ppo``'s episode source,
which may draw both ahead in the update worker).

Row contract: ``step`` does only what the next observation needs. It writes
the joint raw power vector (primary links first) into row t of ``raw``,
stops at a non-finite entry, clips the vector against the stacked caps for
the physics and writes row t + 1 of ``measured`` (primary rates, secondary
EEs, NACK count, then secondary rates; row 0 is the reset's zeros).
``metric_rows`` turns the blocks of the steps taken so far into a (t, 12)
float64 block in ``METRIC_FIELDS`` order: it clips ``raw`` once and charges
each system the sum of its slice of ``|raw - applied|``, and each row is
the bits a single step's computation gives. The two rewards come first; a
rollout's CSV row is the mean of its step rows. The environment builds no
observation; ``ppo`` builds each from its head and a measurement row.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    AT_LEAST_ONE,
    POSITIVE,
    ChannelParams,
    check_config,
    link_geometry,
    perturb_topology,
    ranged,
    sample_gain_matrices,
    sample_topology,
)
from .phy import RadioConfig, coupling_weights, evaluate_links

# applied powers above this fraction of the cap count as "active" users
ACTIVE_POWER_FRACTION = 1e-3

# the sum exactly as ndarray.sum computes it, minus the method's Python-level
# argument handling
_sum = np.add.reduce

# per-step scalar metrics, in the order of the step row and the CSV columns
METRIC_FIELDS = (
    "reward_p", "reward_s", "sum_rate_p", "sum_rate_s", "sum_ee_s", "sum_power_p",
    "sum_power_s", "nqos_p", "delta_p", "delta_s", "active_p", "active_s",
)


@dataclass(frozen=True)
class EnvConfig:
    """Static description of one world: population sizes, geometry, radio;
    each field's range sits beside its default."""

    k_p: int = ranged(2, AT_LEAST_ONE)
    k_s: int = ranged(2, AT_LEAST_ONE)
    radius: float = ranged(100.0, POSITIVE)
    pair_ring_min: float = ranged(10.0, POSITIVE)
    pair_ring_max: float = ranged(30.0, POSITIVE)
    channel: ChannelParams = field(default_factory=ChannelParams)
    radio: RadioConfig = field(default_factory=RadioConfig)

    def __post_init__(self):
        check_config(self)
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

    The constructor draws home positions once. Every reset jitters them by at
    most ``channel.max_displacement`` (not accumulated over episodes), draws
    the episode's channel and allocates its blocks afresh, so no array taken
    from one episode changes under the next; an episode lasts the
    ``episode_len`` steps its ``reset`` was given. Its steps keep their raw
    actions and measurements, and ``metric_rows`` derives the rest (module doc).
    """

    def __init__(self, cfg: EnvConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.step_index, self.raw = 0, np.empty((0, cfg.k_p + cfg.k_s))  # no episode yet
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

    def reset(self, rng: np.random.Generator, episode_len: int) -> None:
        """Start an episode of ``episode_len`` steps; its measurements, and so the
        first observations' metric slots, are zero."""
        self.start_episode(self.draw_episode(rng, episode_len))

    def draw_episode(self, rng: np.random.Generator, episode_len: int):
        """The random half of ``reset``: the episode's (distances, gains) blocks
        (module doc), drawn from ``rng``. It reads only the base layout and the
        config, so the blocks may be drawn in another process."""
        cfg = self.cfg
        nodes = perturb_topology(self.base_nodes, cfg.k_p, rng, cfg.channel.max_displacement,
                                 cfg.radius)
        p_los, d_eff, distances = link_geometry(nodes, cfg.radius, cfg.channel)
        return distances, sample_gain_matrices(p_los, d_eff, cfg.channel, rng, episode_len + 1)

    def start_episode(self, episode) -> None:
        """The deterministic half of ``reset``: start the episode whose blocks
        ``draw_episode`` drew (its gain block read-only again, as unpickling
        leaves it writable)."""
        k_p, k_s = self.cfg.k_p, self.cfg.k_s
        self.distances, gains = episode
        gains.flags.writeable = False
        self.episode_gains, self.coupled = gains, gains * coupling_weights(self.cfg.radio, k_p, k_s)
        t_len = len(gains) - 1
        self.step_index, self.measured = 0, np.zeros((t_len + 1, k_p + 2 * k_s + 1))
        self.raw = np.empty((t_len, k_p + k_s))

    def step(self, raw) -> None:
        """Advance the world by one slot under the joint raw power vector and
        write the step into the episode's blocks (see module doc)."""
        t, k_p = self.step_index, self.cfg.k_p
        if t >= len(self.raw):
            raise RuntimeError("step() called on a finished episode; reset first")
        if np.shape(raw) != self._p_max.shape:
            raise ValueError("the raw action vector must have shape (k_p + k_s,)")
        row = self.raw[t]
        row[...] = raw
        if not np.isfinite(row).all():
            raise ValueError("raw actions must be finite")

        self.step_index = t = t + 1
        _, rate, ee_s, nqos_p = evaluate_links(
            self.episode_gains[t], row.clip(0.0, self._p_max), k_p, self.cfg.radio, self.coupled[t])
        np.concatenate((rate[:k_p], ee_s, (nqos_p,), rate[k_p:]), out=self.measured[t])

    def metric_rows(self) -> np.ndarray:
        """The (t, 12) metric rows of the t steps taken so far in the episode,
        in ``METRIC_FIELDS`` order (see module doc)."""
        t, k_p, k = self.step_index, self.cfg.k_p, self.cfg.k_p + self.cfg.k_s
        measured, raw = self.measured[1:t + 1], self.raw[:t]
        rate_p, ee_s, nqos_p = measured[:, :k_p], measured[:, k_p:k], measured[:, k]
        applied = raw.clip(0.0, self._p_max)
        excess = np.abs(raw - applied)
        delta_p, delta_s = _sum(excess[:, :k_p], axis=-1), _sum(excess[:, k_p:], axis=-1)
        active = applied > self._active_floor
        return np.column_stack((
            reward_primary(rate_p, self.cfg.radio.rate_threshold, delta_p),
            reward_secondary(ee_s, nqos_p, delta_s),
            _sum(rate_p, axis=-1), _sum(measured[:, k + 1:], axis=-1), _sum(ee_s, axis=-1),
            _sum(applied[:, :k_p], axis=-1), _sum(applied[:, k_p:], axis=-1),
            nqos_p, delta_p, delta_s,
            np.count_nonzero(active[:, :k_p], axis=-1), np.count_nonzero(active[:, k_p:], axis=-1),
        ))
