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
distance matrix, the LOS probabilities, the floored distances and the
distance features of the observations) is computed once at ``reset`` into
``WorldState.geometry``. No power action changes the channel either, so
``reset`` also draws the whole episode's gains at once: T + 1 matrices, the
first for the reset observation and matrix t + 1 for step t. ``step`` draws
nothing: advancing ``WorldState.step_index`` moves ``WorldState.gains`` on to
the step's matrix, and the physics runs on it. Within a rollout, the only
draws made between two resets are the agents' action noise.

Row contract: ``step`` returns its 12 scalar metrics (rewards, summed rates,
EE and powers, NACK count, clip penalties, active-link counts) as one
float64 vector ``StepOutcome.row`` in ``METRIC_FIELDS`` order; a rollout's
CSV row is the mean of its step rows. ``step`` clips the joint raw vector
(primary first) once against the stacked caps, and each system's penalty
sums its slice of ``|raw - applied|``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    ChannelParams,
    GainMatrices,
    LinkGeometry,
    Topology,
    link_geometry,
    perturb_topology,
    require_finite,
    sample_gain_matrices,
    sample_topology,
)
from .phy import LinkMetrics, PowerAllocation, RadioConfig, evaluate_links

OBS_PRIMARY = "primary"
OBS_SECONDARY = "secondary"
OBS_CENTRALIZED_DIST = "centralized_dist"
OBS_CENTRALIZED_FULL_CSI = "centralized_full_csi"

# applied powers above this fraction of the cap count as "active" users
ACTIVE_POWER_FRACTION = 1e-3

# per-step scalar metrics, in the order of StepOutcome.row and the CSV columns
METRIC_FIELDS = (
    "reward_p", "reward_s", "sum_rate_p", "sum_rate_s", "sum_ee_s", "sum_power_p",
    "sum_power_s", "nqos_p", "delta_p", "delta_s", "active_p", "active_s",
)


def observation_dim(kind: str, k_p: int, k_s: int) -> int:
    """Observation vector length per agent kind."""
    if kind == OBS_PRIMARY:
        return k_p * k_p + k_p
    if kind == OBS_SECONDARY:
        return k_s * k_s + k_s + 1
    if kind in (OBS_CENTRALIZED_DIST, OBS_CENTRALIZED_FULL_CSI):
        k = k_p + k_s
        return k * k + k_p + k_s + 1
    raise ValueError(f"unknown observation kind {kind!r}")


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

    ``geometry`` and ``episode_gains`` (the T + 1 channel draws of the
    episode) are fixed at reset; ``gains`` is the one for ``step_index``.
    """

    geometry: LinkGeometry
    episode_gains: tuple[GainMatrices, ...]
    last_rate_p: np.ndarray
    last_ee_s: np.ndarray
    last_nqos_p: float
    step_index: int

    @property
    def topology(self) -> Topology:
        return self.geometry.topology

    @property
    def gains(self) -> GainMatrices:
        return self.episode_gains[self.step_index]


@dataclass(frozen=True, eq=False)
class StepOutcome:
    """One step's observations, rewards, metric row (see module doc) and physics."""

    obs_primary: np.ndarray
    obs_secondary: np.ndarray
    reward_p: float
    reward_s: float
    done: int
    row: np.ndarray
    links: LinkMetrics


def reward_primary(rate_p: np.ndarray, rate_threshold: float, delta_p: float) -> float:
    """Sum of rate margins; scaled down and fined while actions leave the box."""
    margin = float((rate_p - rate_threshold).sum())
    if delta_p > 0.0:
        return 0.1 * margin - 5.0 * delta_p
    return margin


def reward_secondary(ee_s: np.ndarray, nqos_p: float, delta_s: float) -> float:
    """Total secondary EE minus the primary-NACK fine, boundary-penalized."""
    total = float(ee_s.sum())
    if delta_s > 0.0:
        return 0.1 * total - 2.0 * nqos_p - 5.0 * delta_s
    return total - 10.0 * nqos_p


def build_primary_obs(world: WorldState) -> np.ndarray:
    return np.concatenate((world.geometry.features["primary"], world.last_rate_p))


def build_secondary_obs(world: WorldState) -> np.ndarray:
    return np.concatenate(
        (
            world.geometry.features["secondary"],
            world.last_ee_s,
            [world.last_nqos_p],
        )
    )


def _scaled_log_gains(gains: GainMatrices) -> np.ndarray:
    """log10 gains clipped to [-20, 0] and rescaled into [-1, 1], flattened."""
    x = np.clip(np.log10(gains.stacked()), -20.0, 0.0)
    return (x / 10.0 + 1.0).ravel()


def build_centralized_obs(world: WorldState, variant: str) -> np.ndarray:
    """Single-controller observation: CSI (or distance) block plus metrics."""
    if variant == OBS_CENTRALIZED_FULL_CSI:
        head = _scaled_log_gains(world.gains)
    elif variant == OBS_CENTRALIZED_DIST:
        head = world.geometry.features["all"]
    else:
        raise ValueError(f"unknown centralized variant {variant!r}")
    return np.concatenate((head, world.last_rate_p, world.last_ee_s, [world.last_nqos_p]))


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
        self.base_topology = sample_topology(
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

    def reset(
        self, rng: np.random.Generator
    ) -> tuple[WorldState, np.ndarray, np.ndarray]:
        """Start an episode; metric slots in the first observation are zero."""
        cfg = self.cfg
        topo = perturb_topology(self.base_topology, rng, cfg.channel.max_displacement)
        geometry = link_geometry(topo, cfg.channel)
        world = WorldState(
            geometry=geometry,
            episode_gains=sample_gain_matrices(geometry, rng, self.episode_len + 1),
            last_rate_p=np.zeros(cfg.k_p),
            last_ee_s=np.zeros(cfg.k_s),
            last_nqos_p=0.0,
            step_index=0,
        )
        return world, build_primary_obs(world), build_secondary_obs(world)

    def step(self, world: WorldState, raw_action_p, raw_action_s) -> StepOutcome:
        """Advance the world by one slot under both agents' raw power vectors."""
        if world.step_index >= self.episode_len:
            raise RuntimeError("step() called on a finished episode; reset first")
        radio, k_p = self.cfg.radio, self.cfg.k_p
        if np.shape(raw_action_p) != (k_p,) or np.shape(raw_action_s) != (self.cfg.k_s,):
            raise ValueError("action vectors must have shapes (k_p,) and (k_s,)")
        raw = np.concatenate((raw_action_p, raw_action_s), dtype=float)
        applied = raw.clip(0.0, self._p_max)
        excess = np.abs(raw - applied)
        delta_p, delta_s = float(excess[:k_p].sum()), float(excess[k_p:].sum())
        # a nan or infinite raw action makes its clip penalty non-finite
        if not math.isfinite(delta_p + delta_s):
            raise ValueError("raw actions must be finite")

        world.step_index += 1
        links = evaluate_links(world.gains, PowerAllocation(applied, k_p), radio)
        nqos_p = float(links.nqos_p)
        r_p = reward_primary(links.rate_p, radio.rate_threshold, delta_p)
        r_s = reward_secondary(links.ee_s, nqos_p, delta_s)
        world.last_rate_p, world.last_ee_s, world.last_nqos_p = links.rate_p, links.ee_s, nqos_p

        active = applied > self._active_floor
        row = np.array((
            r_p, r_s, links.rate_p.sum(), links.rate_s.sum(), links.ee_s.sum(),
            applied[:k_p].sum(), applied[k_p:].sum(), nqos_p, delta_p, delta_s,
            np.count_nonzero(active[:k_p]), np.count_nonzero(active[k_p:]),
        ))
        return StepOutcome(
            obs_primary=build_primary_obs(world),
            obs_secondary=build_secondary_obs(world),
            reward_p=r_p,
            reward_s=r_s,
            done=int(world.step_index == self.episode_len),
            row=row,
            links=links,
        )
