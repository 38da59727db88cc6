"""User geometry and radio channel sampling for the shared-spectrum simulator.

Positions live inside a disc centered at the origin; distances are in meters
and gains are linear power ratios. A link gain combines distance-dependent
path loss with a per-draw LOS/NLOS mode decision, lognormal shadowing
(parameterized by a dB standard deviation) and unit-mean small-scale power
fading: Nakagami-m (Gamma) under LOS, exponential under NLOS. All randomness
flows through an explicit ``numpy.random.Generator`` so runs are repeatable.

Node positions are one (2, K, 2) float array, K = k_p + k_s: ``nodes[0]``
holds the transmitters and ``nodes[1]`` the receivers, each with the k_p
primary links first, which is the row and column order of the gain matrix.
``EnvConfig`` checks the sizes, the radius and the pair ring once, and every
position is drawn inside the disc or clamped back onto it, so the node
arrays are not checked again. ``link_geometry`` derives the per-link arrays
once per topology; ``sample_gain_matrices`` draws a whole block of channel
realisations from them at once and checks the block once, with one
vectorised "positive and finite" test. It returns the block read-only, and
draw t is its (K, K) slice t: entry [j, k] is the gain from transmitter j to
receiver k.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

# Path loss uses max(d, 1 m); keeps d**-alpha finite when a draw lands two
# nodes (almost) on top of each other.
DISTANCE_FLOOR_M = 1.0

_TWO_PI = 2.0 * np.pi

def require_finite(config) -> None:
    """Reject nan/inf in any float field of a config dataclass, and anything
    but an integer (numpy integers included) in a field whose default is one.

    Range checks such as ``x <= 0.0`` are false for nan, and a count such as
    2.0 passes them but fails later as an array size, so every config
    ``__post_init__`` calls this before its own checks.
    """
    for f in fields(config):
        value = getattr(config, f.name)
        if type(f.default) is int:
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{f.name} must be an integer") from None
        elif isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True, eq=False)
class ChannelParams:
    """LOS/NLOS path-loss, shadowing, fading and mobility parameters."""

    alpha_los: float = 2.4
    alpha_nlos: float = 3.78
    d0: float = 18.0
    d1: float = 36.0
    nakagami_m: float = 10.0
    shadow_std_los_db: float = 5.0
    shadow_std_nlos_db: float = 8.6
    max_displacement: float = 5.0

    def __post_init__(self):
        require_finite(self)
        for name in ("alpha_los", "alpha_nlos", "d0", "d1"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.alpha_los >= self.alpha_nlos:
            raise ValueError("alpha_los must be below alpha_nlos")
        if self.nakagami_m < 0.5:
            raise ValueError("nakagami_m must be >= 0.5")
        for name in ("shadow_std_los_db", "shadow_std_nlos_db", "max_displacement"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def sample_disc_points(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Draw n points i.i.d. uniform over the disc of the given radius."""
    r = radius * np.sqrt(rng.random(n))
    theta = _TWO_PI * rng.random(n)
    return np.column_stack((r * np.cos(theta), r * np.sin(theta)))


def clamp_to_disc(points: np.ndarray, radius: float) -> np.ndarray:
    """Radially project any point outside the disc back onto its boundary."""
    points = np.asarray(points, dtype=float)
    norms = np.linalg.norm(points, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return points * scale


def _ring_offsets(rng: np.random.Generator, n: int, ring: tuple[float, float]) -> np.ndarray:
    lo, hi = ring
    dist = rng.uniform(lo, hi, n)
    ang = rng.uniform(0.0, _TWO_PI, n)
    return np.column_stack((dist * np.cos(ang), dist * np.sin(ang)))


def sample_topology(
    rng: np.random.Generator,
    k_p: int,
    k_s: int,
    radius: float,
    pair_ring: tuple[float, float],
) -> np.ndarray:
    """Drop both systems into the disc; returns the (2, K, 2) node array.

    Transmitters are i.i.d. uniform over the disc. Each receiver sits at a
    uniform angle and a uniform distance in ``pair_ring`` from its own
    transmitter, then gets clamped back into the disc, so that direct links
    are statistically much stronger than cross links.
    """
    p_tx = sample_disc_points(rng, k_p, radius)
    p_rx = clamp_to_disc(p_tx + _ring_offsets(rng, k_p, pair_ring), radius)
    s_tx = sample_disc_points(rng, k_s, radius)
    s_rx = clamp_to_disc(s_tx + _ring_offsets(rng, k_s, pair_ring), radius)
    return np.stack((np.concatenate((p_tx, s_tx)), np.concatenate((p_rx, s_rx))))


def perturb_topology(
    nodes: np.ndarray, k_p: int, rng: np.random.Generator,
    max_displacement: float, radius: float,
) -> np.ndarray:
    """Move every node by u * max_displacement (u uniform in [0, 1]) in a
    uniform random direction, clamping escapees back onto the disc boundary.
    ``ChannelParams`` checks that ``max_displacement`` is non-negative."""
    # one draw over all 2K nodes in system order (p_tx, p_rx, s_tx, s_rx);
    # the random stream depends on that order
    step = _ring_offsets(rng, 2 * nodes.shape[1], (0.0, max_displacement))
    step = np.concatenate(
        (step[: 2 * k_p].reshape(2, k_p, 2), step[2 * k_p :].reshape(2, -1, 2)), axis=1)
    return clamp_to_disc(nodes + step, radius)


def los_probability(d, params: ChannelParams) -> np.ndarray:
    """Probability that a link of length d is line-of-sight.

    p(d) = min(d0 / d, 1) * (1 - exp(-d / d1)) + exp(-d / d1), with p(0) = 1
    by continuity. Returns an array of d's shape; negative or nan d is invalid.
    """
    arr = np.asarray(d, dtype=float)
    if not np.all(arr >= 0.0):  # nan fails too
        raise ValueError("distance must be non-negative")
    far = arr > params.d0
    near = np.where(far, params.d0 / np.where(far, arr, 1.0), 1.0)
    decay = np.exp(-arr / params.d1)
    # the d <= d0 branch is exactly 1 analytically; keep it exact in floats
    return np.where(far, near * (1.0 - decay) + decay, 1.0)


def _draw_gains(
    p_los: np.ndarray, d_eff: np.ndarray, params: ChannelParams,
    rng: np.random.Generator, size: tuple[int, ...],
) -> np.ndarray:
    """Gain draws of the given size for an array of links, given their LOS
    probabilities and floored distances, which broadcast along its last axes.

    Four rng calls, each of the full size, in a fixed order; the streams
    depend on it. The arithmetic runs in place, so at most three float arrays
    of the full size are alive at once.
    """
    is_los = rng.random(size) < p_los
    gains = np.where(is_los, -params.alpha_los, -params.alpha_nlos)
    np.power(d_eff, gains, out=gains)
    shadow = rng.standard_normal(size)
    shadow *= np.where(is_los, params.shadow_std_los_db, params.shadow_std_nlos_db)
    shadow /= 10.0
    gains *= np.power(10.0, shadow, out=shadow)
    del shadow
    fade = rng.gamma(params.nakagami_m, 1.0 / params.nakagami_m, size)
    np.copyto(fade, rng.exponential(1.0, size), where=~is_los)
    gains *= fade
    return gains


def link_geometry(nodes: np.ndarray, radius: float, params: ChannelParams):
    """Everything about the links that depends on node positions only.

    Returns ``(p_los, d_eff, scaled)``: the (K, K) LOS probabilities,
    floored distances max(d, 1 m) and distances over the radius (in [0, 2])
    of the tx -> rx links.
    """
    tx, rx = nodes
    dists = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)
    return los_probability(dists, params), np.maximum(dists, DISTANCE_FLOOR_M), dists / radius


def sample_gain_matrices(
    p_los: np.ndarray, d_eff: np.ndarray, params: ChannelParams,
    rng: np.random.Generator, draws: int,
) -> np.ndarray:
    """``draws`` independent gain draws for every tx/rx pair across both systems.

    ``p_los`` and ``d_eff`` are the (K, K) arrays of ``link_geometry``. All
    draws come from one (draws, K, K) block: each of the four rng calls
    (``random``, ``standard_normal``, ``gamma``, ``exponential``) covers the
    whole block, and the block is checked once and returned read-only; draw
    t is slice t. Coincident pairs fall back to the 1 m distance floor
    instead of erroring.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    block = _draw_gains(p_los, d_eff, params, rng, (draws,) + d_eff.shape)
    if not 0.0 < block.min() or not block.max() < np.inf:  # nan fails both
        raise ValueError("gain entries must be positive and finite")
    block.flags.writeable = False
    return block
