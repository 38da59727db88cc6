"""PPO with generalized advantage estimation, on hand-differentiated nets.

Training runs an outer loop of rollout-then-update iterations. A rollout
collects a fixed number of transitions through the shared world (one batch
per agent, each built from that agent's own observations and rewards), then
every agent takes several full-batch Adam steps on the clipped surrogate and
on the value regression. The clip envelope (1 + sign(A) * eps) * A is treated
as a constant w.r.t. the policy, so gradient flows only through samples where
the unclipped ratio term attains the min.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blas import one_blas_thread
from .env import METRIC_FIELDS, EnvConfig, SpectrumSharingEnv
from .geometry import require_finite
from .nets import (
    HIDDEN,
    AdamState,
    GaussianPolicyNet,
    ValueNet,
    gaussian_log_prob,
    logprob_grads_from_forward,
    sample_action,
)

OBS_PRIMARY = "primary"
OBS_SECONDARY = "secondary"
OBS_CENTRALIZED_DIST = "centralized_dist"
OBS_CENTRALIZED_FULL_CSI = "centralized_full_csi"
# Each observation kind's systems (0 primary, 1 secondary). The agent powers
# their links (a slice of the joint power vector, primary links first), earns
# the sum of their rewards (step-row entries 0 and 1) and observes a head over
# those links, then those systems' last measurements (zero after a reset): the
# primary rates, then the secondary EEs and the NACK count. ``episode_heads``
# builds the head once per episode: the tx -> rx distances over the radius, in
# [0, 2], or (full CSI, one row per step) the gains clipped to [1e-20, 1] and
# mapped to [-1, 1] by log10(g) / 10 + 1, each flattened row-major.
KIND_SYSTEMS = {
    OBS_PRIMARY: (0,),
    OBS_SECONDARY: (1,),
    OBS_CENTRALIZED_DIST: (0, 1),
    OBS_CENTRALIZED_FULL_CSI: (0, 1),
}

MODE_COEXIST = "coexist_dist"
MODE_CENTRALIZED_DIST = OBS_CENTRALIZED_DIST
MODE_CENTRALIZED_FULL_CSI = OBS_CENTRALIZED_FULL_CSI
# each mode's agents as (name, observation kind), in the order their actions
# join into the joint power vector (primary links first)
MODE_AGENTS = {
    MODE_COEXIST: (("p", OBS_PRIMARY), ("s", OBS_SECONDARY)),
    MODE_CENTRALIZED_DIST: (("c", OBS_CENTRALIZED_DIST),),
    MODE_CENTRALIZED_FULL_CSI: (("c", OBS_CENTRALIZED_FULL_CSI),),
}
MODES = tuple(MODE_AGENTS)


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient; names the agent, the first non-finite
    parameter or gradient block and, raised from ``train``, the iteration."""


@dataclass(frozen=True)
class PpoHyper:
    """Optimization hyperparameters; batch must hold whole episodes.

    ``episode_len`` is also the length of every environment episode.
    """

    gamma: float = 0.1
    lam: float = 0.94
    clip: float = 0.1
    iters: int = 300
    batch: int = 200
    episode_len: int = 200
    update_epochs: int = 10
    lr_policy: float = 3e-4
    lr_value: float = 1e-3

    def __post_init__(self):
        require_finite(self)
        for name in ("gamma", "lam", "clip"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        for name in ("iters", "batch", "episode_len", "update_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.batch % self.episode_len != 0:
            raise ValueError("batch must be a multiple of episode_len")
        for name in ("lr_policy", "lr_value"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(eq=False)
class TrajectoryBatch:
    """One agent's rollout; returns/advantages are filled in post-collection."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs_old: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray
    bootstrap_value: float
    returns: np.ndarray | None = None
    advantages: np.ndarray | None = None

    def __len__(self) -> int:
        return self.rewards.shape[0]


def compute_gae(batch: TrajectoryBatch, hyper: PpoHyper):
    """Backward-recursive rewards-to-go and GAE advantages (unnormalized).

    Both recursions cut at done flags. The bootstrap value stands in for the
    post-batch state's value and only matters when the final transition is
    not terminal.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("empty batch")
    gamma, lam = hyper.gamma, hyper.lam
    # the recursion runs on Python floats, which round exactly as float64 does
    rewards, dones = batch.rewards.tolist(), batch.dones.tolist()
    values = batch.values.tolist()
    returns = [0.0] * n
    advantages = [0.0] * n
    next_ret = batch.bootstrap_value
    next_adv = 0.0
    next_value = batch.bootstrap_value
    for t in range(n - 1, -1, -1):
        nonterm = 1.0 - dones[t]
        returns[t] = rewards[t] + gamma * nonterm * next_ret
        delta = rewards[t] + gamma * nonterm * next_value - values[t]
        advantages[t] = delta + gamma * lam * nonterm * next_adv
        next_ret = returns[t]
        next_adv = advantages[t]
        next_value = values[t]
    return np.array(returns), np.array(advantages)


def normalize_advantages(advantages: np.ndarray) -> np.ndarray:
    """Zero-mean unit-std rescale with a floor on the std."""
    advantages = np.asarray(advantages, dtype=float)
    std = float(advantages.std())
    return (advantages - advantages.mean()) / max(std, 1e-8)


def clip_envelope(advantage, eps: float) -> np.ndarray:
    """Best clipped objective value per sample: (1 + sign(A) * eps) * A."""
    advantage = np.asarray(advantage, dtype=float)
    return (1.0 + np.sign(advantage) * eps) * advantage


def policy_objective(policy: GaussianPolicyNet, batch: TrajectoryBatch,
                     hyper: PpoHyper):
    """Clipped-surrogate objective, its exact gradient, and update stats."""
    mean, log_std, cache = policy.forward(batch.obs)
    logp = gaussian_log_prob(mean, log_std, batch.actions)
    ratio = np.exp(logp - batch.log_probs_old)
    adv = batch.advantages
    linear = ratio * adv
    envelope = clip_envelope(adv, hyper.clip)
    objective = float(np.minimum(linear, envelope).mean())
    # d(min)/d(theta): only the ratio branch depends on theta
    unclipped = linear <= envelope
    weights = np.where(unclipped, linear, 0.0) / len(batch)
    grads = logprob_grads_from_forward(policy, cache, mean, log_std,
                                       batch.actions, weights)
    stats = {
        "mean_ratio": float(ratio.mean()),
        "clip_fraction": float(np.mean(~unclipped)),
    }
    return objective, grads, stats


def value_objective(value: ValueNet, batch: TrajectoryBatch):
    """Mean squared error against rewards-to-go, with its exact gradient."""
    v, cache = value.forward(batch.obs)
    err = v - batch.returns
    loss = float(np.mean(err * err))
    grads = value.backward(cache, 2.0 * err / len(batch))
    return loss, grads


@dataclass(eq=False)
class Agent:
    name: str
    policy: GaussianPolicyNet
    value: ValueNet
    opt_policy: AdamState
    opt_value: AdamState


def make_agent(rng, name: str, obs_dim: int, action_dim: int,
               hyper: PpoHyper, hidden=HIDDEN) -> Agent:
    policy = GaussianPolicyNet.init(rng, obs_dim, action_dim, hidden=hidden)
    value = ValueNet.init(rng, [obs_dim, *hidden, 1])
    return Agent(
        name=name,
        policy=policy,
        value=value,
        opt_policy=AdamState(policy.flat, lr=hyper.lr_policy),
        opt_value=AdamState(value.flat, lr=hyper.lr_value),
    )


def _parts(agent: Agent):
    """(tag, network, optimizer) of the agent's policy and value function."""
    return (("pol", agent.policy, agent.opt_policy),
            ("val", agent.value, agent.opt_value))


def _check_finite(agent: Agent, label: str, value: float, grad) -> None:
    if np.isfinite(value) and np.isfinite(grad).all():
        return
    # failure path: name the first non-finite block, parameters before gradient
    suspects = [("policy", agent.policy.flat, "parameters"),
                ("value", agent.value.flat, "parameters"), (label.split()[0], grad, "gradient")]
    found = [(net, getattr(agent, net).first_nonfinite(flat), what)
             for net, flat, what in suspects]
    where = next((f"{net} {block} ({what})" for net, block, what in found if block), "none")
    raise TrainingDiverged(
        f"agent {agent.name!r}: non-finite {label} (value={value!r}); "
        f"first non-finite block: {where}")


def ppo_update(agent: Agent, batch: TrajectoryBatch, hyper: PpoHyper) -> dict:
    """Full-batch ascent on the surrogate and descent on the value error."""
    if batch.advantages is None or batch.returns is None:
        raise ValueError("batch needs returns and normalized advantages")
    stats: dict = {}
    for _ in range(hyper.update_epochs):
        objective, pgrad, pstats = policy_objective(agent.policy, batch, hyper)
        _check_finite(agent, "policy objective", objective, pgrad)
        agent.opt_policy.step(agent.policy.flat, np.negative(pgrad, out=pgrad))
        vloss, vgrad = value_objective(agent.value, batch)
        _check_finite(agent, "value loss", vloss, vgrad)
        agent.opt_value.step(agent.value.flat, vgrad)
        stats = dict(pstats, policy_objective=objective, value_loss=vloss)
    return stats


def save_checkpoint(path, agents, rng: np.random.Generator, iteration: int) -> None:
    """Snapshot networks, optimizer moments, rng state and iteration index.

    The one home of the checkpoint format. Keys per agent and net
    (``pol``/``val``): ``<agent>_<net>_{dims,flat}`` and
    ``<agent>_adam_<net>_{t,m,v}``. Writes exactly ``path`` by renaming a
    synced temporary file onto it, so a crash mid-save leaves the previous
    checkpoint intact.
    """
    arrays = {"iteration": np.array(iteration, dtype=np.int64)}
    for agent in agents:
        for tag, net, opt in _parts(agent):
            arrays[f"{agent.name}_{tag}_dims"] = np.array(net.dims, dtype=np.int64)
            arrays[f"{agent.name}_{tag}_flat"] = net.flat
            adam = f"{agent.name}_adam_{tag}"
            arrays.update({f"{adam}_t": np.array(opt.t), f"{adam}_m": opt.m, f"{adam}_v": opt.v})
    state_json = json.dumps(rng.bit_generator.state)
    arrays["rng_state"] = np.frombuffer(state_json.encode("utf-8"), dtype=np.uint8)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path, agents):
    """Restore a snapshot into freshly built agents of matching shapes.

    Returns (rng, iteration). Callers must rebuild env and agents from the
    same seed they trained with so topology and shapes line up.
    """
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    for agent in agents:
        for tag, net, opt in _parts(agent):
            key = f"{agent.name}_{tag}"
            if f"{key}_flat" not in arrays:
                if f"{key}_dims" in arrays:  # per-layer keys, before the flat layout
                    raise ValueError(f"checkpoint stores {key} in the per-layer format "
                                     "of earlier versions, which cannot be resumed")
                raise ValueError(f"checkpoint lacks agent {agent.name!r}")
            if (dims := arrays[f"{key}_dims"].tolist()) != net.dims:
                raise ValueError(f"checkpoint {key} has dims {dims}, expected {net.dims}")
            net.flat[...] = arrays[f"{key}_flat"]
            adam = f"{agent.name}_adam_{tag}"
            opt.t = int(arrays[f"{adam}_t"])
            opt.m[...], opt.v[...] = arrays[f"{adam}_m"], arrays[f"{adam}_v"]
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(
        arrays["rng_state"].tobytes().decode("utf-8")
    )
    return rng, int(arrays["iteration"])


def _systems(kind: str) -> tuple[int, ...]:
    if kind not in KIND_SYSTEMS:
        raise ValueError(f"unknown observation kind {kind!r}")
    return KIND_SYSTEMS[kind]


def _links(kind: str, k_p: int, k_s: int) -> slice:
    """The links of ``kind``'s systems, as a slice of the joint power vector."""
    systems, bounds = _systems(kind), (0, k_p, k_p + k_s)
    return slice(bounds[systems[0]], bounds[systems[-1] + 1])


def observation_dim(kind: str, k_p: int, k_s: int) -> int:
    """Observation vector length of an agent of ``kind``."""
    links = _links(kind, k_p, k_s)
    width = links.stop - links.start
    return width * width + sum((k_p, k_s + 1)[system] for system in KIND_SYSTEMS[kind])


def episode_heads(world, kind: str) -> np.ndarray:
    """The observation head of ``kind`` (see ``KIND_SYSTEMS``) at every step
    index 0..T of ``world``'s episode, one row each."""
    links = _links(kind, world.rate_p.size, world.ee_s.size)
    if kind == OBS_CENTRALIZED_FULL_CSI:
        gains = world.episode_gains[:, links, links]
        return (np.clip(np.log10(gains), -20.0, 0.0) / 10.0 + 1.0).reshape(len(gains), -1)
    head = world.distances[links, links].ravel()
    return np.broadcast_to(head, (len(world.episode_gains), head.size))


def build_centralized_obs(world, head: np.ndarray) -> np.ndarray:
    """A centralized agent's observation: ``head``, then both systems' measurements."""
    return np.concatenate((head, world.rate_p, world.ee_s, [world.nqos_p]))


def observe(world, kind: str, heads: np.ndarray) -> np.ndarray:
    """What an agent of ``kind`` sees of ``world``: the row of ``heads`` (from
    ``episode_heads``) for the world's step index, then its systems'
    measurements."""
    systems, head = _systems(kind), heads[world.step_index]
    if len(systems) == 2:
        return build_centralized_obs(world, head)
    if systems[0] == 0:
        return np.concatenate((head, world.rate_p))
    return np.concatenate((head, world.ee_s, [world.nqos_p]))


def build_agents(mode: str, env_cfg: EnvConfig, hyper: PpoHyper, rng) -> list[Agent]:
    if mode not in MODE_AGENTS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    k_p, k_s = env_cfg.k_p, env_cfg.k_s
    links = {kind: _links(kind, k_p, k_s) for _, kind in MODE_AGENTS[mode]}
    return [make_agent(rng, name, observation_dim(kind, k_p, k_s),
                       links[kind].stop - links[kind].start, hyper)
            for name, kind in MODE_AGENTS[mode]]


def _collect(env: SpectrumSharingEnv, agents, mode: str, hyper: PpoHyper, rng):
    """Roll out one batch of whole episodes; returns (per-agent batches, metric means).

    Every mode runs one loop, which draws only at episode starts: the gains in
    ``env.reset``, then one standard-normal ``(episode_len, K)`` action-noise block.
    Each agent acts into its column slice of one joint ``(batch, K)`` block, row by row.
    """
    n, t_len = hyper.batch, hyper.episode_len
    k_p, k_s = env.cfg.k_p, env.cfg.k_s
    kinds = [kind for _, kind in MODE_AGENTS[mode]]
    cols = [_links(kind, k_p, k_s) for kind in kinds]
    obs = [np.empty((n, agent.policy.obs_dim)) for agent in agents]
    joint = np.empty((n, k_p + k_s))  # the joint actions, primary links first
    log_probs = np.empty((len(agents), n))
    rows = np.empty((n, len(METRIC_FIELDS)))  # step rows, in METRIC_FIELDS order
    for start in range(0, n, t_len):
        world = env.reset(rng)
        heads = [episode_heads(world, kind) for kind in kinds]
        for idx, z in enumerate(rng.standard_normal((t_len, k_p + k_s)), start):
            for i, (agent, kind, col, head) in enumerate(zip(agents, kinds, cols, heads)):
                obs[i][idx] = ob = observe(world, kind, head)
                joint[idx, col], log_probs[i, idx] = sample_action(agent.policy, ob, z[col])
            rows[idx] = env.step(world, joint[idx])
    dones = (np.arange(1, n + 1) % t_len == 0).astype(float)  # each episode's last step
    # the nets do not change during a rollout, so one batched pass per agent
    batches = [
        TrajectoryBatch(obs=ob, actions=joint[:, col], log_probs_old=logp, dones=dones,
                        rewards=rows[:, _systems(kind)].sum(axis=1),
                        values=agent.value.forward(ob)[0],
                        bootstrap_value=agent.value.value(observe(world, kind, head)))
        for agent, kind, col, head, ob, logp in zip(agents, kinds, cols, heads, obs, log_probs)
    ]
    return batches, dict(zip(METRIC_FIELDS, rows.mean(axis=0).tolist()))


@one_blas_thread()
def train(
    env_cfg: EnvConfig,
    hyper: PpoHyper,
    mode: str,
    rng: np.random.Generator,
    on_iteration=None,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume_from=None,
) -> list[dict]:
    """Run the outer training loop; returns one metrics row per iteration.

    Rows carry the METRIC_FIELDS averages plus per-agent update diagnostics
    (suffixed with the agent name). With the same seed and config, histories
    are bit-for-bit reproducible at any batch size: numpy's bundled OpenBLAS
    runs on one thread during the call (``blas.one_blas_thread``).
    """
    env = SpectrumSharingEnv(env_cfg, rng, hyper.episode_len)
    agents = build_agents(mode, env_cfg, hyper, rng)
    start_iter = 0
    if resume_from is not None:
        rng, start_iter = load_checkpoint(resume_from, agents)
    history: list[dict] = []
    for it in range(start_iter, hyper.iters):
        batches, means = _collect(env, agents, mode, hyper, rng)
        row = {"iter": it + 1, **means}
        for agent, batch in zip(agents, batches):
            batch.returns, raw_adv = compute_gae(batch, hyper)
            batch.advantages = normalize_advantages(raw_adv)
            try:
                stats = ppo_update(agent, batch, hyper)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"iteration {it + 1}, {exc}") from None
            for key, val in stats.items():
                row[f"{key}_{agent.name}"] = val
        history.append(row)
        if on_iteration is not None:
            on_iteration(row)
        if checkpoint_path is not None and checkpoint_every > 0:
            if (it + 1) % checkpoint_every == 0 or it + 1 == hyper.iters:
                save_checkpoint(checkpoint_path, agents, rng, it + 1)
    return history
