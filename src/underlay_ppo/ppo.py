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

from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .env import METRIC_FIELDS, EnvConfig, SpectrumSharingEnv
from .geometry import require_finite
from .nets import (
    HIDDEN,
    AdamState,
    GaussianPolicyNet,
    ValueNet,
    _log_density,
    logprob_grads,
    sample_action,
)

OBS_PRIMARY = "primary"
OBS_SECONDARY = "secondary"
OBS_CENTRALIZED_DIST = "centralized_dist"
OBS_CENTRALIZED_FULL_CSI = "centralized_full_csi"
# Each observation kind's systems (0 primary, 1 secondary). The agent powers
# their links, earns the sum of their rewards (step-row entries 0 and 1) and
# observes a head over those links, then those systems' last measurements
# (``_layout``). ``episode_heads`` builds the head once per episode: the
# tx -> rx distances over the radius, in [0, 2], or (full CSI, one row per
# step) the gains clipped to [1e-20, 1] and mapped to [-1, 1] by
# log10(g) / 10 + 1, each flattened row-major.
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

    ``episode_len`` is also the length of every environment episode. The
    defaults are the "desk" profile, sized to converge in minutes on a laptop;
    its short schedule needs hotter learning rates than the long "paper" one.
    """

    gamma: float = 0.1
    lam: float = 0.94
    clip: float = 0.1
    iters: int = 300
    batch: int = 200
    episode_len: int = 200
    update_epochs: int = 10
    lr_policy: float = 1e-3
    lr_value: float = 3e-3

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
                     envelope: np.ndarray):
    """Clipped-surrogate objective, its exact gradient, and update stats, given
    the batch's ``clip_envelope`` (``ppo_update`` builds it once per update)."""
    mean, log_std, cache = policy.forward(batch.obs)
    inv_std = np.exp(-log_std)
    z = (batch.actions - mean) * inv_std
    ratio = np.exp(_log_density(z, log_std) - batch.log_probs_old)
    adv = batch.advantages
    linear = ratio * adv
    objective = float(np.minimum(linear, envelope).mean())
    # d(min)/d(theta): only the ratio branch depends on theta
    unclipped = linear <= envelope
    weights = np.where(unclipped, linear, 0.0) / len(batch)
    grads = logprob_grads(policy, cache, z, inv_std, weights)
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
    envelope = clip_envelope(batch.advantages, hyper.clip)  # fixed for the update
    for _ in range(hyper.update_epochs):
        objective, pgrad, pstats = policy_objective(agent.policy, batch, envelope)
        _check_finite(agent, "policy objective", objective, pgrad)
        agent.opt_policy.step(agent.policy.flat, np.negative(pgrad, out=pgrad))
        vloss, vgrad = value_objective(agent.value, batch)
        _check_finite(agent, "value loss", vloss, vgrad)
        agent.opt_value.step(agent.value.flat, vgrad)
        stats = dict(pstats, policy_objective=objective, value_loss=vloss)
    return stats


def _systems(kind: str) -> tuple[int, ...]:
    if kind not in KIND_SYSTEMS:
        raise ValueError(f"unknown observation kind {kind!r}")
    return KIND_SYSTEMS[kind]


def _layout(kind: str, k_p: int, k_s: int) -> tuple[slice, slice]:
    """(links, seen): ``kind``'s links as a slice of the joint power vector, and
    its systems' measurements as a slice of the env's measurement row (which
    starts with the primary rates, the secondary EEs and the NACK count)."""
    systems = _systems(kind)
    first, last = systems[0], systems[-1] + 1
    links, seen = (0, k_p, k_p + k_s), (0, k_p, k_p + k_s + 1)
    return slice(links[first], links[last]), slice(seen[first], seen[last])


def observation_dim(kind: str, k_p: int, k_s: int) -> int:
    """Observation vector length of an agent of ``kind``."""
    links, seen = _layout(kind, k_p, k_s)
    return (links.stop - links.start) ** 2 + seen.stop - seen.start


def episode_heads(env: SpectrumSharingEnv, kind: str) -> np.ndarray:
    """The observation head of ``kind`` (see ``KIND_SYSTEMS``) at every step
    index 0..T of ``env``'s episode, one row each."""
    links = _layout(kind, env.cfg.k_p, env.cfg.k_s)[0]
    if kind == OBS_CENTRALIZED_FULL_CSI:
        gains = env.episode_gains[:, links, links]
        return (np.clip(np.log10(gains), -20.0, 0.0) / 10.0 + 1.0).reshape(len(gains), -1)
    head = env.distances[links, links].ravel()
    return np.broadcast_to(head, (len(env.episode_gains), head.size))


def build_centralized_obs(env: SpectrumSharingEnv, head: np.ndarray) -> np.ndarray:
    """A centralized agent's observation: ``head``, then the first K + 1 slots of
    ``env``'s measurement row. The rollout never calls it (``_collect`` writes only
    the measurement tail per step); it keeps this name for perfbench's tracer."""
    return np.concatenate((head, env.measured[env.step_index, :env.cfg.k_p + env.cfg.k_s + 1]))


def observe(env: SpectrumSharingEnv, kind: str, heads: np.ndarray) -> np.ndarray:
    """What an agent of ``kind`` sees of ``env``: the row of ``heads`` (from
    ``episode_heads``) for its step index, then its systems' measurements."""
    t, seen = env.step_index, _layout(kind, env.cfg.k_p, env.cfg.k_s)[1]
    return np.concatenate((heads[t], env.measured[t, seen]))


def build_agents(mode: str, env_cfg: EnvConfig, hyper: PpoHyper, rng) -> list[Agent]:
    if mode not in MODE_AGENTS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    k_p, k_s = env_cfg.k_p, env_cfg.k_s
    links = {kind: _layout(kind, k_p, k_s)[0] for _, kind in MODE_AGENTS[mode]}
    return [make_agent(rng, name, observation_dim(kind, k_p, k_s),
                       links[kind].stop - links[kind].start, hyper)
            for name, kind in MODE_AGENTS[mode]]


def _collect(env: SpectrumSharingEnv, agents, mode: str, hyper: PpoHyper, rng):
    """Roll out one batch of whole episodes; returns (per-agent batches, metric means).

    Every mode runs one loop, which draws only at episode starts: the gains in
    ``env.reset``, then one standard-normal ``(episode_len, K)`` action-noise block.
    Each agent's ``(batch, obs_dim)`` observation block takes its episode heads at
    each reset and per step only the measurement tail (``_layout``); it acts into
    its columns of one joint ``(batch, K)`` action block and its log-std block.
    Each episode ends with one batched pass for its metric rows
    (``env.metric_rows``) and one per agent for its noise rows' log densities.
    """
    n, t_len = hyper.batch, env.episode_len
    k_p, k_s = env.cfg.k_p, env.cfg.k_s
    kinds = [kind for _, kind in MODE_AGENTS[mode]]
    links, seen = zip(*(_layout(kind, k_p, k_s) for kind in kinds))
    obs = [np.empty((n, agent.policy.obs_dim)) for agent in agents]
    log_stds = [np.empty((n, agent.policy.action_dim)) for agent in agents]
    joint = np.empty((n, k_p + k_s))  # the joint actions, primary links first
    log_probs = np.empty((len(agents), n))
    rows = np.empty((n, len(METRIC_FIELDS)))  # step rows, in METRIC_FIELDS order
    acting = [(agent.policy, ob, agent.policy.obs_dim - (cut.stop - cut.start), cut, col, ls)
              for agent, ob, cut, col, ls in zip(agents, obs, seen, links, log_stds)]
    for start in range(0, n, t_len):
        stop = start + t_len
        env.reset(rng)
        heads = [episode_heads(env, kind) for kind in kinds]
        for ob, head in zip(obs, heads):
            ob[start:stop, :head.shape[1]] = head[:t_len]
        noise = rng.standard_normal((t_len, k_p + k_s))
        for idx, z, measured in zip(range(start, stop), noise, env.measured):
            for policy, ob, width, cut, col, log_std in acting:
                row = ob[idx]
                row[width:] = measured[cut]
                joint[idx, col], log_std[idx] = sample_action(policy, row, z[col])
            env.step(joint[idx])
        rows[start:stop] = env.metric_rows()
        for logp, col, log_std in zip(log_probs, links, log_stds):
            logp[start:stop] = _log_density(noise[:, col], log_std[start:stop])
    dones = (np.arange(1, n + 1) % t_len == 0).astype(float)  # each episode's last step
    # the nets do not change during a rollout, so one batched pass per agent
    batches = [
        TrajectoryBatch(obs=ob, actions=joint[:, col], log_probs_old=logp, dones=dones,
                        rewards=rows[:, _systems(kind)].sum(axis=1),
                        values=agent.value.forward(ob)[0],
                        bootstrap_value=agent.value.value(observe(env, kind, head)))
        for agent, kind, col, head, ob, logp in zip(agents, kinds, links, heads, obs, log_probs)
    ]
    return batches, dict(zip(METRIC_FIELDS, rows.mean(axis=0).tolist()))


@one_blas_thread()
def train(
    env_cfg: EnvConfig,
    hyper: PpoHyper,
    mode: str,
    rng: np.random.Generator,
    on_iteration=None,
) -> list[dict]:
    """Run the outer training loop; returns one metrics row per iteration.

    Rows carry the METRIC_FIELDS averages plus per-agent update diagnostics
    (suffixed with the agent name). With the same seed and config, histories
    are bit-for-bit reproducible at any batch size: numpy's bundled OpenBLAS
    runs on one thread during the call (``blas.one_blas_thread``).
    """
    env = SpectrumSharingEnv(env_cfg, rng, hyper.episode_len)
    agents = build_agents(mode, env_cfg, hyper, rng)
    history: list[dict] = []
    for it in range(hyper.iters):
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
    return history
