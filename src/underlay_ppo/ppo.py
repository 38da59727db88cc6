"""PPO with generalized advantage estimation, on hand-differentiated nets.

Training runs an outer loop of rollout-then-update iterations. A rollout
collects a fixed number of transitions through the shared world (one batch
per agent, each built from that agent's own observations and rewards); each
agent's value net then scores its batch, and the agent takes several
full-batch Adam steps on the clipped surrogate and on the value regression.
The clip envelope (1 + sign(A) * eps) * A is treated as a constant w.r.t. the
policy, so gradient flows only through samples where the unclipped ratio
term attains the min.

An update has two halves that share no state: the policy epochs read the
advantages, the value epochs the returns. A failure is raised as the
interleaved loop meets it first (agent by agent; the earliest epoch; in an
epoch the policy step, then the value step). A half's message names the
other net's parameters as its process holds them, so a value half may see
an older policy; Adam steps on finite gradients keep finite parameters
finite and non-finite ones non-finite, so the block named is the
interleaved loop's.

``train`` runs the update as three tasks (``worker`` module) on an
executor: this process's update worker, or ``Inline`` where it has none.
``_ship`` keeps the call's agents, env and a copy of its generator;
``_policies`` runs the policy half of every agent but the first;
``_values`` runs every value half, then draws the episodes one iteration
ahead. Per iteration ``train`` rolls out; reads the previous value result
(in iteration 1, ship's); scores the batches; submits ``_policies``, then
``_values``; runs the first agent's policy half and reads the policy
result; calls ``on_iteration``. So the value halves run during the next
rollout. The caller copies back the flats of each result and never steps
its own copies of the nets and Adam states the tasks step, so histories
are bit-identical to the interleaved serial loop's.

No action changes the channel, so a rollout's draws depend on the
generator alone: per episode the env's (``env.draw_episode``), then one
noise block. The caller draws iteration 1's episodes from a copy of
``train``'s generator and ships the copy; ship's result carries iteration
2's, and iteration i's value result iteration i + 2's. Each episode is kept
with the generator state its draws leave, which the caller adopts as the
episode starts, so the generator is where the serial loop leaves it at
every episode start, raise and return. The draws stop after ``iters`` times
``batch / episode_len`` episodes; a draw that raises is kept in its
episode's place and raised as that episode starts, and no later one is
drawn. No episode starts if the generator moved since the last one's draws
(a hook drew from it).
"""
from __future__ import annotations

import copy
import pickle
from collections import deque
from dataclasses import dataclass

import numpy as np

from .blas import one_blas_thread
from .env import METRIC_FIELDS, EnvConfig, SpectrumSharingEnv
from .geometry import AT_LEAST_ONE, POSITIVE, check_config, ranged
from .nets import (
    AdamState,
    GaussianPolicyNet,
    PolicyStack,
    ValueNet,
    _log_density,
    fresh,
    logprob_grads,
    sample_action,
)
from .worker import Inline
from .worker import update_worker as _update_worker

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
HIDDEN = (64, 64)  # hidden layer widths of every agent's policy and value nets


class TrainingDiverged(RuntimeError):
    """A non-finite loss or gradient; names the agent, the first non-finite
    parameter block, batch array or gradient block and, raised from
    ``train``, the iteration."""


_UNIT = (lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")


@dataclass(frozen=True)
class PpoHyper:
    """Optimization hyperparameters; batch must hold whole episodes. Each
    field's range sits beside its default.

    Every episode is drawn ``episode_len`` steps long. The defaults are
    the "desk" profile, sized to converge in minutes on a laptop; its short
    schedule needs hotter learning rates than the long "paper" one.
    """

    gamma: float = ranged(0.1, _UNIT)
    lam: float = ranged(0.94, _UNIT)
    clip: float = ranged(0.1, _UNIT)
    iters: int = ranged(300, AT_LEAST_ONE)
    batch: int = ranged(200, AT_LEAST_ONE)
    episode_len: int = ranged(200, AT_LEAST_ONE)
    update_epochs: int = ranged(10, AT_LEAST_ONE)
    lr_policy: float = ranged(1e-3, POSITIVE)
    lr_value: float = ranged(3e-3, POSITIVE)

    def __post_init__(self):
        check_config(self)
        if self.batch % self.episode_len != 0:
            raise ValueError("batch must be a multiple of episode_len")


@dataclass(eq=False)
class TrajectoryBatch:
    """One agent's rollout, whole episodes whose last steps are done as
    ``_collect`` builds it; ``train`` fills the rest after collection (``_score``)."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs_old: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    values: np.ndarray | None = None
    bootstrap_value: float | None = None  # the value of the state after the last step
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
    next_ret = next_value = batch.bootstrap_value
    next_adv = 0.0
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
                     envelope: np.ndarray, work=fresh):
    """Clipped-surrogate objective, its exact gradient, and update stats, given
    the batch's ``clip_envelope`` (``ppo_update`` builds it once per update).
    The update's epochs pass the policy's workspace as ``work``; the gradient
    returned is then its buffer, which the next such call overwrites."""
    n = len(batch)
    mean, log_std, cache = policy.forward(batch.obs, work)
    inv_std = np.exp(-log_std)
    z = (batch.actions - mean) * inv_std
    ratio = np.exp(_log_density(z, log_std) - batch.log_probs_old)
    adv = batch.advantages
    linear = ratio * adv
    # each mean is the reduce and division that ndarray.mean runs, without its wrapper
    objective = float(np.add.reduce(np.minimum(linear, envelope)) / n)
    # d(min)/d(theta): only the ratio branch depends on theta
    unclipped = linear <= envelope
    weights = np.where(unclipped, linear, 0.0) / n
    grads = logprob_grads(policy, cache, z, inv_std, weights, work)
    stats = {
        "mean_ratio": float(np.add.reduce(ratio) / n),
        "clip_fraction": float(np.count_nonzero(~unclipped) / n),
    }
    return objective, grads, stats


def value_objective(value: ValueNet, batch: TrajectoryBatch, work=fresh):
    """Mean squared error against rewards-to-go, with its exact gradient;
    ``work`` as ``policy_objective`` takes it."""
    v, cache = value.forward(batch.obs, work)
    err = v - batch.returns
    loss = float(np.add.reduce(err * err) / len(batch))
    grads = value.backward(cache, 2.0 * err / len(batch), work)
    return loss, grads


@dataclass(eq=False)
class Agent:
    name: str
    kind: str  # what the agent observes, powers and earns (``KIND_SYSTEMS``)
    policy: GaussianPolicyNet
    value: ValueNet
    opt_policy: AdamState
    opt_value: AdamState


# the batch arrays each half of an update reads
_HALF_READS = {"policy": ("obs", "actions", "log_probs_old", "advantages"),
               "value": ("obs", "returns")}


def _check_finite(agent: Agent, label: str, value: float, grad, batch: TrajectoryBatch) -> None:
    if np.isfinite(value) and np.isfinite(grad).all():
        return
    raise TrainingDiverged(
        f"agent {agent.name!r}: non-finite {label} (value={value!r}); "
        f"first non-finite block: {_first_nonfinite(agent, label.split()[0], grad, batch)}")


def _first_nonfinite(agent: Agent, half: str, grad, batch: TrajectoryBatch) -> str:
    """A failure's culprit: the first non-finite block of the parameters, else
    the first non-finite array ``half`` reads from ``batch``, else the first
    non-finite block of its gradient, else "none"."""
    for net in ("policy", "value"):
        block = getattr(agent, net).first_nonfinite(getattr(agent, net).flat)
        if block:
            return f"{net} {block} (parameters)"
    for name in _HALF_READS[half]:
        if not np.isfinite(getattr(batch, name)).all():
            return f"{name} (batch)"
    block = getattr(agent, half).first_nonfinite(grad)
    return f"{half} {block} (gradient)" if block else "none"


def _policy_half(agent: Agent, batch: TrajectoryBatch, hyper: PpoHyper):
    """The policy epochs of ``ppo_update``. Returns the outcome: (the last
    epoch's stats, None), or (None, (epoch, exception)) if an epoch raised."""
    envelope = clip_envelope(batch.advantages, hyper.clip)  # fixed for the update
    work = agent.policy.workspace
    for epoch in range(hyper.update_epochs):
        try:
            objective, pgrad, pstats = policy_objective(agent.policy, batch, envelope, work)
            _check_finite(agent, "policy objective", objective, pgrad, batch)
            agent.opt_policy.step(agent.policy.flat, np.negative(pgrad, out=pgrad), work)
        except Exception as exc:
            return None, (epoch, exc)
    return dict(pstats, policy_objective=objective), None


def _value_half(agent: Agent, batch: TrajectoryBatch, hyper: PpoHyper):
    """The value epochs of ``ppo_update``; its outcome holds the last loss."""
    work = agent.value.workspace
    for epoch in range(hyper.update_epochs):
        try:
            vloss, vgrad = value_objective(agent.value, batch, work)
            _check_finite(agent, "value loss", vloss, vgrad, batch)
            agent.opt_value.step(agent.value.flat, vgrad, work)
        except Exception as exc:
            return None, (epoch, exc)
    return vloss, None


_PASSED = (None, None)  # stands in for a half's outcome that holds no failure


def _raise_first(outcomes, where: str = "") -> None:
    """Raise the failure that the interleaved loop meets first (module doc)
    among ``outcomes``, each agent's (policy, value) outcome pair in agent
    order; a divergence's message is prefixed with ``where``."""
    for pair in outcomes:
        found = [(failure[0], half, failure[1]) for half, (_, failure) in enumerate(pair) if failure]
        if found:
            exc = min(found, key=lambda item: item[:2])[2]
            if where and isinstance(exc, TrainingDiverged):
                raise TrainingDiverged(where + str(exc)) from exc.__cause__
            raise exc


def ppo_update(agent: Agent, batch: TrajectoryBatch, hyper: PpoHyper) -> dict:
    """Full-batch ascent on the surrogate and descent on the value error: the
    policy half, then the value half (module doc)."""
    if batch.advantages is None or batch.returns is None:
        raise ValueError("batch needs returns and normalized advantages")
    policy, value = _policy_half(agent, batch, hyper), _value_half(agent, batch, hyper)
    _raise_first([(policy, value)])
    return dict(policy[0], value_loss=value[0])


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
    """A centralized agent's observation: ``head``, then both systems' slots of
    ``env``'s measurement row. The rollout never calls it (``_collect`` writes
    the measurement tail per step); it keeps this name for perfbench's tracer."""
    seen = _layout(OBS_CENTRALIZED_DIST, env.cfg.k_p, env.cfg.k_s)[1]
    return np.concatenate((head, env.measured[env.step_index, seen]))


def build_agents(mode: str, env_cfg: EnvConfig, hyper: PpoHyper, rng) -> list[Agent]:
    if mode not in MODE_AGENTS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    k_p, k_s = env_cfg.k_p, env_cfg.k_s
    agents = []
    for name, kind in MODE_AGENTS[mode]:
        links, trunk = _layout(kind, k_p, k_s)[0], [observation_dim(kind, k_p, k_s), *HIDDEN]
        policy = GaussianPolicyNet.init(rng, [*trunk, links.stop - links.start])
        value = ValueNet.init(rng, [*trunk, 1])
        agents.append(Agent(name, kind, policy, value, AdamState(policy.flat, hyper.lr_policy),
                            AdamState(value.flat, hyper.lr_value)))
    return agents


def _collect(env: SpectrumSharingEnv, agents, hyper: PpoHyper, source):
    """Roll out one batch of whole episodes; returns (per-agent batches, metric means).

    Every mode runs one loop, which draws nothing: each episode starts from
    ``source.episode()`` (``train``'s ``_Schedule``), the env's blocks
    (``env.start_episode``) and one standard-normal ``(hyper.episode_len, K)``
    noise block, drawn in that order from ``train``'s generator. Each agent's
    ``(batch, obs_dim)`` observation block takes its kind's heads at each
    episode start and per step only the measurement tail (``_layout``). Per step
    one ``sample_action`` runs every agent's policy from a ``PolicyStack`` built
    here, and writes into the step's rows of one joint ``(batch, K)`` action
    block and one joint log-std block, each agent in its links' columns (which
    follow the previous agent's, as ``MODE_AGENTS`` orders the agents).
    Each episode ends with one batched pass for its metric rows
    (``env.metric_rows``) and one per agent for its noise rows' log densities.
    Every episode's last step is marked done, so no observation after it is
    built; the rollout reads no value net.
    """
    n, t_len = hyper.batch, hyper.episode_len
    k_p, k_s = env.cfg.k_p, env.cfg.k_s
    kinds = [agent.kind for agent in agents]
    links, seen = zip(*(_layout(kind, k_p, k_s) for kind in kinds))
    obs = [np.empty((n, agent.policy.obs_dim)) for agent in agents]
    joint = np.empty((n, k_p + k_s))  # the joint actions, primary links first
    log_std = np.empty((n, k_p + k_s))  # and their log-stds
    log_probs = np.empty((len(agents), n))
    rows = np.empty((n, len(METRIC_FIELDS)))  # step rows, in METRIC_FIELDS order
    stack = PolicyStack([agent.policy for agent in agents])
    tails = [(agent.policy.obs_dim - (cut.stop - cut.start), cut)  # measurement slots
             for agent, cut in zip(agents, seen)]
    for start in range(0, n, t_len):
        stop = start + t_len
        episode, noise = source.episode()
        env.start_episode(episode)
        for ob, kind, (width, _) in zip(obs, kinds, tails):
            ob[start:stop, :width] = episode_heads(env, kind)[:t_len]
        for idx, z, measured in zip(range(start, stop), noise, env.measured):
            step_obs = [ob[idx] for ob in obs]
            for row, (width, cut) in zip(step_obs, tails):
                row[width:] = measured[cut]
            sample_action(stack, step_obs, z, joint[idx], log_std[idx])
            env.step(joint[idx])
        rows[start:stop] = env.metric_rows()
        for logp, col in zip(log_probs, links):
            logp[start:stop] = _log_density(noise[:, col], log_std[start:stop, col])
    dones = (np.arange(1, n + 1) % t_len == 0).astype(float)  # each episode's last step
    batches = [
        TrajectoryBatch(obs=ob, actions=joint[:, col], log_probs_old=logp, dones=dones,
                        rewards=rows[:, _systems(kind)].sum(axis=1))
        for kind, col, ob, logp in zip(kinds, links, obs, log_probs)
    ]
    return batches, dict(zip(METRIC_FIELDS, rows.mean(axis=0).tolist()))


def _score(agent: Agent, batch: TrajectoryBatch, hyper: PpoHyper) -> None:
    """Fill ``batch``'s values, returns and normalized advantages in one batched
    value pass. The bootstrap is 0.0: ``PpoHyper`` makes every batch whole episodes,
    ``_collect`` marks its last step done, and there ``compute_gae`` zeroes it."""
    batch.values = agent.value.forward(batch.obs)[0]
    batch.bootstrap_value = 0.0
    batch.returns, raw_adv = compute_gae(batch, hyper)
    batch.advantages = normalize_advantages(raw_adv)


def _position(rng: np.random.Generator) -> bytes:
    """``rng``'s state in a form that compares by value: the states of some
    bit generators (MT19937, Philox, SFC64) hold arrays, which ``==`` does
    not reduce to one bool."""
    return pickle.dumps(rng.bit_generator.state, pickle.HIGHEST_PROTOCOL)


def _draw_ahead(here: dict) -> list:
    """The next iteration's episodes, if any are ``left``. Each is (the
    generator state after its draws, the draws, None); a draw that raises
    ends the list, and the drawing, as (its state, None, the exception)."""
    if not here["left"]:
        return []
    here["left"] -= 1
    env, rng, t_len = here["env"], here["rng"], here["hyper"].episode_len
    episodes = []
    for _ in range(here["hyper"].batch // t_len):
        try:
            drawn, failure = (env.draw_episode(rng, t_len),
                              rng.standard_normal((t_len, env.cfg.k_p + env.cfg.k_s))), None
        except Exception as exc:
            drawn, failure = None, exc
            here["left"] = 0
        episodes.append((rng.bit_generator.state, drawn, failure))
        if failure:
            break
    return episodes


def _ship(here: dict, agents: list[Agent], hyper: PpoHyper, env: SpectrumSharingEnv,
          rng: np.random.Generator, left: int):
    """Task: keep a call's agents, env and generator; draw the next iteration."""
    here.update(agents=agents, hyper=hyper, env=env, rng=rng, left=left)
    return [], _draw_ahead(here)


def _policies(here: dict, batches: list[TrajectoryBatch]):
    """Task: keep the iteration's batches, and run the policy half of every
    agent but the first; each outcome comes with its policy's flat."""
    here["batches"] = batches
    return [(*_policy_half(agent, batch, here["hyper"]), agent.policy.flat)
            for agent, batch in zip(here["agents"][1:], batches[1:])], []


def _values(here: dict):
    """Task: every agent's value half, then the draw one iteration ahead."""
    return [(*_value_half(agent, batch, here["hyper"]), agent.value.flat)
            for agent, batch in zip(here["agents"], here["batches"])], _draw_ahead(here)


class _Schedule:
    """The caller's side of the schedule (module doc), on either executor:
    ``_collect``'s episode source and ``train``'s peer."""

    def __init__(self, executor, agents: list[Agent], hyper: PpoHyper,
                 env: SpectrumSharingEnv, rng: np.random.Generator):
        """Draw iteration 1's episodes here from a copy of ``rng``, then ship
        the copy with the agents and the env."""
        executor.owner = "agent " + ", ".join(repr(agent.name) for agent in agents)
        self.executor, self.agents, self.rng = executor, agents, rng
        first = {}
        self.ahead = deque(_ship(first, agents, hyper, env, copy.deepcopy(rng), hyper.iters)[1])
        self.drawn_from = _position(rng)
        executor.submit(_ship, agents, hyper, env, first["rng"], first["left"])

    def episode(self):
        """The next episode drawn ahead; ``rng`` takes the state its draws left,
        and a draw that raised raises here. ``rng`` must be where the last
        draws left it: a draw in between would be lost from the stream."""
        if _position(self.rng) != self.drawn_from:
            raise RuntimeError("train's generator moved between two episodes' draws; "
                               "on_iteration must not draw from it")
        state, drawn, failure = self.ahead.popleft()
        self.rng.bit_generator.state = state
        self.drawn_from = _position(self.rng)
        if failure:
            raise failure
        return drawn

    def update(self, batches: list[TrajectoryBatch]) -> None:
        self.executor.submit(_policies, batches)
        self.executor.submit(_values)

    def result(self, net: str) -> list:
        """Read the next result: queue the episodes it carries, copy its flats
        into the ``net`` nets it updates (every value net, or every policy but
        the first) and return their outcomes."""
        outcomes, episodes = self.executor.result()
        self.ahead.extend(episodes)
        owners = self.agents[1:] if net == "policy" else self.agents
        for agent, (_, _, flat) in zip(owners, outcomes):
            getattr(agent, net).flat[...] = flat
        return [outcome[:2] for outcome in outcomes]


def _record_values(row: dict, agents: list[Agent], values: list) -> None:
    """Raise the first failure of ``row``'s value halves, whose outcomes are
    ``values``, or set its value losses."""
    _raise_first([(_PASSED, value) for value in values], f"iteration {row['iter']}, ")
    for agent, (loss, _) in zip(agents, values):
        row[f"value_loss_{agent.name}"] = loss


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
    runs on one thread during the call (``blas.one_blas_thread``). The updates
    and draws follow the module doc's schedule, in this process's update
    worker if it has one and in the caller if not (``worker.Inline``); the
    worker is forked here, on one BLAS thread, before ``build_agents``, so it
    counts as set-up.

    ``train`` owns ``rng`` for the call: the rollouts' channel and noise are
    drawn ahead from a copy of it (module doc), with a worker or without, and
    ``rng`` is left where a serial loop would leave it. ``on_iteration`` must
    not draw from it; the next episode's start raises ``RuntimeError`` if it did.

    ``on_iteration(row)`` is called once the iteration's policies are final,
    when the next rollout can start. Its value halves may still be running:
    each ``value_loss_<agent>`` key is already in the row, holding None, and
    is set in place before the next ``on_iteration`` call and before
    ``train`` returns. A divergence in iteration i's value half is raised
    after rollout i + 1, still naming iteration i.
    """
    history: list[dict] = []
    with _update_worker() or Inline() as executor:
        env = SpectrumSharingEnv(env_cfg, rng)
        agents = build_agents(mode, env_cfg, hyper, rng)
        peer = _Schedule(executor, agents, hyper, env, rng)
        for it in range(1, hyper.iters + 1):
            batches, means = _collect(env, agents, hyper, peer)
            values = peer.result("value")  # in iteration 1, ship's
            if history:
                _record_values(history[-1], agents, values)
            for agent, batch in zip(agents, batches):
                _score(agent, batch, hyper)
            peer.update(batches)
            policies = [_policy_half(agents[0], batches[0], hyper), *peer.result("policy")]
            if any(failure for _, failure in policies):
                _raise_first(zip(policies, peer.result("value")), f"iteration {it}, ")
            row = {"iter": it, **means}
            for agent, (stats, _) in zip(agents, policies):
                for key, val in stats.items():
                    row[f"{key}_{agent.name}"] = val
                row[f"value_loss_{agent.name}"] = None
            history.append(row)
            if on_iteration is not None:
                on_iteration(row)
        _record_values(history[-1], agents, peer.result("value"))
    return history
