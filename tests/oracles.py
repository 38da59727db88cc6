"""Independent reference implementations used to cross-check the package.

Everything here is written in the dumbest possible style (explicit python
loops, forward-in-time sums) precisely so it shares no structure with the
vectorized / backward-recursive production code it validates. ``observe`` is
the one exception: it reads an agent's observation at a single step the way
``ppo._collect`` writes it, and ``observation_reference`` checks it.
"""
import math

import numpy as np


def gain_matrix(h, k_p):
    """A read-only float copy of a hand-built (K, K) gain matrix, checked as
    the simulator's own draws are: square, 1 <= k_p < K, entries positive
    and finite."""
    h = np.array(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("gain matrix must be square")
    if not 1 <= k_p < h.shape[0]:
        raise ValueError("k_p must satisfy 1 <= k_p < k_p + k_s")
    if not np.all((h > 0.0) & np.isfinite(h)):
        raise ValueError("gain entries must be positive and finite")
    h.flags.writeable = False
    return h


def coupled(h, k_p, cfg):
    """The coupled block H * W that ``phy.evaluate_links`` takes, for gain
    matrix ``h`` of ``k_p`` primary links (``env.reset`` builds it per episode)."""
    from underlay_ppo.phy import coupling_weights

    return h * coupling_weights(cfg, k_p, h.shape[0] - k_p)


def _blocks(g, k_p):
    """The four (primary/secondary tx) x (primary/secondary rx) gain blocks."""
    return g[:k_p, :k_p], g[:k_p, k_p:], g[k_p:, :k_p], g[k_p:, k_p:]


def distortion_loops(h, pp, ps, cfg):
    """Per-receiver distortion powers via explicit loops over transmitters.

    ``h`` is the (K, K) gain matrix; returns (d_p, d_s) lists. Transmit
    distortion at a secondary receiver carries kappa_t_s for both systems.
    """
    k_p, k_s = len(pp), len(ps)
    h_pp, h_ps, h_sp, h_ss = _blocks(h, k_p)
    d_p = []
    for k in range(k_p):
        dist = cfg.kappa_r_p**2 * h_pp[k][k] * pp[k]
        for j in range(k_p):
            dist += cfg.kappa_t_p**2 * pp[j] * h_pp[j][k]
        for j in range(k_s):
            dist += cfg.kappa_t_s**2 * ps[j] * h_sp[j][k]
        d_p.append(dist)
    d_s = []
    for k in range(k_s):
        dist = cfg.kappa_r_s**2 * h_ss[k][k] * ps[k]
        for j in range(k_s):
            dist += cfg.kappa_t_s**2 * ps[j] * h_ss[j][k]
        for j in range(k_p):
            dist += cfg.kappa_t_s**2 * pp[j] * h_ps[j][k]
        d_s.append(dist)
    return d_p, d_s


def sindr_loops(h, pp, ps, cfg):
    """Per-link SINDRs via explicit double loops over transmitters.

    ``h`` is the (K, K) gain matrix; returns (sindr_p, sindr_s) arrays.
    """
    k_p, k_s = len(pp), len(ps)
    h_pp, h_ps, h_sp, h_ss = _blocks(h, k_p)
    dist_p, dist_s = distortion_loops(h, pp, ps, cfg)
    out_p = []
    for k in range(k_p):
        direct = h_pp[k][k] * pp[k]
        interference = 0.0
        for j in range(k_p):
            if j != k:
                interference += pp[j] * h_pp[j][k]
        for j in range(k_s):
            interference += ps[j] * h_sp[j][k]
        out_p.append(direct / (cfg.noise_power + dist_p[k] + interference))
    out_s = []
    for k in range(k_s):
        direct = h_ss[k][k] * ps[k]
        interference = 0.0
        for j in range(k_s):
            if j != k:
                interference += ps[j] * h_ss[j][k]
        for j in range(k_p):
            interference += pp[j] * h_ps[j][k]
        out_s.append(direct / (cfg.noise_power + dist_s[k] + interference))
    return np.array(out_p), np.array(out_s)


def gae_loops(rewards, dones, values, bootstrap, gamma, lam):
    """O(N^2) forward-sum rewards-to-go and advantages.

    returns[t] = sum_l gamma^l r_{t+l} * prod_{m<l} (1 - d_{t+m}), plus the
    discounted bootstrap if no terminal truncates the tail. Advantages use
    the same product over (gamma*lam)-weighted TD residuals.
    """
    n = len(rewards)
    values_ext = list(values) + [bootstrap]
    deltas = [
        rewards[t] + gamma * (1.0 - dones[t]) * values_ext[t + 1] - values[t]
        for t in range(n)
    ]
    returns = np.zeros(n)
    advantages = np.zeros(n)
    for t in range(n):
        keep = 1.0
        ret = 0.0
        adv = 0.0
        for l in range(n - t):
            ret += (gamma**l) * rewards[t + l] * keep
            adv += ((gamma * lam) ** l) * deltas[t + l] * keep
            keep *= 1.0 - dones[t + l]
        ret += (gamma ** (n - t)) * bootstrap * keep
        returns[t] = ret
        advantages[t] = adv
    return returns, advantages


def numeric_grad(loss_fn, arrays, h=1e-5):
    """Central finite differences of a scalar function of live arrays."""
    grads = [np.zeros_like(a) for a in arrays]
    for arr, grad in zip(arrays, grads):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn()
            flat[i] = orig - h
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
    return grads


def max_rel_err(analytic, numeric, floor=1e-4):
    """Worst elementwise relative error across two lists of arrays."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def random_gains(rng, k_p, k_s, scale=1.0):
    """A strictly positive random (K, K) gain matrix with a wide dynamic range."""

    def block(n, m):
        return scale * np.exp(rng.normal(-2.0, 2.0, size=(n, m)))

    # four draws in block order (pp, ps, sp, ss), then stacked
    h_pp, h_ps = block(k_p, k_p), block(k_p, k_s)
    h_sp, h_ss = block(k_s, k_p), block(k_s, k_s)
    return gain_matrix(np.block([[h_pp, h_ps], [h_sp, h_ss]]), k_p)


def node_array(p_tx, p_rx, s_tx, s_rx, radius):
    """The (2, K, 2) node array of hand-built positions, transmitters then
    receivers, primary nodes first, checked as the simulator's own layouts
    are by construction: each group an (n, 2) array with n >= 1, equal
    transmitter and receiver counts per system, a positive radius and every
    node inside the disc (nan fails)."""
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    groups = [np.asarray(g) for g in (p_tx, p_rx, s_tx, s_rx)]
    for name, pts in zip(("p_tx", "p_rx", "s_tx", "s_rx"), groups):
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"{name} must be an (n, 2) array with n >= 1")
    p_tx, p_rx, s_tx, s_rx = groups
    if p_tx.shape != p_rx.shape or s_tx.shape != s_rx.shape:
        raise ValueError("transmitter and receiver counts must match per system")
    nodes = np.stack((np.concatenate((p_tx, s_tx)), np.concatenate((p_rx, s_rx))))
    # allow a hair of slack for points clamped onto the boundary; nan fails
    if not np.linalg.norm(nodes, axis=-1).max() <= radius * (1.0 + 1e-9):
        raise ValueError("node positions must lie inside the disc")
    return nodes


def distances_reference(nodes):
    """(K, K) tx -> rx distances of a (2, K, 2) node array, primary nodes first."""
    tx, rx = nodes
    return np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)


def distance_features_reference(nodes, k_p, radius, which):
    """One population's tx -> rx distances over the radius, flattened row-major.

    ``which`` is "primary", "secondary" or "all" (both systems, primary first).
    """
    dists = distances_reference(nodes)
    block = {
        "primary": dists[:k_p, :k_p],
        "secondary": dists[k_p:, k_p:],
        "all": dists,
    }[which]
    return (block / radius).ravel()


def reset_nodes_reference(env, rng):
    """The node positions ``env.reset(rng, episode_len)`` jitters into, replayed on a copy
    of ``rng``; ``rng`` itself does not move."""
    from underlay_ppo.geometry import perturb_topology

    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    cfg = env.cfg
    return perturb_topology(env.base_nodes, cfg.k_p, twin, cfg.channel.max_displacement,
                            cfg.radius)


def measurements(env):
    """(rate_p, ee_s, nqos_p): what ``env``'s last step measured, read from
    its measurement row in the layout ``env``'s module doc gives (k_p primary
    rates, k_s EEs, the NACK count, k_s secondary rates)."""
    k_p, k = env.cfg.k_p, env.cfg.k_p + env.cfg.k_s
    row = env.measured[env.step_index]
    return row[:k_p], row[k_p:k], float(row[k])


def observe(env, kind, heads):
    """What an agent of ``kind`` sees of ``env``, as ``ppo._collect`` writes
    it: the row of ``heads`` (from ``ppo.episode_heads``) for its step index,
    then its systems' slots of the measurement row (``ppo._layout``)."""
    from underlay_ppo.ppo import _layout

    t, seen = env.step_index, _layout(kind, env.cfg.k_p, env.cfg.k_s)[1]
    return np.concatenate((heads[t], env.measured[t, seen]))


def observation_reference(env, kind, nodes, k_p, radius):
    """An agent's observation of ``env`` built afresh at this step.

    The head is the kind's distance features of ``nodes`` ("primary",
    "secondary" or, for "centralized_dist", "all"), or for
    "centralized_full_csi" this step's gains as
    ``(clip(log10(g), -20, 0) / 10 + 1).ravel()``. Then come the kind's
    measurements: the primary rates; the secondary EEs and the NACK count;
    or all three, in that order, for a centralized kind.
    """
    rate_p, ee_s, nqos_p = measurements(env)
    measured = {
        "primary": (rate_p,),
        "secondary": (ee_s, [nqos_p]),
        "centralized_dist": (rate_p, ee_s, [nqos_p]),
        "centralized_full_csi": (rate_p, ee_s, [nqos_p]),
    }[kind]
    if kind == "centralized_full_csi":
        gains = env.episode_gains[env.step_index]
        head = (np.clip(np.log10(gains), -20.0, 0.0) / 10.0 + 1.0).ravel()
    else:
        which = "all" if kind == "centralized_dist" else kind
        head = distance_features_reference(nodes, k_p, radius, which)
    return np.concatenate((head, *measured))


def gains_reference(nodes, params, rng, draws):
    """(draws, K, K) block of gain draws recomputed from the node positions.

    This is the gain formula written out plainly: distances, LOS
    probabilities and the 1 m floor are all derived afresh from the
    positions, then the four rng calls (random, standard_normal, gamma,
    exponential), each of size draws * K * K, are made in that order.
    """
    from underlay_ppo.geometry import los_probability

    dists = distances_reference(nodes)
    d = dists.ravel()
    size = (draws, d.shape[0])
    p_los = np.asarray(los_probability(d, params))
    is_los = rng.random(size) < p_los
    alpha = np.where(is_los, params.alpha_los, params.alpha_nlos)
    shadow_db = rng.standard_normal(size) * np.where(
        is_los, params.shadow_std_los_db, params.shadow_std_nlos_db
    )
    fade_los = rng.gamma(params.nakagami_m, 1.0 / params.nakagami_m, size)
    fade_nlos = rng.exponential(1.0, size)
    fade = np.where(is_los, fade_los, fade_nlos)
    d_eff = np.maximum(d, 1.0)
    gains = d_eff ** (-alpha) * 10.0 ** (shadow_db / 10.0) * fade
    return gains.reshape((draws,) + dists.shape)


def unshrunk_policy(rng, obs_dim, action_dim, hidden):
    """``GaussianPolicyNet.init`` without its head shrink: the same fan-in
    draws in the same order, U[-1/sqrt(fan_in), +1/sqrt(fan_in)] for each
    weight block then its bias, input to output, heads included."""
    from underlay_ppo.nets import GaussianPolicyNet

    policy = GaussianPolicyNet([obs_dim, *hidden, action_dim])
    blocks = policy.params()
    for w, b in zip(blocks[0::2], blocks[1::2]):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
        b[...] = rng.uniform(-bound, bound, b.shape)
    return policy


def make_agent(rng, name, obs_dim, action_dim, hyper, hidden):
    """A PPO agent of any size, drawn as ``ppo.build_agents`` draws each of its
    agents: the policy's init, then the value net's, then the two Adam states.
    It has no observation kind, so it can be updated but not rolled out."""
    from underlay_ppo.nets import AdamState, GaussianPolicyNet, ValueNet
    from underlay_ppo.ppo import Agent

    policy = GaussianPolicyNet.init(rng, [obs_dim, *hidden, action_dim])
    value = ValueNet.init(rng, [obs_dim, *hidden, 1])
    return Agent(name, None, policy, value, AdamState(policy.flat, hyper.lr_policy),
                 AdamState(value.flat, hyper.lr_value))


def clamp_and_penalize(raw_action, p_max):
    """One system's raw powers clipped into [0, p_max], and the clipped mass."""
    raw = np.asarray(raw_action, dtype=float)
    applied = raw.clip(0.0, p_max)
    return applied, float(np.abs(raw - applied).sum())


def gaussian_log_prob(mean, log_std, actions):
    """Log density of a diagonal Gaussian, summed over action coordinates:
    ``nets._log_density`` of the standardized actions."""
    from underlay_ppo.nets import _log_density

    return _log_density((actions - mean) * np.exp(-log_std), log_std)


def logprob_grads_from_forward(policy, cache, mean, log_std, actions, weights):
    """Gradient of sum_t weights[t] * log pi(a_t | s_t) given a forward pass:
    ``nets.logprob_grads`` of the standardized actions."""
    from underlay_ppo.nets import logprob_grads

    inv_std = np.exp(-log_std)
    return logprob_grads(policy, cache, (actions - mean) * inv_std, inv_std, weights)


def sample_action_reference(policy, obs, z):
    """One policy's per-step pass, as the rollout ran it before the policies
    were stacked: ``(mean + exp(log_std) * z, log_std)`` from ``policy.forward``
    on one observation and its noise row ``z``."""
    mean, log_std, _ = policy.forward(obs)
    std = np.exp(log_std)
    mean += np.multiply(std, z, out=std)  # mean + std * z
    return mean, log_std


def per_net_sample_action(policies):
    """A stand-in for ``nets.sample_action`` that ignores the stack and runs
    ``policies`` one by one through ``sample_action_reference``, each on its
    action columns (after those of the policies before it)."""
    def sample_action(stack, rows, z, action, log_std):
        start = 0
        for policy, row in zip(policies, rows):
            col = slice(start, start + policy.action_dim)
            start = col.stop
            action[col], log_std[col] = sample_action_reference(policy, row, z[col])
    return sample_action


def step_reference(gains, raw_p, raw_s, radio, active_fraction):
    """One environment step's physics and bookkeeping, system by system.

    Clamps each system on its own, then runs ``evaluate_links`` on the
    stacked powers and the two reward functions. Returns (the metric
    row in ``METRIC_FIELDS`` order, the ``evaluate_links`` result).
    """
    from underlay_ppo.env import reward_primary, reward_secondary
    from underlay_ppo.phy import evaluate_links

    k_p = len(raw_p)
    applied_p, delta_p = clamp_and_penalize(raw_p, radio.p_max_p)
    applied_s, delta_s = clamp_and_penalize(raw_s, radio.p_max_s)
    power = np.concatenate((applied_p, applied_s))
    links = evaluate_links(gains, power, k_p, radio, coupled(gains, k_p, radio))
    _, rate, ee_s, nqos_p = links
    rate_p, rate_s, nqos_p = rate[:k_p], rate[k_p:], float(nqos_p)
    row = [
        reward_primary(rate_p, radio.rate_threshold, delta_p),
        reward_secondary(ee_s, nqos_p, delta_s),
        float(rate_p.sum()),
        float(rate_s.sum()),
        float(ee_s.sum()),
        float(applied_p.sum()),
        float(applied_s.sum()),
        nqos_p,
        delta_p,
        delta_s,
        int((applied_p > active_fraction * radio.p_max_p).sum()),
        int((applied_s > active_fraction * radio.p_max_s).sum()),
    ]
    return np.array(row), links


# Allocating reference forms of the update. Each expression is written as a
# fresh-array numpy expression, operand for operand as the training path
# evaluates it with in-place and ``out=`` operations, so the two must agree
# bit for bit; they share only the parameter layout of ``underlay_ppo.nets``.

def dense_forward_reference(net, x):
    """``DenseNet.forward``: ``x @ w + b`` then ``np.tanh``, layer by layer."""
    x = np.asarray(x, dtype=float)
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = x @ w + b
        x = z if (i == last and not net.tanh_output) else np.tanh(z)
        acts.append(x)
    return x, acts


def dense_backward_reference(net, cache, dout, grad):
    """``DenseNet.backward`` into the flat vector ``grad``, with the
    activation derivative formed as ``dx * (1.0 - a * a)``."""
    blocks = net.blocks(grad)
    last = len(net.weights) - 1
    dx = dout
    for i in range(last, -1, -1):
        a_in, a_out = cache[i], cache[i + 1]
        if i == last and not net.tanh_output:
            dz = dx
        else:
            dz = dx * (1.0 - a_out * a_out)
        np.matmul(a_in.T, dz, out=blocks[2 * i])
        dz.sum(axis=0, out=blocks[2 * i + 1])
        if i:
            dx = dz @ net.weights[i].T
    return grad


def policy_objective_reference(policy, batch, clip):
    """``ppo.policy_objective``: (objective, gradient, stats) with every
    intermediate a fresh array."""
    from underlay_ppo.nets import LOG_STD_MAX, LOG_STD_MIN

    h, trunk_cache = dense_forward_reference(policy.trunk, batch.obs)
    mean = h @ policy.w_mean + policy.b_mean
    raw_log_std = h @ policy.w_log_std + policy.b_log_std
    log_std = raw_log_std.clip(LOG_STD_MIN, LOG_STD_MAX)
    z = (batch.actions - mean) * np.exp(-log_std)
    logp = (-0.5 * np.sum(z * z, axis=-1) - np.sum(log_std, axis=-1)
            - 0.5 * mean.shape[-1] * math.log(2.0 * math.pi))
    ratio = np.exp(logp - batch.log_probs_old)
    adv = batch.advantages
    linear = ratio * adv
    envelope = (1.0 + np.sign(adv) * clip) * adv
    objective = float(np.minimum(linear, envelope).mean())
    unclipped = linear <= envelope
    weights = np.where(unclipped, ratio * adv, 0.0) / len(batch)
    inv_std = np.exp(-log_std)
    z = (batch.actions - mean) * inv_std
    w = weights[:, None]
    dmean = w * z * inv_std
    dlog_std = np.where((raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX),
                        w * (z * z - 1.0), 0.0)
    grad = np.empty(policy.flat.size)
    dw_mean, db_mean, dw_log_std, db_log_std = policy.blocks(grad)[-4:]
    np.matmul(h.T, dmean, out=dw_mean)
    dmean.sum(axis=0, out=db_mean)
    np.matmul(h.T, dlog_std, out=dw_log_std)
    dlog_std.sum(axis=0, out=db_log_std)
    dh = dmean @ policy.w_mean.T + dlog_std @ policy.w_log_std.T
    dense_backward_reference(policy.trunk, trunk_cache, dh, grad[: policy.trunk.flat.size])
    stats = {"mean_ratio": float(ratio.mean()), "clip_fraction": float(np.mean(~unclipped))}
    return objective, grad, stats


def value_objective_reference(value, batch):
    """``ppo.value_objective``: (loss, gradient) with fresh intermediates."""
    out, cache = dense_forward_reference(value, batch.obs)
    err = out[..., 0] - batch.returns
    loss = float(np.mean(err * err))
    grad = dense_backward_reference(value, cache, (2.0 * err / len(batch))[:, None],
                                    np.empty(value.flat.size))
    return loss, grad


def adam_step_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam step on ``params``, ``m`` and ``v`` in place,
    each product a fresh array; returns the new step count."""
    t += 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    v += (1.0 - beta2) * np.square(grads)
    params -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return t


def ppo_update_reference(agent, batch, hyper):
    """``ppo.ppo_update`` built from the reference forms above; updates the
    agent's parameters and Adam state in place and returns the last epoch's
    stats."""
    stats = {}
    for _ in range(hyper.update_epochs):
        objective, pgrad, pstats = policy_objective_reference(agent.policy, batch, hyper.clip)
        opt = agent.opt_policy
        opt.t = adam_step_reference(agent.policy.flat, np.negative(pgrad), opt.m, opt.v,
                                    opt.t, opt.lr)
        vloss, vgrad = value_objective_reference(agent.value, batch)
        opt = agent.opt_value
        opt.t = adam_step_reference(agent.value.flat, vgrad, opt.m, opt.v, opt.t, opt.lr)
        stats = dict(pstats, policy_objective=objective, value_loss=vloss)
    return stats


class caller_source:  # keeps the name of the function it replaced
    """An episode source for ``ppo._collect`` that draws each episode from
    ``rng`` in the caller as it starts: ``env.draw_episode``, then the noise
    block, the draws ``train`` makes ahead of time, in the same order."""

    def __init__(self, env, hyper, rng):
        self.env, self.t_len, self.rng = env, hyper.episode_len, rng

    def episode(self):
        cfg = self.env.cfg
        return (self.env.draw_episode(self.rng, self.t_len),
                self.rng.standard_normal((self.t_len, cfg.k_p + cfg.k_s)))


def train_reference(env_cfg, hyper, mode, rng):
    """``ppo.train`` as one serial loop in the caller's process, on one BLAS
    thread: per iteration ``_collect``, then for each agent in turn its value
    pass, ``compute_gae``, ``normalize_advantages`` and the interleaved update,
    which per epoch takes the policy step and then the value step
    (``policy_objective``, ``value_objective``, ``AdamState.step``). The
    bootstrap value is the true one, the value of the observation after the
    last step, where ``train`` passes 0.0 for a batch whose last step is done."""
    from underlay_ppo.blas import one_blas_thread
    from underlay_ppo.env import SpectrumSharingEnv
    from underlay_ppo.ppo import (
        _collect,
        build_agents,
        clip_envelope,
        compute_gae,
        episode_heads,
        normalize_advantages,
        policy_objective,
        value_objective,
    )

    history = []
    with one_blas_thread():
        env = SpectrumSharingEnv(env_cfg, rng)
        agents = build_agents(mode, env_cfg, hyper, rng)
        source = caller_source(env, hyper, rng)
        for it in range(hyper.iters):
            batches, means = _collect(env, agents, hyper, source)
            row = {"iter": it + 1, **means}
            for agent, batch in zip(agents, batches):
                batch.values = agent.value.forward(batch.obs)[0]
                final = observe(env, agent.kind, episode_heads(env, agent.kind))
                batch.bootstrap_value = agent.value.value(final)
                batch.returns, raw_adv = compute_gae(batch, hyper)
                batch.advantages = normalize_advantages(raw_adv)
                envelope = clip_envelope(batch.advantages, hyper.clip)
                for _ in range(hyper.update_epochs):
                    objective, pgrad, pstats = policy_objective(agent.policy, batch, envelope)
                    agent.opt_policy.step(agent.policy.flat, -pgrad)
                    vloss, vgrad = value_objective(agent.value, batch)
                    agent.opt_value.step(agent.value.flat, vgrad)
                stats = dict(pstats, policy_objective=objective, value_loss=vloss)
                for key, val in stats.items():
                    row[f"{key}_{agent.name}"] = val
            history.append(row)
    return history
