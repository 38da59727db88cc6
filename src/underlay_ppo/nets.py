"""Dense networks, Gaussian policy heads, hand-written gradients and Adam.

Everything is float64 numpy; no autodiff framework is involved. Backward
passes exist for exactly the three scalar graphs training needs: a weighted
sum of Gaussian log-densities (which also covers the clipped surrogate, whose
per-sample weights are computed by the caller) and the mean-squared value
error. Gradients are exact up to the usual subgradient convention at the
log-std clamp and at min/clip kinks.
"""
from __future__ import annotations

import math

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_LOG_2PI = math.log(2.0 * math.pi)


def _uniform_init(rng: np.random.Generator, fan_in: int, fan_out: int, scale: float):
    bound = scale / math.sqrt(fan_in)
    w = rng.uniform(-bound, bound, (fan_in, fan_out))
    b = rng.uniform(-bound, bound, fan_out)
    return w, b


class DenseNet:
    """Fully connected stack with tanh hidden units.

    ``tanh_output`` selects whether the final layer is squashed too (used for
    policy trunks, whose output is itself a hidden representation) or linear
    (value heads).
    """

    def __init__(self, weights, biases, tanh_output: bool = False):
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, non-empty weight/bias lists")
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.tanh_output = tanh_output

    @classmethod
    def init(cls, rng, dims, tanh_output: bool = False, scale: float = 1.0):
        """Scaled-uniform fan-in init: U[-scale/sqrt(fan_in), +scale/sqrt(fan_in)]."""
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w, b = _uniform_init(rng, fan_in, fan_out, scale)
            weights.append(w)
            biases.append(b)
        return cls(weights, biases, tanh_output=tanh_output)

    @property
    def dims(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def forward(self, x):
        """Run the stack; returns (output, cache of per-layer activations)."""
        x = np.asarray(x, dtype=float)
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = x @ w + b
            x = z if (i == last and not self.tanh_output) else np.tanh(z)
            acts.append(x)
        return x, acts

    def backward(self, cache, dout):
        """Backprop ``dout`` (gradient w.r.t. the output) through the stack.

        Returns (param grads interleaved [dW0, db0, dW1, db1, ...], dinput).
        Batched 2-D activations only.
        """
        dout = np.asarray(dout, dtype=float)
        if dout.ndim != 2:
            raise ValueError("backward expects batched (2-D) gradients")
        grads = [None] * (2 * len(self.weights))
        last = len(self.weights) - 1
        dx = dout
        for i in range(last, -1, -1):
            a_in, a_out = cache[i], cache[i + 1]
            if i == last and not self.tanh_output:
                dz = dx
            else:
                dz = dx * (1.0 - a_out * a_out)
            grads[2 * i] = a_in.T @ dz
            grads[2 * i + 1] = dz.sum(axis=0)
            dx = dz @ self.weights[i].T
        return grads, dx

    def params(self):
        """Live parameter arrays, interleaved [W0, b0, W1, b1, ...]."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out


class GaussianPolicyNet:
    """Diagonal-Gaussian policy: shared tanh trunk, linear mean/log-std heads.

    Head outputs are clamped so log-std stays in [-20, 2]; the clamp passes no
    gradient while saturated.
    """

    def __init__(self, trunk: DenseNet, w_mean, b_mean, w_log_std, b_log_std):
        self.trunk = trunk
        self.w_mean = np.asarray(w_mean, dtype=float)
        self.b_mean = np.asarray(b_mean, dtype=float)
        self.w_log_std = np.asarray(w_log_std, dtype=float)
        self.b_log_std = np.asarray(b_log_std, dtype=float)

    @classmethod
    def init(cls, rng, obs_dim: int, action_dim: int, hidden=(64, 64),
             head_scale: float = 0.01):
        """Fan-in init; heads shrunk by ``head_scale`` so the initial policy
        has near-zero mean and unit std."""
        trunk = DenseNet.init(rng, [obs_dim, *hidden], tanh_output=True)
        w_mean, b_mean = _uniform_init(rng, hidden[-1], action_dim, head_scale)
        w_log_std, b_log_std = _uniform_init(rng, hidden[-1], action_dim, head_scale)
        return cls(trunk, w_mean, b_mean, w_log_std, b_log_std)

    @property
    def obs_dim(self) -> int:
        return self.trunk.dims[0]

    @property
    def action_dim(self) -> int:
        return self.w_mean.shape[1]

    def forward(self, obs):
        """Returns (mean, log_std, cache); accepts a single obs or a batch."""
        h, trunk_cache = self.trunk.forward(obs)
        mean = h @ self.w_mean + self.b_mean
        raw_log_std = h @ self.w_log_std + self.b_log_std
        log_std = np.clip(raw_log_std, LOG_STD_MIN, LOG_STD_MAX)
        return mean, log_std, (trunk_cache, h, raw_log_std)

    def backward(self, cache, dmean, dlog_std):
        """Backprop head gradients; returns grads aligned with params()."""
        trunk_cache, h, raw_log_std = cache
        dlog_std = np.where(
            (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX), dlog_std, 0.0
        )
        dw_mean = h.T @ dmean
        db_mean = dmean.sum(axis=0)
        dw_log_std = h.T @ dlog_std
        db_log_std = dlog_std.sum(axis=0)
        dh = dmean @ self.w_mean.T + dlog_std @ self.w_log_std.T
        trunk_grads, _ = self.trunk.backward(trunk_cache, dh)
        return trunk_grads + [dw_mean, db_mean, dw_log_std, db_log_std]

    def params(self):
        return self.trunk.params() + [
            self.w_mean,
            self.b_mean,
            self.w_log_std,
            self.b_log_std,
        ]


class ValueNet:
    """Scalar state-value net: tanh hidden layers, single linear output."""

    def __init__(self, net: DenseNet):
        if net.tanh_output or net.dims[-1] != 1:
            raise ValueError("value net needs a linear single-unit output")
        self.net = net

    @classmethod
    def init(cls, rng, obs_dim: int, hidden=(64, 64)):
        return cls(DenseNet.init(rng, [obs_dim, *hidden, 1], tanh_output=False))

    @property
    def obs_dim(self) -> int:
        return self.net.dims[0]

    def forward(self, obs):
        out, cache = self.net.forward(obs)
        return out[..., 0], cache

    def backward(self, cache, dvalues):
        dvalues = np.asarray(dvalues, dtype=float)
        grads, _ = self.net.backward(cache, dvalues[:, None])
        return grads

    def params(self):
        return self.net.params()

    def value(self, obs) -> float:
        """Scalar value of one observation."""
        out, _ = self.net.forward(obs)
        return float(out[0])


def gaussian_log_prob(mean, log_std, actions):
    """Log density of a diagonal Gaussian, summed over action coordinates."""
    mean = np.asarray(mean, dtype=float)
    log_std = np.asarray(log_std, dtype=float)
    actions = np.asarray(actions, dtype=float)
    z = (actions - mean) * np.exp(-log_std)
    dim = mean.shape[-1]
    return (
        -0.5 * np.sum(z * z, axis=-1)
        - np.sum(log_std, axis=-1)
        - 0.5 * dim * _LOG_2PI
    )


def sample_action(policy: GaussianPolicyNet, obs, rng: np.random.Generator):
    """Draw an action for one observation; returns (action, its log density)."""
    mean, log_std, _ = policy.forward(obs)
    z = rng.standard_normal(mean.shape[-1])
    action = mean + np.exp(log_std) * z
    logp = float(
        -0.5 * np.sum(z * z) - np.sum(log_std) - 0.5 * z.shape[0] * _LOG_2PI
    )
    return action, logp


def logprob_grads_from_forward(policy, cache, mean, log_std, actions, weights):
    """Gradient of sum_t weights[t] * log pi(a_t | s_t) given a forward pass."""
    actions = np.asarray(actions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    inv_std = np.exp(-log_std)
    z = (actions - mean) * inv_std
    w = weights[:, None]
    dmean = w * z * inv_std
    dlog_std = w * (z * z - 1.0)
    return policy.backward(cache, dmean, dlog_std)


class AdamState:
    """Adam with bias correction; steps are applied to parameters in place."""

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0.0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """One descent step; pass negated gradients to ascend an objective."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient structure does not match state")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return params

    def state_arrays(self, prefix: str) -> dict:
        out = {f"{prefix}_t": np.array(self.t)}
        for i, (m, v) in enumerate(zip(self.m, self.v)):
            out[f"{prefix}_m{i}"] = m
            out[f"{prefix}_v{i}"] = v
        return out

    def load_state_arrays(self, prefix: str, arrays: dict) -> None:
        self.t = int(arrays[f"{prefix}_t"])
        for i in range(len(self.m)):
            self.m[i][...] = arrays[f"{prefix}_m{i}"]
            self.v[i][...] = arrays[f"{prefix}_v{i}"]


# --- flat parameter snapshots ------------------------------------------------
#
# Snapshot layout: a "dims" header plus one row-major array per layer, ordered
# input -> output, mean head before log-std head. np.savez on such a dict (or
# the checkpoint helpers in ppo.py) gives a self-describing file.


def policy_to_arrays(policy: GaussianPolicyNet) -> dict:
    out = {"dims": np.array(policy.trunk.dims + [policy.action_dim], dtype=np.int64)}
    for i, (w, b) in enumerate(zip(policy.trunk.weights, policy.trunk.biases)):
        out[f"trunk_w{i}"] = w
        out[f"trunk_b{i}"] = b
    out["mean_w"] = policy.w_mean
    out["mean_b"] = policy.b_mean
    out["log_std_w"] = policy.w_log_std
    out["log_std_b"] = policy.b_log_std
    return out


def policy_from_arrays(arrays: dict) -> GaussianPolicyNet:
    dims = [int(d) for d in arrays["dims"]]
    trunk_dims = dims[:-1]
    n_layers = len(trunk_dims) - 1
    trunk = DenseNet(
        [arrays[f"trunk_w{i}"] for i in range(n_layers)],
        [arrays[f"trunk_b{i}"] for i in range(n_layers)],
        tanh_output=True,
    )
    return GaussianPolicyNet(
        trunk,
        arrays["mean_w"],
        arrays["mean_b"],
        arrays["log_std_w"],
        arrays["log_std_b"],
    )


def value_to_arrays(value: ValueNet) -> dict:
    out = {"dims": np.array(value.net.dims, dtype=np.int64)}
    for i, (w, b) in enumerate(zip(value.net.weights, value.net.biases)):
        out[f"w{i}"] = w
        out[f"b{i}"] = b
    return out


def value_from_arrays(arrays: dict) -> ValueNet:
    dims = [int(d) for d in arrays["dims"]]
    n_layers = len(dims) - 1
    net = DenseNet(
        [arrays[f"w{i}"] for i in range(n_layers)],
        [arrays[f"b{i}"] for i in range(n_layers)],
        tanh_output=False,
    )
    return ValueNet(net)
