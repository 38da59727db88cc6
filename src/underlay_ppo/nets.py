"""Dense networks, Gaussian policy heads, hand-written gradients and Adam.

Everything is float64 numpy; no autodiff framework is involved. Backward
passes exist for exactly the three scalar graphs training needs: a weighted
sum of Gaussian log-densities (which also covers the clipped surrogate, whose
per-sample weights are computed by the caller) and the mean-squared value
error. Gradients are exact up to the usual subgradient convention at the
log-std clamp and at min/clip kinks.

Flat layout: each network owns one float64 vector ``flat``; its weights
(fan_in, fan_out) and biases are reshaped views into it, input to output,
listed by ``names`` (``w0``, ``b0``, ..., then a policy's ``mean_w``,
``mean_b``, ``log_std_w``, ``log_std_b``). Backward passes return one
gradient vector in the same layout, and ``AdamState`` keeps its moments as
two such vectors. A network's ``dims`` (input, hidden, output sizes) fix the
layout: ``init(rng, dims)`` draws a net, ``GaussianPolicyNet(dims, flat)`` rebuilds one.

Workspaces: a pass writes each product into a buffer that its ``work``
argument hands out by key and shape. The default, ``fresh``, hands out a new
array each time, so what the pass returns outlives the call. The update's
epochs (``ppo._policy_half``, ``ppo._value_half``) pass the net's
``workspace`` instead. It makes each buffer on first use and hands it out
again to every later pass with that key and shape, so by batch size: the
forward products, the backward ``dz`` and ``dx`` buffers (shared by layers of
one width, as each is used up before the next) and the flat gradient. Each
such pass overwrites what the last one returned. A copy or pickle of a net
carries no buffers. A forward pass adds each bias and applies ``tanh`` in
place on its matmul product, which then is both the layer's output and its
cache entry; backward passes only read the cache. Every in-place or ``out=``
form evaluates the same operations on the same operands in the same order as
the plain expression, so results are bit-identical to it (the allocating
forms in ``tests/oracles.py`` check this).

The rollout runs all of a mode's policies at once, one step at a time:
``PolicyStack`` lays their parameters out in stacked blocks, and
``sample_action`` runs them on one observation each.
"""
from __future__ import annotations

import math

import numpy as np

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
HEAD_SCALE = 0.01  # init shrink of the policy heads: near-zero mean, unit std
_LOG_2PI = math.log(2.0 * math.pi)


def _dense_layout(dims):
    """Block names and shapes of a dense stack: w0, b0, w1, b1, ..."""
    names, shapes = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        names += [f"w{i}", f"b{i}"]
        shapes += [(fan_in, fan_out), (fan_out,)]
    return names, shapes


def _uniform_init(rng: np.random.Generator, blocks, scale: float) -> None:
    """Fill (weights, biases) pairs with U[-scale/sqrt(fan_in), +scale/sqrt(fan_in)]."""
    for w, b in zip(blocks[0::2], blocks[1::2]):
        bound = scale / math.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, w.shape)
        b[...] = rng.uniform(-bound, bound, b.shape)


def fresh(key, shape) -> np.ndarray:
    """The ``work`` of a pass whose products outlive it: a new array each time."""
    return np.empty(shape)


class Workspace(dict):
    """A net's reusable buffers by (key, shape), so by batch size too (module doc)."""

    def __call__(self, key, shape) -> np.ndarray:
        buf = self.get((key, shape))
        if buf is None:
            buf = self[key, shape] = np.empty(shape)
        return buf


class _FlatParams:
    """Parameters as named blocks laid end to end in one flat vector."""

    def _own(self, flat, names, shapes) -> None:
        self.names = names
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        self._spans = list(zip([0] + ends[:-1], ends, shapes))
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        if self.flat.shape != (ends[-1],) or self.flat.dtype != np.float64:
            raise ValueError(f"flat parameters must be a float64 vector of length {ends[-1]}")
        self.workspace = Workspace()

    def __reduce__(self):
        # pickle and deepcopy rebuild the net from (dims, flat), so that its
        # blocks are views of the copied ``flat`` again
        return type(self), (self.dims, self.flat)

    def blocks(self, flat) -> list[np.ndarray]:
        """Views of ``flat`` (in this network's layout) as its blocks, in order."""
        return [flat[a:b].reshape(shape) for a, b, shape in self._spans]

    def params(self) -> list[np.ndarray]:
        """Live parameter blocks, views into ``flat``."""
        return self.blocks(self.flat)

    def first_nonfinite(self, flat) -> str | None:
        """Name of the first block of ``flat`` holding a nan or infinity."""
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size == 0:
            return None
        return next(name for name, (_, stop, _) in zip(self.names, self._spans)
                    if bad[0] < stop)


class DenseNet(_FlatParams):
    """Fully connected stack with tanh hidden units.

    ``tanh_output`` selects whether the final layer is squashed too (used for
    policy trunks, whose output is itself a hidden representation) or linear
    (value heads). The parameters are views into ``flat``, which the net uses
    as given (no copy); without one it starts from zeros.
    """

    def __init__(self, dims, flat=None, tanh_output: bool = False):
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output sizes")
        self.dims = [int(d) for d in dims]
        self.tanh_output = tanh_output
        self._own(flat, *_dense_layout(self.dims))
        blocks = self.params()
        self.weights, self.biases = blocks[0::2], blocks[1::2]

    def __reduce__(self):
        return type(self), (self.dims, self.flat), {"tanh_output": self.tanh_output}

    @classmethod
    def init(cls, rng, dims):
        """Fan-in init: every block U[-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
        net = cls(dims)
        _uniform_init(rng, net.params(), 1.0)
        return net

    def forward(self, x, work=fresh):
        """Run the stack; returns (output, cache of per-layer activations)."""
        x = np.asarray(x, dtype=float)
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = np.matmul(x, w, out=work(("act", i), (*x.shape[:-1], w.shape[1])))
            x += b
            if i < last or self.tanh_output:
                np.tanh(x, out=x)
            acts.append(x)
        return x, acts

    def backward(self, cache, dout, grad=None, work=fresh):
        """Backprop ``dout`` (gradient w.r.t. the output, batched 2-D) into the
        parameter gradient ``grad`` (``work``'s if None), which it returns; the
        gradient w.r.t. the input is not formed."""
        if dout.ndim != 2:
            raise ValueError("backward expects batched (2-D) gradients")
        grad = work("grad", self.flat.shape) if grad is None else grad
        blocks = self.blocks(grad)
        last = len(self.weights) - 1
        dx = dout
        for i in range(last, -1, -1):
            a_in, a_out = cache[i], cache[i + 1]
            if i == last and not self.tanh_output:
                dz = dx
            else:  # dx * (1 - a_out**2), formed in one buffer
                dz = np.multiply(a_out, a_out, out=work("dz", a_out.shape))
                np.subtract(1.0, dz, out=dz)
                np.multiply(dx, dz, out=dz)
            np.matmul(a_in.T, dz, out=blocks[2 * i])
            dz.sum(axis=0, out=blocks[2 * i + 1])
            if i:  # each dz and dx is used up before the next layer's, so they share buffers
                dx = np.matmul(dz, self.weights[i].T, out=work("dx", a_in.shape))
        return grad


class GaussianPolicyNet(_FlatParams):
    """Diagonal-Gaussian policy: shared tanh trunk, linear mean/log-std heads.

    ``dims`` is [obs_dim, *hidden, action_dim]; the trunk and both heads are
    views into ``flat`` (used as given; zeros without one). Head outputs are
    clamped so log-std stays in [-20, 2]; the clamp passes no gradient while
    saturated.
    """

    def __init__(self, dims, flat=None):
        if len(dims) < 3:
            raise ValueError("dims needs input, hidden and action sizes")
        self.dims = [int(d) for d in dims]
        *trunk_dims, action_dim = self.dims
        names, shapes = _dense_layout(trunk_dims)
        head = [(trunk_dims[-1], action_dim), (action_dim,)] * 2
        self._own(flat, names + ["mean_w", "mean_b", "log_std_w", "log_std_b"],
                  shapes + head)
        trunk_size = self._spans[len(shapes) - 1][1]
        self.trunk = DenseNet(trunk_dims, self.flat[:trunk_size], tanh_output=True)
        self.w_mean, self.b_mean, self.w_log_std, self.b_log_std = self.params()[-4:]

    @classmethod
    def init(cls, rng, dims):
        """Fan-in init; heads shrunk by ``HEAD_SCALE`` so the initial policy
        has near-zero mean and unit std."""
        policy = cls(dims)
        blocks = policy.params()
        _uniform_init(rng, blocks[:-4], 1.0)
        _uniform_init(rng, blocks[-4:], HEAD_SCALE)
        return policy

    @property
    def obs_dim(self) -> int:
        return self.dims[0]

    @property
    def action_dim(self) -> int:
        return self.dims[-1]

    def forward(self, obs, work=fresh):
        """Returns (mean, log_std, cache); accepts a single obs or a batch."""
        h, trunk_cache = self.trunk.forward(obs, work)
        shape = (*h.shape[:-1], self.action_dim)
        mean = np.matmul(h, self.w_mean, out=work("mean", shape))
        mean += self.b_mean
        raw_log_std = np.matmul(h, self.w_log_std, out=work("raw_log_std", shape))
        raw_log_std += self.b_log_std
        log_std = raw_log_std.clip(LOG_STD_MIN, LOG_STD_MAX, out=work("log_std", shape))
        return mean, log_std, (trunk_cache, h, raw_log_std)

    def backward(self, cache, dmean, dlog_std, work=fresh):
        """Backprop head gradients; returns one gradient vector in the flat layout."""
        trunk_cache, h, raw_log_std = cache
        dlog_std = np.where(
            (raw_log_std > LOG_STD_MIN) & (raw_log_std < LOG_STD_MAX), dlog_std, 0.0
        )
        grad = work("grad", self.flat.shape)
        dw_mean, db_mean, dw_log_std, db_log_std = self.blocks(grad)[-4:]
        np.matmul(h.T, dmean, out=dw_mean)
        dmean.sum(axis=0, out=db_mean)
        np.matmul(h.T, dlog_std, out=dw_log_std)
        dlog_std.sum(axis=0, out=db_log_std)
        # dh is the trunk's incoming dx; its dz buffer is free until its backward starts
        dh = np.matmul(dmean, self.w_mean.T, out=work("dx", h.shape))
        dh += np.matmul(dlog_std, self.w_log_std.T, out=work("dz", h.shape))
        self.trunk.backward(trunk_cache, dh, grad[: self.trunk.flat.size], work)
        return grad


class ValueNet(DenseNet):
    """Scalar state-value net: a dense stack with tanh hidden layers and a
    single linear output. ``dims`` is [obs_dim, *hidden, 1]."""

    def __init__(self, dims, flat=None):
        if len(dims) < 2 or dims[-1] != 1:
            raise ValueError("value net needs a linear single-unit output")
        super().__init__(dims, flat)

    def forward(self, obs, work=fresh):
        out, cache = super().forward(obs, work)
        return out[..., 0], cache

    def backward(self, cache, dvalues, work=fresh):
        """Gradient of sum(dvalues * values) as one vector in the flat layout."""
        return super().backward(cache, dvalues[:, None], work=work)

    def value(self, obs) -> float:
        """Scalar value of one observation."""
        out, _ = super().forward(obs)
        return float(out[0])


def _log_density(z, log_std):
    """Diagonal-Gaussian log density of standardized actions ``z``, summed over
    the last axis: of one action, or row by row of a (T, d) block."""
    return (-0.5 * np.add.reduce(z * z, axis=-1) - np.add.reduce(log_std, axis=-1)
            - 0.5 * z.shape[-1] * _LOG_2PI)


class PolicyStack:
    """Several policies' parameters, laid out for ``sample_action``.

    Every policy needs the same hidden widths. The first layer stays per
    policy, because observation widths differ; each later trunk layer runs as
    one ``(P, 1, n) @ (P, n, m)`` product. The mean and log-std heads run the
    same way where every action width is equal, and per policy otherwise. They
    are never fused into one product nor zero-padded, which changes bits.
    Policy p acts on the action columns after those of policies 0..p-1. The
    stacked blocks are copies: build the stack once the policies are final,
    and again after they change.
    """

    def __init__(self, policies):
        if len({tuple(policy.dims[1:-1]) for policy in policies}) != 1:
            raise ValueError("stacked policies need equal hidden widths")
        trunks = [policy.trunk for policy in policies]
        self.weights = [np.stack(ws) for ws in zip(*(trunk.weights[1:] for trunk in trunks))]
        self.biases = [np.stack(bs)[:, None] for bs in zip(*(trunk.biases for trunk in trunks))]
        self.hidden = [np.empty((len(policies), 1, width)) for width in policies[0].dims[1:-1]]
        # each policy's first-layer weights, and its row of the layer's product
        self.first = [(trunk.weights[0], out) for trunk, out in zip(trunks, self.hidden[0][:, 0])]
        widths = [policy.action_dim for policy in policies]
        self.b_mean = np.concatenate([policy.b_mean for policy in policies])
        self.b_log_std = np.concatenate([policy.b_log_std for policy in policies])
        self.std = np.empty(sum(widths))
        self.head_shape = (len(policies), 1, widths[0]) if len(set(widths)) == 1 else None
        if self.head_shape:
            self.heads = (np.stack([policy.w_mean for policy in policies]),
                          np.stack([policy.w_log_std for policy in policies]))
        else:
            ends = np.cumsum(widths).tolist()
            self.heads = [(h, policy.w_mean, policy.w_log_std, slice(end - width, end))
                          for h, policy, width, end
                          in zip(self.hidden[-1][:, 0], policies, widths, ends)]


def sample_action(stack: PolicyStack, rows, z, action, log_std) -> None:
    """One step of every policy of ``stack``, policy p on observation
    ``rows[p]``: writes ``mean + std * z`` into the contiguous row ``action``
    and the log-stds into the contiguous row ``log_std``, each over all the
    policies' action columns, for the step's standard-normal noise row ``z``.
    Draws nothing and leaves the log density to ``ppo._collect``, which takes
    it once per episode over the noise and log-std blocks."""
    for row, (w, out) in zip(rows, stack.first):
        np.matmul(row, w, out=out)
    h = stack.hidden[0]
    h += stack.biases[0]
    np.tanh(h, out=h)
    for w, b, out in zip(stack.weights, stack.biases[1:], stack.hidden[1:]):
        h = np.matmul(h, w, out=out)
        h += b
        np.tanh(h, out=h)
    if stack.head_shape:
        np.matmul(h, stack.heads[0], out=action.reshape(stack.head_shape))
        np.matmul(h, stack.heads[1], out=log_std.reshape(stack.head_shape))
    else:
        for h_p, w_mean, w_log_std, col in stack.heads:
            np.matmul(h_p, w_mean, out=action[col])
            np.matmul(h_p, w_log_std, out=log_std[col])
    action += stack.b_mean
    log_std += stack.b_log_std
    log_std.clip(LOG_STD_MIN, LOG_STD_MAX, out=log_std)
    std = np.exp(log_std, out=stack.std)
    action += np.multiply(std, z, out=std)  # mean + std * z


def logprob_grads(policy, cache, z, inv_std, weights, work=fresh):
    """Gradient of sum_t weights[t] * log pi(a_t | s_t), given a forward pass's
    standardized actions ``z = (a - mean) * inv_std`` and ``inv_std = exp(-log_std)``."""
    w = weights[:, None]
    dmean = w * z * inv_std
    dlog_std = w * (z * z - 1.0)
    return policy.backward(cache, dmean, dlog_std, work)


class AdamState:
    """Adam with bias correction over one flat parameter vector, in place."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float):
        self.lr = lr
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2,) + self.m.shape)  # step's two work vectors

    def step(self, params, grads):
        """One descent step; pass negated gradients to ascend an objective.

        Evaluates ``m = beta1 m + (1 - beta1) g``, ``v = beta2 v + (1 - beta2)
        g**2`` and ``params -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, each
        operation in that order, through two preallocated work vectors.
        """
        if params.shape != self.m.shape or grads.shape != self.m.shape:
            raise ValueError("parameter/gradient structure does not match state")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        m, v = self.m, self.v
        step, denom = self._scratch
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grads, out=step)
        v *= self.beta2
        v += np.multiply(1.0 - self.beta2, np.square(grads, out=step), out=step)
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, bc1, out=step)
        np.multiply(self.lr, step, out=step)
        params -= np.divide(step, denom, out=step)
        return params
