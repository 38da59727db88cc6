import copy
import math
import pickle

import numpy as np
import pytest

from oracles import (
    adam_step_reference,
    gaussian_log_prob,
    logprob_grads_from_forward,
    max_rel_err,
    numeric_grad,
    sample_action_reference,
    unshrunk_policy,
)
from underlay_ppo.nets import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    AdamState,
    DenseNet,
    GaussianPolicyNet,
    PolicyStack,
    ValueNet,
    Workspace,
    _log_density,
    fresh,
    sample_action,
)

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def _sample(policy, obs, z):
    """``sample_action`` on a stack of one: (action, log_std)."""
    action, log_std = np.empty(policy.action_dim), np.empty(policy.action_dim)
    sample_action(PolicyStack([policy]), [obs], z, action, log_std)
    return action, log_std


class TestDenseNet:
    def test_shapes_and_batch_consistency(self):
        rng = np.random.default_rng(0)
        net = DenseNet.init(rng, [5, 8, 3])
        x = rng.standard_normal(5)
        single, _ = net.forward(x)
        batched, _ = net.forward(x[None, :])
        assert single.shape == (3,)
        np.testing.assert_allclose(single, batched[0], rtol=1e-15)

    def test_tanh_hidden_bounded(self):
        rng = np.random.default_rng(1)
        net = DenseNet([4, 16, 16], DenseNet.init(rng, [4, 16, 16]).flat, tanh_output=True)
        out, acts = net.forward(rng.standard_normal((32, 4)))
        assert np.all(np.abs(out) < 1.0)
        for a in acts[1:]:
            assert np.all(np.abs(a) < 1.0)

    def test_zero_network_identity(self):
        net = DenseNet([3, 4, 2])  # no flat vector: all parameters zero
        out, _ = net.forward(np.ones(3))
        np.testing.assert_array_equal(out, 0.0)

    def test_param_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        net = DenseNet.init(rng, [3, 4, 2])
        x = rng.standard_normal((6, 3))
        c = rng.standard_normal((6, 2))

        def loss():
            out, _ = net.forward(x)
            return float(np.sum(c * out))

        _, cache = net.forward(x)
        analytic = net.backward(cache, c)
        numeric = numeric_grad(loss, net.params(), h=FD_STEP)
        assert max_rel_err(net.blocks(analytic), numeric) < GRAD_TOL

    def test_init_bounds(self):
        rng = np.random.default_rng(4)
        net = DenseNet.init(rng, [9, 7])
        bound = 1.0 / math.sqrt(9)
        assert np.all(np.abs(net.weights[0]) <= bound)


class TestGaussianLogProb:
    def test_standard_normal_at_zero(self):
        got = gaussian_log_prob(np.zeros(1), np.zeros(1), np.zeros(1))
        assert got == pytest.approx(-0.9189385332046727, rel=1e-14)

    def test_shifted_case(self):
        got = gaussian_log_prob(
            np.array([0.3]), np.array([-1.0]), np.array([0.5])
        )
        assert got == pytest.approx(-0.06671965518328571, rel=1e-12)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(30):
            dim = int(rng.integers(1, 6))
            mean = rng.standard_normal(dim)
            log_std = rng.uniform(-2.0, 1.0, dim)
            a = rng.standard_normal(dim)
            ref = float(
                np.sum(scipy_stats.norm.logpdf(a, mean, np.exp(log_std)))
            )
            got = float(gaussian_log_prob(mean, log_std, a))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_symmetry_around_mean(self):
        mean = np.array([0.7, -0.2])
        log_std = np.array([0.1, -0.4])
        delta = np.array([0.3, 0.05])
        up = gaussian_log_prob(mean, log_std, mean + delta)
        down = gaussian_log_prob(mean, log_std, mean - delta)
        assert up == pytest.approx(down, rel=1e-14)


class TestLogDensityBlocks:
    @pytest.mark.parametrize("dim", range(1, 21))
    def test_episode_block_equals_per_row_calls(self, dim):
        """``_log_density`` over a (T, d) block, as a rollout takes it once per
        episode (the noise and the log-stds as column slices of the joint noise
        and log-std blocks), equals its per-row calls bit for bit."""
        rng = np.random.default_rng(100 + dim)
        t_len, lead = 200, 3
        noise = rng.standard_normal((t_len, lead + dim + 2))
        z = noise[:, lead:lead + dim]
        log_std = rng.uniform(LOG_STD_MIN, LOG_STD_MAX, noise.shape)[:, lead:lead + dim]
        block = _log_density(z, log_std)
        rows = [float(_log_density(z[t], log_std[t])) for t in range(t_len)]
        assert block.shape == (t_len,)
        assert block.tolist() == rows


class TestPolicyNet:
    def test_forward_shapes_and_clamp(self):
        rng = np.random.default_rng(6)
        pol = GaussianPolicyNet.init(rng, [5, 8, 3])
        mean, log_std, _ = pol.forward(rng.standard_normal(5))
        assert mean.shape == log_std.shape == (3,)
        assert np.all(log_std >= LOG_STD_MIN) and np.all(log_std <= LOG_STD_MAX)

    def test_forced_log_std_is_clamped(self):
        rng = np.random.default_rng(7)
        pol = GaussianPolicyNet.init(rng, [4, 6, 2])
        pol.b_log_std[:] = 5.0
        _, log_std, _ = pol.forward(np.zeros(4))
        np.testing.assert_array_equal(log_std, LOG_STD_MAX)

    def test_initial_mean_small_for_unit_inputs(self):
        rng = np.random.default_rng(8)
        pol = GaussianPolicyNet.init(rng, [6, 64, 64, 4])
        worst = 0.0
        for _ in range(200):
            x = rng.standard_normal(6)
            x /= np.linalg.norm(x)
            mean, log_std, _ = pol.forward(x)
            worst = max(worst, float(np.max(np.abs(mean))))
            # log-std head is equally tiny, so the initial std is near 1
            assert np.all(np.abs(np.exp(log_std) - 1.0) < 0.1)
        assert worst < 0.1

    def test_log_prob_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        pol = unshrunk_policy(rng, 5, 3, hidden=(8,))
        obs = rng.standard_normal((7, 5))
        actions = rng.standard_normal((7, 3))
        weights = rng.standard_normal(7)

        def loss():
            mean, log_std, _ = pol.forward(obs)
            return float(np.sum(weights * gaussian_log_prob(mean, log_std, actions)))

        mean, log_std, cache = pol.forward(obs)
        analytic = logprob_grads_from_forward(pol, cache, mean, log_std, actions, weights)
        numeric = numeric_grad(loss, pol.params(), h=FD_STEP)
        assert max_rel_err(pol.blocks(analytic), numeric) < GRAD_TOL

    def test_saturated_clamp_passes_no_gradient(self):
        rng = np.random.default_rng(10)
        pol = GaussianPolicyNet.init(rng, [3, 4, 2])
        pol.b_log_std[:] = 10.0  # raw log-std far above the clamp
        obs = rng.standard_normal((5, 3))
        actions = rng.standard_normal((5, 2))
        weights = rng.standard_normal(5)
        mean, log_std, cache = pol.forward(obs)
        analytic = pol.blocks(
            logprob_grads_from_forward(pol, cache, mean, log_std, actions, weights))

        def loss():
            mean, log_std, _ = pol.forward(obs)
            return float(np.sum(weights * gaussian_log_prob(mean, log_std, actions)))

        numeric = numeric_grad(loss, pol.params(), h=FD_STEP)
        assert max_rel_err(analytic, numeric) < GRAD_TOL
        # the log-std head specifically sees exactly zero gradient
        np.testing.assert_array_equal(analytic[-2], 0.0)
        np.testing.assert_array_equal(analytic[-1], 0.0)

    def test_sample_log_prob_self_consistent(self):
        rng = np.random.default_rng(11)
        pol = GaussianPolicyNet.init(rng, [4, 64, 64, 2])
        obs = rng.standard_normal(4)
        z = np.random.default_rng(12).standard_normal(2)
        action, sampled_log_std = _sample(pol, obs, z)
        mean, log_std, _ = pol.forward(obs)
        np.testing.assert_array_equal(sampled_log_std, log_std)
        lp = _log_density(z, sampled_log_std)  # the rollout's density of the draw
        assert lp == pytest.approx(gaussian_log_prob(mean, log_std, action), rel=1e-12)

    def test_sampling_deterministic_under_seed(self):
        """The action is mean + exp(log_std) * z, bit for bit, for the noise
        row given; determinism under a seed lies in the rollout's draws."""
        rng = np.random.default_rng(13)
        pol = GaussianPolicyNet.init(rng, [4, 64, 64, 2])
        obs = rng.standard_normal(4)
        z = np.random.default_rng(99).standard_normal(2)
        action, _ = _sample(pol, obs, z)
        mean, log_std, _ = pol.forward(obs)
        np.testing.assert_array_equal(action, mean + np.exp(log_std) * z)

    def test_tiny_std_sampling_sticks_to_mean(self):
        rng = np.random.default_rng(14)
        pol = GaussianPolicyNet.init(rng, [3, 4, 2])
        pol.b_log_std[:] = -30.0  # clamps to LOG_STD_MIN
        obs = rng.standard_normal(3)
        mean, _, _ = pol.forward(obs)
        action, _ = _sample(pol, obs, np.random.default_rng(15).standard_normal(2))
        np.testing.assert_allclose(action, mean, atol=1e-8)

    def test_log_prob_maximal_at_mean(self):
        rng = np.random.default_rng(16)
        pol = GaussianPolicyNet.init(rng, [4, 64, 64, 2])
        obs = rng.standard_normal(4)
        mean, log_std, _ = pol.forward(obs)
        at_mean = gaussian_log_prob(mean, log_std, mean)
        for _ in range(20):
            other = mean + rng.standard_normal(2) * 0.5
            assert gaussian_log_prob(mean, log_std, other) <= at_mean


def _clamp_biting(rng, policy):
    """Widen ``policy``'s log-std head so that its clamp saturates on some
    observations and not on others, at both ends."""
    policy.w_log_std[...] = rng.standard_normal(policy.w_log_std.shape)
    policy.b_log_std[...] = np.resize([LOG_STD_MAX - 0.5, LOG_STD_MIN + 0.5], policy.action_dim)
    return policy


class TestPolicyStack:
    """The stacked per-step pass against each policy's own pass
    (``sample_action_reference``), bit for bit."""

    @pytest.mark.parametrize("widths", [
        [(6, 2)], [(157, 12)], [(6, 2), (7, 2)], [(20, 4), (73, 8)], [(72, 8), (21, 4)],
        [(3, 1), (5, 3)], [(4, 3), (9, 3)], [(5, 1), (6, 1), (7, 2)],
    ], ids=str)
    def test_equals_the_per_policy_pass(self, widths):
        rng = np.random.default_rng(sum(a * b for a, b in widths))
        policies = [_clamp_biting(rng, GaussianPolicyNet.init(rng, [obs_dim, 64, 64, action_dim]))
                    for obs_dim, action_dim in widths]
        stack = PolicyStack(policies)
        assert (stack.head_shape is not None) == (len({d for _, d in widths}) == 1)
        k = sum(d for _, d in widths)
        clamped = []
        for _ in range(50):
            rows = [rng.standard_normal(obs_dim) * 3.0 for obs_dim, _ in widths]
            z = rng.standard_normal(k)
            action, log_std = np.full(k, np.nan), np.full(k, np.nan)
            sample_action(stack, rows, z, action, log_std)
            start = 0
            for policy, row in zip(policies, rows):
                col = slice(start, start + policy.action_dim)
                start = col.stop
                want_action, want_log_std = sample_action_reference(policy, row, z[col])
                assert action[col].tobytes() == want_action.tobytes()
                assert log_std[col].tobytes() == want_log_std.tobytes()
            clamped += [(log_std == LOG_STD_MAX).any(), (log_std == LOG_STD_MIN).any(),
                        ((log_std > LOG_STD_MIN) & (log_std < LOG_STD_MAX)).any()]
        assert all(np.any(clamped[i::3]) for i in range(3))  # both clamp ends and neither

    def test_outputs_are_the_callers_rows(self):
        """A later call leaves the rows an earlier call wrote as they were."""
        rng = np.random.default_rng(40)
        policies = [GaussianPolicyNet.init(rng, [d, 64, 64, 2]) for d in (6, 7)]
        stack = PolicyStack(policies)
        out = np.empty((4, 4))
        sample_action(stack, [rng.standard_normal(6), rng.standard_normal(7)],
                      rng.standard_normal(4), out[0], out[1])
        before = out[:2].copy()
        sample_action(stack, [rng.standard_normal(6), rng.standard_normal(7)],
                      rng.standard_normal(4), out[2], out[3])
        assert out[:2].tobytes() == before.tobytes()
        assert not np.array_equal(out[2:], before)

    def test_holds_copies_of_the_stacked_blocks(self):
        """The stacked pass runs the parameters the stack was built from."""
        rng = np.random.default_rng(41)
        policies = [GaussianPolicyNet.init(rng, [5, 8, 8, 2]) for _ in range(2)]
        stack = PolicyStack(policies)
        rows, z = [rng.standard_normal(5), rng.standard_normal(5)], rng.standard_normal(4)
        want = [np.empty(4), np.empty(4)]
        sample_action(stack, rows, z, *want)
        for policy in policies:
            policy.flat[policy.trunk.flat.size:] += 1.0  # the heads
            policy.trunk.weights[1][...] += 1.0
        got = [np.empty(4), np.empty(4)]
        sample_action(stack, rows, z, *got)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_unequal_hidden_widths_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError, match="equal hidden widths"):
            PolicyStack([GaussianPolicyNet.init(rng, [4, 8, 2]),
                         GaussianPolicyNet.init(rng, [4, 6, 2])])


class TestValueNet:
    def test_scalar_output(self):
        rng = np.random.default_rng(17)
        vn = ValueNet.init(rng, [6, 8, 1])
        v, _ = vn.forward(rng.standard_normal((5, 6)))
        assert v.shape == (5,)
        assert isinstance(vn.value(rng.standard_normal(6)), float)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        vn = ValueNet.init(rng, [4, 6, 1])
        obs = rng.standard_normal((8, 4))
        c = rng.standard_normal(8)

        def loss():
            v, _ = vn.forward(obs)
            return float(np.sum(c * v))

        v, cache = vn.forward(obs)
        analytic = vn.backward(cache, c)
        numeric = numeric_grad(loss, vn.params(), h=FD_STEP)
        assert max_rel_err(vn.blocks(analytic), numeric) < GRAD_TOL


def _arrays(tree):
    """Every array in a nest of tuples and lists, depth first."""
    if isinstance(tree, np.ndarray):
        return [tree]
    return [a for item in tree for a in _arrays(item)]


class TestBackwardLeavesCache:
    """Backward only reads the forward cache: the forward pass's outputs and
    cached activations, and the incoming gradients, keep their bytes, and a
    second backward on the same cache returns the same gradient."""

    @pytest.mark.parametrize("kind", ["dense_tanh", "dense_linear", "value", "policy"])
    def test_two_backward_calls_on_one_cache(self, kind):
        rng = np.random.default_rng(28)
        x = rng.standard_normal((6, 5))
        if kind == "policy":
            net = GaussianPolicyNet.init(rng, [5, 8, 8, 3])
            mean, log_std, cache = net.forward(x)
            outputs = (mean, log_std)
            douts = (rng.standard_normal((6, 3)), rng.standard_normal((6, 3)))
        elif kind == "value":
            net = ValueNet.init(rng, [5, 8, 8, 1])
            out, cache = net.forward(x)
            outputs, douts = (out,), (rng.standard_normal(6),)
        else:
            dims = [5, 8, 8] if kind == "dense_tanh" else [5, 8, 3]
            net = DenseNet(dims, DenseNet.init(rng, dims).flat,
                           tanh_output=kind == "dense_tanh")
            out, cache = net.forward(x)
            outputs, douts = (out,), (rng.standard_normal((6, dims[-1])),)
        before = [a.copy() for a in _arrays((outputs, cache, douts))]
        first = net.backward(cache, *douts)
        second = net.backward(cache, *douts)
        assert first.tobytes() == second.tobytes()
        after = _arrays((outputs, cache, douts))
        assert [a.tobytes() for a in after] == [a.tobytes() for a in before]


class TestFlatLayout:
    def test_blocks_are_views_into_flat(self):
        rng = np.random.default_rng(24)
        pol = GaussianPolicyNet.init(rng, [5, 8, 4, 3])
        assert pol.names == ["w0", "b0", "w1", "b1",
                             "mean_w", "mean_b", "log_std_w", "log_std_b"]
        # layout: blocks end to end, in names order, the trunk first
        np.testing.assert_array_equal(
            np.concatenate([b.ravel() for b in pol.params()]), pol.flat)
        for block in pol.params() + pol.trunk.weights + pol.trunk.biases:
            assert np.shares_memory(block, pol.flat)
        pol.b_log_std[:] = 7.0
        np.testing.assert_array_equal(pol.flat[-3:], 7.0)
        vn = ValueNet.init(rng, [5, 8, 1])
        vn.weights[-1][0, 0] = 2.5
        assert vn.flat[5 * 8 + 8] == 2.5

    def test_first_nonfinite_names_the_block(self):
        rng = np.random.default_rng(25)
        vn = ValueNet.init(rng, [4, 6, 6, 1])
        assert vn.first_nonfinite(vn.flat) is None
        grad = np.zeros_like(vn.flat)
        vn.blocks(grad)[4][1, 0] = np.nan
        vn.blocks(grad)[5][0] = np.inf
        assert vn.first_nonfinite(grad) == "w2"

    def test_wrong_flat_vector_rejected(self):
        with pytest.raises(ValueError, match="length 25"):
            ValueNet([4, 4, 1], np.zeros(24))


class TestAdam:
    def test_zero_gradient_is_identity(self):
        params = np.array([1.0, 2.0, 3.0])
        opt = AdamState(params, lr=0.1)
        before = params.copy()
        opt.step(params, np.zeros(3))
        np.testing.assert_array_equal(before, params)

    def test_first_step_magnitude(self):
        # bias correction makes the first step almost exactly lr
        params = np.zeros(1)
        opt = AdamState(params, lr=0.05)
        opt.step(params, np.array([1.0]))
        assert params[0] == pytest.approx(-0.05, rel=1e-6)

    def test_constant_gradient_step_size_approaches_lr(self):
        params = np.zeros(1)
        opt = AdamState(params, lr=0.01)
        prev = 0.0
        for _ in range(200):
            opt.step(params, np.array([2.5]))
            step = prev - params[0]
            prev = params[0]
        assert step == pytest.approx(0.01, rel=1e-4)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(19)
            params = rng.standard_normal(6)
            opt = AdamState(params, lr=0.02)
            for _ in range(10):
                opt.step(params, rng.standard_normal(6))
            return params

        np.testing.assert_array_equal(run(), run())

    @pytest.mark.parametrize("reuse", [False, True], ids=["fresh", "workspace"])
    def test_matches_allocating_reference(self, reuse):
        """50 steps on a desk-policy-sized vector, bit for bit against the
        fresh-array form of the same expression, with new work vectors each
        step or one workspace's throughout; the gradient is only read."""
        work = Workspace() if reuse else fresh
        rng = np.random.default_rng(20)
        params = rng.standard_normal(4868)
        ref, m, v, t = params.copy(), np.zeros(4868), np.zeros(4868), 0
        opt = AdamState(params, lr=3e-4)
        for _ in range(50):
            grads = rng.standard_normal(4868) * 10.0 ** rng.uniform(-6.0, 1.0)
            kept = grads.copy()
            opt.step(params, grads, work)
            t = adam_step_reference(ref, grads, m, v, t, lr=3e-4)
            assert grads.tobytes() == kept.tobytes()
        assert opt.t == t == 50
        assert params.tobytes() == ref.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()

    def test_structure_mismatch_rejected(self):
        params = np.zeros(2)
        opt = AdamState(params, lr=0.1)
        with pytest.raises(ValueError):
            opt.step(params, np.zeros(3))


COPIERS = pytest.mark.parametrize(
    "copier", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))], ids=["deepcopy", "pickle"])
MAKERS = pytest.mark.parametrize("make", [
    lambda rng: GaussianPolicyNet.init(rng, [4, 8, 8, 2]),
    lambda rng: ValueNet.init(rng, [4, 8, 8, 1]),
    lambda rng: DenseNet([4, 8, 3], rng.uniform(-1.0, 1.0, 67), tanh_output=True),
], ids=["policy", "value", "tanh-dense"])


class TestSerialization:
    """A network is rebuilt from its dims and flat vector."""

    def test_policy_round_trip(self):
        rng = np.random.default_rng(21)
        pol = GaussianPolicyNet.init(rng, [5, 8, 8, 3])
        clone = GaussianPolicyNet(pol.dims, pol.flat.copy())
        obs = rng.standard_normal((4, 5))
        m1, s1, _ = pol.forward(obs)
        m2, s2, _ = clone.forward(obs)
        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(s1, s2)

    def test_value_round_trip(self):
        rng = np.random.default_rng(22)
        vn = ValueNet.init(rng, [6, 8, 8, 1])
        clone = ValueNet(vn.dims, vn.flat.copy())
        obs = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(vn.forward(obs)[0], clone.forward(obs)[0])

    def test_npz_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        pol = GaussianPolicyNet.init(rng, [4, 64, 64, 2])
        path = tmp_path / "pol.npz"
        np.savez(path, dims=np.array(pol.dims), flat=pol.flat)
        with np.load(path) as data:
            clone = GaussianPolicyNet(data["dims"].tolist(), data["flat"])
        obs = rng.standard_normal(4)
        np.testing.assert_array_equal(pol.forward(obs)[0], clone.forward(obs)[0])

    @COPIERS
    @MAKERS
    def test_copy_keeps_blocks_views_of_flat(self, copier, make):
        """A copied net owns a fresh ``flat`` that its blocks still view, so an
        Adam step on ``flat`` moves its output, and the original stays put."""
        rng = np.random.default_rng(24)
        net = make(rng)
        clone = copier(net)
        obs = rng.standard_normal((3, 4))
        before = net.forward(obs)[0].copy()
        assert type(clone) is type(net) and clone.dims == net.dims
        assert getattr(clone, "tanh_output", None) == getattr(net, "tanh_output", None)
        assert not np.shares_memory(clone.flat, net.flat)
        np.testing.assert_array_equal(clone.forward(obs)[0], before)
        AdamState(clone.flat, 0.1).step(clone.flat, np.ones_like(clone.flat))
        assert not np.array_equal(clone.forward(obs)[0], before)
        np.testing.assert_array_equal(net.forward(obs)[0], before)

    @COPIERS
    def test_adam_copy_carries_no_work_vectors(self, copier):
        """A copied or unpickled ``AdamState`` holds no work vectors, only its
        moments, and steps to the same bits."""
        rng = np.random.default_rng(26)
        params = rng.standard_normal(4868)
        opt = AdamState(params, lr=3e-4)
        for _ in range(3):
            opt.step(params, rng.standard_normal(4868))
        # m and v are two vectors of params' size; the work vectors would be two more
        size = len(pickle.dumps(opt))
        assert 2 * params.nbytes < size < 3 * params.nbytes
        clone = copier(opt)
        assert [key for key, val in vars(clone).items() if isinstance(val, np.ndarray)] == ["m", "v"]
        grads, theirs = rng.standard_normal(4868), params.copy()
        opt.step(params, grads)
        clone.step(theirs, grads)
        assert clone.t == opt.t == 4 and theirs.tobytes() == params.tobytes()
        assert clone.m.tobytes() == opt.m.tobytes() and clone.v.tobytes() == opt.v.tobytes()

    @COPIERS
    @MAKERS
    def test_copy_carries_no_workspace(self, copier, make):
        """A net's workspace buffers stay behind when it is copied or pickled."""
        rng = np.random.default_rng(25)
        net = make(rng)
        size = len(pickle.dumps(net))
        net.forward(rng.standard_normal((50, 4)), net.workspace)
        assert net.workspace
        assert len(pickle.dumps(net)) == size
        assert copier(net).workspace == {}
