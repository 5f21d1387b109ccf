import copy
import hashlib
import pickle

import numpy as np
import pytest

import scalar_reference as ref
from hybridplan import records, rl_core
from hybridplan.drl_planner import state_dim
from hybridplan.rl_core import (
    Adam,
    CategoricalPolicy,
    GaussianPolicy,
    Mlp,
    PpoConfig,
    RolloutBatch,
    ValueNet,
    clip_gradients,
    compute_gae,
    load_checkpoint,
    ppo_update,
    save_checkpoint,
)
from hybridplan.switch_agent import SwitchConfig


# ------------------------------------------------------------------ #
# Mlp forward/backward
# ------------------------------------------------------------------ #
def test_forward_zero_weights():
    net = Mlp([3, 4, 2])
    for W in net.weights:
        W[:] = 0.0
    out = net.forward(np.ones((5, 3)))
    np.testing.assert_allclose(out, 0.0)


def test_forward_identity_single_layer():
    net = Mlp([3, 3])
    net.weights[0][...] = np.eye(3)
    net.biases[0][:] = 0.0
    x = np.array([[0.3, -0.7, 2.0]])
    np.testing.assert_allclose(net.forward(x), x)


def test_forward_matches_hand_unrolled_matrices():
    rng = np.random.default_rng(0)
    net = Mlp([4, 5, 3], rng)
    x = rng.normal(size=(7, 4))
    got = net.forward(x)
    want = np.tanh(x @ net.weights[0].T + net.biases[0]) @ net.weights[1].T + net.biases[1]
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("head", ["gaussian", "switch"])
def test_one_row_forward_equals_row_0_of_the_batch_forward_bitwise(head):
    """At the workloads' sizes (the DRL policy 70-64-64-3 on the planar 3R
    arm, the switch policy ``SwitchConfig().obs_dim(3)``-64-64-2), the
    one-row forward that one-observation acting runs equals row 0 of the
    batch ``forward``, and the heads' outputs equal the batch forms'."""
    rng = np.random.default_rng(70)
    if head == "gaussian":
        policy = GaussianPolicy(state_dim(3), 3, rng=rng)
    else:
        policy = CategoricalPolicy(SwitchConfig().obs_dim(3), 2, rng=rng)
    net = policy.net
    net.flat += rng.normal(0.0, 0.05, net.flat.shape)      # away from the initial scales
    obs = rng.normal(size=(1000, net.sizes[0])) * rng.choice([0.01, 1.0, 10.0], (1000, 1))
    differ = 0
    for x in obs:
        row = net.forward(x[None])[0]
        differ += int(net.forward_one(x).tobytes() != row.tobytes())
        if head == "gaussian":
            assert policy.mean_action(x).tobytes() == row.tobytes()
        else:
            p = np.exp(row - row.max())
            assert policy.distribution(x).tobytes() == (p / p.sum()).tobytes()
    assert differ == 0, (
        f"{differ} of {len(obs)} one-row forwards differ from the batch forward's row in "
        f"the last bits: a BLAS property (gemv against gemm rounding) of this build, "
        f"checked with numpy 2.4.6 (this run: numpy {np.__version__}); keep the batch "
        f"forward for one observation where it fails")


def test_backward_constant_loss_zero_gradient():
    net = Mlp([2, 3, 1], np.random.default_rng(1))
    net.forward(np.array([[0.5, -0.5]]))
    assert np.all(net.backward(np.zeros((1, 1))) == 0)


def assert_matches_finite_differences(flat, grad, objective, h):
    """Central differences of ``objective`` over every entry of the flat
    parameter vector against the flat gradient."""
    grad = grad.copy()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = objective()
        flat[i] = orig - h
        dn = objective()
        flat[i] = orig
        fd = (up - dn) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-4 * max(1.0, abs(fd))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    net = Mlp([2, 2, 1], rng)
    x = rng.normal(size=(4, 2))
    c = rng.normal(size=(4, 1))

    def loss():
        return float(np.sum(c * net.forward(x)))

    net.forward(x)
    assert_matches_finite_differences(net.flat, net.backward(c), loss, 1e-5)


def test_gradient_clipping_bounds_norm():
    net = Mlp([3, 3])
    net.grad[:9], net.grad[9:] = 10.0, -10.0
    assert clip_gradients(net.grad, 0.5, net.spans) == pytest.approx(np.sqrt(1200.0))
    assert np.linalg.norm(net.grad) == pytest.approx(0.5, rel=1e-9)


def test_parameters_are_views_of_one_flat_vector_in_order(monkeypatch):
    monkeypatch.setattr(GaussianPolicy, "init_log_std", -0.7)
    pol = GaussianPolicy(5, 3, hidden=(4, 6), rng=np.random.default_rng(0))
    params = pol.net.params
    assert [p.shape for p in params] == [(4, 5), (6, 4), (3, 6), (4,), (6,), (3,), (3,)]
    assert all(np.shares_memory(p, pol.net.flat) for p in params)
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), pol.net.flat)
    assert params[-1] is pol.log_std and np.all(pol.log_std == -0.7)
    assert [pol.net.flat[s].size for s in pol.net.spans] == [p.size for p in params]


def test_views_cannot_be_rebound_away_from_the_flat_vector():
    pol = GaussianPolicy(3, 2, hidden=(4,), rng=np.random.default_rng(0))
    with pytest.raises(TypeError):
        pol.net.weights[0] = np.zeros((4, 3))
    with pytest.raises(TypeError):
        pol.net.biases[1] = np.zeros(2)
    with pytest.raises(AttributeError):
        pol.log_std = np.zeros(2)
    pol.net.weights[0][...] = 1.0                  # a write into the view is the way
    assert np.all(pol.net.flat[:12] == 1.0)


@pytest.mark.parametrize("round_trip", ["deepcopy", "pickle"])
def test_a_copied_net_keeps_its_views_on_its_own_flat_vector(monkeypatch, round_trip):
    monkeypatch.setattr(GaussianPolicy, "init_log_std", -0.7)
    pol = GaussianPolicy(5, 3, hidden=(4, 6), rng=np.random.default_rng(0))
    obs = np.random.default_rng(1).standard_normal((4, 5))
    pol.net.forward(obs)
    pol.net.backward(np.ones((4, 3)))
    twin = copy.deepcopy(pol) if round_trip == "deepcopy" else pickle.loads(pickle.dumps(pol))
    net = twin.net
    for views, vector in ((net.params, net.flat), (net.grads, net.grad)):
        assert all(np.shares_memory(v, vector) for v in views)
        assert not any(np.shares_memory(v, pol.net.flat) or np.shares_memory(v, pol.net.grad)
                       for v in views)
    assert all(np.shares_memory(w, net.flat) for w in (*net.weights, *net.biases))
    assert twin.log_std is net.params[-1]
    np.testing.assert_array_equal(net.flat, pol.net.flat)
    np.testing.assert_array_equal(net.grad, pol.net.grad)
    before = pol.net.forward(obs).copy()
    np.testing.assert_array_equal(net.forward(obs), before)
    # an Adam step on the copy moves the copy's output, not the original's
    Adam(net.flat, lr=0.1).step(net.flat, net.grad)
    assert not np.array_equal(twin.net.forward(obs), before)
    np.testing.assert_array_equal(pol.net.forward(obs), before)


def drl_policy_layout(rng):
    """The DRL policy's parameter tensors (70 -> 64 -> 64 -> 3 and log_std):
    as one flat vector, its spans, and per-tensor copies."""
    pol = GaussianPolicy(70, 3, rng=rng)
    return pol.net.flat, pol.net.spans, [p.copy() for p in pol.net.params]


def test_adam_on_the_flat_vector_equals_the_per_tensor_oracle():
    rng = np.random.default_rng(3)
    flat, spans, tensors = drl_policy_layout(rng)
    opt, oracle = Adam(flat, 3e-4), ref.Adam(tensors, 3e-4)
    for _ in range(50):
        grad = rng.standard_normal(flat.size) * 10.0 ** rng.uniform(-6, 2)
        opt.step(flat, grad)
        oracle.step(tensors, [grad[s].reshape(t.shape) for s, t in zip(spans, tensors)])
        for s, t, m, v in zip(spans, tensors, oracle.m, oracle.v):
            assert flat[s].tobytes() == t.tobytes()
            assert opt.moments[0, s].tobytes() == m.tobytes()
            assert opt.moments[1, s].tobytes() == v.tobytes()
    assert opt.t == oracle.t == 50


def test_clip_gradients_sums_the_norm_in_the_per_tensor_order():
    rng = np.random.default_rng(4)
    _, spans, tensors = drl_policy_layout(rng)
    for trial in range(300):
        scale = 10.0 ** (trial % 11 - 5)
        grad = rng.standard_normal(spans[-1].stop) * scale
        tensors = [grad[s].reshape(t.shape).copy() for s, t in zip(spans, tensors)]
        max_norm = float(rng.choice([0.5, 1e9])) * scale
        want = ref.clip_gradients(tensors, max_norm)
        got = clip_gradients(grad, max_norm, spans)
        assert got == want, (trial, got, want)
        assert grad.tobytes() == np.concatenate([t.ravel() for t in tensors]).tobytes()


# ------------------------------------------------------------------ #
# Policy heads
# ------------------------------------------------------------------ #
def test_categorical_distribution_sums_to_one():
    rng = np.random.default_rng(3)
    pol = CategoricalPolicy(4, 3, rng=rng)
    for _ in range(100):
        p = pol.distribution(rng.normal(size=4))
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.all(p >= 0)


def test_gaussian_log_prob_matches_closed_form():
    rng = np.random.default_rng(4)
    pol = GaussianPolicy(3, 2, rng=rng)
    obs = rng.normal(size=(6, 3))
    acts = rng.normal(size=(6, 2))
    logp = pol.evaluate(obs, acts)
    mean = pol.net.forward(obs)
    std = np.exp(pol.log_std)
    dens = np.prod(np.exp(-0.5 * ((acts - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi)),
                   axis=1)
    np.testing.assert_allclose(logp, np.log(dens), atol=1e-10)


def test_gaussian_backward_matches_finite_differences():
    rng = np.random.default_rng(5)
    pol = GaussianPolicy(2, 2, hidden=(3,), rng=rng)
    obs = rng.normal(size=(5, 2))
    acts = rng.normal(size=(5, 2))
    w = rng.normal(size=5)

    def objective():
        logp = pol.evaluate(obs, acts)
        return float(np.sum(w * logp))

    pol.evaluate(obs, acts)
    assert pol.net.flat.size == 6 + 6 + 3 + 2 + 2        # log_std included
    assert_matches_finite_differences(pol.net.flat, pol.backward_logp(w), objective, 1e-6)


def test_categorical_backward_matches_finite_differences():
    rng = np.random.default_rng(6)
    pol = CategoricalPolicy(3, 4, hidden=(4,), rng=rng)
    obs = rng.normal(size=(6, 3))
    acts = rng.integers(0, 4, size=6).astype(float)
    w = rng.normal(size=6)

    def objective():
        return float(np.sum(w * pol.evaluate(obs, acts)))

    pol.evaluate(obs, acts)
    assert_matches_finite_differences(pol.net.flat, pol.backward_logp(w), objective, 1e-6)


# ------------------------------------------------------------------ #
# GAE
# ------------------------------------------------------------------ #
def test_gae_hand_computed():
    adv, ret = compute_gae(
        rewards=np.array([1.0, 1.0]),
        values=np.array([0.5, 0.4]),
        dones=np.array([0.0, 1.0]),
        last_value=7.7,  # must be ignored after a terminal step
        gamma=0.9, lam=0.8)
    np.testing.assert_allclose(adv, [1.292, 0.6], atol=1e-12)
    np.testing.assert_allclose(ret, [1.792, 1.0], atol=1e-12)


def test_gae_bootstrap_non_terminal():
    adv, _ = compute_gae(np.array([0.0]), np.array([0.0]), np.array([0.0]),
                         last_value=1.0, gamma=0.5, lam=1.0)
    np.testing.assert_allclose(adv, [0.5])


def test_gae_lanes_run_the_one_environment_recursion_per_lane():
    rng = np.random.default_rng(4)
    T, N = 12, 5
    rewards, values = rng.normal(size=(T, N)), rng.normal(size=(T, N))
    dones = (rng.random((T, N)) < 0.3).astype(float)
    last = rng.normal(size=N)
    adv, ret = compute_gae(rewards, values, dones, last, 0.97, 0.9)
    assert adv.shape == ret.shape == (T, N)
    for k in range(N):
        a, r = compute_gae(rewards[:, k], values[:, k], dones[:, k], float(last[k]), 0.97, 0.9)
        np.testing.assert_array_equal(adv[:, k], a)
        np.testing.assert_array_equal(ret[:, k], r)


def test_gaussian_act_on_a_batch_matches_one_observation_calls():
    pol = GaussianPolicy(4, 3, hidden=(8,), rng=np.random.default_rng(0))
    obs = np.random.default_rng(1).normal(size=(6, 4))
    actions, logps = pol.act(obs, np.random.default_rng(2))
    assert actions.shape == (6, 3) and logps.shape == (6,)
    rng = np.random.default_rng(2)              # row k draws the normals of call k
    for k in range(6):
        a, lp = pol.act(obs[k:k + 1], rng)          # one observation, as a one-row batch
        assert a.shape == (1, 3) and lp.shape == (1,)
        np.testing.assert_allclose(actions[k], a[0], rtol=0, atol=1e-12)
        assert logps[k] == pytest.approx(lp[0], abs=1e-12)


# ------------------------------------------------------------------ #
# ppo_update
# ------------------------------------------------------------------ #
def bandit_batch(policy, rng, T=64, reward_fn=None, obs_dim=2):
    obs = np.zeros((T, obs_dim))
    acts = np.zeros(T)
    logps = np.zeros(T)
    rews = np.zeros(T)
    dones = np.ones(T)
    for t in range(T):
        a, lp = policy.act(obs[t], rng)
        acts[t] = a
        logps[t] = lp
        rews[t] = reward_fn(a)
    return RolloutBatch(obs, acts, logps, rews, dones, obs[0])


def test_ppo_zero_advantage_leaves_policy_unchanged(monkeypatch):
    rng = np.random.default_rng(7)
    pol = CategoricalPolicy(2, 2, rng=rng)
    val = ValueNet(2, rng=rng)
    before = [p.copy() for p in pol.net.params]
    batch = bandit_batch(pol, rng, T=32, reward_fn=lambda a: 1.0)
    # constant reward on a one-step bandit: all advantages equal, so the
    # normalized advantage is exactly zero everywhere
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 3)
    cfg = PpoConfig(learning_rate=1e-2, minibatch_size=32, num_steps=32)
    ppo_update(pol, val, batch, cfg, np.random.default_rng(0))
    for b, a in zip(before, pol.net.params):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_ppo_unclipped_single_epoch_equals_vanilla_pg(monkeypatch):
    # clip -> infinity and one full-batch epoch reduces to a vanilla
    # policy-gradient step; oracle = finite differences of the surrogate
    rng = np.random.default_rng(8)
    pol = CategoricalPolicy(2, 3, hidden=(4,), rng=rng)
    val = ValueNet(2, hidden=(4,), rng=rng)
    rewards = {0: 1.0, 1: 0.0, 2: 0.5}
    batch = bandit_batch(pol, rng, T=16, reward_fn=lambda a: rewards[a])

    values = val.values(batch.obs)
    adv, rets = compute_gae(batch.rewards, values, batch.dones,
                            val.values(batch.last_obs)[0], 0.99, 0.95)
    nadv = (adv - adv.mean()) / adv.std()

    def surrogate_loss():
        logp = pol.evaluate(batch.obs, batch.actions)
        ratio = np.exp(logp - batch.log_probs)
        return -float(np.mean(ratio * nadv))

    # finite-difference gradient of the unclipped surrogate
    fd_grads = []
    h = 1e-6
    for p in pol.net.params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = surrogate_loss()
            p[idx] = orig - h
            dn = surrogate_loss()
            p[idx] = orig
            g[idx] = (up - dn) / (2 * h)
        fd_grads.append(g)

    # oracle Adam step (fresh optimizer state, lr matching the config)
    expected = [p.copy() for p in pol.net.params]
    oracle = ref.Adam(expected, lr=1e-3)
    oracle.step(expected, fd_grads)

    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 1)
    monkeypatch.setattr(PpoConfig, "clip_eps", 1e9)
    monkeypatch.setattr(PpoConfig, "max_grad_norm", 1e9)
    cfg = PpoConfig(learning_rate=1e-3, minibatch_size=16, num_steps=16)
    ppo_update(pol, val, batch, cfg, np.random.default_rng(0))
    for got, want in zip(pol.net.params, expected):
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_ppo_two_armed_bandit_converges(monkeypatch):
    rng = np.random.default_rng(9)
    pol = CategoricalPolicy(2, 2, rng=rng)
    val = ValueNet(2, rng=rng)
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 5)
    cfg = PpoConfig(learning_rate=5e-3, minibatch_size=32, num_steps=32)
    for k in range(200):
        batch = bandit_batch(pol, rng, T=32, reward_fn=lambda a: 1.0 if a == 0 else 0.0)
        stats = ppo_update(pol, val, batch, cfg, rng)
        assert not stats["aborted"]
        if pol.distribution(np.zeros(2))[0] > 0.95:
            break
    assert pol.distribution(np.zeros(2))[0] > 0.95


def test_ppo_seed_determinism(monkeypatch):
    results = []
    for _ in range(2):
        rng = np.random.default_rng(10)
        pol = GaussianPolicy(3, 2, rng=rng)
        val = ValueNet(3, rng=rng)
        monkeypatch.setattr(PpoConfig, "epochs_per_batch", 2)
        cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, num_steps=16)
        for _ in range(3):
            obs = rng.normal(size=(16, 3))
            acts = np.zeros((16, 2))
            logps = np.zeros(16)
            for t in range(16):
                a, lp = pol.act(obs[t:t + 1], rng)
                acts[t], logps[t] = a[0], lp[0]
            rews = -np.sum(acts * acts, axis=1)
            batch = RolloutBatch(obs, acts, logps, rews, np.ones(16), obs[-1])
            ppo_update(pol, val, batch, cfg, rng)
        results.append([p.copy() for p in pol.net.params])
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_ppo_one_lane_batch_equals_the_one_environment_batch(monkeypatch):
    def update(lane_axis):
        rng = np.random.default_rng(12)
        pol = GaussianPolicy(3, 2, rng=rng)
        val = ValueNet(3, rng=rng)
        obs, acts = rng.normal(size=(16, 3)), rng.normal(size=(16, 2))
        logps, rews = rng.normal(-2.0, 0.3, 16), rng.normal(size=16)
        dones = (rng.random(16) < 0.2).astype(float)
        arrays = [obs, acts, logps, rews, dones, obs[-1]]
        if lane_axis:                    # (T, 1, ...) and a (1, obs_dim) last observation
            arrays = [a[:, None] for a in arrays[:5]] + [obs[-1][None]]
        monkeypatch.setattr(PpoConfig, "epochs_per_batch", 2)
        cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, num_steps=16)
        ppo_update(pol, val, RolloutBatch(*arrays), cfg, rng)
        return pol.net.params + val.net.params

    for a, b in zip(update(False), update(True)):
        np.testing.assert_array_equal(a, b)


def test_ppo_nan_reward_aborts_and_restores(monkeypatch):
    rng = np.random.default_rng(11)
    pol = CategoricalPolicy(2, 2, rng=rng)
    val = ValueNet(2, rng=rng)
    before = [p.copy() for p in pol.net.params]
    batch = bandit_batch(pol, rng, T=8, reward_fn=lambda a: np.nan)
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 1)
    cfg = PpoConfig(learning_rate=1e-3, minibatch_size=8, num_steps=8)
    stats = ppo_update(pol, val, batch, cfg, rng)
    assert stats["aborted"]
    for b, a in zip(before, pol.net.params):
        np.testing.assert_array_equal(a, b)


def hand_batch(rng, T, obs_dim=3, act_dim=2):
    """T one-step episodes of a Gaussian policy, drawn by hand."""
    obs = rng.normal(size=(T, obs_dim))
    return RolloutBatch(obs, rng.normal(size=(T, act_dim)), rng.normal(-2.0, 0.3, T),
                        rng.normal(size=T), np.ones(T), obs[-1])


def finite_difference_norm(flat, objective, h=1e-6):
    grad = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = objective()
        flat[i] = orig - h
        dn = objective()
        flat[i] = orig
        grad[i] = (up - dn) / (2 * h)
    return np.linalg.norm(grad)


def test_ppo_grad_norms_are_the_mean_pre_clip_norms_over_minibatches(monkeypatch):
    # a zero learning rate keeps every minibatch's gradient at the initial
    # parameters, where central differences of its losses give it
    rng = np.random.default_rng(20)
    pol = GaussianPolicy(3, 2, hidden=(4,), rng=rng)
    val = ValueNet(3, hidden=(4,), rng=rng)
    T, mb = 16, 8
    batch = hand_batch(rng, T)
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 1)
    monkeypatch.setattr(PpoConfig, "clip_eps", 1e9)
    monkeypatch.setattr(PpoConfig, "max_grad_norm", 1e-3)
    cfg = PpoConfig(learning_rate=0.0, minibatch_size=mb, num_steps=T)
    adv, ret = compute_gae(batch.rewards, val.values(batch.obs), batch.dones,
                           val.values(batch.last_obs)[0], cfg.discount, cfg.gae_lambda)
    nadv = (adv - adv.mean()) / adv.std()
    order = np.random.default_rng(5).permutation(T)
    want_pol, want_val = [], []
    for idx in (order[:mb], order[mb:]):
        def surrogate():
            logp = pol.evaluate(batch.obs[idx], batch.actions[idx])
            return -float(np.mean(np.exp(logp - batch.log_probs[idx]) * nadv[idx]))

        def value_loss():
            return cfg.vf_coef * float(np.mean((val.values(batch.obs[idx]) - ret[idx]) ** 2))

        want_pol.append(finite_difference_norm(pol.net.flat, surrogate))
        want_val.append(finite_difference_norm(val.net.flat, value_loss))
    stats = ppo_update(pol, val, batch, cfg, np.random.default_rng(5))
    assert stats["policy_grad_norm"] == pytest.approx(np.mean(want_pol), rel=1e-5)
    assert stats["value_grad_norm"] == pytest.approx(np.mean(want_val), rel=1e-5)
    assert min(want_pol + want_val) > 10 * cfg.max_grad_norm     # taken before the clip


def test_ppo_abort_restores_parameters_and_optimizer_state(monkeypatch):
    T, mb = 32, 8
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 2)
    cfg = PpoConfig(learning_rate=1e-2, minibatch_size=mb, num_steps=T)

    def trained_nets():
        """Fresh nets after one clean update, so both optimizers hold state."""
        rng = np.random.default_rng(21)
        pol = GaussianPolicy(3, 2, hidden=(8,), rng=rng)
        val = ValueNet(3, hidden=(8,), rng=rng)
        ppo_update(pol, val, hand_batch(rng, T), cfg, rng)
        return pol, val

    def state(pol, val):
        return [(h.net.flat.tobytes(), h._adam.moments.tobytes(), h._adam.t) for h in (pol, val)]

    # the first permutation of this seed puts row 0 in the last minibatch, and
    # a NaN at row 0 reaches no other row's return
    seed = next(s for s in range(100) if 0 in np.random.default_rng(s).permutation(T)[-mb:])
    pol, val = trained_nets()
    before = state(pol, val)
    steps = []
    for opt in (pol._adam, val._adam):
        opt.step = lambda params, grads, _step=opt.step: (steps.append(1), _step(params, grads))
    poisoned = hand_batch(np.random.default_rng(22), T)
    poisoned.obs[0] = np.nan
    assert ppo_update(pol, val, poisoned, cfg, np.random.default_rng(seed))["aborted"]
    assert len(steps) == 2 * (T // mb - 1)          # both nets stepped on 3 minibatches
    for opt in (pol._adam, val._adam):
        del opt.step
    assert state(pol, val) == before
    # the next update goes as on nets that never saw the poisoned batch
    twin = trained_nets()
    clean = hand_batch(np.random.default_rng(23), T)
    for nets in ((pol, val), twin):
        assert not ppo_update(*nets, clean, cfg, np.random.default_rng(24))["aborted"]
    assert state(pol, val) == state(*twin)


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        PpoConfig(discount=1.5)
    with pytest.raises(ValueError):
        PpoConfig(minibatch_size=128, num_steps=64)


@pytest.mark.parametrize("field", ["discount", "learning_rate"])
def test_ppo_config_refuses_nan(field):
    # a NaN learning rate made every update's loss NaN, so each ppo_update
    # aborted and training silently left the nets as they were
    with pytest.raises(ValueError, match=field):
        PpoConfig(**{field: float("nan")})


@pytest.mark.parametrize("field, value", [
    ("learning_rate", -1e-3), ("minibatch_size", 0), ("minibatch_size", -1), ("num_steps", 0),
    ("num_steps", -1)])
def test_ppo_config_refuses_zero_and_negative_values(field, value):
    with pytest.raises(ValueError, match=field):
        PpoConfig(**{field: value})


def test_ppo_config_takes_a_zero_learning_rate():
    assert PpoConfig(learning_rate=0.0).learning_rate == 0.0


# ------------------------------------------------------------------ #
# Checkpoints
# ------------------------------------------------------------------ #
def test_checkpoint_roundtrip_gaussian(tmp_path):
    rng = np.random.default_rng(12)
    pol = GaussianPolicy(5, 3, rng=rng)
    val = ValueNet(5, rng=rng)
    path = tmp_path / "agent.ckpt"
    save_checkpoint(path, pol, val, {"layout": "drl-v1", "dof": 3})
    pol2, val2, meta = load_checkpoint(path)
    assert meta == {"layout": "drl-v1", "dof": "3"}
    assert isinstance(pol2, GaussianPolicy)
    obs = rng.normal(size=5)
    np.testing.assert_array_equal(pol2.mean_action(obs), pol.mean_action(obs))
    assert val2.values(obs)[0] == val.values(obs)[0]
    assert pol2.net.flat.tobytes() == pol.net.flat.tobytes()
    assert val2.net.flat.tobytes() == val.net.flat.tobytes()


def test_checkpoint_roundtrip_categorical(tmp_path):
    rng = np.random.default_rng(13)
    pol = CategoricalPolicy(4, 2, rng=rng)
    val = ValueNet(4, rng=rng)
    path = tmp_path / "switch.ckpt"
    save_checkpoint(path, pol, val, {})
    pol2, val2, _ = load_checkpoint(path)
    assert isinstance(pol2, CategoricalPolicy)
    obs = rng.normal(size=4)
    np.testing.assert_array_equal(pol2.distribution(obs), pol.distribution(obs))
    assert pol2.net.flat.tobytes() == pol.net.flat.tobytes()
    assert val2.net.flat.tobytes() == val.net.flat.tobytes()


def test_checkpoint_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(14)
    pol = CategoricalPolicy(3, 2, rng=rng)
    val = ValueNet(3, rng=rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, pol, val, {"seed": 0})
    save_checkpoint(p2, pol, val, {"seed": 0})
    assert p1.read_bytes() == p2.read_bytes()


def _small_checkpoint(path):
    rng = np.random.default_rng(15)
    save_checkpoint(path, GaussianPolicy(3, 2, (4,), rng), ValueNet(3, (4,), rng),
                    {"layout": "drl-v1", "dof": 2})
    return path.read_bytes()


def test_load_checkpoint_rejects_truncated_files(tmp_path):
    raw = _small_checkpoint(tmp_path / "full.ckpt")
    meta_end = 16 + len(b"dof=2\nlayout=drl-v1")
    named = {"header": 10, "metadata length": 14, "metadata": meta_end - 3,
             "policy kind": meta_end + 6, "size table": meta_end + 30,
             "policy parameters": meta_end + 100, "value parameters": len(raw) - 5}
    for where, cut in named.items():
        path = tmp_path / f"cut in {where}.ckpt"
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
    path = tmp_path / "cut.ckpt"
    for cut in range(len(raw)):          # every other cut fails the same way
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_load_checkpoint_rejects_trailing_bytes(tmp_path):
    raw = _small_checkpoint(tmp_path / "full.ckpt")
    path = tmp_path / "long.ckpt"
    path.write_bytes(raw + b"\0" * 5)
    with pytest.raises(ValueError, match=f"is {len(raw) + 5} bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta", [{"a=b": "1"}, {"seed": "1\nlayout=x"}, {"note": "ends\n"},
                                  {"a\rb": "1"}, {"tag": "x\u2028y"}])
def test_save_checkpoint_refuses_metadata_it_cannot_read_back(tmp_path, meta):
    # without the check, {'a=b': '1'} read back as {'a': 'b=1'}, and a value
    # with a line break wrote a file that load_checkpoint could not parse
    rng = np.random.default_rng(16)
    path = tmp_path / "bad.ckpt"
    with pytest.raises(ValueError, match="metadata"):
        save_checkpoint(path, CategoricalPolicy(3, 2, rng=rng), ValueNet(3, rng=rng), meta)
    assert not path.exists()


def test_checkpoint_metadata_values_may_hold_equals_signs(tmp_path):
    rng = np.random.default_rng(17)
    path = tmp_path / "ok.ckpt"
    save_checkpoint(path, CategoricalPolicy(3, 2, rng=rng), ValueNet(3, rng=rng),
                    {"expr": "a=b", "empty": ""})
    assert load_checkpoint(path)[2] == {"expr": "a=b", "empty": ""}


def _repack(path, raw, k, change):
    """Write the checkpoint ``raw`` to ``path``, whole and well framed, with
    its array ``k`` replaced by ``change`` of it."""
    meta, arrays = records.unpack(raw, rl_core._CKPT_MAGIC, rl_core._CKPT_VERSION, "checkpoint")
    arrays[k] = change(arrays[k])
    path.write_bytes(records.pack(rl_core._CKPT_MAGIC, rl_core._CKPT_VERSION, meta, arrays))


@pytest.mark.parametrize("where", ["policy", "value"])
def test_load_checkpoint_rejects_arrays_of_the_wrong_shape(tmp_path, where):
    # the file is whole and well framed, but a net's vector is one value short
    # or long for its sizes
    raw = _small_checkpoint(tmp_path / "full.ckpt")
    k, n = (2, 28) if where == "policy" else (4, 21)
    path = tmp_path / "misshapen.ckpt"
    for delta in (-1, 1):
        _repack(path, raw, k, lambda vec: np.resize(vec, n + delta))
        with pytest.raises(ValueError, match=f"{where} parameter vector of {n + delta} values"):
            load_checkpoint(path)


@pytest.mark.parametrize("where, k", [("policy", 1), ("value", 3)])
def test_load_checkpoint_rejects_huge_sizes_before_building_a_net(tmp_path, where, k):
    # a corrupted sizes entry would ask for tens of GiB if a net were built
    raw = _small_checkpoint(tmp_path / "full.ckpt")
    path = tmp_path / "huge.ckpt"
    for i in range(3):
        def corrupt(sizes, i=i):
            sizes = sizes.copy()
            sizes[i] = 2 ** 31
            return sizes
        _repack(path, raw, k, corrupt)
        with pytest.raises(ValueError, match=f"{where} parameter vector of .* values does not fit"):
            load_checkpoint(path)


def test_load_checkpoint_rejects_a_value_net_of_two_outputs(tmp_path):
    # sizes 3, 4, 2 with a vector of their 26 values: the value head has one output
    raw = _small_checkpoint(tmp_path / "full.ckpt")
    path = tmp_path / "two.ckpt"
    _repack(path, raw, 3, lambda sizes: np.array([3, 4, 2], dtype="<u4"))
    _repack(path, path.read_bytes(), 4, lambda vec: np.resize(vec, 26))
    with pytest.raises(ValueError, match=r"value parameter vector of 26 values .* sizes \[3, 4, 2\]"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", [0, 3])
def test_load_checkpoint_rejects_an_unknown_policy_kind(tmp_path, kind):
    path = tmp_path / "kind.ckpt"
    _repack(path, _small_checkpoint(tmp_path / "full.ckpt"), 0,
            lambda _: np.array(kind, dtype="<u4"))
    with pytest.raises(ValueError, match=f"unknown policy kind {kind}"):
        load_checkpoint(path)


@pytest.mark.parametrize("offset, value, match", [
    (0, b"X", "not a checkpoint file"),
    (4, b"\x01", "unsupported checkpoint version 1, expected 2"),
])
def test_load_checkpoint_rejects_a_wrong_magic_or_version(tmp_path, offset, value, match):
    raw = _small_checkpoint(tmp_path / "full.ckpt")
    path = tmp_path / "other.ckpt"
    path.write_bytes(raw[:offset] + value + raw[offset + 1:])
    with pytest.raises(ValueError, match=match):
        load_checkpoint(path)


# ------------------------------------------------------------------ #
# Trained weights of the benchmark's hybrid workload
# ------------------------------------------------------------------ #
# SHA-256 over each net's parameters() raveled and concatenated as <f8, for
# the DRL bridge and the switch trained by the hybrid workload of seeds 1-2;
# recorded with numpy 2.4.6 when Adam, the gradient clip and the abort
# snapshot still ran one tensor at a time, the switch entries re-recorded
# when its scenarios' candidates became closed-form branches
WEIGHT_PINS = {
    (1, "drl"): ("a95b867d966dea415ed6c0b53dfde26316decd18e715eb90085cd46e4a9a7a26",
                 "9cb9ff7c12a185ecc258970d65e855a672bdd166b0bb606bc377238cc0d678a9"),
    (1, "switch"): ("dfc4f6c6d379752e05e4298e064d62267947f396cf1918c1ac44f0ae5238e9b2",
                    "4a0560b24c6ea5923165d32cb82d5476e9a648739aa082f3cc7f543d1b0a6b51"),
    (2, "drl"): ("82b8a7adf1993189e4ab0188815fecf91e25df91564b11cd49c394b615430088",
                 "e8420a41a9cdaba7b3f63fe4fc6a16882af6ac98539666fcfba473ec53364bb4"),
    (2, "switch"): ("46e34619f55885fc30348a57dbeef69bc50151eb219a90028f4e31642f0403ca",
                    "070a9fd2218eaa60cb6d5b439ab0991016a42f0798cab261ae8a07b8e4fcb769"),
}
PINNED_NUMPY = "2.4.6"


def test_hybrid_trained_weights_are_pinned_per_seed(workloads, hybrid_workloads, monkeypatch):
    def digest(head):
        flat = np.concatenate([np.ravel(p) for p in head.net.params])
        return hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()

    for wl in hybrid_workloads:
        trained = {}
        for name in ("drl", "switch"):
            train = getattr(workloads, f"train_{name}")

            def record(*args, _name=name, _train=train, **kwargs):
                trained[_name] = _train(*args, **kwargs)
                return trained[_name]

            monkeypatch.setattr(workloads, f"train_{name}", record)
        wl._train(workloads.Tally())
        monkeypatch.undo()
        for name in ("drl", "switch"):
            policy, value_net, curve = trained[name]
            assert all(row["policy_grad_norm"] > 0 and row["value_grad_norm"] > 0
                       for row in curve)
            got = (digest(policy), digest(value_net))
            assert got == WEIGHT_PINS[wl.seed, name], (
                f"hybrid seed {wl.seed}: trained {name} weights differ from the pins, "
                f"recorded with numpy {PINNED_NUMPY} (this run: numpy {np.__version__})")


def _checkpoint_with_a_float_policy_kind(path):
    _repack(path, _small_checkpoint(path), 0, lambda kind: kind.astype("<f8"))
    return load_checkpoint(path)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda tmp: Mlp([3, 4, 2]).forward(np.zeros((1, 2))), ValueError,
                 "expected input dim 3, got 2", id="forward_input_dim"),
    pytest.param(lambda tmp: Mlp([3, 4, 2]).backward(np.zeros((1, 2))), RuntimeError,
                 "forward pass must be cached", id="backward_before_forward"),
    pytest.param(_checkpoint_with_a_float_policy_kind, ValueError,
                 "are not a policy kind", id="checkpoint_layout"),
])
def test_rl_core_refuses(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path / "net.ckpt")
