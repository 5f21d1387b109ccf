"""Minimal policy-optimization engine: a feed-forward network with exact
backpropagation, Gaussian and categorical policy heads, generalized advantage
estimation, and the clipped-surrogate policy update: the loss is the negated
surrogate plus ``PpoConfig.vf_coef`` times the value MSE, with no entropy term.

Flat layout: a network's parameters live in one contiguous float64 vector,
``Mlp.flat``, in ``Mlp.params`` order: each layer's weights, each layer's
biases, then the Gaussian head's ``log_std``.  ``weights``, ``biases`` and
``params`` are views into it; ``Mlp.grad`` has the same layout, and
``backward`` writes each layer's gradient into its view.  So Adam, the
gradient clip and the abort snapshot of ``ppo_update`` each run once per net,
and a checkpoint stores each net as its sizes and ``flat``.
The gradient norm sums the squares per tensor (one ``np.add.reduce`` over
each of ``Mlp.spans``), then those sums as Python floats in parameter order:
the order of a norm taken tensor by tensor, so its bits match that norm's
(``np.add.reduceat`` groups the additions differently).

A batch runs ``Mlp.forward``, which caches its activations for
``backward``.  One observation, as ``plan_drl``, ``policy_switches`` and
``train_switch`` act on, runs ``Mlp.forward_one``: a matrix-vector product
per layer and no cache, equal to the batch's row bit for bit.

Everything is plain numpy with explicit RNGs; identical seeds give bit
identical parameter trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from hybridplan import records


# ------------------------------------------------------------------ #
# Feed-forward network: tanh hidden layers, linear output
# ------------------------------------------------------------------ #
class Mlp:
    """Parameters and gradients in the flat layout of the module docstring;
    ``tail`` more parameters, for the owner to fill, end the vector."""

    def __init__(self, sizes, rng=None, out_scale=1.0, tail=0):
        self.sizes = list(sizes)
        layers = list(zip(sizes[:-1], sizes[1:]))
        shapes = [(d_out, d_in) for d_in, d_out in layers] + [(d_out,) for _, d_out in layers]
        shapes += [(tail,)] if tail else []
        ends = np.cumsum([int(np.prod(shape)) for shape in shapes]).tolist()
        self.shapes = shapes
        self.spans = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
        self.flat = np.zeros(ends[-1])
        self.grad = np.zeros(ends[-1])
        self._bind_views()
        rng = rng if rng is not None else np.random.default_rng(0)
        for i, (d_in, d_out) in enumerate(layers):
            scale = 1.0 / np.sqrt(d_in)
            if i == len(layers) - 1:
                scale *= out_scale
            self.weights[i][...] = rng.normal(0.0, scale, size=(d_out, d_in))
        self._cache = None

    def _bind_views(self):
        """``params``, ``grads``, ``weights`` and ``biases`` as views of
        ``flat`` and ``grad``; tuples, since an item assignment would detach
        a view from its vector."""
        layers, shapes = len(self.sizes) - 1, self.shapes
        self.params = tuple(self.flat[s].reshape(shape) for s, shape in zip(self.spans, shapes))
        self.grads = tuple(self.grad[s].reshape(shape) for s, shape in zip(self.spans, shapes))
        self.weights = self.params[:layers]
        self.biases = self.params[layers:2 * layers]

    # a copy or an unpickled net gets new vectors, so its views are made anew
    def __getstate__(self):
        views = ("params", "grads", "weights", "biases")
        return {k: v for k, v in self.__dict__.items() if k not in views}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind_views()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Batch forward pass; caches activations for backward."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected input dim {self.sizes[0]}, got {x.shape[1]}")
        acts = [x]
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ W.T + b
            acts.append(np.tanh(z) if i < len(self.weights) - 1 else z)
        self._cache = acts
        return acts[-1]

    def forward_one(self, x: np.ndarray) -> np.ndarray:
        """Row 0 of ``forward(x[None])`` for one observation ``x`` (1-D), as
        ``W @ x + b`` per layer with no shape check or activation cache: a
        matrix-vector product, which rounds like the batch product's row on
        this numpy's BLAS (gemv against gemm; the tests assert it)."""
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            x = W @ x
            x += b
            if i < last:
                np.tanh(x, out=x)
        return x

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        """Gradients for the cached forward pass, d_out being dLoss/dOutput,
        written into ``grad`` (all but the tail), which is returned."""
        if self._cache is None:
            raise RuntimeError("forward pass must be cached before backward")
        acts = self._cache
        k = len(self.weights)
        delta = np.atleast_2d(d_out)
        for i in range(k - 1, -1, -1):
            np.matmul(delta.T, acts[i], out=self.grads[i])
            np.sum(delta, axis=0, out=self.grads[k + i])
            if i > 0:
                delta = (delta @ self.weights[i]) * (1.0 - acts[i] ** 2)
        return self.grad


def clip_gradients(grad, max_norm: float, spans) -> float:
    """Scale the flat ``grad`` in place so its global norm is at most
    max_norm; returns the norm before clipping.  ``spans`` are the parameter
    tensors' slices of ``grad``, which fix the summation order."""
    sq = grad * grad
    total = np.sqrt(sum(float(np.add.reduce(sq[s])) for s in spans))
    if total > max_norm and total > 0:
        grad *= max_norm / total
    return total


class Adam:
    """Adam (Kingma and Ba, arXiv:1412.6980) on one flat parameter vector,
    with the paper's default moment rates and epsilon."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.lr = lr
        self.moments = np.zeros((2, len(params)))      # m and v: one copy snapshots both
        self._tmp = np.empty((2, len(params)))
        self.t = 0

    def step(self, params, grads) -> None:
        """params -= lr * (m / b1t) / (sqrt(v / b2t) + eps), rounded as written."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v = self.moments
        a, b = self._tmp
        m *= self.beta1
        m += np.multiply(grads, 1 - self.beta1, out=a)
        v *= self.beta2
        np.multiply(grads, 1 - self.beta2, out=a)
        v += np.multiply(a, grads, out=a)
        np.sqrt(np.divide(v, b2t, out=a), out=a)
        a += self.eps
        np.divide(m, b1t, out=b)
        b *= self.lr
        params -= np.divide(b, a, out=b)


# ------------------------------------------------------------------ #
# Policy heads
# ------------------------------------------------------------------ #
class GaussianPolicy:
    """Diagonal Gaussian over continuous actions; state-independent log std,
    the tail of the net's flat vector."""

    init_log_std = -0.5         # of every action dimension, before training

    def __init__(self, obs_dim, act_dim, hidden=(64, 64), rng=None):
        self.net = Mlp([obs_dim] + list(hidden) + [act_dim], rng, out_scale=0.01, tail=act_dim)
        self.log_std[...] = self.init_log_std
        self.act_dim = act_dim

    @property
    def log_std(self):
        return self.net.params[-1]

    def act(self, obs, rng):
        """(N, act_dim) sampled actions and their (N,) log-probs for an
        (N, obs_dim) batch of observations, from one forward pass."""
        mean = self.net.forward(obs)
        action = mean + np.exp(self.log_std) * rng.standard_normal(mean.shape)
        return action, self._log_probs(mean, action)

    def mean_action(self, obs):
        return self.net.forward_one(obs)

    def _log_probs(self, mean, action):
        """Row log-probs of (N, act_dim) actions under (N, act_dim) means."""
        z = (action - mean) / np.exp(self.log_std)
        return -0.5 * np.sum(z * z, axis=1) - np.sum(self.log_std) \
            - 0.5 * self.act_dim * np.log(2 * np.pi)

    def evaluate(self, obs_batch, act_batch):
        """Batch log-probs; caches for backward_logp."""
        mean = self.net.forward(obs_batch)
        self._eval_cache = (mean, act_batch, np.exp(self.log_std))
        return self._log_probs(mean, act_batch)

    def backward_logp(self, d_logp):
        """The flat gradient of sum(d_logp * logp)."""
        mean, act, std = self._eval_cache
        diff = (act - mean) / (std * std)
        d_mean = d_logp[:, None] * diff              # dlogp/dmean = (a - mean)/std^2
        grad = self.net.backward(d_mean)
        z2 = ((act - mean) / std) ** 2
        np.sum(d_logp[:, None] * (z2 - 1.0), axis=0, out=self.net.grads[-1])    # d log_std
        return grad


class CategoricalPolicy:
    """Softmax over discrete actions."""

    def __init__(self, obs_dim, n_actions, hidden=(64, 64), rng=None):
        self.net = Mlp([obs_dim] + list(hidden) + [n_actions], rng, out_scale=0.01)
        self.n_actions = n_actions

    def distribution(self, obs):
        logits = self.net.forward_one(obs)
        logits = logits - logits.max()
        p = np.exp(logits)
        return p / p.sum()

    def act(self, obs, rng):
        p = self.distribution(obs)
        a = int(rng.choice(self.n_actions, p=p))
        return a, float(np.log(p[a]))

    def mean_action(self, obs):
        return int(np.argmax(self.distribution(obs)))

    def evaluate(self, obs_batch, act_batch):
        """Batch log-probs; caches for backward_logp."""
        logits = self.net.forward(obs_batch)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp_all = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
        acts = act_batch.astype(int)
        self._eval_cache = (np.exp(logp_all), acts)
        return logp_all[np.arange(len(acts)), acts]

    def backward_logp(self, d_logp):
        """The flat gradient of sum(d_logp * logp)."""
        p, acts = self._eval_cache
        onehot = np.zeros_like(p)
        onehot[np.arange(len(acts)), acts] = 1.0
        return self.net.backward(d_logp[:, None] * (onehot - p))


class ValueNet:
    def __init__(self, obs_dim, hidden=(64, 64), rng=None):
        self.net = Mlp([obs_dim] + list(hidden) + [1], rng, out_scale=1.0)

    def values(self, obs_batch) -> np.ndarray:
        return self.net.forward(obs_batch)[:, 0]

    def backward_mse(self, values, targets, coef):
        d = (2.0 * coef / len(values)) * (values - targets)
        return self.net.backward(d[:, None])


# ------------------------------------------------------------------ #
# PPO
# ------------------------------------------------------------------ #
@dataclass
class PpoConfig:
    vf_coef: ClassVar[float] = 0.5          # value-loss weight
    gae_lambda: ClassVar[float] = 0.95
    max_grad_norm: ClassVar[float] = 0.5
    clip_eps: ClassVar[float] = 0.2
    epochs_per_batch: ClassVar[int] = 10
    learning_rate: float = 3e-4
    discount: float = 0.99
    minibatch_size: int = 64
    num_steps: int = 2048

    def __post_init__(self):
        # each comparison is written so that NaN fails it too
        if not self.learning_rate >= 0:
            raise ValueError("learning_rate must be non-negative")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        for name in ("minibatch_size", "num_steps"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        if self.minibatch_size > self.num_steps:
            raise ValueError("minibatch_size must not exceed num_steps")


def compute_gae(rewards, values, dones, last_value, gamma, lam):
    """Advantages and discounted-return targets over one rollout batch.

    rewards, values and dones are (T,) with a scalar last_value, or (T, N)
    for N lane environments with (N,) last values; each lane runs the
    one-environment recursion on its own column and bootstraps from its own
    last value."""
    T = len(rewards)
    adv = np.zeros(np.shape(rewards))
    next_adv = np.zeros(np.shape(last_value))
    next_value = last_value
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - np.asarray(dones[t], dtype=float)
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        next_adv = delta + gamma * lam * nonterminal * next_adv
        adv[t] = next_adv
        next_value = values[t]
    return adv, adv + values


@dataclass
class RolloutBatch:
    """One rollout: (T, ...) per-step arrays of one environment, or
    (T, N, ...) of N lane environments stepped together; last_obs is the
    observation after the final step, (obs_dim,) or (N, obs_dim)."""
    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    last_obs: np.ndarray


def ppo_update(policy, value_net, batch: RolloutBatch, cfg: PpoConfig, rng):
    """One batched clipped-surrogate update (epochs x minibatches).

    Returns stats {mean_reward, clip_frac, approx_kl, value_loss, aborted,
    policy_grad_norm, value_grad_norm}; the two norms are the means over the
    minibatches of the gradient norms before clipping.  A non-finite loss
    aborts the update and restores both nets' parameters and optimizer states.
    """
    # lanes: GAE runs per lane on (T, N), then the samples flatten time-major
    rewards = batch.rewards.reshape(len(batch.rewards), -1)
    T = rewards.size
    obs = batch.obs.reshape(T, -1)
    actions = batch.actions.reshape((T,) + batch.actions.shape[batch.rewards.ndim:])
    log_probs = batch.log_probs.reshape(T)
    values = value_net.values(obs)
    last_value = value_net.values(np.atleast_2d(batch.last_obs))
    adv, returns = compute_gae(rewards, values.reshape(rewards.shape),
                               batch.dones.reshape(rewards.shape), last_value,
                               cfg.discount, cfg.gae_lambda)
    adv, returns = adv.reshape(T), returns.reshape(T)
    std = adv.std()
    norm_adv = (adv - adv.mean()) / std if std > 1e-8 else np.zeros_like(adv)

    nets = [(head.net, _optimizer(head, cfg.learning_rate)) for head in (policy, value_net)]
    snapshot = [(net.flat.copy(), opt.moments.copy(), opt.t) for net, opt in nets]

    clip_hits = 0
    clip_total = 0
    kl_sum = 0.0
    vloss_last = 0.0
    norms = []                  # per minibatch: both nets' gradient norms before clipping
    for _ in range(cfg.epochs_per_batch):
        order = rng.permutation(T)
        for k in range(0, T, cfg.minibatch_size):
            idx = order[k:k + cfg.minibatch_size]
            obs_mb = obs[idx]
            act_mb = actions[idx]
            adv_mb = norm_adv[idx]
            ret_mb = returns[idx]
            old_mb = log_probs[idx]

            logp = policy.evaluate(obs_mb, act_mb)
            ratio = np.exp(logp - old_mb)
            unclipped = ratio * adv_mb
            clipped = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps) * adv_mb
            surrogate = np.minimum(unclipped, clipped)
            # gradient flows through the ratio only where the unclipped branch
            # is the active minimum
            active = unclipped <= clipped
            d_logp_loss = -np.where(active, ratio * adv_mb, 0.0) / len(idx)

            vals = value_net.values(obs_mb)
            v_loss = float(np.mean((vals - ret_mb) ** 2))
            loss = -float(np.mean(surrogate)) + cfg.vf_coef * v_loss
            if not np.isfinite(loss):
                for (net, opt), (flat, moments, t) in zip(nets, snapshot):
                    net.flat[...] = flat
                    opt.moments[...] = moments
                    opt.t = t
                return {"mean_reward": float(np.mean(batch.rewards)),
                        "clip_frac": 0.0, "approx_kl": 0.0,
                        "value_loss": v_loss, "aborted": True,
                        "policy_grad_norm": 0.0, "value_grad_norm": 0.0}

            grads = (policy.backward_logp(d_logp_loss),
                     value_net.backward_mse(vals, ret_mb, cfg.vf_coef))
            norms.append([float(clip_gradients(grad, cfg.max_grad_norm, net.spans))
                          for (net, _), grad in zip(nets, grads)])
            for (net, opt), grad in zip(nets, grads):
                opt.step(net.flat, grad)

            clip_hits += int(np.sum(np.abs(ratio - 1.0) > cfg.clip_eps))
            clip_total += len(idx)
            kl_sum += float(np.sum(old_mb - logp))
            vloss_last = v_loss
    pol_norm, val_norm = np.mean(norms, axis=0) if norms else (0.0, 0.0)
    return {
        "mean_reward": float(np.mean(batch.rewards)),
        "clip_frac": clip_hits / max(clip_total, 1),
        "approx_kl": kl_sum / max(clip_total, 1),
        "value_loss": vloss_last,
        "aborted": False,
        "policy_grad_norm": float(pol_norm),
        "value_grad_norm": float(val_norm),
    }


def _optimizer(head, lr) -> Adam:
    """The Adam state kept on ``head`` across updates; a new one for a new
    learning rate."""
    opt = getattr(head, "_adam", None)
    if opt is None or opt.lr != lr:
        opt = head._adam = Adam(head.net.flat, lr)
    return opt


# ------------------------------------------------------------------ #
# Checkpoints: a binary record of both nets' sizes and flat vectors
# ------------------------------------------------------------------ #
_CKPT_MAGIC = b"HPCK"
_CKPT_VERSION = 2
_HEADS = {1: GaussianPolicy, 2: CategoricalPolicy}      # policy kind -> head


def save_checkpoint(path, policy, value_net, meta: dict) -> None:
    """Write ``records.pack`` of ``meta`` and five arrays: the policy kind
    (u4, 1 Gaussian or 2 categorical), the policy's ``net.sizes`` (u4) and
    ``net.flat`` (f8), then the value net's; ``records.pack`` refuses, before
    the file is created, metadata that could not be read back."""
    arrays = [np.array(1 if isinstance(policy, GaussianPolicy) else 2, dtype="<u4")]
    for head in (policy, value_net):
        arrays += [np.array(head.net.sizes, dtype="<u4"), head.net.flat]
    Path(path).write_bytes(records.pack(_CKPT_MAGIC, _CKPT_VERSION, meta, arrays))


def _param_count(sizes) -> int:
    """Weights and biases of an ``Mlp`` of these layer sizes."""
    return sum(d_in * d_out + d_out for d_in, d_out in zip(sizes[:-1], sizes[1:]))


def load_checkpoint(path):
    """Returns (policy, value_net, meta), the metadata values as str.  Raises
    ValueError for a file ``records.unpack`` refuses, another set of arrays,
    an unknown policy kind, or a parameter vector that does not fit a net of
    its sizes."""
    meta, arrays = records.unpack(Path(path).read_bytes(), _CKPT_MAGIC, _CKPT_VERSION,
                                  "checkpoint")
    layout = [(a.dtype.str, a.ndim) for a in arrays]
    if layout != [("<u4", 0), ("<u4", 1), ("<f8", 1), ("<u4", 1), ("<f8", 1)] \
            or min(arrays[1].size, arrays[3].size) < 2:
        raise ValueError(f"checkpoint arrays {layout} are not a policy kind and two nets' "
                         "sizes (two or more) and parameter vectors")
    kind = int(arrays[0])
    if kind not in _HEADS:
        raise ValueError(f"unknown policy kind {kind}")
    sizes, vsizes = arrays[1].tolist(), arrays[3].tolist()
    # checked before any net is built, so corrupt sizes cannot ask for memory
    tail = sizes[-1] if _HEADS[kind] is GaussianPolicy else 0      # log_std
    for name, net_sizes, vec, count in (("policy", sizes, arrays[2], _param_count(sizes) + tail),
                                        ("value", vsizes, arrays[4], _param_count(vsizes))):
        if len(vec) != count or name == "value" and net_sizes[-1] != 1:
            raise ValueError(f"{name} parameter vector of {len(vec)} values does not fit "
                             f"a net of sizes {net_sizes}")
    policy = _HEADS[kind](sizes[0], sizes[-1], tuple(sizes[1:-1]))
    value_net = ValueNet(vsizes[0], tuple(vsizes[1:-1]))
    policy.net.flat[...] = arrays[2]
    value_net.net.flat[...] = arrays[4]
    return policy, value_net, meta
