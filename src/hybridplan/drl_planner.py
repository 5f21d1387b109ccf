"""Joint-space feasibility-aware policy-gradient planner.

Trains on the infeasible bracket pairs harvested from task-space plans and
bridges each gap with a joint trajectory.  Actions are per-joint increment
commands in [-1, 1].  At goal distance d a step earns 0.1 inside the target
ball (d < ``target_radius``; the episode ends), else man' - ``man_baseline`` - d
when collision-free (man' the normalized manipulability) and -1 - d in
collision.  ``plan_drl`` starts from the witness ``theta0`` its caller gives,
``train_drl`` from the bracket pairs' witnesses or the collision-free
configurations of its start pool.

``DrlEnv`` steps N independent episodes as lanes: an (N, dof) array of
joint vectors, one per episode.  A step walks the kinematic chain once
(``_chain_eval``) and feeds everything from that walk: the joint frames,
the end-effector state, the Euler angles of both from one ``quat_to_euler``
call, the Jacobian and a batched SVD for manipulability, the capsule
distances of the collision check (behind ``geometry``'s broad phase) and
the ray bundle (one ``raycast_many`` over the (N, 25) rays, one slab pass
over the boxes of a ``slab_table`` built with the environment).  Lane k of
a step equals a one-episode environment stepped on lane k alone, bit for
bit.  A step is the transition (clip and clamp, chain walk, observation,
goal distance and done rule) plus the collision verdict, manipulability
and reward; every lane count, one included, runs it on lane arrays.

``plan_drl`` bridges one gap and runs the transition alone, since its
policy reads only the observation: ``DrlEnv._clamp`` and ``_observe`` are
the one-lane transition on Python floats, in the operations and order of
the lane arrays.  The joint angles, joint positions, Euler angles and goal
stay floats between steps, and each step builds one 1-D observation for the
policy's one-row forward; only the Euler angles
(``dualquat._euler_floats``), the ray cast and the goal distance run in
numpy.  The bridge rows are annotated after the loop with one
``geometry.score_lanes`` call, and the bridge equals one stepped through
``DrlEnv.step`` on one lane, bit for bit.  ``train_drl`` collects each PPO
batch on ``ROLLOUT_LANES`` lanes with one policy forward per lane step (the
vectorised-environment layout of PPO).  Bracket poses are 8-vectors (rows
of a plan's lanes) or ``DualQuaternion``s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from hybridplan.dualquat import _euler_floats, dq_to_lanes, dq_translation, quat_to_euler
from hybridplan.geometry import (
    RAY_COUNT,
    RAY_RANGE,
    collision_index_lanes,
    collision_index_points,
    ray_bundle_lanes,
    score_lanes,
    slab_table,
)
from hybridplan.kinematics import (
    RobotModel,
    _chain_eval,
    _frame_points_raw,
    _lane_norm,
    _normalized_manipulability_raw,
    fk_frames,  # noqa: F401 -- unused; perfbench's tracer test wraps this binding
)
from hybridplan.rl_core import (
    GaussianPolicy,
    PpoConfig,
    RolloutBatch,
    ValueNet,
    ppo_update,
)
from hybridplan.trajectory import SOURCE_DRL, JointTrajectory

ROLLOUT_LANES = 16         # environments stepped together while collecting PPO batches


@dataclass
class DrlEnvConfig:
    max_step_deg: ClassVar[float] = 5.0     # per-joint increment bound per step
    step_time: ClassVar[float] = 0.05       # seconds, for finite-difference velocities
    # fraction of training episodes started from a collision-free configuration
    # of the start pool instead of a bracket start; narrow passages are rarely
    # crossed by on-policy exploration alone
    explore_start_prob: ClassVar[float] = 0.5
    collision_penalty: ClassVar[float] = -1.0
    target_radius: ClassVar[float] = 0.25   # meters; the paper's training tolerance
    episode_budget: int = 300
    # the manipulability term is man' - man_baseline: man' itself by default;
    # benchmark scenes use baseline 1, a shortfall penalty, since otherwise
    # hovering just outside the target ball can out-pay terminating
    man_baseline: float = 0.0


def state_dim(dof: int) -> int:
    # JP, JO, LV, AV (3*dof each) + TP, TO (3 each) + rays + goal offset
    return 12 * dof + 6 + RAY_COUNT + 3


def drl_reward(cfg: DrlEnvConfig, distance, col, man):
    """The reward of the goal distance, the collision index and the
    normalized manipulability, as floats or (N,) lanes.  Inside the target
    ball the reward is the fixed in-region bonus; outside it is graded
    feasibility minus distance (``man`` is read only where collision-free)."""
    outside = np.where(col, cfg.collision_penalty - distance,
                       man - cfg.man_baseline - distance)
    return np.where(distance < cfg.target_radius, 0.1, outside)


def _rows(values, n) -> np.ndarray:
    """k (n,) lanes of ``_chain_eval`` output, where constants may stay
    floats, as an (n, k) array."""
    out = np.empty((n, len(values)))
    for i, v in enumerate(values):
        out[:, i] = v
    return out


def _clip(x, lo, hi):
    """``np.clip`` of one float: a tie takes the bound, as numpy's clip of a
    (1, dof) row against limit arrays does, and NaN stays NaN."""
    x = lo if x <= lo else x
    return hi if x >= hi else x


class DrlEnv:
    """Kinematic stepping environment over ``lanes`` independent episodes,
    each with its own (start, goal) bracket pair.

    Observations are scaled by fixed per-block constants (reach for
    positions, pi for angles, the ray range for rays) so every block is
    O(1) for the policy network.  Observations, rewards, done flags and the
    info entries are (lanes, ...) arrays; ``_clamp`` and ``_observe`` are
    one lane's transition on floats, for ``plan_drl``.
    """

    def __init__(self, model: RobotModel, obstacles, cfg: DrlEnvConfig, lanes=1):
        self.model = model
        self.obstacles = list(obstacles)
        self.cfg = cfg
        self.dof = model.dof
        self.lanes = lanes
        self._theta = np.zeros((lanes, self.dof))
        self._goal = np.zeros((lanes, 3))
        self._steps = np.zeros(lanes, dtype=int)
        # joint positions and Euler angles at the current thetas
        self._jp, self._jo = np.zeros((lanes, 3 * self.dof)), np.zeros((lanes, 3 * self.dof))
        self._obs = np.zeros((lanes, state_dim(self.dof)))
        self._slabs = slab_table(self.obstacles)
        self._limits = model.limits_lo.tolist(), model.limits_hi.tolist()
        self._max_step = float(np.radians(cfg.max_step_deg))
        reach = sum(np.linalg.norm(j.offset.translation()) for j in model.joints)
        reach += np.linalg.norm(model.tool.translation())
        self._reach = max(reach, 1e-6)
        n = self.dof
        vel = np.radians(cfg.max_step_deg) / cfg.step_time * self._reach
        avel = np.radians(cfg.max_step_deg) / cfg.step_time
        self._obs_scale = np.concatenate([
            np.full(3 * n, self._reach),        # joint positions
            np.full(3 * n, np.pi),              # joint Euler angles
            np.full(3 * n, vel),                # linear velocities
            np.full(3 * n, avel),               # angular velocities
            np.full(3, self._reach),            # end-effector position
            np.full(3, np.pi),                  # end-effector Euler angles
            np.full(RAY_COUNT, RAY_RANGE),      # rays
            np.full(3, self._reach),            # goal offset
        ])

    def _walk(self, thetas, goals, prev=None):
        """One chain walk over the rows of ``thetas`` and their observations
        against the rows of ``goals``, with velocities from ``prev``, the
        previous rows of (joint positions, joint Euler angles); None is no
        motion.  Returns the ``_chain_eval`` output, the (n, 3 dof) joint
        positions and Euler angles, the (n, 3) end-effector offsets from the
        goals and the (n, state_dim) observations."""
        n = len(thetas)
        st = self.cfg.step_time
        chain = _chain_eval(self.model, thetas)
        _, origins, rots, q, p = chain
        jp = _rows([c for o in origins for c in o], n)
        # the joint frames, then the end effector: (n, dof + 1) each
        quats = [_rows([r[i] for r in rots] + [q[i]], n) for i in range(4)]
        euler = quat_to_euler(quats)                                   # (3, n, dof + 1)
        jo = euler[:, :, :-1].transpose(1, 2, 0).reshape(n, -1)
        prev_jp, prev_jo = (jp, jo) if prev is None else prev
        lv = (jp - prev_jp) / st
        av = ((jo - prev_jo + np.pi) % (2 * np.pi) - np.pi) / st   # wrap-safe
        rays = ray_bundle_lanes(q, p, self._slabs).reshape(n, -1)
        p_rows = _rows(p, n)
        raw = np.concatenate([jp, jo, lv, av, p_rows, euler[:, :, -1].T, rays, goals - p_rows],
                             axis=1)
        return chain, jp, jo, p_rows - goals, raw / self._obs_scale

    def _observe(self, theta, goal, prev=None):
        """``_walk`` of one lane on Python floats, in the operations and
        order of the lane arrays: the joint angles ``theta`` against the
        ``goal`` position, with velocities from ``prev``, the previous (joint
        positions, joint Euler angles); None is no motion.  Only the Euler
        angles, the ray cast and the goal distance run in numpy.  Returns
        (joint positions, joint Euler angles, goal distance, (state_dim,)
        observation)."""
        st = self.cfg.step_time
        _, origins, rots, q, p = _chain_eval(self.model, theta)
        jp = [c for o in origins for c in o]
        euler = _euler_floats([*rots, q])         # the joint frames, then the EE
        jo, to = euler[:-3], euler[-3:]
        prev_jp, prev_jo = (jp, jo) if prev is None else prev
        lv = [(a - b) / st for a, b in zip(jp, prev_jp)]
        av = [((a - b + math.pi) % (2 * math.pi) - math.pi) / st    # wrap-safe
              for a, b in zip(jo, prev_jo)]
        rays = ray_bundle_lanes(q, p, self._slabs).tolist()
        offset = [g - c for g, c in zip(goal, p)]
        away = np.array(offset)                 # a 1-D dot rounds as ``_lane_norm``
        row = jp + jo + lv + av + [*p] + to + rays + offset
        return jp, jo, math.sqrt(away @ away), np.array(row) / self._obs_scale

    def _clamp(self, theta, action):
        """One lane's increment on the joint-angle floats ``theta``: the
        (dof,) ``action`` clipped to [-1, 1], scaled and added, then clamped
        to the joint limits, as ``_advance`` does on lane arrays.  Returns
        (joint angles, clamped)."""
        a = np.asarray(action, dtype=float).reshape(self.dof).tolist()
        proposed = [t + _clip(x, -1.0, 1.0) * self._max_step for t, x in zip(theta, a)]
        theta = [_clip(x, lo, hi) for x, lo, hi in zip(proposed, *self._limits)]
        return theta, any(x != t for x, t in zip(proposed, theta))

    def reset(self, thetas, goals, lanes=None) -> np.ndarray:
        """Start new episodes on ``lanes`` (every lane when None) from the
        rows of ``thetas`` and ``goals``; returns every lane's observation."""
        lanes = np.arange(self.lanes) if lanes is None else np.asarray(lanes)
        thetas = np.array(thetas, dtype=float).reshape(len(lanes), self.dof)
        goals = np.array(goals, dtype=float).reshape(len(lanes), 3)
        _, jp, jo, _, obs = self._walk(thetas, goals)
        self._theta[lanes], self._goal[lanes], self._steps[lanes] = thetas, goals, 0
        self._jp[lanes], self._jo[lanes] = jp, jo
        self._obs = self._obs.copy()          # the arrays step returned stay as they were
        self._obs[lanes] = obs
        return self._obs

    def _advance(self, actions):
        """The transition of (lanes, dof) increment actions: clamp, one chain
        walk, observation, goal distance and done rule.  Returns (chain walk,
        observations, distances, reached, dones, clamped), one row or entry
        per lane."""
        a = np.clip(np.asarray(actions, dtype=float).reshape(self.lanes, self.dof), -1.0, 1.0)
        proposed = self._theta + a * self._max_step
        theta = self.model.clamp(proposed)
        clamped = np.any(proposed != theta, axis=1)
        chain, jp, jo, away, obs = self._walk(theta, self._goal, (self._jp, self._jo))
        self._steps += 1
        d = _lane_norm(away)
        reached = d < self.cfg.target_radius
        done = reached | (self._steps >= self.cfg.episode_budget)
        self._theta, self._jp, self._jo, self._obs = theta, jp, jo, obs
        return chain, obs, d, reached, done, clamped

    def step(self, actions):
        """Apply (lanes, dof) increment actions; returns (observations,
        rewards, dones, info) with one row or entry per lane: the transition
        plus the collision verdict, manipulability and reward."""
        chain, obs, d, reached, done, clamped = self._advance(actions)
        axes, origins, _, _, p = chain
        col = np.reshape(collision_index_points(
            self.model, _frame_points_raw(origins, p), self.obstacles), -1)
        man = np.zeros(self.lanes)
        if np.any((col == 0) & (d >= self.cfg.target_radius)):
            man[:] = _normalized_manipulability_raw(self.model, axes, origins, p)
        info = {"collision": col, "distance": d, "clamped": clamped, "reached": reached}
        return obs, drl_reward(self.cfg, d, col, man), done, info


# ------------------------------------------------------------------ #
# Training
# ------------------------------------------------------------------ #
def train_drl(pairs, model: RobotModel, obstacles, env_cfg=None, ppo_cfg=None,
              seed=0, batches=40, *, start_witnesses, start_pool=None):
    """PPO over episodes whose start/goal are sampled from the bracket set.

    ``start_witnesses`` holds the witness of each pair's start pose, or None
    to leave the pair out.  An episode heads for its pair's goal position
    from that witness or, with probability ``explore_start_prob``, from a
    collision-free joint vector of ``start_pool`` (typically map witnesses);
    with none in the pool, every episode starts at its pair's witness.
    Starts scattered across the feasible region let value propagate backward
    through narrow passages that on-policy exploration rarely crosses.  Each
    batch of ``ppo_cfg.num_steps`` steps (a multiple of ``ROLLOUT_LANES``) is
    collected on ``ROLLOUT_LANES`` lane environments; episode starts are
    drawn per lane in lane order, and GAE runs per lane.  Returns (policy,
    value_net, curve) where curve rows are the per-batch update stats.
    Deterministic for a given seed.
    """
    if not pairs:
        raise ValueError("no infeasible segments: bridge training unnecessary")
    env_cfg = env_cfg or DrlEnvConfig()
    ppo_cfg = ppo_cfg or PpoConfig()
    if ppo_cfg.num_steps % ROLLOUT_LANES:
        raise ValueError(f"num_steps {ppo_cfg.num_steps} is not a multiple of "
                         f"the {ROLLOUT_LANES} rollout lanes")
    if len(start_witnesses) != len(pairs):
        raise ValueError(f"{len(start_witnesses)} start witnesses for {len(pairs)} pairs")
    goals = dq_translation(dq_to_lanes([goal for _, goal in pairs]))
    prepared = [(np.asarray(theta0, dtype=float), goal)
                for theta0, goal in zip(start_witnesses, goals) if theta0 is not None]
    rng = np.random.default_rng(seed)
    if not prepared:
        raise ValueError("no segment start pose has an IK witness")

    lanes = ROLLOUT_LANES
    env = DrlEnv(model, obstacles, env_cfg, lanes)
    policy = GaussianPolicy(state_dim(model.dof), model.dof, rng=rng)
    value_net = ValueNet(state_dim(model.dof), rng=rng)

    pool = np.asarray([] if start_pool is None else start_pool, dtype=float)
    pool = pool.reshape(-1, model.dof)
    pool = pool[collision_index_lanes(model, pool, obstacles) == 0]

    def episode_start():
        theta0, goal = prepared[int(rng.integers(len(prepared)))]
        if rng.random() < env_cfg.explore_start_prob and len(pool):
            return pool[int(rng.integers(len(pool)))], goal
        return theta0, goal

    def episode_starts(count):
        thetas, goals = zip(*[episode_start() for _ in range(count)])
        return np.array(thetas), np.array(goals)

    obs = env.reset(*episode_starts(lanes))
    steps = ppo_cfg.num_steps // lanes
    curve = []
    for b in range(batches):
        obs_buf = np.zeros((steps, lanes, state_dim(model.dof)))
        act_buf = np.zeros((steps, lanes, model.dof))
        logp_buf = np.zeros((steps, lanes))
        rew_buf = np.zeros((steps, lanes))
        done_buf = np.zeros((steps, lanes))
        reached = 0
        episodes = 0
        for t in range(steps):
            action, logp = policy.act(obs, rng)
            obs_buf[t] = obs
            act_buf[t] = action          # raw action: the log-prob must match
            logp_buf[t] = logp
            obs, rew_buf[t], done, info = env.step(action)
            done_buf[t] = done
            ends = np.flatnonzero(done)
            if len(ends):
                reached += int(np.sum(info["reached"][ends]))
                episodes += len(ends)
                obs = env.reset(*episode_starts(len(ends)), lanes=ends)
        batch = RolloutBatch(obs_buf, act_buf, logp_buf, rew_buf, done_buf, obs)
        stats = ppo_update(policy, value_net, batch, ppo_cfg, rng)
        stats["epoch"] = b
        stats["reach_rate"] = reached / max(episodes, 1)
        curve.append(stats)
    return policy, value_net, curve


# ------------------------------------------------------------------ #
# Online bridging
# ------------------------------------------------------------------ #
def plan_drl(policy, model: RobotModel, obstacles, start, goal, env_cfg=None, *,
             theta0) -> JointTrajectory:
    """Bridge one infeasible gap from ``theta0``, the witness of its start
    pose (``start`` is not read), with mean actions; returns the annotated
    joint trajectory.  Budget exhaustion returns the best-effort trajectory
    with success=False.  The policy acts through the environment's transition
    alone; the rows' collision verdicts and manipulability come from one
    ``score_lanes`` call.  A NaN or infinite ``theta0`` is refused.
    """
    theta = np.asarray(theta0, dtype=float).tolist()
    if not all(map(math.isfinite, theta)):
        raise ValueError(f"theta0 {theta} is not finite")
    env_cfg = env_cfg or DrlEnvConfig()
    env = DrlEnv(model, obstacles, env_cfg)
    goal_pos = dq_translation(dq_to_lanes(goal)).tolist()
    thetas = [theta]
    jp, jo, d, obs = env._observe(theta, goal_pos)
    success = d < env_cfg.target_radius
    while not success:
        theta, _ = env._clamp(theta, policy.mean_action(obs))
        jp, jo, d, obs = env._observe(theta, goal_pos, (jp, jo))
        thetas.append(theta)
        success = d < env_cfg.target_radius
        if len(thetas) > env_cfg.episode_budget:       # the budget of steps is spent
            break
    thetas = np.array(thetas)
    return JointTrajectory(thetas, np.full(len(thetas), SOURCE_DRL, dtype=np.uint8),
                           *score_lanes(model, thetas, obstacles), success)
