"""Joint-space feasibility-aware policy-gradient planner.

Trains on the infeasible bracket pairs harvested from task-space plans and
bridges each gap with a joint trajectory.  Actions are per-joint increment
commands in [-1, 1]; the reward blends goal distance with a graded
feasibility term (normalized manipulability when collision-free, a fixed
penalty otherwise).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from hybridplan.dualquat import DualQuaternion, quat_to_euler
from hybridplan.geometry import collision_index, ray_bundle
from hybridplan.kinematics import (
    RobotModel,
    ee_state,
    fk_frames,
    normalized_manipulability,
    normalized_manipulability_lanes,
)
from hybridplan.rl_core import (
    GaussianPolicy,
    PpoConfig,
    RolloutBatch,
    ValueNet,
    ppo_update,
    save_checkpoint,
)
from hybridplan.trajectory import SOURCE_DRL, JointTrajectory

STATE_LAYOUT_VERSION = "drl-v1-goalrel"


@dataclass
class DrlEnvConfig:
    target_radius: float = 0.25      # meters; the paper's training tolerance
    max_step_deg: float = 5.0        # per-joint increment bound per step
    step_time: float = 0.05          # seconds, for finite-difference velocities
    ray_range: float = 2.0
    episode_budget: int = 300
    collision_penalty: float = -1.0
    reward_mode: str = "feasibility"   # or "distance" (ablation baseline)
    # the manipulability term enters as fea_weight * (man' - man_baseline)
    # while the collision penalty stays at full strength.  With the defaults
    # the graded term is man' itself; benchmark scenes use baseline 1 so the
    # term is a shortfall penalty, otherwise hovering just outside the target
    # ball can out-pay terminating (recorded in run metadata)
    fea_weight: float = 1.0
    man_baseline: float = 0.0
    # fraction of training episodes started from a random collision-free
    # configuration instead of a bracket start; narrow passages are rarely
    # crossed by on-policy exploration alone
    explore_start_prob: float = 0.5


def state_dim(dof: int) -> int:
    # JP, JO, LV, AV (3*dof each) + TP, TO (3 each) + 25 rays + goal offset
    return 12 * dof + 6 + 25 + 3


def layout_hash(model: RobotModel) -> str:
    return f"{STATE_LAYOUT_VERSION}:dof={model.dof}"


def drl_reward(model: RobotModel, theta, ee_pos, goal_pos, cfg: DrlEnvConfig,
               col: int) -> tuple:
    """(reward, distance, done).  Inside the target ball the reward is the
    fixed in-region bonus; outside it is graded feasibility minus distance."""
    d = float(np.linalg.norm(ee_pos - goal_pos))
    if d < cfg.target_radius:
        return 0.1, d, True
    if cfg.reward_mode == "distance":
        return -d, d, False
    if col:
        return cfg.collision_penalty - d, d, False
    grade = normalized_manipulability(model, theta) - cfg.man_baseline
    return cfg.fea_weight * grade - d, d, False


def ik_free(model: RobotModel, pose, obstacles, rng, attempts=10,
            tol_pos=1e-3, tol_rot=1e-2):
    """IK preferring a collision-free witness; falls back to any solution."""
    fallback = None
    seed = model.home
    lo, hi = model.limits_lo, model.limits_hi
    from hybridplan.kinematics import ik_attempt
    for k in range(attempts):
        sol = ik_attempt(model, pose, seed, tol_pos, tol_rot, max_iters=150)
        if sol is not None:
            if collision_index(model, sol, obstacles) == 0:
                return sol
            if fallback is None:
                fallback = sol
        seed = rng.uniform(lo, hi)
    return fallback


class DrlEnv:
    """Kinematic stepping environment over one (start, goal) bracket pair.

    Observations are scaled by fixed per-block constants (reach for
    positions, pi for angles, the ray range for rays) so every block is
    O(1) for the policy network.
    """

    def __init__(self, model: RobotModel, obstacles, cfg: DrlEnvConfig):
        self.model = model
        self.obstacles = list(obstacles)
        self.cfg = cfg
        self.dof = model.dof
        self._theta = None
        self._jp = None                  # joint frames at the current theta
        self._jo = None
        self._prev_jp = None
        self._prev_jo = None
        self.goal_pos = None
        self.steps = 0
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
            np.full(25, cfg.ray_range),         # rays
            np.full(3, self._reach),            # goal offset
        ])

    def _joint_frames(self):
        origins, rots = fk_frames(self.model, self._theta)
        return origins.ravel(), quat_to_euler(rots.T).T.ravel()

    def observe(self) -> np.ndarray:
        jp, jo = self._jp, self._jo
        lv = (jp - self._prev_jp) / self.cfg.step_time
        d_ang = (jo - self._prev_jo + np.pi) % (2 * np.pi) - np.pi  # wrap-safe
        av = d_ang / self.cfg.step_time
        q, p = ee_state(self.model, self._theta)
        to = quat_to_euler(q)
        rays = ray_bundle(self.model, self._theta, self.obstacles, self.cfg.ray_range)
        raw = np.concatenate([jp, jo, lv, av, p, to, rays, self.goal_pos - p])
        return raw / self._obs_scale

    def reset(self, theta0, goal_pos) -> np.ndarray:
        self._theta = np.asarray(theta0, dtype=float).copy()
        self.goal_pos = np.asarray(goal_pos, dtype=float)
        self._jp, self._jo = self._joint_frames()
        self._prev_jp, self._prev_jo = self._jp, self._jo
        self.steps = 0
        return self.observe()

    @property
    def theta(self) -> np.ndarray:
        return self._theta.copy()

    def step(self, action):
        """Apply increment action; returns (state, reward, done, info)."""
        a = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
        delta = a * np.radians(self.cfg.max_step_deg)
        proposed = self._theta + delta
        self._theta = self.model.clamp(proposed)
        clamped = bool(np.any(proposed != self._theta))
        self._prev_jp, self._prev_jo = self._jp, self._jo
        self._jp, self._jo = self._joint_frames()
        self.steps += 1
        col = collision_index(self.model, self._theta, self.obstacles)
        q, p = ee_state(self.model, self._theta)
        reward, d, reached = drl_reward(self.model, self._theta, p,
                                        self.goal_pos, self.cfg, col)
        done = reached or self.steps >= self.cfg.episode_budget
        info = {"collision": col, "distance": d, "clamped": clamped,
                "reached": reached}
        return self.observe(), reward, done, info


# ------------------------------------------------------------------ #
# Segment pairs (harvested infeasible brackets)
# ------------------------------------------------------------------ #
def save_segments(pairs, path) -> None:
    """One line per (start pose, goal pose) pair: 16 scalars."""
    with open(path, "w") as fh:
        for start, goal in pairs:
            vals = np.concatenate([start.as_array(), goal.as_array()])
            fh.write(" ".join("%.17g" % v for v in vals) + "\n")


def load_segments(path) -> list:
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = np.array([float(t) for t in line.split()])
            if vals.shape != (16,):
                raise ValueError("segment line must carry 16 scalars")
            pairs.append((DualQuaternion.from_array(vals[:8]),
                          DualQuaternion.from_array(vals[8:])))
    return pairs


# ------------------------------------------------------------------ #
# Training
# ------------------------------------------------------------------ #
def _prepare_pairs(pairs, model, obstacles, rng, witnesses=None):
    """IK the start poses once (collision-free witness preferred); drops
    pairs whose start has no witness at all.  ``witnesses`` optionally gives
    a known-good joint vector per pair (e.g. from the feasibility map)."""
    prepared = []
    for k, (start, goal) in enumerate(pairs):
        theta0 = None
        if witnesses is not None and witnesses[k] is not None:
            theta0 = np.asarray(witnesses[k], dtype=float)
        if theta0 is None:
            theta0 = ik_free(model, start, obstacles, rng)
        if theta0 is None:
            continue
        prepared.append((theta0, goal.translation()))
    return prepared


def train_drl(pairs, model: RobotModel, obstacles, env_cfg=None, ppo_cfg=None,
              seed=0, batches=40, hidden=(64, 64), stats_path=None,
              progress=None, start_witnesses=None, start_pool=None):
    """PPO over episodes whose start/goal are sampled from the bracket set.

    ``start_pool`` optionally provides extra episode-start joint vectors
    (typically feasibility-map witnesses); starting a fraction of episodes
    from states scattered across the feasible region lets value propagate
    backward through narrow passages that on-policy exploration rarely
    crosses.  Returns (policy, value_net, curve) where curve rows are the
    per-batch update stats.  Deterministic for a given seed.
    """
    if not pairs:
        raise ValueError("no infeasible segments: bridge training unnecessary")
    env_cfg = env_cfg or DrlEnvConfig()
    ppo_cfg = ppo_cfg or PpoConfig()
    rng = np.random.default_rng(seed)
    prepared = _prepare_pairs(pairs, model, obstacles, rng, start_witnesses)
    if not prepared:
        raise ValueError("no segment start pose has an IK witness")

    env = DrlEnv(model, obstacles, env_cfg)
    policy = GaussianPolicy(state_dim(model.dof), model.dof, hidden, rng)
    value_net = ValueNet(state_dim(model.dof), hidden, rng)

    lo, hi = model.limits_lo, model.limits_hi
    pool = None
    if start_pool is not None and len(start_pool):
        pool = [np.asarray(p, dtype=float) for p in start_pool
                if collision_index(model, np.asarray(p, dtype=float), obstacles) == 0]

    def episode_start():
        theta0, goal = prepared[int(rng.integers(len(prepared)))]
        if rng.random() < env_cfg.explore_start_prob:
            if pool:
                return pool[int(rng.integers(len(pool)))], goal
            for _ in range(20):
                cand = rng.uniform(lo, hi)
                if collision_index(model, cand, obstacles) == 0:
                    return cand, goal
        return theta0, goal

    theta0, goal = episode_start()
    obs = env.reset(theta0, goal)
    curve = []
    for b in range(batches):
        T = ppo_cfg.num_steps
        obs_buf = np.zeros((T, state_dim(model.dof)))
        act_buf = np.zeros((T, model.dof))
        logp_buf = np.zeros(T)
        rew_buf = np.zeros(T)
        done_buf = np.zeros(T)
        reached = 0
        episodes = 0
        for t in range(T):
            action, logp = policy.act(obs, rng)
            nxt, reward, done, info = env.step(action)
            obs_buf[t] = obs
            act_buf[t] = action          # raw action: the log-prob must match
            logp_buf[t] = logp
            rew_buf[t] = reward
            done_buf[t] = float(done)
            obs = nxt
            if done:
                reached += int(info["reached"])
                episodes += 1
                theta0, goal = episode_start()
                obs = env.reset(theta0, goal)
        batch = RolloutBatch(obs_buf, act_buf, logp_buf, rew_buf, done_buf, obs)
        stats = ppo_update(policy, value_net, batch, ppo_cfg, rng)
        stats["epoch"] = b
        stats["reach_rate"] = reached / max(episodes, 1)
        curve.append(stats)
        if progress:
            progress(stats)
    if stats_path:
        with open(stats_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "mean_reward", "clip_frac", "reach_rate"])
            for row in curve:
                writer.writerow([row["epoch"], "%.6g" % row["mean_reward"],
                                 "%.6g" % row["clip_frac"],
                                 "%.6g" % row["reach_rate"]])
    return policy, value_net, curve


def save_drl_checkpoint(path, policy, value_net, model, env_cfg, extra=None):
    meta = {"layout": layout_hash(model), "dof": model.dof,
            "target_radius": env_cfg.target_radius,
            "max_step_deg": env_cfg.max_step_deg,
            "reward_mode": env_cfg.reward_mode}
    meta.update(extra or {})
    save_checkpoint(path, policy, value_net, meta)


def check_layout(meta: dict, model: RobotModel) -> None:
    if meta.get("layout") != layout_hash(model):
        raise ValueError(
            f"checkpoint layout {meta.get('layout')!r} does not match "
            f"{layout_hash(model)!r}")


# ------------------------------------------------------------------ #
# Online bridging
# ------------------------------------------------------------------ #
def plan_drl(policy, model: RobotModel, obstacles, start: DualQuaternion,
             goal: DualQuaternion, env_cfg=None, seed=0, theta0=None,
             stochastic=False) -> JointTrajectory:
    """Bridge one infeasible gap; returns the annotated joint trajectory.

    The start pose must have an IK witness (it bracketed a feasible segment).
    Budget exhaustion returns the best-effort trajectory with success=False.
    """
    env_cfg = env_cfg or DrlEnvConfig()
    rng = np.random.default_rng(seed)
    if theta0 is None:
        theta0 = ik_free(model, start, obstacles, rng)
        if theta0 is None:
            raise ValueError("start pose has no IK witness")
    env = DrlEnv(model, obstacles, env_cfg)
    goal_pos = goal.translation()
    obs = env.reset(theta0, goal_pos)
    thetas = [env.theta]
    cols = [collision_index(model, theta0, obstacles)]
    success = bool(np.linalg.norm(ee_state(model, theta0)[1] - goal_pos)
                   < env_cfg.target_radius)
    while not success:
        if stochastic:
            action, _ = policy.act(obs, rng)
        else:
            action = policy.mean_action(obs)
        obs, _, done, info = env.step(action)
        thetas.append(env.theta)
        cols.append(info["collision"])
        if done:
            success = info["reached"]
            break
    k = len(thetas)
    thetas = np.array(thetas)
    return JointTrajectory(thetas, np.full(k, SOURCE_DRL, dtype=np.uint8),
                           normalized_manipulability_lanes(model, thetas),
                           np.array(cols, dtype=np.uint8),
                           success, meta={"goal_distance": info["distance"] if k > 1 else 0.0})


def evaluate_policy(policy, pairs, model, obstacles, env_cfg=None, seed=0,
                    episodes=50, stochastic=True):
    """Success rate and mean feasibility-shaped return over bracket pairs.

    The shaped-return metric is computed with the feasibility grading for any
    policy, so feasibility-trained and distance-trained agents share a
    yardstick.
    """
    env_cfg = env_cfg or DrlEnvConfig()
    metric_cfg = DrlEnvConfig(**{**env_cfg.__dict__, "reward_mode": "feasibility"})
    rng = np.random.default_rng(seed)
    prepared = _prepare_pairs(pairs, model, obstacles, rng)
    env = DrlEnv(model, obstacles, metric_cfg)
    wins = 0
    returns = []
    for _ in range(episodes):
        theta0, goal = prepared[int(rng.integers(len(prepared)))]
        obs = env.reset(theta0, goal)
        total = 0.0
        collided = False
        done = False
        info = {"reached": False}
        while not done:
            if stochastic:
                action, _ = policy.act(obs, rng)
            else:
                action = policy.mean_action(obs)
            obs, reward, done, info = env.step(action)
            total += reward
            collided = collided or bool(info["collision"])
        wins += int(info["reached"] and not collided)
        returns.append(total)
    return wins / episodes, float(np.mean(returns))
