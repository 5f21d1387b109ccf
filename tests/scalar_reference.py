"""One-at-a-time references for the lane code of the library.

* One pose: ``quat_normalize``, ``quat_from_axis_angle``,
  ``quat_from_euler``, ``from_pose``, ``fk`` and ``translation`` work on
  numpy arrays and scalars (``np.linalg.norm``, ``np.cos``,
  ``np.concatenate``, ``quat_mul``); the library works one pose on Python
  floats, with the same operations in the same order.
* Dual-quaternion products: ``dq_mul_lanes_by_components`` runs ``_qmul`` on
  the stacked component arrays of a dual product's three quaternion products;
  the library's ``dq_mul_lanes`` gathers their terms from sign tables and sums
  them in one reduction.
* LfD: ScLERP, arc-length resampling, features, retargeting, the HRL
  reward and the HRL task jitter written pose by pose with
  ``DualQuaternion`` objects; the library computes the same quantities on
  (N, 8) lanes.
* Plan retargeting: ``plan_poses_per_gap`` slices and retargets one waypoint
  gap at a time, each with its own lane calls; the library's ``plan_lfd``
  retargets every gap of a plan with one set of lane calls.
* DRL: ``ScalarDrlEnv``, the one-configuration environment that steps one
  episode and evaluates each quantity with its own kernel call (six chain
  walks a step); ``DrlEnv`` steps N episodes as lanes from one chain walk.
  ``plan_drl`` steps a bridge through the full ``DrlEnv.step`` on one lane
  of arrays and keeps each step's collision verdict; the library runs the
  transition alone on Python floats and annotates the rows in one lane
  call.
* Chained IK candidates: ``lfd_joint_candidates`` as one inline restart
  loop per pose that checks every solution for collision; the library's
  ``lfd_joint_candidates`` runs that chain in ``_chained_ik_free``, and only
  on arms without closed-form branches.
* Branch choice: ``lfd_joint_candidates_by_enumeration`` tries every
  sequence of closed-form branches of a plan and keeps the one with the
  smallest largest joint step, then the smallest summed step, then the
  lowest branch indices from the last pose back; the library's
  ``lfd_joint_candidates`` finds it with a Viterbi pass per criterion.
* Map lookups: ``locate`` walks one pose's axes in Python loops; the
  library's ``FeasibilityMap.locate_lanes`` bins N poses in array passes.
* Execution scoring: ``execute`` scans the points for each critical
  configuration with ``pose_hit``, one scalar end-effector state per point;
  the library scores every point from one lane walk.
* Joint-path edges: ``blend``, ``densify`` and ``checked_configs`` (the
  library's ``workcell._checked_configs``) split one edge at a time and append
  one inserted point at a time; the library splits every edge of a path in
  one ``trajectory.subdivide`` call.
* PPO optimizer: ``Adam`` and ``clip_gradients`` loop over a net's
  parameter tensors one at a time; the library runs each once on the net's
  flat parameter and gradient vectors.
* Ray casting: ``raycast_many`` intersects the rays with one box at a time
  and masks each 0/0 slab with its own ``isnan`` pass; the library's
  ``geometry.raycast_many`` runs one axis-first slab pass over every box and
  divides parallel components by +0.0.  ``raycast``
  casts one ray.
* Capsule pairs: ``segment_segment_distance`` is Ericson's closest distance
  between two segments on numpy 3-vectors, one pair and one branch at a
  time; the library's ``geometry._segment_segment_lanes``, which both
  collision checks call, computes every branch over rows and selects one
  per row.
* Collision broad phase: ``without_broad_phase`` runs a check of the
  library with every capsule-box and capsule-capsule pair sent to the exact
  distance.

``serialize_tables`` writes HRL Q-tables as record lines, the text whose
SHA-256 the HRL tests pin.

The tests compare the two."""
import itertools

import numpy as np

from hybridplan import lfd, records
from hybridplan.dualquat import (
    DualQuaternion,
    _qmul,
    dq_conjugate_lanes,
    dq_mul,
    dq_mul_lanes,
    dq_sclerp_lanes,
    dq_to_lanes,
    quat_mul,
    quat_to_euler,
    quat_to_matrix,
)
from hybridplan.drl_planner import DrlEnv
from hybridplan import geometry
from hybridplan.geometry import collision_index, collision_index_lanes, ray_bundle
from hybridplan.hrl_planner import QTables, SENTINEL
from hybridplan.kinematics import (
    _chain_eval,
    closed_form_branches,
    ee_state,
    fk_frames,
    ik_attempt,
    normalized_manipulability,
)
from hybridplan.lfd import BETA_RESAMPLE, DELTA_BETA, Demonstration
from hybridplan.trajectory import SOURCE_DRL, SOURCE_LFD, JointTrajectory, edge_steps
from hybridplan.workcell import COLLISION_RES_DEG, SMOOTH_BOUND_DEG, ExecutionReport


_LEFT, _RIGHT = np.array([0, 0, 1]), np.array([0, 1, 0])


def manipulability_rows(model, thetas) -> np.ndarray:
    """``normalized_manipulability`` of every row of an (N, dof) array, one
    scalar call per row."""
    return np.array([normalized_manipulability(model, t) for t in thetas], dtype=float)


def quat_normalize(q) -> np.ndarray:
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("degenerate rotation")
    return q / n


def quat_from_axis_angle(axis, angle) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("degenerate rotation")
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / n))


def quat_from_euler(roll, pitch, yaw) -> np.ndarray:
    qx = quat_from_axis_angle(np.array([1.0, 0, 0]), roll)
    qy = quat_from_axis_angle(np.array([0, 1.0, 0]), pitch)
    qz = quat_from_axis_angle(np.array([0, 0, 1.0]), yaw)
    return quat_mul(qz, quat_mul(qy, qx))


def from_pose(position, rotation) -> DualQuaternion:
    """``DualQuaternion.from_pose``: a quaternion, or an (axis, angle) tuple."""
    if isinstance(rotation, tuple):
        q_r = quat_from_axis_angle(np.asarray(rotation[0]), rotation[1])
    else:
        q_r = quat_normalize(np.asarray(rotation, dtype=float))
    position = np.asarray(position, dtype=float)
    q_t = np.array([0.0, position[0], position[1], position[2]])
    return DualQuaternion(q_r, 0.5 * quat_mul(q_t, q_r))


def fk(model, theta) -> DualQuaternion:
    _, _, _, q, p = _chain_eval(model, np.asarray(theta, dtype=float))
    return from_pose(np.array(p), np.array(q))


def translation(pose) -> np.ndarray:
    """``dq_translation`` of one 8-vector, on its numpy scalars."""
    rw, rx, ry, rz, dw, dx, dy, dz = np.asarray(pose).T
    _, tx, ty, tz = _qmul(dw, dx, dy, dz, rw, -rx, -ry, -rz)
    return 2.0 * np.array((tx, ty, tz)).T


def dq_mul_lanes_by_components(a, b) -> np.ndarray:
    """``dq_mul`` over (N, 8) lanes, a single 8-vector on either side
    broadcasting: the products real*real, real*dual and dual*real as one
    ``_qmul`` over a stacked axis."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape[:-1]
    left = a.reshape(shape + (2, 4))[..., _LEFT, :].T
    right = b.reshape(shape + (2, 4))[..., _RIGHT, :].T
    prod = np.array(_qmul(*left, *right))
    out = np.empty(shape + (8,))
    out[..., :4] = prod[:, 0].T
    out[..., 4:] = (prod[:, 1] + prod[:, 2]).T
    return out


def drift(poses) -> float:
    """The largest drift from a unit dual quaternion over ``poses`` (a
    ``DualQuaternion``, an 8-vector or (N, 8) lanes): per pose the larger of
    | |real| - 1 | and |real . dual|."""
    rows = np.reshape(dq_to_lanes(poses), (-1, 8))
    real, dual = rows[:, :4], rows[:, 4:]
    return float(np.max(np.maximum(np.abs(np.linalg.norm(real, axis=1) - 1.0),
                                   np.abs(np.sum(real * dual, axis=1))), initial=0.0))


def screw_power(rel: DualQuaternion, u: float) -> DualQuaternion:
    """rel^u along the screw axis of rel (rel assumed unit, real.w >= 0)."""
    w = np.clip(rel.real[0], -1.0, 1.0)
    v = rel.real[1:]
    sin_half = np.linalg.norm(v)
    t = rel.translation()
    if sin_half < 1e-9:
        # pure translation: linear in the translation vector
        return DualQuaternion.from_translation(u * t)
    angle = 2.0 * np.arctan2(sin_half, w)
    axis = v / sin_half
    d = float(np.dot(t, axis))            # pitch translation along the axis
    t_perp = t - d * axis
    # point on the screw axis: (I - R) c = t_perp
    c = 0.5 * (t_perp + np.cross(axis, t_perp) / np.tan(0.5 * angle))
    q_new = quat_from_axis_angle(axis, u * angle)
    r_new = quat_to_matrix(q_new)
    t_new = c - r_new @ c + (u * d) * axis
    return DualQuaternion.from_pose(t_new, q_new)


def unannotated(points) -> JointTrajectory:
    """A joint trajectory of ``points`` (one point or (k, dof)) with zero
    annotations: every point LFD-sourced, with man 0 and col 0."""
    k = len(np.atleast_2d(points))
    return JointTrajectory(points, np.full(k, SOURCE_LFD, np.uint8), np.zeros(k),
                           np.zeros(k, np.uint8))


def negated(d: DualQuaternion) -> DualQuaternion:
    """``d`` with both parts negated: the same pose, on the other cover."""
    return DualQuaternion(-d.real, -d.dual)


def sclerp(a: DualQuaternion, b: DualQuaternion, u: float) -> DualQuaternion:
    """Screw linear interpolation from a (u=0) to b (u=1)."""
    if np.dot(a.real, b.real) < 0.0:
        b = negated(b)  # antipodal real parts: take the shorter screw
    rel = dq_mul(a.conjugate(), b)
    if rel.real[0] < 0.0:
        rel = negated(rel)
    return dq_mul(a, screw_power(rel, float(u)))


def chordal_distance(a: DualQuaternion, b: DualQuaternion) -> float:
    va, vb = a.as_array(), b.as_array()
    if np.dot(va[:4], vb[:4]) < 0.0:
        vb = -vb
    return float(np.linalg.norm(va - vb))


def extract_features(poses) -> list:
    last = poses[-1]
    return [dq_mul(p.conjugate(), last) for p in poses[:-1]]


def arc_params(poses):
    gaps = [chordal_distance(poses[i], poses[i + 1]) for i in range(len(poses) - 1)]
    total = float(np.sum(gaps))
    if total < 1e-12:
        return None
    cum = np.concatenate([[0.0], np.cumsum(gaps)]) / total
    cum[-1] = 1.0
    return cum


def sample_sequence(poses, params, u) -> DualQuaternion:
    """Pose at normalized arc parameter u via piecewise screw interpolation."""
    if len(poses) == 1:
        return poses[0]
    u = float(np.clip(u, 0.0, 1.0))
    k = int(np.searchsorted(params, u, side="right") - 1)
    k = min(max(k, 0), len(poses) - 2)
    span = params[k + 1] - params[k]
    if span < 1e-15:
        return poses[k]
    local = (u - params[k]) / span
    if local <= 0.0:
        return poses[k]
    if local >= 1.0:
        return poses[k + 1]
    return sclerp(poses[k], poses[k + 1], local)


def resample(poses, n_out) -> list:
    params = arc_params(poses)
    if params is None:
        return [poses[0]] * n_out
    return [sample_sequence(poses, params, u) for u in np.linspace(0.0, 1.0, n_out)]


def feature_distance_terms(a, b) -> np.ndarray:
    ra = resample(list(a), BETA_RESAMPLE)
    rb = resample(list(b), BETA_RESAMPLE)
    return np.array([chordal_distance(x, y) for x, y in zip(ra, rb)])


def intrinsic_reward(skill_poses, segment_poses) -> float:
    terms = feature_distance_terms(extract_features(list(skill_poses)),
                                   extract_features(list(segment_poses)))
    if np.any(terms > DELTA_BETA):
        return SENTINEL
    return float(-np.sum(terms))


def jitter_pose(pose: DualQuaternion, cfg, rng) -> DualQuaternion:
    """One pose of ``train_hrl``'s task jitter: three offset draws, one angle."""
    amp = np.asarray(cfg.jitter_pos)
    dp = rng.uniform(-amp, amp)
    ang = rng.uniform(-cfg.jitter_rot, cfg.jitter_rot)
    spin = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), ang)
    pos, rot = pose.translation(), pose.real
    return DualQuaternion.from_pose(pos + dp, quat_mul(spin, rot))


def retarget(skill_poses, start, goal, n_out) -> list:
    skill_poses = list(skill_poses)
    params = arc_params(skill_poses)
    if params is None:
        return [start] * n_out
    us = params if n_out == len(skill_poses) else np.linspace(0.0, 1.0, n_out)
    base = [sample_sequence(skill_poses, params, u) for u in us]
    g = dq_mul(start, base[0].conjugate())
    aligned = [dq_mul(g, b) for b in base]
    residual = dq_mul(aligned[-1].conjugate(), goal)
    identity = DualQuaternion.identity()
    return [dq_mul(b, sclerp(identity, residual, float(u))) for b, u in zip(aligned, us)]


def slice_skill(skill_poses, u_lo, u_hi, n) -> list:
    skill_poses = list(skill_poses)
    params = arc_params(skill_poses)
    if params is None:
        return skill_poses
    return [sample_sequence(skill_poses, params, u) for u in np.linspace(u_lo, u_hi, max(n, 2))]


def retarget_through(skill: Demonstration, waypoints, points_per_gap: int) -> list:
    n_gaps = len(waypoints) - 1
    out = []
    for g in range(n_gaps):
        piece = slice_skill(skill.poses, g / n_gaps, (g + 1) / n_gaps,
                            max(3, len(skill.poses) // n_gaps))
        traj = retarget(piece, waypoints[g], waypoints[g + 1], points_per_gap)
        out.extend(traj[1:] if g > 0 else traj)
    return out


# ------------------------------------------------------------------ #
# Retargeting one waypoint gap at a time, on lanes
# ------------------------------------------------------------------ #
_IDENTITY = DualQuaternion.identity().as_array()


def arc_params_lanes(lanes):
    gaps = lfd.chordal_distance(lanes[:-1], lanes[1:])
    total = float(np.sum(gaps))
    if total < 1e-12:
        return None
    cum = np.concatenate([[0.0], np.cumsum(gaps)]) / total
    cum[-1] = 1.0
    return cum


def sample_lanes(lanes, params, us) -> np.ndarray:
    us = np.clip(np.asarray(us, dtype=float), 0.0, 1.0)
    if len(lanes) == 1:
        return np.repeat(lanes, len(us), axis=0)
    k = np.clip(np.searchsorted(params, us, side="right") - 1, 0, len(lanes) - 2)
    span = params[k + 1] - params[k]
    ok = span >= 1e-15
    local = (us - params[k]) / np.where(ok, span, 1.0)
    out = np.where((ok & (local >= 1.0))[:, None], lanes[k + 1], lanes[k])
    inner = ok & (local > 0.0) & (local < 1.0)
    if np.any(inner):
        ki = k[inner]
        out[inner] = dq_sclerp_lanes(lanes[ki], lanes[ki + 1], local[inner])
    return out


def retarget_lanes(skill: Demonstration, start, goal, n_out) -> list:
    """One gap's retarget with its own lane calls."""
    if n_out < 2:
        raise ValueError("n_out must be at least 2")
    params = arc_params_lanes(skill.lanes)
    if params is None:
        if lfd.chordal_distance(start, goal) > 1e-9:
            raise ValueError("skill/task displacement mismatch: constant-pose "
                             "skill cannot span distinct start and goal")
        return [start] * n_out
    us = params if n_out == len(skill.poses) else np.linspace(0.0, 1.0, n_out)
    base = sample_lanes(skill.lanes, params, us)
    g = dq_mul_lanes(start.as_array(), dq_conjugate_lanes(base[0]))
    aligned = dq_mul_lanes(g, base)
    residual = dq_mul_lanes(dq_conjugate_lanes(aligned[-1]), goal.as_array())
    corr = dq_sclerp_lanes(_IDENTITY, residual, us)
    return [DualQuaternion.from_array(row) for row in dq_mul_lanes(aligned, corr)]


def slice_skill_lanes(skill: Demonstration, u_lo, u_hi, n) -> Demonstration:
    params = arc_params_lanes(skill.lanes)
    if params is None:
        return skill
    us = np.linspace(u_lo, u_hi, max(n, 2))
    return Demonstration(skill.id, [DualQuaternion.from_array(row)
                                    for row in sample_lanes(skill.lanes, params, us)])


def retarget_through_per_gap(skill: Demonstration, waypoints, points_per_gap: int) -> list:
    """Each gap sliced into a ``Demonstration`` and retargeted on its own."""
    n_gaps = len(waypoints) - 1
    out = []
    for g in range(n_gaps):
        piece = slice_skill_lanes(skill, g / n_gaps, (g + 1) / n_gaps,
                                  max(3, len(skill.poses) // n_gaps))
        traj = retarget_lanes(piece, waypoints[g], waypoints[g + 1], points_per_gap)
        out.extend(traj[1:] if g > 0 else traj)
    return out


def plan_poses_per_gap(task, library, segments, points_per_gap: int) -> tuple:
    """(poses, ranges) of ``plan_lfd`` for the chosen (segment, skill id)
    pairs, one segment and one gap at a time."""
    poses, ranges = [], []
    for (a, b), skill_id in segments:
        traj = retarget_through_per_gap(library[skill_id], task.configs[a:b + 1],
                                        points_per_gap)
        start_at = len(poses)
        if poses:
            traj = traj[1:]
            start_at -= 1
        poses.extend(traj)
        ranges.append((start_at, len(poses) - 1))
    return poses, ranges


# ------------------------------------------------------------------ #
# DRL: the one-configuration environment
# ------------------------------------------------------------------ #
def drl_reward(model, theta, ee_pos, goal_pos, cfg, col) -> tuple:
    """(reward, distance, done).  Inside the target ball the reward is the
    fixed in-region bonus; outside it is graded feasibility minus distance."""
    d = float(np.linalg.norm(ee_pos - goal_pos))
    if d < cfg.target_radius:
        return 0.1, d, True
    if col:
        return cfg.collision_penalty - d, d, False
    grade = normalized_manipulability(model, theta) - cfg.man_baseline
    return grade - d, d, False


class ScalarDrlEnv:
    """Kinematic stepping environment over one (start, goal) bracket pair."""

    def __init__(self, model, obstacles, cfg):
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
            np.full(25, geometry.RAY_RANGE),    # rays
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
        rays = ray_bundle(self.model, self._theta, self.obstacles)
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


def plan_drl(policy, model, obstacles, goal, env_cfg, theta0):
    """The bridge of ``drl_planner.plan_drl`` (greedy policy, given start)
    stepped through the full ``DrlEnv.step``, each row's collision verdict
    taken from the step that reached it."""
    env = DrlEnv(model, obstacles, env_cfg)
    goal_pos = goal.translation()
    obs = env.reset(theta0, goal_pos)[0]
    thetas = [env._theta[0]]
    cols = [collision_index(model, theta0, obstacles)]
    success = bool(np.linalg.norm(ee_state(model, theta0)[1] - goal_pos)
                   < env_cfg.target_radius)
    while not success:
        obs, _, done, info = env.step(policy.mean_action(obs))
        obs = obs[0]
        thetas.append(env._theta[0])
        cols.append(info["collision"][0])
        if done[0]:
            success = bool(info["reached"][0])
            break
    thetas = np.array(thetas)
    return JointTrajectory(thetas, np.full(len(thetas), SOURCE_DRL, dtype=np.uint8),
                           manipulability_rows(model, thetas),
                           np.array(cols, dtype=np.uint8),
                           success)


# ------------------------------------------------------------------ #
# Chained IK candidates: every restart, every collision check
# ------------------------------------------------------------------ #
def lfd_joint_candidates(poses, model, obstacles, seed=0):
    """Chained IK of the task-space plan, six attempts a pose."""
    rng = np.random.default_rng(seed)
    thetas = np.zeros((len(poses), model.dof))
    prev = model.home
    lo, hi = model.limits_lo, model.limits_hi
    for i, pose in enumerate(poses):
        theta = None
        fallback = None
        seed_theta = prev
        for k in range(6):
            sol = ik_attempt(model, pose, seed_theta, 1e-3, 1e-2, 150)
            if sol is not None:
                if collision_index(model, sol, obstacles) == 0:
                    theta = sol
                    break
                if fallback is None:
                    fallback = sol
            seed_theta = rng.uniform(lo, hi)
        if theta is None:
            theta = fallback if fallback is not None else prev
        thetas[i] = theta
        prev = theta
    return JointTrajectory(thetas, np.full(len(poses), SOURCE_LFD, np.uint8),
                           manipulability_rows(model, thetas),
                           collision_index_lanes(model, thetas, obstacles))


def lfd_joint_candidates_by_enumeration(poses, model, obstacles):
    """Closed-form candidates of a plan with at most 10 poses that have a
    branch, chosen by trying every sequence of allowed branches."""
    branches = closed_form_branches(model, dq_to_lanes(poses).reshape(-1, 8), 1e-3)
    choices = []
    for rows in branches:
        reached = [b for b, row in enumerate(rows) if not np.isnan(row[0])]
        free = [b for b in reached if collision_index(model, rows[b], obstacles) == 0]
        choices.append(free or reached)
    active = [i for i, allowed in enumerate(choices) if allowed]
    if len(active) > 10:
        raise ValueError(f"{len(active)} poses with a branch: too many sequences")
    best = None
    for seq in itertools.product(*(choices[i] for i in active)):
        rows = branches[np.array(active, dtype=int), np.array(seq, dtype=int)]
        steps = edge_steps(rows.reshape(-1, model.dof)).tolist()
        total = 0.0
        for step in steps:
            total += step
        key = (max(steps, default=0.0), total, seq[::-1])
        if best is None or key < best:
            best = key
    picked = dict(zip(active, best[2][::-1]))
    thetas, prev = [], model.home
    for i in range(len(branches)):
        prev = branches[i, picked[i]] if i in picked else prev
        thetas.append(prev)
    thetas = np.array(thetas).reshape(-1, model.dof)
    return JointTrajectory(thetas, np.full(len(thetas), SOURCE_LFD, np.uint8),
                           manipulability_rows(model, thetas),
                           collision_index_lanes(model, thetas, obstacles))


# ------------------------------------------------------------------ #
# Execution scoring: one end-effector state per scanned point
# ------------------------------------------------------------------ #
def pose_hit(model, theta, c_pos, c_euler, criteria) -> bool:
    q, p = ee_state(model, theta)
    if np.linalg.norm(p - c_pos) > criteria.pos_tol:
        return False
    diff = np.abs((quat_to_euler(q) - c_euler + np.pi) % (2 * np.pi) - np.pi)
    return bool(np.all(diff <= criteria.rot_tol))


def execute(traj, model, cell, criteria, task) -> ExecutionReport:
    """``workcell.execute`` with each configuration's first hit found by a
    ``pose_hit`` scan from the previous configuration's hit."""
    points = traj.points
    hits = []
    start_at = 0
    failed = None
    for j, config in enumerate(task.configs):
        hit = None
        c_pos, c_euler = config.translation(), quat_to_euler(config.real)
        for idx in range(start_at, len(points)):
            if pose_hit(model, points[idx], c_pos, c_euler, criteria):
                hit = idx
                break
        hits.append(hit)
        if hit is None:
            failed = j
            break
        start_at = hit
    while len(hits) < len(task.configs):
        hits.append(None)

    configs, at = checked_configs(points, COLLISION_RES_DEG)
    verdicts = collision_index_lanes(model, configs, cell.obstacles)
    collisions = int(np.sum(verdicts))
    man = manipulability_rows(model, points)
    r_s = float(np.sum(man - verdicts[at]))

    dropped = False
    bound = np.radians(SMOOTH_BOUND_DEG)
    for j in range(len(task.configs) - 1):
        if not task.hold[j] or hits[j] is None or hits[j + 1] is None:
            continue
        seg = points[hits[j]:hits[j + 1] + 1]
        if len(seg) >= 2 and np.max(np.abs(np.diff(seg, axis=0))) > bound + 1e-12:
            dropped = True
    success = failed is None and collisions == 0 and not dropped
    return ExecutionReport(success, hits, collisions, r_s, traj.max_step(), dropped, failed)


# ------------------------------------------------------------------ #
# Joint-path edges: one edge and one inserted point at a time
# ------------------------------------------------------------------ #
def blend(theta_a, theta_b, model, obstacles, cfg) -> JointTrajectory:
    gap = float(np.max(np.abs(theta_b - theta_a)))
    steps = int(np.ceil(gap / np.radians(cfg.blend_step_deg)))
    steps = min(max(steps - 1, 0), cfg.blend_points)
    if steps == 0:
        return JointTrajectory(np.zeros((0, len(theta_a))),
                               np.zeros(0, np.uint8), np.zeros(0), np.zeros(0, np.uint8))
    pts = np.array([theta_a + (k / (steps + 1)) * (theta_b - theta_a)
                    for k in range(1, steps + 1)])
    return JointTrajectory(pts, np.full(steps, SOURCE_DRL, np.uint8),
                           manipulability_rows(model, pts),
                           collision_index_lanes(model, pts, obstacles))


def densify(traj, model, obstacles, bound_deg) -> JointTrajectory:
    bound = np.radians(bound_deg)
    pts, src, man, col = [], [], [], []
    inserted = []
    for k, theta in enumerate(traj.points):
        if k > 0:
            prev = traj.points[k - 1]
            gap = float(np.max(np.abs(theta - prev)))
            extra = int(np.ceil(gap / bound)) - 1
            for e in range(1, extra + 1):
                inserted.append(len(pts))
                pts.append(prev + (e / (extra + 1)) * (theta - prev))
                src.append(traj.source[k])
                man.append(0.0)
                col.append(0)
        pts.append(theta)
        src.append(traj.source[k])
        man.append(traj.man[k])
        col.append(traj.col[k])
    # the reshape keeps an empty path a (0, dof) path
    pts, man, col = np.array(pts).reshape(-1, traj.points.shape[1]), np.array(man), \
        np.array(col, np.uint8)
    if inserted:
        man[inserted] = manipulability_rows(model, pts[inserted])
        col[inserted] = collision_index_lanes(model, pts[inserted], obstacles)
    return JointTrajectory(pts, np.array(src, np.uint8), man, col, traj.success)


def checked_configs(points, res_deg):
    """The waypoints and their interpolants at ``res_deg``, and the rows of
    the waypoints among them."""
    res = np.radians(res_deg)
    configs = []
    at = []
    prev = None
    for theta in points:
        if prev is not None:
            steps = np.ceil(np.max(np.abs(theta - prev)) / res)
            configs += [prev + (k / steps) * (theta - prev) for k in range(1, int(steps))]
        at.append(len(configs))
        configs.append(theta)
        prev = theta
    return np.array(configs).reshape(-1, np.shape(points)[1]), at


def cell_index(fmap, vox, ori) -> int:
    """Flat index of the cell (vox, ori): the map's ``ravel_multi_index``
    numbering over ``voxel_counts + orient_counts``."""
    return int(np.ravel_multi_index((*vox, *ori), fmap.voxel_counts + fmap.orient_counts))


def locate(fmap, pose: DualQuaternion):
    """Cell (vox, ori) of the map containing the pose, or None when outside."""
    p = pose.translation()
    rel = (p - fmap.box_lo) / fmap.voxel_size
    vox = np.floor(rel).astype(int)
    for a in range(3):
        if vox[a] == fmap.voxel_counts[a] and abs(rel[a] - vox[a]) < 1e-9:
            vox[a] -= 1  # on the upper face
        if not 0 <= vox[a] < fmap.voxel_counts[a]:
            return None
    angles = quat_to_euler(pose.real)
    ori = []
    for a in range(3):
        n = fmap.orient_counts[a]
        ang = angles[a]
        if abs(fmap.theta_max - np.pi) < 1e-12 and a == 2:
            ang = (ang + np.pi) % (2 * np.pi) - np.pi  # wrap yaw
        if ang < -fmap.theta_max - 1e-9 or ang > fmap.theta_max + 1e-9:
            return None
        width = 2.0 * fmap.theta_max / n
        k = int(np.floor((ang + fmap.theta_max) / width))
        ori.append(min(max(k, 0), n - 1))
    return tuple(vox), tuple(ori)


def clip_gradients(grads, max_norm: float) -> float:
    """Scale the gradient tensors in place so the global norm is at most
    max_norm; returns the norm before clipping."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


class Adam:
    """Adam with one pair of moment arrays per parameter tensor."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


# ------------------------------------------------------------------ #
# Ray casting: one box at a time
# ------------------------------------------------------------------ #
def raycast_many(origin, dirs, obstacles, max_range) -> np.ndarray:
    """``geometry.raycast_many`` with one slab pass per box."""
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    at = origin[..., None, :]                  # each origin against its k rays
    dist = np.full(dirs.shape[:-1], float(max_range))
    for ob in obstacles:
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (ob.lo - at) / dirs
            t2 = (ob.hi - at) / dirs
        lohit = np.where(np.isnan(t1), -np.inf, np.minimum(t1, t2))
        hihit = np.where(np.isnan(t2), np.inf, np.maximum(t1, t2))
        # rays parallel to a slab: inside -> no constraint, outside -> miss
        par = np.abs(dirs) < 1e-15
        inside = (at >= ob.lo) & (at <= ob.hi)
        lohit = np.where(par, np.where(inside, -np.inf, np.inf), lohit)
        hihit = np.where(par, np.where(inside, np.inf, -np.inf), hihit)
        tmin = lohit.max(axis=-1)
        tmax = hihit.min(axis=-1)
        hit = tmax >= np.maximum(tmin, 0.0)
        t = np.where(tmin >= 0.0, tmin, tmax)  # origin inside: exit point
        dist = np.where(hit & (t >= 0.0), np.minimum(dist, t), dist)
    return np.clip(dist, 0.0, float(max_range))


def raycast(origin, direction, obstacles, max_range) -> float:
    """Distance to the nearest obstacle surface along one ray."""
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
        raise ValueError("ray direction must be unit-norm")
    if max_range <= 0:
        raise ValueError("max_range must be positive")
    return float(raycast_many(origin, direction[None, :], obstacles, max_range)[0])


# ------------------------------------------------------------------ #
# Capsule-pair distance
# ------------------------------------------------------------------ #
def segment_segment_distance(p1, q1, p2, q2) -> float:
    """Closest distance between segments [p1,q1] and [p2,q2] (Ericson)."""
    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a, e, f = float(d1 @ d1), float(d2 @ d2), float(d2 @ r)
    if a < 1e-18 and e < 1e-18:
        return float(np.linalg.norm(r))
    if a < 1e-18:
        s, t = 0.0, np.clip(f / e, 0.0, 1.0)
    else:
        c = float(d1 @ r)
        if e < 1e-18:
            t, s = 0.0, np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(d1 @ d2)
            den = a * e - b * b
            s = np.clip((b * f - c * e) / den, 0.0, 1.0) if den > 1e-18 else 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t, s = 0.0, np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t, s = 1.0, np.clip((b - c) / a, 0.0, 1.0)
    return float(np.linalg.norm(p1 + s * d1 - (p2 + t * d2)))


# ------------------------------------------------------------------ #
# Collision checks without the broad phase
# ------------------------------------------------------------------ #
def without_broad_phase(check, *args):
    """``check(*args)`` of ``geometry`` with every capsule-box and
    capsule-capsule pair sent to the exact distance."""
    kept = geometry._apart, geometry._near
    geometry._apart = lambda *_: False
    geometry._near = lambda p1, q1, p2, q2, reach: np.ones(
        np.broadcast_shapes(np.shape(p1), np.shape(p2), np.shape(reach) + (1,))[:-1], dtype=bool)
    try:
        return check(*args)
    finally:
        geometry._apart, geometry._near = kept


# ------------------------------------------------------------------ #
# HRL Q-tables as text
# ------------------------------------------------------------------ #
def serialize_tables(tables: QTables) -> str:
    return records.text(
        [records.line("Q", *state, *seg, v) for (state, seg), v in sorted(tables.task_q.items())]
        + [records.line("q", *state, *seg, skill, v)
           for (state, seg, skill), v in sorted(tables.motion_q.items())])
