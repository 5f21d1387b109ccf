"""Serial-manipulator model: forward kinematics, Jacobian, manipulability,
and inverse kinematics under joint limits: numeric for any chain, in closed
form for planar RR and 3R arms.

Kinematic chain convention: frame 0 is the base; joint i contributes
``offset_i * Rot(axis_i, theta_i)``; frame i is the pose after joint i; an
optional tool transform gives the end-effector frame (index dof + 1).
Joint axes are expressed in the frame reached by ``offset_i``.

``_chain_eval`` is the one walk down the chain, with the quaternion kernels
of ``dualquat``; FK, the joint frames (``fk_frames`` is a view on it), the
Jacobian, IK, collision and manipulability all read their frames from it.
The chain kernels ``_chain_eval`` and ``_jacobian_raw`` take either one joint
vector, (dof,), and work on plain Python floats (``math.sin``/``math.cos``),
or a lane array, (N, dof), and work on (N,) arrays with the same operations
in the same order, so lane k of a lane call equals the scalar call on row k
(``test_chain_eval_one_vector_walks_on_floats_and_equals_lane_rows``).  Both
cast the joint angles to float64 first.  ``fk`` passes the scalar walk's
float tuples straight to ``DualQuaternion.from_pose``, which works one pose
on floats too.  ``ik_attempt`` runs one
damped-least-squares descent on the scalar path; ``ik_descend`` runs N of
them in lockstep on the lane path, under the same rules, towards 8-vector
targets or (N, 8) target lanes (``dualquat.dq_to_lanes``).
``closed_form_branches`` gives a planar RR or 3R arm's two elbow branches
for N target lanes in one array pass, and None for any other chain, which
the numeric descents serve.
``frame_points`` takes either layout too, and the ``_raw`` helpers (frame
points, manipulability) take a chain walk's output, so a caller that walked
the chain once for one configuration or for N lanes reads every quantity off
that walk: ``geometry.score_lanes`` scores N configurations' normalized
manipulability with one lane Jacobian and one batched SVD.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from hybridplan import records
from hybridplan.dualquat import (DualQuaternion, _lane_dot, _qmul, _qrot, dq_to_lanes,
                                 dq_translation, quat_to_rotvec)

IK_DAMPING = 0.05      # damped least-squares factor
IK_MAX_STEP = 1.0      # cap on a single DLS joint-space step, radians
IK_TOL = (1e-4, 1e-4)  # ``ik``'s tolerances: position (m), rotation (rad)
IK_MAX_ITERS = 200     # DLS iterations per ``ik`` descent
IK_RESTARTS = 20       # random seeds ``ik`` tries after its first
PLANAR_LIMITS_DEG = (-175.0, 175.0)      # joint limits of the planar arms


@dataclass(frozen=True, eq=False)
class Joint:
    axis: np.ndarray                 # unit 3-vector
    offset: DualQuaternion           # fixed transform applied before the joint
    limits: tuple                    # (lo, hi) radians


@dataclass(frozen=True)
class LinkCapsule:
    frame_a: int
    frame_b: int
    radius: float


@dataclass(frozen=True, eq=False)
class RobotModel:
    name: str
    joints: list
    tool: DualQuaternion
    capsules: list
    home: np.ndarray                 # home configuration, radians
    task: str = "spatial"            # "spatial" or "planar"
    _home_man: float = field(default=0.0, compare=False)
    # read-only joint limit vectors, set once by ``make_robot``
    limits_lo: np.ndarray = field(init=False, repr=False, compare=False)
    limits_hi: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def dof(self) -> int:
        return len(self.joints)

    @property
    def ee_dof(self) -> int:
        """Task-space dimension m: 6 spatial; planar 3 (x, y, yaw) or 2 when dof < 3."""
        if self.task == "spatial":
            return 6
        return min(3, self.dof)

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        return np.clip(theta, self.limits_lo, self.limits_hi)

    def within_limits(self, theta: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.all(theta >= self.limits_lo - tol) and np.all(theta <= self.limits_hi + tol))

    def refuse_outside_limits(self, points) -> None:
        """Refuse a ``(k, dof)`` joint path with a finite row that is not
        ``within_limits``, naming the first, before the path is split into
        steps; a row that is not finite is left to ``trajectory.subdivide``."""
        points = np.asarray(points, dtype=float)
        finite = np.isfinite(points).all(axis=-1)
        if not self.within_limits(points[finite]):
            raise ValueError("joint path row %d is outside the joint limits" % next(
                i for i in np.flatnonzero(finite) if not self.within_limits(points[i])))


def make_robot(name, joints, tool=None, capsules=(), home=None, task="spatial") -> RobotModel:
    """Validate and assemble a robot model."""
    jlist = []
    for i, (axis, offset, limits) in enumerate(joints, start=1):
        axis = np.asarray(axis, dtype=float)
        if not np.all(np.isfinite(axis)):
            raise ValueError(f"joint {i} axis must be finite, got {axis.tolist()}")
        n = np.linalg.norm(axis)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"joint {i} axis must have unit length, got norm {n}")
        if not np.all(np.isfinite(offset.as_array())):
            raise ValueError(f"joint {i} offset must be finite, got {offset.as_array().tolist()}")
        lo, hi = float(limits[0]), float(limits[1])
        if not lo < hi:
            raise ValueError(f"joint limits must satisfy lo < hi, got [{lo}, {hi}]")
        jlist.append(Joint(axis, offset, (lo, hi)))
    if task not in ("spatial", "planar"):
        raise ValueError(f"unknown task space '{task}'")
    for c in capsules:
        if not all(isinstance(f, (int, np.integer)) for f in (c.frame_a, c.frame_b)):
            raise ValueError(f"capsule frame indices must be integers, got {c}")
        if not (0 <= c.frame_a <= len(jlist) + 1 and 0 <= c.frame_b <= len(jlist) + 1):
            raise ValueError("capsule frame index out of range")
        if not 0.0 < c.radius < math.inf:
            raise ValueError("capsule radius must be positive and finite")
    tool = tool if tool is not None else DualQuaternion.identity()
    if not np.all(np.isfinite(tool.as_array())):
        raise ValueError(f"tool pose must be finite, got {tool.as_array().tolist()}")
    home = np.zeros(len(jlist)) if home is None else np.asarray(home, dtype=float)
    if home.shape != (len(jlist),):
        raise ValueError("home configuration dimension mismatch")
    model = RobotModel(name, jlist, tool, list(capsules), home, task)
    for attr, side in (("limits_lo", 0), ("limits_hi", 1)):
        lim = np.array([j.limits[side] for j in jlist])
        lim.flags.writeable = False
        object.__setattr__(model, attr, lim)
    object.__setattr__(model, "_chain", _compile_chain(model))
    if not model.within_limits(home):
        raise ValueError("home configuration violates joint limits")
    m0 = manipulability(model, home)
    # models with dof < ee_dof cannot span the task space; man is identically 0
    if m0 <= 0.0 and model.dof >= model.ee_dof:
        raise ValueError("singular home configuration")
    object.__setattr__(model, "_home_man", m0)
    _, _, _, q, p = _chain_eval(model, home)
    if not all(map(math.isfinite, q + p)):
        raise ValueError("home configuration gives non-finite pose")
    fk(model, home)                  # refuses a zero end-effector rotation
    return model


# ------------------------------------------------------------------ #
# Kinematic chain on floats or on (N,) lanes (hot path: IK, map, rollouts)
# ------------------------------------------------------------------ #
def _compile_chain(model: RobotModel):
    """Per-joint (offset quat, offset translation, axis) as plain float tuples
    and the tool's (quat, translation): the one-walk form of the chain that
    FK, the IK descents and the closed form read."""
    steps = []
    for j in model.joints:
        oq = tuple(float(v) for v in j.offset.real)
        op = tuple(float(v) for v in j.offset.translation())
        ax = tuple(float(v) for v in j.axis)
        steps.append((oq, op, ax))
    tq = tuple(float(v) for v in model.tool.real)
    tp = tuple(float(v) for v in model.tool.translation())
    return steps, tq, tp


def _chain_eval(model: RobotModel, theta):
    """World joint axes, joint origins and joint rotations (the frame after
    each joint turns) plus the EE (quat, position), as tuples of floats, or
    of (N,) arrays when ``theta`` is an (N, dof) lane array."""
    steps, tq, tp = model._chain
    if np.ndim(theta) == 2:
        theta = np.asarray(theta, dtype=float).T     # one (N,) column per joint
        sin, cos = np.sin, np.cos
    else:
        theta = np.asarray(theta, dtype=float).tolist()
        sin, cos = math.sin, math.cos        # equal to np.sin/np.cos on floats
    qw, qx, qy, qz = 1.0, 0.0, 0.0, 0.0
    px, py, pz = 0.0, 0.0, 0.0
    axes, origins, rots = [], [], []
    for (oq, op, ax), th in zip(steps, theta):
        dx, dy, dz = _qrot(qw, qx, qy, qz, op[0], op[1], op[2])
        px, py, pz = px + dx, py + dy, pz + dz
        qw, qx, qy, qz = _qmul(qw, qx, qy, qz, oq[0], oq[1], oq[2], oq[3])
        axes.append(_qrot(qw, qx, qy, qz, ax[0], ax[1], ax[2]))
        origins.append((px, py, pz))
        half = 0.5 * th
        s, c = sin(half), cos(half)
        qw, qx, qy, qz = _qmul(qw, qx, qy, qz, c, s * ax[0], s * ax[1], s * ax[2])
        rots.append((qw, qx, qy, qz))
    dx, dy, dz = _qrot(qw, qx, qy, qz, tp[0], tp[1], tp[2])
    px, py, pz = px + dx, py + dy, pz + dz
    qw, qx, qy, qz = _qmul(qw, qx, qy, qz, tq[0], tq[1], tq[2], tq[3])
    return axes, origins, rots, (qw, qx, qy, qz), (px, py, pz)


# ------------------------------------------------------------------ #
# Forward kinematics
# ------------------------------------------------------------------ #
def fk(model: RobotModel, theta: np.ndarray) -> DualQuaternion:
    """End-effector pose: ``_chain_eval``'s (quat, position) floats, the
    quaternion normalized by ``DualQuaternion.from_pose`` on floats."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"expected {model.dof} joint angles, got {theta.shape}")
    _, _, _, q, p = _chain_eval(model, theta)
    return DualQuaternion.from_pose(p, q)


def fk_frames(model: RobotModel, theta: np.ndarray):
    """Frames after joints 1..n as (origins (dof, 3), rotation quaternions
    (dof, 4)), read off the chain walk of ``_chain_eval``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"expected {model.dof} joint angles, got {theta.shape}")
    _, origins, rots, _, _ = _chain_eval(model, theta)
    return np.array(origins), np.array(rots)


def frame_points(model: RobotModel, theta) -> np.ndarray:
    """Origins of frames [base, joint 1..n, tool], shape (dof + 2, 3), or
    (N, dof + 2, 3) for an (N, dof) lane array."""
    _, origins, _, _, p = _chain_eval(model, theta)
    return _frame_points_raw(origins, p)


def _frame_points_raw(origins, p_ee) -> np.ndarray:
    """``frame_points`` from ``_chain_eval`` output (floats or (N,) lanes)."""
    if np.ndim(p_ee[0]) == 0:
        return np.array([(0.0, 0.0, 0.0), *origins, p_ee])
    pts = np.zeros((len(p_ee[0]), len(origins) + 2, 3))
    for k, xyz in enumerate([*origins, p_ee], start=1):
        for a in range(3):
            pts[:, k, a] = xyz[a]
    return pts


def ee_state(model: RobotModel, theta):
    """(rotation quaternion, position) of the end effector as arrays."""
    _, _, _, q, p = _chain_eval(model, theta)
    return np.array(q), np.array(p)


def _jacobian_raw(model: RobotModel, axes, origins, p_ee) -> np.ndarray:
    """(m, n) Jacobian from ``_chain_eval`` output; (N, m, n) for lanes."""
    n = model.dof
    m = model.ee_dof
    px, py, pz = p_ee
    J = np.empty((m, n) + np.shape(px))      # lanes last while filling
    for i in range(n):
        ax, ay, az = axes[i]
        ox, oy, oz = origins[i]
        rx, ry, rz = px - ox, py - oy, pz - oz
        J[0, i] = ay * rz - az * ry
        J[1, i] = az * rx - ax * rz
        if model.task == "spatial":
            J[2, i] = ax * ry - ay * rx
            J[3, i], J[4, i], J[5, i] = ax, ay, az
        elif m == 3:
            J[2, i] = az
    if J.ndim == 3:
        J = np.ascontiguousarray(J.transpose(2, 0, 1))
    return J


def jacobian(model: RobotModel, theta: np.ndarray) -> np.ndarray:
    """Geometric Jacobian, m x n with m = model.ee_dof.

    Spatial rows: linear velocity (x, y, z) then angular velocity (x, y, z).
    Planar rows: (x, y) and, when m = 3, the yaw rate.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.dof,):
        raise ValueError(f"expected {model.dof} joint angles, got {theta.shape}")
    axes, origins, _, _, p = _chain_eval(model, theta)
    return _jacobian_raw(model, axes, origins, p)


def manipulability(model: RobotModel, theta: np.ndarray) -> float:
    """sqrt(det(J J^T)) = product of the singular values of J.

    Configurations whose smallest singular value falls below a relative rank
    cutoff are reported as exactly 0 (round-off would otherwise return a
    meaningless sqrt of a near-zero or negative determinant).
    """
    return float(_manipulability_raw(jacobian(model, theta)))


def normalized_manipulability(model: RobotModel, theta: np.ndarray) -> float:
    """Manipulability relative to the home configuration's."""
    if model._home_man <= 0.0:
        raise ValueError("singular home configuration")
    return manipulability(model, theta) / model._home_man


def _manipulability_raw(J):
    """``manipulability`` of an (m, dof) Jacobian as a 0-d array, or of
    (N, m, dof) lane Jacobians as (N,)."""
    s = np.linalg.svd(J, compute_uv=False)
    top, low = s.T[0], s.T[-1]       # numpy scalars for one Jacobian: cheaper than 0-d arrays
    return np.where((top <= 0.0) | (low <= 1e-9 * top), 0.0, s.prod(axis=-1))


def _normalized_manipulability_raw(model: RobotModel, axes, origins, p_ee):
    """Normalized manipulability from ``_chain_eval`` output, shaped as
    ``_manipulability_raw``'s."""
    if model._home_man <= 0.0:
        raise ValueError("singular home configuration")
    return _manipulability_raw(_jacobian_raw(model, axes, origins, p_ee)) / model._home_man


# ------------------------------------------------------------------ #
# Inverse kinematics: damped least squares with random restarts
# ------------------------------------------------------------------ #
def _pose_error_raw(model, q, p, tq, tp):
    """Error twist from (q, p) to target (tq, tp) plus (pos, rot) magnitudes."""
    dp = np.asarray(tp) - np.asarray(p)
    qe = _qmul(tq[0], tq[1], tq[2], tq[3], q[0], -q[1], -q[2], -q[3])
    rv = quat_to_rotvec(np.array(qe))
    if model.task == "spatial":
        e = np.concatenate([dp, rv])
        return e, float(np.linalg.norm(dp)), float(np.linalg.norm(rv))
    if model.ee_dof == 3:
        e = np.array([dp[0], dp[1], rv[2]])
        return e, float(np.hypot(dp[0], dp[1])), abs(float(rv[2]))
    return dp[:2], float(np.hypot(dp[0], dp[1])), 0.0


def ik_attempt(model, target, seed, tol_pos, tol_rot, max_iters):
    """Single damped-least-squares descent from one seed. Returns theta or None."""
    theta = model.clamp(np.asarray(seed, dtype=float).copy())
    m = model.ee_dof
    lam2 = IK_DAMPING * IK_DAMPING * np.eye(m)
    target = dq_to_lanes(target)
    tq, tp = target[:4], dq_translation(target)
    best_err = np.inf
    stall = 0
    for _ in range(max_iters):
        axes, origins, _, q, p = _chain_eval(model, theta)
        e, perr, rerr = _pose_error_raw(model, q, p, tq, tp)
        if perr < tol_pos and rerr < tol_rot:
            return theta
        err = perr + rerr
        if err < best_err - 1e-12:
            best_err = err
            stall = 0
        else:
            stall += 1
            if stall >= 15:
                return None  # stagnated away from the target
        J = _jacobian_raw(model, axes, origins, p)
        step = J.T @ np.linalg.solve(J @ J.T + lam2, e)
        if not np.all(np.isfinite(step)):
            return None
        norm = np.linalg.norm(step)
        if norm > IK_MAX_STEP:
            step *= IK_MAX_STEP / norm
        theta = model.clamp(theta + step)
    _, _, _, q, p = _chain_eval(model, theta)
    _, perr, rerr = _pose_error_raw(model, q, p, tq, tp)
    if perr < tol_pos and rerr < tol_rot:
        return theta
    return None


def _lane_norm(v: np.ndarray) -> np.ndarray:
    """Row norms of (N, k), rounded like the 1-D ``np.linalg.norm``."""
    return np.sqrt(_lane_dot(v, v))


def _pose_error_lanes(model, q, p, tq, tp):
    """``_pose_error_raw`` over lanes: (N, m) error twists, (N,) pos/rot errors."""
    dp = tp - np.stack(p, axis=1)
    qw, qx, qy, qz = _qmul(tq[:, 0], tq[:, 1], tq[:, 2], tq[:, 3],
                           q[0], -q[1], -q[2], -q[3])
    v = np.stack([qx, qy, qz], axis=1)
    n = _lane_norm(v)
    small = n < 1e-12
    angle = 2.0 * np.arctan2(n, qw)
    angle = np.where(angle > np.pi, angle - 2.0 * np.pi, angle)
    rv = np.where(small, 0.0, angle / np.where(small, 1.0, n))[:, None] * v
    if model.task == "spatial":
        return np.concatenate([dp, rv], axis=1), _lane_norm(dp), _lane_norm(rv)
    perr = np.hypot(dp[:, 0], dp[:, 1])
    if model.ee_dof == 3:
        return np.stack([dp[:, 0], dp[:, 1], rv[:, 2]], axis=1), perr, np.abs(rv[:, 2])
    return dp[:, :2], perr, np.zeros(len(dp))


def ik_descend(model, targets, seeds, tol_pos, tol_rot, max_iters):
    """N damped-least-squares descents in lockstep, lane k from ``seeds[k]``
    towards ``targets[k]`` ((N, 8) lanes).

    Every lane follows the rules of ``ik_attempt`` and ends where it would:
    at the tolerance, after 15 non-improving iterations, on a non-finite step,
    or after ``max_iters`` with a final check.  Returns (N, dof) joint vectors
    with NaN rows for the lanes that did not reach their target.
    """
    theta = model.clamp(np.array(seeds, dtype=float).reshape(-1, model.dof))
    n_lanes = len(theta)
    targets = dq_to_lanes(targets).reshape(-1, 8)
    if len(targets) != n_lanes:
        raise ValueError(f"{len(targets)} targets for {n_lanes} seeds")
    tq, tp = targets[:, :4], dq_translation(targets)
    lam2 = IK_DAMPING * IK_DAMPING * np.eye(model.ee_dof)
    out = np.full((n_lanes, model.dof), np.nan)
    best_err = np.full(n_lanes, np.inf)
    stall = np.zeros(n_lanes, dtype=int)
    lane = np.arange(n_lanes)                # the lanes still descending
    for _ in range(max_iters):
        if lane.size == 0:
            return out
        axes, origins, _, q, p = _chain_eval(model, theta)
        e, perr, rerr = _pose_error_lanes(model, q, p, tq[lane], tp[lane])
        hit = (perr < tol_pos) & (rerr < tol_rot)
        out[lane[hit]] = theta[hit]
        err = perr + rerr
        improved = err < best_err[lane] - 1e-12
        best_err[lane[improved]] = err[improved]
        stall[lane] = np.where(improved, 0, stall[lane] + 1)
        go = ~hit & (stall[lane] < 15)
        J = _jacobian_raw(model, axes, origins, p)[go]
        Jt = J.transpose(0, 2, 1)
        step = (Jt @ np.linalg.solve(J @ Jt + lam2, e[go][:, :, None]))[:, :, 0]
        finite = np.all(np.isfinite(step), axis=1)
        step, theta, lane = step[finite], theta[go][finite], lane[go][finite]
        norm = _lane_norm(step)
        big = norm > IK_MAX_STEP
        step[big] *= (IK_MAX_STEP / norm[big])[:, None]
        theta = model.clamp(theta + step)
    if lane.size:
        _, _, _, q, p = _chain_eval(model, theta)
        _, perr, rerr = _pose_error_lanes(model, q, p, tq[lane], tp[lane])
        hit = (perr < tol_pos) & (rerr < tol_rot)
        out[lane[hit]] = theta[hit]
    return out


def ik(model, target, seed=None, rng=None):
    """Numeric IK under joint limits.

    Tries the given seed (home configuration when None), then up to
    ``IK_RESTARTS`` random seeds drawn uniformly within the limits from
    ``rng``, each an ``ik_attempt`` of ``IK_MAX_ITERS`` iterations to
    ``IK_TOL``.  Returns the joint vector on success, None when the budget is
    exhausted -- the None IS the unreachability signal.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    seeds = [model.home if seed is None else np.asarray(seed, dtype=float)]
    seeds += [rng.uniform(model.limits_lo, model.limits_hi) for _ in range(IK_RESTARTS)]
    for s in seeds:
        sol = ik_attempt(model, target, s, *IK_TOL, IK_MAX_ITERS)
        if sol is not None:
            return sol
    return None


# ------------------------------------------------------------------ #
# Inverse kinematics in closed form: planar RR and 3R arms
# ------------------------------------------------------------------ #
def _planar_arm(model: RobotModel):
    """(base x, l1, l2, tool x) of a planar RR or 3R arm, else None.

    Covered: a planar task space (x, y and, for 3R, yaw), every joint axis
    +z, every offset and the tool a pure translation along x, nonzero link
    lengths, and joint limits inside [-pi, pi], so that each elbow branch has
    one representative angle per joint."""
    steps, tq, tp = model._chain
    if model.task != "planar" or model.dof not in (2, 3):
        return None
    pure_x = [(oq, op) for oq, op, _ in steps] + [(tq, tp)]
    if not (all(ax == (0.0, 0.0, 1.0) for _, _, ax in steps)
            and all(q == (1.0, 0.0, 0.0, 0.0) and p[1] == p[2] == 0.0 for q, p in pure_x)
            and model.limits_lo.min() >= -np.pi and model.limits_hi.max() <= np.pi):
        return None
    base, l1 = steps[0][1][0], steps[1][1][0]
    l2, tool = (steps[2][1][0], tp[0]) if model.dof == 3 else (tp[0], 0.0)
    return None if l1 == 0.0 or l2 == 0.0 else (base, l1, l2, tool)


def closed_form_branches(model: RobotModel, lanes, tol_pos):
    """The elbow branches of (N, 8) pose lanes as (N, 2, dof) joint vectors,
    or None for a chain ``_planar_arm`` does not cover.

    Joints 1 and 2 place the wrist: for a 3R arm the origin of joint 3, the
    target position less the tool along the target yaw ``2 atan2(qz, qw)``;
    for an RR arm the end effector.  The target's z and its rotation off the
    z axis are ignored, as the planar error of ``ik_attempt`` ignores them.
    Branch 0 bends the elbow (joint 2) by
    ``+acos``, branch 1 by ``-acos`` (Craig, *Introduction to Robotics*,
    ch. 4); angles are wrapped into [-pi, pi).  A wrist up to ``tol_pos``
    outside the reach annulus is moved radially onto it, so the end effector
    misses by at most ``tol_pos``.  A branch whose wrist is farther out, or
    with an angle more than 1e-9 outside the joint limits, is a NaN row; one
    within 1e-9 is clipped onto the limit.
    """
    arm = _planar_arm(model)
    if arm is None:
        return None
    base, l1, l2, tool = arm
    lanes = dq_to_lanes(lanes).reshape(-1, 8)
    p = dq_translation(lanes)
    yaw = 2.0 * np.arctan2(lanes[:, 3], lanes[:, 0])
    wx = p[:, 0] - base - tool * np.cos(yaw)
    wy = p[:, 1] - tool * np.sin(yaw)
    r = np.hypot(wx, wy)
    reach = ((r <= abs(l1) + abs(l2) + tol_pos)
             & (r >= abs(abs(l1) - abs(l2)) - tol_pos))
    c2 = np.clip((wx * wx + wy * wy - l1 * l1 - l2 * l2) / (2.0 * l1 * l2), -1.0, 1.0)
    s2 = np.sqrt(1.0 - c2 * c2)[:, None] * np.array([1.0, -1.0])      # (N, 2)
    th2 = np.arctan2(s2, c2[:, None])
    th1 = np.arctan2(wy, wx)[:, None] - np.arctan2(l2 * s2, l1 + l2 * c2[:, None])
    th = [th1, th2] + ([yaw[:, None] - th1 - th2] if model.dof == 3 else [])
    th = (np.stack(th, axis=-1) + np.pi) % (2.0 * np.pi) - np.pi
    lo, hi = model.limits_lo, model.limits_hi
    keep = reach[:, None] & np.all((th >= lo - 1e-9) & (th <= hi + 1e-9), axis=-1)
    return np.where(keep[..., None], np.clip(th, lo, hi), np.nan)


def serialize_robot(model: RobotModel) -> str:
    lines = [records.line("name", model.name), records.line("dof", model.dof),
             records.line("task", model.task)]
    for j in model.joints:
        lo, hi = np.degrees(j.limits)
        lines.append(records.line("joint", "axis", j.axis, "offset", j.offset.as_array(),
                                  "limits_deg", "%.10g" % lo, "%.10g" % hi))
    lines.append(records.line("tool", model.tool.as_array()))
    lines += [records.line("capsule", c.frame_a, c.frame_b, c.radius) for c in model.capsules]
    lines.append(records.line("home_deg", *("%.10g" % h for h in np.degrees(model.home))))
    return records.text(lines)


def robot_hash(model: RobotModel) -> str:
    return hashlib.sha256(serialize_robot(model).encode()).hexdigest()


# ------------------------------------------------------------------ #
# Stock test models
# ------------------------------------------------------------------ #
def _planar_chain(name, links, radius, home) -> RobotModel:
    """A planar arm in the z = 0 plane: joints about +z within
    ``PLANAR_LIMITS_DEG``, each link (the last one the tool) along x."""
    z, lim = np.array([0.0, 0.0, 1.0]), tuple(np.radians(PLANAR_LIMITS_DEG))
    offsets = [DualQuaternion.identity()] + [DualQuaternion.from_translation([length, 0, 0])
                                              for length in links[:-1]]
    caps = [LinkCapsule(k, k + 1, radius) for k in range(1, len(links) + 1)]
    return make_robot(name, [(z, offset, lim) for offset in offsets],
                      DualQuaternion.from_translation([links[-1], 0, 0]), caps, home=home,
                      task="planar")


def planar_rr(radius=0.05) -> RobotModel:
    """Planar 2R arm of 1 m links; task space (x, y)."""
    return _planar_chain("planar_rr", (1.0, 1.0), radius, [0.0, np.pi / 2])


def planar_3r(l=(0.5, 0.4, 0.3), radius=0.04) -> RobotModel:
    """Planar 3R arm; task space (x, y, yaw)."""
    return _planar_chain("planar_3r", l, radius, [0.0, np.pi / 3, -np.pi / 4])
