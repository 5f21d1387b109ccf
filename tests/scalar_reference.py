"""One-pose-at-a-time LfD reference: ScLERP, arc-length resampling, features,
retargeting and the HRL reward written pose by pose with ``DualQuaternion``
objects.  The library computes the same quantities on (N, 8) lanes; the tests
compare the two."""
import numpy as np

from hybridplan.dualquat import (
    DualQuaternion,
    dq_conjugate,
    dq_mul,
    quat_from_axis_angle,
    quat_to_matrix,
)
from hybridplan.hrl_planner import SENTINEL
from hybridplan.lfd import BETA_RESAMPLE, DELTA_BETA, Demonstration


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


def sclerp(a: DualQuaternion, b: DualQuaternion, u: float) -> DualQuaternion:
    """Screw linear interpolation from a (u=0) to b (u=1)."""
    if np.dot(a.real, b.real) < 0.0:
        b = -b  # antipodal real parts: take the shorter screw
    rel = dq_mul(a.conjugate(), b)
    if rel.real[0] < 0.0:
        rel = -rel
    return dq_mul(a, screw_power(rel, float(u)))


def chordal_distance(a: DualQuaternion, b: DualQuaternion) -> float:
    va, vb = a.as_array(), b.as_array()
    if np.dot(va[:4], vb[:4]) < 0.0:
        vb = -vb
    return float(np.linalg.norm(va - vb))


def extract_features(poses) -> list:
    last = poses[-1]
    return [dq_mul(dq_conjugate(p), last) for p in poses[:-1]]


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


def feature_distance_terms(a, b, n_resample=BETA_RESAMPLE) -> np.ndarray:
    ra = resample(list(a), n_resample)
    rb = resample(list(b), n_resample)
    return np.array([chordal_distance(x, y) for x, y in zip(ra, rb)])


def intrinsic_reward(skill_poses, segment_poses, delta_beta=DELTA_BETA) -> float:
    terms = feature_distance_terms(extract_features(list(skill_poses)),
                                   extract_features(list(segment_poses)))
    if np.any(terms > delta_beta):
        return SENTINEL
    return float(-np.sum(terms))


def retarget(skill_poses, start, goal, n_out) -> list:
    skill_poses = list(skill_poses)
    params = arc_params(skill_poses)
    if params is None:
        return [start] * n_out
    us = params if n_out == len(skill_poses) else np.linspace(0.0, 1.0, n_out)
    base = [sample_sequence(skill_poses, params, u) for u in us]
    g = dq_mul(start, dq_conjugate(base[0]))
    aligned = [dq_mul(g, b) for b in base]
    residual = dq_mul(dq_conjugate(aligned[-1]), goal)
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
