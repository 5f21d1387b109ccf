"""Quaternion and dual-quaternion algebra (scalar-first convention: q = [w, x, y, z]).

A unit dual quaternion encodes an SE(3) pose: real part = rotation quaternion
q_r, dual part = 0.5 * q_t * q_r with q_t = (0, t) the pure translation
quaternion.  All values are immutable; every operation returns new objects.

The Hamilton product and the vector rotation are written once, as the
component kernels ``_qmul`` and ``_qrot``.  Their arguments are plain floats
or (N,) arrays, so the same arithmetic serves the 4-vector functions here and
the scalar and lane kinematic chain of ``kinematics``.
"""
from __future__ import annotations

import warnings

import numpy as np

UNIT_TOL = 1e-9          # unit-norm assertion tolerance
RENORM_THRESHOLD = 1e-6  # drift beyond this triggers renormalize-and-warn


# ------------------------------------------------------------------ #
# Quaternion algebra on plain 4-vectors [w, x, y, z]
# ------------------------------------------------------------------ #
def _qmul(aw, ax, ay, az, bw, bx, by, bz):
    """Hamilton product (a * b) by components."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _qrot(qw, qx, qy, qz, vx, vy, vz):
    """Rotate v by the unit quaternion q (v' = q v q*), by components."""
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (vx + qw * tx + qy * tz - qz * ty,
            vy + qw * ty + qz * tx - qx * tz,
            vz + qw * tz + qx * ty - qy * tx)


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2."""
    return np.array(_qmul(*q1, *q2))


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(q)
    if n < 1e-12:
        raise ValueError("degenerate rotation")
    return q / n


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate 3-vector v by unit quaternion q."""
    return np.array(_qrot(*q, *v))


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n < 1e-12:
        raise ValueError("degenerate rotation")
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis / n))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Logarithmic map: unit quaternion -> rotation vector (angle * axis)."""
    w = q[0]
    v = q[1:]
    n = np.linalg.norm(v)
    if n < 1e-12:
        return np.zeros(3)
    angle = 2.0 * np.arctan2(n, w)
    if angle > np.pi:
        angle -= 2.0 * np.pi
    return (angle / n) * v


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Unit quaternion -> 3x3 rotation matrix."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_euler(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Euler angles (extrinsic x-y-z: R = Rz(yaw) Ry(pitch) Rx(roll)) -> quaternion."""
    qx = quat_from_axis_angle(np.array([1.0, 0, 0]), roll)
    qy = quat_from_axis_angle(np.array([0, 1.0, 0]), pitch)
    qz = quat_from_axis_angle(np.array([0, 0, 1.0]), yaw)
    return quat_mul(qz, quat_mul(qy, qx))


def quat_to_euler(q: np.ndarray) -> np.ndarray:
    """Quaternion -> Euler angles [roll, pitch, yaw], inverse of quat_from_euler."""
    w, x, y, z = q
    sinp = 2.0 * (w * y - z * x)
    sinp = np.clip(sinp, -1.0, 1.0)
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(sinp)
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


# ------------------------------------------------------------------ #
# Dual quaternion
# ------------------------------------------------------------------ #
class DualQuaternion:
    """Unit dual quaternion: real part (rotation) + dual part (0.5 * q_t * q_r)."""

    __slots__ = ("real", "dual")

    def __init__(self, real: np.ndarray, dual: np.ndarray):
        self.real = np.asarray(real, dtype=float)
        self.dual = np.asarray(dual, dtype=float)

    # -- constructors -------------------------------------------------
    @classmethod
    def identity(cls) -> "DualQuaternion":
        return cls(np.array([1.0, 0, 0, 0]), np.zeros(4))

    @classmethod
    def from_pose(cls, position, rotation) -> "DualQuaternion":
        """Build from a 3-vector position and a rotation.

        ``rotation`` is either a unit quaternion [w, x, y, z] or an
        (axis, angle) pair.
        """
        if isinstance(rotation, tuple):
            q_r = quat_from_axis_angle(np.asarray(rotation[0]), rotation[1])
        else:
            q_r = quat_normalize(np.asarray(rotation, dtype=float))
        position = np.asarray(position, dtype=float)
        q_t = np.array([0.0, position[0], position[1], position[2]])
        return cls(q_r, 0.5 * quat_mul(q_t, q_r))

    @classmethod
    def from_translation(cls, t) -> "DualQuaternion":
        return cls.from_pose(t, np.array([1.0, 0, 0, 0]))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "DualQuaternion":
        a = np.asarray(a, dtype=float)
        if a.shape != (8,):
            raise ValueError("expected 8 scalars (real w x y z, dual w x y z)")
        return cls(a[:4], a[4:])

    # -- accessors -----------------------------------------------------
    def as_array(self) -> np.ndarray:
        """Serialize as 8 scalars, real part then dual part."""
        return np.concatenate([self.real, self.dual])

    def translation(self) -> np.ndarray:
        """Extract the translation: t = 2 * dual * conj(real)."""
        t = 2.0 * quat_mul(self.dual, quat_conj(self.real))
        return t[1:]

    def rotation(self) -> np.ndarray:
        return self.real.copy()

    def to_pose(self):
        """Return (position 3-vector, rotation quaternion)."""
        return self.translation(), self.real.copy()

    def conjugate(self) -> "DualQuaternion":
        return DualQuaternion(quat_conj(self.real), quat_conj(self.dual))

    def normalized(self) -> "DualQuaternion":
        real = quat_normalize(self.real)
        # remove the component of dual along real to restore <real, dual> = 0
        dual = self.dual / np.linalg.norm(self.real)
        dual = dual - np.dot(real, dual) * real
        return DualQuaternion(real, dual)

    def norm_drift(self) -> float:
        """Max deviation from the unit conditions ||real|| = 1, <real, dual> = 0."""
        return max(abs(np.linalg.norm(self.real) - 1.0),
                   abs(float(np.dot(self.real, self.dual))))

    def __mul__(self, other: "DualQuaternion") -> "DualQuaternion":
        return dq_mul(self, other)

    def __neg__(self) -> "DualQuaternion":
        return DualQuaternion(-self.real, -self.dual)

    def __repr__(self) -> str:
        return f"DualQuaternion(real={self.real}, dual={self.dual})"


def dq_mul(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Rigid-transform composition: apply b, then a."""
    real = quat_mul(a.real, b.real)
    dual = quat_mul(a.real, b.dual) + quat_mul(a.dual, b.real)
    out = DualQuaternion(real, dual)
    if out.norm_drift() > RENORM_THRESHOLD:
        warnings.warn("dual quaternion drifted from unit norm; renormalizing")
        out = out.normalized()
    return out


def dq_conjugate(d: DualQuaternion) -> DualQuaternion:
    """Inverse of a unit dual quaternion."""
    return d.conjugate()


def dq_from_pose(position, rotation) -> DualQuaternion:
    return DualQuaternion.from_pose(position, rotation)


def _screw_power(rel: DualQuaternion, u: float) -> DualQuaternion:
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


def dq_sclerp(a: DualQuaternion, b: DualQuaternion, u: float) -> DualQuaternion:
    """Screw linear interpolation from a (u=0) to b (u=1)."""
    if np.dot(a.real, b.real) < 0.0:
        b = -b  # antipodal real parts: take the shorter screw
    rel = dq_mul(a.conjugate(), b)
    if rel.real[0] < 0.0:
        rel = -rel
    return dq_mul(a, _screw_power(rel, float(u)))


# ------------------------------------------------------------------ #
# Pose text format: one pose per line, 8 whitespace-separated decimals
# ------------------------------------------------------------------ #
def save_poses(path, poses) -> None:
    with open(path, "w") as fh:
        for d in poses:
            fh.write(" ".join("%.17g" % x for x in d.as_array()) + "\n")


def load_poses(path) -> list:
    poses = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            vals = np.array([float(tok) for tok in line.split()])
            poses.append(DualQuaternion.from_array(vals))
    return poses
