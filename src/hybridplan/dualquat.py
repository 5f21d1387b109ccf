"""Quaternion and dual-quaternion algebra (scalar-first convention: q = [w, x, y, z]).

A unit dual quaternion encodes an SE(3) pose: real part = rotation quaternion
q_r, dual part = 0.5 * q_t * q_r with q_t = (0, t) the pure translation
quaternion.  All values are immutable; every operation returns new objects.

The Hamilton product and the vector rotation are written once, as the
component kernels ``_qmul`` and ``_qrot``.  Their arguments are plain floats
or (N,) arrays, so the same arithmetic serves the 4-vector functions here,
the scalar and lane kinematic chain of ``kinematics``, and the dual-quaternion
lanes below.  Where the lane count is small, a call costs its ufunc calls,
not its arithmetic, so the product is read from a table of ``_qmul``'s
terms, in ``_qmul``'s order (``_table_products``): ``quat_mul_lanes`` for one
quaternion product and ``dq_mul_lanes`` for a dual one, about 4 and 10
ufunc calls where components make about 30.  Their callers pass a few to a
few hundred lanes: ``dq_translation`` of lanes, ``hrl_planner``'s task
jitter (3 to 9 poses an episode, where the table form about halves a
jitter's time) and the retargeting and interpolation of ``lfd`` and
``dq_sclerp_lanes``.  At a thousand lanes the table form is no faster than
the components.  A table product of (N, 4) lanes is F-ordered, and
``_lane_dot`` rounds F-ordered rows differently.  The lane chain
(``kinematics._chain_eval`` and ``_pose_error_lanes``) keeps ``_qmul`` on
components: one ``build_map`` of the benchmark's maps walks it 246 times, on
at most 1,080 lanes (``map``) or 864 (``hybrid``), median 104.5 and 55, and
about nine walks in ten have 300 lanes or fewer; yet a bit-identical
table-form walk (one broadcast multiply and one ordered reduce per Hamilton
product) was faster in only 11 of 40 alternated ``build_map`` runs.

One pose (``DualQuaternion.from_pose``, ``quat_normalize``,
``quat_from_axis_angle``, ``quat_from_euler`` and ``dq_translation`` of one
pose) is worked on Python floats, in the operations and order of the array
form, and each output array is built once: its cost is its numpy calls, not
its few dozen float operations.  ``math.sin``/``math.cos`` equal
``np.sin``/``np.cos`` on floats, and a norm stays ``np.linalg.norm``'s
``sqrt(v.dot(v))``, which a float sum of squares does not round alike, so the
result equals the array form (``tests/scalar_reference.py``) bit for bit.
The inverse functions do not carry over: numpy 2.4.6's AVX-512 loops for
``np.arctan2`` and ``np.arcsin`` round differently from ``math.atan2`` and
``math.asin`` (libm) on about 7% and 8% of random arguments (7,362 of
100,000 normal pairs and 8,389 of 100,000 uniform values in [-1, 1], on a
2-vCPU Xeon with AVX-512), while a numpy call rounds alike at any length,
contiguous or strided.  So ``_euler_floats``, the Euler angles of the
one-lane DRL step, works its arguments on floats and its angles in numpy.
The pose constructors refuse a non-finite position or rotation.  The
readers, ``DualQuaternion.from_array`` of one 8-vector and
``lfd.Demonstration`` of its (N, 8) lanes, refuse a non-finite entry, and a
pose that is not a unit dual quaternion: one whose drift, the larger of
``| |real| - 1 |`` and ``|real . dual|``, is above ``UNIT_TOL``.  They are
the only places the unit rule is checked.  A product of unit poses is unit
to rounding (over the benchmark's workloads no product drifts by more than
1e-15), so no product checks or renormalizes its result, and
``DualQuaternion(real, dual)`` takes its parts as given.

Lanes are (N, 8) arrays of dual quaternions, real part then dual part: the
one pose format below the planners' entry points, which convert poses with
``dq_to_lanes``.  ``dq_translation`` is the one translation rule.
``quat_mul_lanes`` and ``dq_mul_lanes`` are ``quat_mul`` and ``dq_mul`` on
every lane, with the same terms in the same order, and ``dq_sclerp`` is the
one-lane case of ``dq_sclerp_lanes``.
"""
from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-6  # the largest drift from a unit dual quaternion a reader accepts


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


def _lane_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products along the last axis; a batched dot, which rounds like the
    1-D ``u @ v`` of the one-vector path (an elementwise sum of products does
    not).

    It rounds by memory layout: only rows laid out in C order round like the
    1-D dot.  On numpy 2.4.6 the same (N, 4) values in C and in F order gave
    different dots on 145 of 400 rows at N = 2 and on 3,434 of 10,000 at
    N = 50 (200 normal draws each), and F-ordered rows missed the 1-D dot on
    338 of 1,000.  A table product (``quat_mul_lanes``) returns F-ordered
    lanes, so a caller that dots its rows copies them to C order first."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def quat_mul(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product q1 * q2."""
    return np.array(_qmul(*q1, *q2))


def quat_conj(q: np.ndarray) -> np.ndarray:
    """Quaternion conjugate."""
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a float vector, which is ``sqrt(v.dot(v))`` (a sum
    of squares on floats rounds differently); a rotation's norm must be
    finite and nonzero, and NaN fails both comparisons."""
    n = math.sqrt(v.dot(v))
    if not n < math.inf:
        raise ValueError("non-finite rotation")
    if not n >= 1e-12:
        raise ValueError("degenerate rotation")
    return n


def _turn(x, y, z, n, angle) -> tuple:
    """The rotation by ``angle`` about the axis (x, y, z) of norm n, as floats."""
    if not math.isfinite(angle):
        raise ValueError("non-finite rotation")
    half = 0.5 * angle
    s = math.sin(half)               # math.sin/cos equal np.sin/cos on floats
    return math.cos(half), s * x / n, s * y / n, s * z / n


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = _norm(q)
    w, x, y, z = q.tolist()
    return np.array((w / n, x / n, y / n, z / n))


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    return np.array(_turn(*axis.tolist(), _norm(axis), angle))


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
    qx = _turn(1.0, 0.0, 0.0, 1.0, roll)
    qy = _turn(0.0, 1.0, 0.0, 1.0, pitch)
    qz = _turn(0.0, 0.0, 1.0, 1.0, yaw)
    return np.array(_qmul(*qz, *_qmul(*qy, *qx)))


def quat_to_euler(q: np.ndarray) -> np.ndarray:
    """Quaternion -> Euler angles [roll, pitch, yaw], inverse of quat_from_euler."""
    w, x, y, z = q
    sinp = 2.0 * (w * y - z * x)
    sinp = np.clip(sinp, -1.0, 1.0)
    roll = np.arctan2(2.0 * (w * x + y * z), 1.0 - 2.0 * (x * x + y * y))
    pitch = np.arcsin(sinp)
    yaw = np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))
    return np.array([roll, pitch, yaw])


def _euler_floats(quats) -> list:
    """``quat_to_euler`` of float quaternions (w, x, y, z), flat as roll,
    pitch, yaw per quaternion: the arguments on floats in the array form's
    operations and order, then every angle from one ``np.arctan2`` call
    (rolls, then yaws) and one ``np.arcsin`` call.

    The angles stay in numpy because numpy's SIMD ``arctan2`` and
    ``arcsin`` do not round as the C library's ``math.atan2`` and
    ``math.asin`` do: on an AVX-512 machine with numpy 2.4.6 the two differ
    in the last bit on 7.6% and 8.5% of 200,000 uniform inputs in [-1, 1].
    The lane form's angles are numpy's, so ``math`` here would break the
    one-lane transition's bit equality and move every pinned digest."""
    ys, xs, sinps = [], [], []
    for w, x, y, z in quats:
        sinps.append(min(max(2.0 * (w * y - z * x), -1.0), 1.0))   # NaN stays NaN
        ys.append(2.0 * (w * x + y * z))
        xs.append(1.0 - 2.0 * (x * x + y * y))
    for w, x, y, z in quats:
        ys.append(2.0 * (w * z + x * y))
        xs.append(1.0 - 2.0 * (y * y + z * z))
    n = len(sinps)
    turns, pitch = np.arctan2(ys, xs).tolist(), np.arcsin(sinps).tolist()
    return [a for r, p, y in zip(turns[:n], pitch, turns[n:]) for a in (r, p, y)]


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

        ``rotation`` is either a quaternion [w, x, y, z], normalized here, or
        an (axis, angle) pair.  The dual part is worked on Python floats, and
        a non-finite position or rotation is refused.
        """
        if len(rotation) == 2:
            q_r = quat_from_axis_angle(*rotation)
        else:
            q_r = quat_normalize(rotation)
        px, py, pz = map(float, position)
        if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(pz)):
            raise ValueError("non-finite position")
        dw, dx, dy, dz = _qmul(0.0, px, py, pz, *q_r.tolist())
        return cls(q_r, np.array((0.5 * dw, 0.5 * dx, 0.5 * dy, 0.5 * dz)))

    @classmethod
    def from_translation(cls, t) -> "DualQuaternion":
        return cls.from_pose(t, (1.0, 0.0, 0.0, 0.0))

    @classmethod
    def from_array(cls, a: np.ndarray) -> "DualQuaternion":
        a = np.asarray(a, dtype=float)
        if a.shape != (8,):
            raise ValueError("expected 8 scalars (real w x y z, dual w x y z)")
        _refuse_non_unit(a)
        return cls(a[:4], a[4:])

    # -- accessors -----------------------------------------------------
    def as_array(self) -> np.ndarray:
        """Serialize as 8 scalars, real part then dual part."""
        return np.concatenate([self.real, self.dual])

    def translation(self) -> np.ndarray:
        """The translation, ``dq_translation`` of this pose's 8 floats."""
        return dq_translation(self.real.tolist() + self.dual.tolist())

    def conjugate(self) -> "DualQuaternion":
        return DualQuaternion(quat_conj(self.real), quat_conj(self.dual))

    def __repr__(self) -> str:
        return f"DualQuaternion(real={self.real}, dual={self.dual})"


def dq_mul(a: DualQuaternion, b: DualQuaternion) -> DualQuaternion:
    """Rigid-transform composition: apply b, then a.  The product of unit
    poses is returned as it rounds; the unit rule is checked where a pose is
    read (``DualQuaternion.from_array``, ``lfd.Demonstration``)."""
    real = quat_mul(a.real, b.real)
    dual = quat_mul(a.real, b.dual) + quat_mul(a.dual, b.real)
    return DualQuaternion(real, dual)


def dq_to_lanes(poses) -> np.ndarray:
    """Poses as lanes: a ``DualQuaternion`` gives its 8-vector, an array
    passes through as float64, and a sequence of ``DualQuaternion``s or
    8-vectors is stacked into (N, 8) lanes."""
    if isinstance(poses, np.ndarray):
        return np.asarray(poses, dtype=float)
    if isinstance(poses, DualQuaternion):
        return np.concatenate((poses.real, poses.dual))
    out = np.empty((len(poses), 8))
    if len(out):
        out[:, :4] = [p.real if isinstance(p, DualQuaternion) else p[:4] for p in poses]
        out[:, 4:] = [p.dual if isinstance(p, DualQuaternion) else p[4:] for p in poses]
    return out


def dq_translation(lanes) -> np.ndarray:
    """Translation t = 2 dual conj(real) of one pose, (3,), or of (N, 8)
    lanes, (N, 3).  One pose, an 8-vector or a list of 8 floats, is worked on
    Python floats, lanes by ``quat_mul_lanes``, with the same terms in the
    same order.  The lanes' result is F-ordered, the transpose of a (3, N)
    array."""
    if not isinstance(lanes, list):
        lanes = np.asarray(lanes)
        if lanes.ndim > 1:
            return 2.0 * quat_mul_lanes(lanes[..., 4:], lanes[..., :4] * _CONJ[:4])[..., 1:]
        lanes = lanes.tolist()
    rw, rx, ry, rz, dw, dx, dy, dz = lanes
    _, tx, ty, tz = _qmul(dw, dx, dy, dz, rw, -rx, -ry, -rz)
    return np.array((2.0 * tx, 2.0 * ty, 2.0 * tz))


def _refuse_non_unit(a: np.ndarray) -> None:
    """Refuse an 8-vector or (N, 8) lanes with a NaN or infinite entry,
    naming the first one, or with a pose whose drift from a unit dual
    quaternion is above ``UNIT_TOL``, naming its row and its drift."""
    bad = np.argwhere(~np.isfinite(a)).tolist()
    if bad:
        raise ValueError(f"pose entry {bad[0]} is {a[tuple(bad[0])]}, not finite")
    rows = np.reshape(a, (-1, 8))
    real, dual = rows[:, :4], rows[:, 4:]
    drift = np.maximum(np.abs(np.sqrt(_lane_dot(real, real)) - 1.0),
                       np.abs(_lane_dot(real, dual)))
    bad = np.flatnonzero(drift > UNIT_TOL)
    if len(bad):
        raise ValueError(f"pose row {bad[0]} drifts {drift[bad[0]]:.3g} from a unit dual "
                         f"quaternion (tolerance {UNIT_TOL:g})")


def _stack(comps) -> np.ndarray:
    """Components (broadcastable floats or arrays) -> one (..., k) array."""
    out = np.empty(np.broadcast(*comps).shape + (len(comps),))
    for i, c in enumerate(comps):
        out[..., i] = c
    return out


# The Hamilton product a * b as terms: component c of the product is the sum,
# in ``_qmul``'s order, of sign * a[i] * b[j] over its four (i, j, sign).
_HAMILTON = (((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
             ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
             ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
             ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)))
# (term, component) tables of one quaternion product over two 4-vectors
_QA = np.array([[_HAMILTON[c][t][0] for c in range(4)] for t in range(4)])
_QB = np.array([[_HAMILTON[c][t][1] for c in range(4)] for t in range(4)])
_QSIGN = np.array([[float(_HAMILTON[c][t][2]) for c in range(4)] for t in range(4)])
# the same over the 8-vectors of a dual product's three quaternion products,
# real*real, real*dual and dual*real, side by side
_PARTS = ((0, 0), (0, 4), (4, 0))
_IA = np.hstack([oa + _QA for oa, _ in _PARTS])
_IB = np.hstack([ob + _QB for _, ob in _PARTS])
_SIGN = np.tile(_QSIGN, len(_PARTS))


def _table_products(a, b, ia, ib, sign) -> np.ndarray:
    """The products a table describes: one gather of the term factors, one
    multiply by the term signs and one sum over each component's four terms.
    The sum runs in ``_qmul``'s order from -0.0 (numpy's +0.0 start would
    turn a sum of -0.0 terms into +0.0), and a negation is exact, so every
    product equals ``_qmul``'s bit for bit, signed zeros included.  The
    gather puts the lane axis last in memory, so the products of (N, k)
    lanes are F-ordered."""
    terms = a[..., ia] * b[..., ib]
    terms *= sign
    return np.add.reduce(terms, axis=-2, initial=-0.0)


def quat_mul_lanes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton products a * b of (N, 4) float lanes, F-ordered; a single
    4-vector on either side broadcasts.  About 4 ufunc calls where ``_qmul``
    on component arrays makes about 30."""
    return _table_products(a, b, _QA, _QB, _QSIGN)


def dq_mul_lanes(a, b) -> np.ndarray:
    """``dq_mul`` over (N, 8) lanes; a single 8-vector on either side broadcasts.

    The three quaternion products are one ``_table_products`` call over 48
    terms, so every lane equals ``dq_mul`` bit for bit.  That is about 10
    ufunc calls where ``_qmul`` on component arrays makes about 30: half the
    time at N = 1 to 200, and even at N = 1,000.  Like ``dq_mul``, it returns
    the products as they round, and checks no lane against the unit rule.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    prod = _table_products(a, b, _IA, _IB, _SIGN)
    out = np.empty(prod.shape[:-1] + (8,))
    out[..., :4] = prod[..., :4]
    np.add(prod[..., 4:8], prod[..., 8:], out=out[..., 4:])
    return out


_CONJ = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])


def dq_conjugate_lanes(a) -> np.ndarray:
    """Inverse of unit dual quaternions on (N, 8) lanes."""
    return np.asarray(a, dtype=float) * _CONJ


def _screw_power_lanes(rel: np.ndarray, u) -> tuple:
    """rel^u along the screw axis of each lane of rel (unit, real.w >= 0), as
    components.  Lanes with no rotation are pure translations, scaled by u."""
    rw, rx, ry, rz = rel.T[:4]
    w = np.minimum(rw, 1.0)                              # clip; rw >= 0 already
    sin_half = np.sqrt(_lane_dot(rel[..., 1:4], rel[..., 1:4]))
    tx, ty, tz = dq_translation(rel).T                   # translation of rel
    screw = sin_half >= 1e-9
    angle = 2.0 * np.arctan2(sin_half, w)
    s = np.where(screw, sin_half, 1.0)
    ax, ay, az = rx / s, ry / s, rz / s                  # screw axis
    d = tx * ax + ty * ay + tz * az                      # pitch translation along it
    px, py, pz = tx - d * ax, ty - d * ay, tz - d * az   # t_perp
    # point on the screw axis: (I - R) c = t_perp
    tan_half = np.where(screw, np.tan(0.5 * angle), 1.0)
    cx = 0.5 * (px + (ay * pz - az * py) / tan_half)
    cy = 0.5 * (py + (az * px - ax * pz) / tan_half)
    cz = 0.5 * (pz + (ax * py - ay * px) / tan_half)
    # rotation by u * angle; the identity (half = 0) on translation lanes
    half = np.where(screw, 0.5 * (u * angle), 0.0)
    qw, sh = np.cos(half), np.sin(half)
    qx, qy, qz = sh * ax, sh * ay, sh * az
    rcx, rcy, rcz = _qrot(qw, qx, qy, qz, cx, cy, cz)
    ud = u * d
    # t_new = c - R c + u d axis on screw lanes, u t on translation lanes
    nx = np.where(screw, cx - rcx + ud * ax, u * tx)
    ny = np.where(screw, cy - rcy + ud * ay, u * ty)
    nz = np.where(screw, cz - rcz + ud * az, u * tz)
    dual = _qmul(0.0, nx, ny, nz, qw, qx, qy, qz)
    return (qw, qx, qy, qz) + tuple(0.5 * c for c in dual)


def dq_sclerp_lanes(a, b, u) -> np.ndarray:
    """Screw linear interpolation from a (u=0) to b (u=1) on (N, 8) lanes.

    ``a``, ``b`` and ``u`` broadcast against each other: one pair of poses at
    N parameters, or N pairs at one or N parameters.  Per lane it follows the
    one-pose rule: an antipodal b is flipped to take the shorter screw, the
    relative transform is taken with real.w >= 0, and a relative transform
    without rotation is interpolated linearly in its translation.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    u = np.asarray(u, dtype=float)
    # rounded like the one-pose np.dot: at a half turn the sign is a tie
    flip = _lane_dot(a[..., :4], b[..., :4]) < 0.0
    b = np.where(flip[..., None], -b, b)
    rel = dq_mul_lanes(dq_conjugate_lanes(a), b)
    rel = np.where((rel[..., 0] < 0.0)[..., None], -rel, rel)
    return dq_mul_lanes(a, _stack(_screw_power_lanes(rel, u)))


def dq_sclerp(a: DualQuaternion, b: DualQuaternion, u: float) -> DualQuaternion:
    """Screw linear interpolation from a (u=0) to b (u=1): the one-lane
    ``dq_sclerp_lanes``."""
    return DualQuaternion.from_array(dq_sclerp_lanes(a.as_array(), b.as_array(), float(u)))
