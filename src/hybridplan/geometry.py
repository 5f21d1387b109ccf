"""Analytic collision checking and ray casting against axis-aligned boxes.

Links are capsules (segment + radius) between kinematic frame origins, and
every obstacle is a ``Box``: any other raises TypeError.  All checks are
discrete per-configuration; trajectory-level safety comes from checking
interpolated waypoints at fine joint-space resolution.

``collision_index`` checks one configuration: the float broad phase, then
each capsule-box pair it keeps with ``segment_box_distance`` on Python
floats, stopping at the first contact, then every capsule pair it keeps in
one ``_segment_segment_lanes`` call, the one capsule-pair kernel of both
checks.  ``collision_index_lanes`` checks an (N, dof) array of
configurations at once: frame points from one lane ``_chain_eval``, then
every (configuration, capsule, box) and (configuration, capsule pair) triple
as one row of a batched distance evaluation, ``_segment_box_lanes`` with
``segment_box_distance``'s arithmetic, so its verdict equals the scalar one
on every row.
``collision_index_points`` is either check on frame points the caller
already has, so a DRL step that walked the chain once for its observation
does not walk it again.  ``score_lanes`` gives the normalized
manipulability with the lane verdicts, both off one chain walk, to annotate
joint rows.

Broad phase (Ericson, *Real-Time Collision Detection*, 2005, ch. 7): ahead of
the exact capsule-box and capsule-capsule distances, a pair is dropped when
along some axis both ends of one segment lie more than the summed radii plus
``BROAD_MARGIN`` (1e-9) beyond both ends of the other (a box counts as the
segment between its corners).  The exact distance is at least that gap and
the margin lies far above the rounding of frames and distances, so every
verdict is the exact test's, bit for bit.  ``_apart`` is the rule on Python
floats for the one-configuration paths; ``_near`` is the same rule on
arrays, and the lane check runs the exact kernels only on the rows it
keeps, with no call when it keeps none.  On the wall cell most pairs are
apart: in the kernel suite (2-vCPU VM, numpy 2.4.6) one scalar check on
the planar 3R arm takes 26 us against 92 us without the broad phase.  A
lane call keeps a fixed cost of about 0.5 ms at N = 1, some 20 scalar
checks: most of it is the lane chain walk, and ``_segment_box_lanes`` adds
a few hundred us whenever a row is kept.  So the lane call serves whole
trajectories and lane environments.

``ray_bundle_lanes`` casts the end-effector bundle of ``RAY_COUNT`` rays,
each clamped to ``RAY_RANGE``, from given end-effector states, one state or
N lanes; ``raycast_many`` meets every ray with every box in one slab pass.
Both read the boxes from a ``slab_table``, which a caller that casts at
every step (``DrlEnv``) builds once.  The table and the pass are axis-first,
(2, 3, ..., k, B) for (face, axis, origin, ray, box), so one origin and N
lanes share one code path, and the reductions over the three axes are
elementwise ``maximum``/``minimum`` calls rather than reductions over a
short last axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hybridplan import records
from hybridplan.dualquat import _lane_dot, quat_to_matrix
from hybridplan.kinematics import (RobotModel, _chain_eval, _frame_points_raw,
                                   _normalized_manipulability_raw, ee_state, frame_points)

RAY_COUNT = 25        # rays in the end-effector bundle
RAY_RANGE = 2.0       # meters; a ray that meets nothing nearer reads this


@dataclass(frozen=True, eq=False)
class Box:
    lo: np.ndarray
    hi: np.ndarray
    id: str = "box"

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if not np.all(np.isfinite([self.lo, self.hi])):
            raise ValueError(f"box corners {self.lo.tolist()}, {self.hi.tolist()} are not finite")
        if not np.all(self.lo < self.hi):
            raise ValueError("box needs min < max per axis")


def _checked(obstacles):
    """``obstacles``, each a ``Box``, or TypeError naming the first that is not."""
    for ob in obstacles:
        if not isinstance(ob, Box):
            raise TypeError(f"unknown obstacle type {type(ob).__name__!r}: obstacles are Boxes")
    return obstacles


def obstacle_line(ob) -> str:
    """The record line of a Box, the bytes ``obstacles_signature`` hashes."""
    _checked([ob])
    return records.line("box", ob.id, ob.lo, ob.hi)


# ------------------------------------------------------------------ #
# Distance primitives
# ------------------------------------------------------------------ #
def point_box_distance(p, lo, hi) -> float:
    d = np.maximum(np.maximum(lo - p, 0.0), p - hi)
    return float(np.linalg.norm(d))


def segment_box_distance(p, q, lo, hi) -> float:
    """Exact segment-to-AABB distance.

    The squared distance along the segment is piecewise quadratic with
    breakpoints where a coordinate crosses a slab bound; each piece is
    minimized in closed form.  Runs on Python floats; ``_segment_box_lanes``
    is the same arithmetic over rows.
    """
    p = np.asarray(p, dtype=float).tolist()
    v = (np.asarray(q, dtype=float) - p).tolist()
    lo = np.asarray(lo, dtype=float).tolist()
    hi = np.asarray(hi, dtype=float).tolist()
    knots = [0.0, 1.0]
    for a in range(3):
        if abs(v[a]) > 1e-15:
            for bound in (lo[a], hi[a]):
                t = (bound - p[a]) / v[a]
                if 0.0 < t < 1.0:
                    knots.append(t)
    knots = sorted(set(knots))
    best = math.inf
    for ta, tb in zip(knots[:-1], knots[1:]):
        tm = 0.5 * (ta + tb)
        # active axes are fixed within the piece; build the quadratic
        A = B = C = 0.0
        for a in range(3):
            x = p[a] + tm * v[a]
            if x < lo[a]:
                # term (lo - p - t v)^2
                A += v[a] * v[a]
                B += -2.0 * (lo[a] - p[a]) * v[a]
                C += (lo[a] - p[a]) ** 2
            elif x > hi[a]:
                A += v[a] * v[a]
                B += 2.0 * (p[a] - hi[a]) * v[a]
                C += (p[a] - hi[a]) ** 2
        cands = [ta, tb]
        if A > 1e-18:
            cands.append(min(max(-B / (2.0 * A), ta), tb))
        for t in cands:
            val = A * t * t + B * t + C
            if val < best:
                best = val
    return math.sqrt(max(best, 0.0))


# ------------------------------------------------------------------ #
# Broad phase
# ------------------------------------------------------------------ #
BROAD_MARGIN = 1e-9          # far above the rounding of frames and distances


def _apart(p1, q1, p2, q2, reach) -> bool:
    """True when along some axis both ends of the segment [p1, q1] lie more
    than ``reach + BROAD_MARGIN`` beyond both ends of [p2, q2] (float
    triples; a box is the segment from its lower to its upper corner).  The
    two are then farther apart than ``reach``, so the exact distance less
    ``reach`` is positive.  A NaN is never apart."""
    lim = reach + BROAD_MARGIN
    for a, b, c, d in zip(p1, q1, p2, q2):
        if (c - a > lim and c - b > lim and d - a > lim and d - b > lim) or \
                (a - c > lim and a - d > lim and b - c > lim and b - d > lim):
            return True
    return False


def _boxes(obstacles):
    """The (B, 3) lower and upper corners of the boxes ``obstacles``."""
    boxes = _checked(obstacles)
    return (np.array([ob.lo for ob in boxes]).reshape(-1, 3),
            np.array([ob.hi for ob in boxes]).reshape(-1, 3))


def _near(p1, q1, p2, q2, reach) -> np.ndarray:
    """``not _apart`` over broadcast (..., 3) rows: rounded subtraction is
    monotone, so the gap between the two bounding boxes along an axis is the
    least of ``_apart``'s four differences, bit for bit."""
    gap = np.maximum(np.minimum(p2, q2) - np.maximum(p1, q1),
                     np.minimum(p1, q1) - np.maximum(p2, q2)).max(axis=-1)
    return ~(gap > reach + BROAD_MARGIN)


# ------------------------------------------------------------------ #
# Collision index
# ------------------------------------------------------------------ #
def collision_index(model: RobotModel, theta, obstacles) -> int:
    """1 iff any link capsule overlaps an obstacle or a non-adjacent link."""
    return collision_index_points(model, frame_points(model, theta), obstacles)


def collision_index_points(model: RobotModel, pts, obstacles):
    """``collision_index`` from given frame points (``frame_points``): an int
    for one configuration's (dof + 2, 3), stopping at the first capsule-box
    contact; (N,) uint8 for lanes (N, dof + 2, 3), equal to the int on every
    row."""
    if np.ndim(pts) == 3:
        return _collision_index_lanes(model, pts, obstacles)
    pl = pts.tolist()
    caps = [(pts[c.frame_a], pts[c.frame_b], c.radius, (c.frame_a, c.frame_b),
             pl[c.frame_a], pl[c.frame_b]) for c in model.capsules]
    boxes = [(ob.lo, ob.hi, ob.lo.tolist(), ob.hi.tolist()) for ob in _checked(obstacles)]
    for p, q, r, _, a, b in caps:
        for lo, hi, lo_f, hi_f in boxes:
            if not _apart(a, b, lo_f, hi_f, r) and segment_box_distance(p, q, lo, hi) - r <= 0.0:
                return 1
    kept = [(ai, bi, aj, bj, ri + rj)
            for i, (_, _, ri, fi, ai, bi) in enumerate(caps)
            for _, _, rj, fj, aj, bj in caps[i + 1:]
            # adjacent links share a joint and permanently touch
            if not set(fi) & set(fj) and not _apart(ai, bi, aj, bj, ri + rj)]
    if kept:
        p1, q1, p2, q2, reach = map(np.array, zip(*kept))
        return int(np.any(_segment_segment_lanes(p1, q1, p2, q2) <= reach))
    return 0


# ------------------------------------------------------------------ #
# Collision index over lanes: one row per distance evaluation
# ------------------------------------------------------------------ #
def _segment_box_lanes(p, q, lo, hi) -> np.ndarray:
    """``segment_box_distance`` row by row over (R, 3) arrays.

    Each row's 8 knots are 0, the six slab crossings and 1; a crossing
    outside (0, 1) or along an axis the segment does not move on is padded
    with 1.0, and the zero-length pieces that padding and repeated knots
    leave between sorted knots are masked, which leaves the scalar's pieces.
    """
    v = q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.concatenate([(lo - p) / v, (hi - p) / v], axis=1)
    ok = np.tile(np.abs(v) > 1e-15, 2) & (t > 0.0) & (t < 1.0)
    ends = np.zeros((len(p), 1))
    knots = np.sort(np.concatenate([ends, np.where(ok, t, 1.0), ends + 1.0], axis=1), axis=1)
    ta, tb = knots[:, :-1], knots[:, 1:]
    tm = 0.5 * (ta + tb)
    A = B = C = 0.0
    for a in range(3):
        pa, va, la, ha = p[:, a, None], v[:, a, None], lo[:, a, None], hi[:, a, None]
        x = pa + tm * va
        below, above = x < la, x > ha
        A = A + np.where(below | above, va * va, 0.0)
        B = B + np.where(below, -2.0 * (la - pa) * va,
                         np.where(above, 2.0 * (pa - ha) * va, 0.0))
        # float_power calls pow() like the scalar ``** 2``; the array ``** 2``
        # squares, which differs in the last bit on about 0.1% of inputs
        C = C + np.where(below, np.float_power(la - pa, 2.0),
                         np.where(above, np.float_power(pa - ha, 2.0), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_min = np.clip(-B / (2.0 * A), ta, tb)
    best = np.minimum(A * ta * ta + B * ta + C, A * tb * tb + B * tb + C)
    best = np.minimum(best, np.where(A > 1e-18, A * t_min * t_min + B * t_min + C, np.inf))
    return np.sqrt(np.maximum(np.where(tb > ta, best, np.inf).min(axis=1), 0.0))


def _segment_segment_lanes(p1, q1, p2, q2) -> np.ndarray:
    """Closest distance between the segments [p1, q1] and [p2, q2] (Ericson)
    row by row over (R, 3) arrays: every branch of the one-pair form is
    computed and its branch is selected per row."""
    d1, d2, r = q1 - p1, q2 - p2, p1 - p2
    a, e, f = _lane_dot(d1, d1), _lane_dot(d2, d2), _lane_dot(d2, r)
    c, b = _lane_dot(d1, r), _lane_dot(d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        den = a * e - b * b
        s = np.where(den > 1e-18, np.clip((b * f - c * e) / den, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        s_near = np.clip(-c / a, 0.0, 1.0)         # t clamped to 0, or e ~ 0
        s_far = np.clip((b - c) / a, 0.0, 1.0)     # t clamped to 1
        t_only = np.clip(f / e, 0.0, 1.0)          # a ~ 0
    s = np.where(t < 0.0, s_near, np.where(t > 1.0, s_far, s))
    t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
    s = np.where(e < 1e-18, s_near, s)
    t = np.where(e < 1e-18, 0.0, t)
    s = np.where(a < 1e-18, 0.0, s)
    t = np.where(a < 1e-18, np.where(e < 1e-18, 0.0, t_only), t)
    w = p1 + s[:, None] * d1 - (p2 + t[:, None] * d2)
    return np.sqrt(_lane_dot(w, w))


def collision_index_lanes(model: RobotModel, thetas, obstacles) -> np.ndarray:
    """``collision_index`` of every row of an (N, dof) array, (N,) uint8."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1, model.dof)
    return _collision_index_lanes(model, frame_points(model, thetas), obstacles)


def score_lanes(model: RobotModel, thetas, obstacles) -> tuple:
    """(normalized manipulability, ``collision_index_lanes``) of an (N, dof)
    array from one lane chain walk, lane k of each equal to the scalar
    ``normalized_manipulability`` and ``collision_index`` of row k (zero rows
    give empty arrays)."""
    thetas = np.asarray(thetas, dtype=float).reshape(-1, model.dof)
    axes, origins, _, _, p = _chain_eval(model, thetas)
    return (_normalized_manipulability_raw(model, axes, origins, p),
            _collision_index_lanes(model, _frame_points_raw(origins, p), obstacles))


def _collision_index_lanes(model: RobotModel, pts, obstacles) -> np.ndarray:
    """The lane verdicts from (N, dof + 2, 3) frame points; the exact
    distances run only on the rows the broad phase keeps, and not at all
    when it keeps none."""
    lo, hi = _boxes(obstacles)
    n = len(pts)
    hit = np.zeros(n, dtype=bool)
    caps = model.capsules
    rad = np.array([cap.radius for cap in caps], dtype=float)
    p = pts[:, [cap.frame_a for cap in caps]]          # (N, capsules, 3)
    q = pts[:, [cap.frame_b for cap in caps]]
    rows = np.flatnonzero(_near(p[:, :, None], q[:, :, None], lo, hi, rad[:, None]))
    if len(rows):
        at, cap, box = np.unravel_index(rows, (n, len(caps), len(lo)))
        d = _segment_box_lanes(p[at, cap], q[at, cap], lo[box], hi[box]) - rad[cap]
        hit[at[d <= 0.0]] = True
    pairs = [(i, j) for i in range(len(caps)) for j in range(i + 1, len(caps))
             if not {caps[i].frame_a, caps[i].frame_b} & {caps[j].frame_a, caps[j].frame_b}]
    if pairs:
        i, j = (np.array(ix) for ix in zip(*pairs))
        reach = rad[i] + rad[j]
        rows = np.flatnonzero(_near(p[:, i], q[:, i], p[:, j], q[:, j], reach))
        if len(rows):
            at, pair = np.divmod(rows, len(pairs))
            d = _segment_segment_lanes(p[at, i[pair]], q[at, i[pair]],
                                       p[at, j[pair]], q[at, j[pair]])
            hit[at[d <= reach[pair]]] = True
    return hit.astype(np.uint8)


# ------------------------------------------------------------------ #
# Ray casting
# ------------------------------------------------------------------ #
def slab_table(obstacles) -> np.ndarray:
    """The ray cast's view of the boxes ``obstacles``, built once per scene:
    their lower and upper corners axis-first, a (2, 3, 1, B) array of (face,
    axis, ray, box)."""
    lo, hi = _boxes(obstacles)
    return np.array([lo.T, hi.T])[:, :, None]


def raycast_many(origin, dirs, slabs, max_range) -> np.ndarray:
    """First surface crossing along each ray, clamped to max_range.

    dirs has shape (k, 3) with unit rows and origin (3,); returns (k,)
    distances.  Lanes: origins (N, 3) with dirs (N, k, 3) give (N, k), and
    row n equals the one-origin call on origin n.  ``slabs`` is the
    ``slab_table`` of the boxes, met in one slab pass: every ray against
    every box's faces on (2, 3, ..., k, B) arrays, axis first, so each
    reduction over the axes is two elementwise calls; then the nearest hit
    over the boxes.

    A ray parallel to a slab (a component below 1e-15) divides by +0.0, so
    IEEE division gives that slab's -inf and +inf from inside and a miss from
    outside (Williams, Barrus, Morley and Shirley, J. Graphics Tools 10(1),
    2005).  Only an origin on a face plane makes a 0/0 there, and only then
    are the parallel slabs set by comparison.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    if dirs.ndim == 2:          # (2, 3, 1, B) faces, (3, 1, 1) origin, (3, k, 1) rays
        faces, at, d = slabs, origin[:, None, None], dirs.T[..., None]
    else:                       # (2, 3, 1, 1, B), (3, N, 1, 1) and (3, N, k, 1)
        faces, at = slabs[:, :, None], origin.T[..., None, None]
        d = dirs.transpose(2, 0, 1)[..., None]
    par = np.abs(d) < 1e-15
    gap = faces - at
    with np.errstate(divide="ignore", invalid="ignore"):
        t = gap / np.where(par, 0.0, d)                         # (2, 3, ..., k, B)
    lohit, hihit = np.minimum(t[0], t[1]), np.maximum(t[0], t[1])
    if (gap == 0.0).any():
        lohit, hihit = _face_planes(lohit, hihit, at, faces, par)
    tmin = np.maximum(np.maximum(lohit[0], lohit[1]), lohit[2])
    tmax = np.minimum(np.minimum(hihit[0], hihit[1]), hihit[2])
    # a hit has tmax >= max(tmin, 0), so the distance it picks is >= 0 and
    # the max_range that dist starts from is the only clamp needed
    hit = tmax >= np.maximum(tmin, 0.0)
    t = np.where(hit, np.where(tmin >= 0.0, tmin, tmax), np.inf)   # origin inside: exit
    dist = np.full(dirs.shape[:-1], float(max_range))
    for k in range(t.shape[-1]):
        # one box after another: a tie of +0 and -0 resolves as it does box
        # by box (``np.minimum.reduce`` resolves it otherwise from 8 boxes on)
        dist = np.minimum(dist, t[..., k])
    return dist


def _face_planes(lohit, hihit, at, faces, par):
    """``raycast_many``'s slab bounds with every parallel slab set by
    comparison: inside -> no constraint, outside -> miss.  Only an origin on
    a face plane needs it, where a parallel slab divided 0 by 0."""
    fill = np.where((at >= faces[0]) & (at <= faces[1]), -np.inf, np.inf)
    return np.where(par, fill, lohit), np.where(par, -fill, hihit)


# the 25 unit ray directions in the end-effector frame: 1 along the approach
# axis (+x), 8 on a 30 degree cone and 16 on a 60 degree cone, evenly spaced
# in azimuth measured from +y
_BUNDLE = np.array([[1.0, 0.0, 0.0]] + [
    [np.cos(half_angle), np.sin(half_angle) * np.cos(az), np.sin(half_angle) * np.sin(az)]
    for count, half_angle in ((8, np.radians(30.0)), (16, np.radians(60.0)))
    for az in (2.0 * np.pi * k / count for k in range(count))])


def ray_bundle(model: RobotModel, theta, obstacles) -> np.ndarray:
    """25 ray distances from the end effector, pattern rigidly frame-attached."""
    q, p = ee_state(model, theta)
    return ray_bundle_lanes(q, p, slab_table(obstacles))


def ray_bundle_lanes(q, p, slabs) -> np.ndarray:
    """``ray_bundle`` from end-effector states, the (q, p) of ``_chain_eval``,
    against a ``slab_table``: floats give (25,); (N,) lanes give (N, 25), one
    ``raycast_many`` over every lane's rays, with lane n equal to the
    one-state call."""
    R = quat_to_matrix(q)                      # (3, 3), or (3, 3, N) for lanes
    return raycast_many(np.array(p).T, _BUNDLE @ R.T, slabs, RAY_RANGE)
