import itertools
import warnings

import numpy as np
import pytest

from hybridplan import geometry
from hybridplan.dualquat import DualQuaternion, quat_to_matrix
from hybridplan.geometry import (
    Box,
    _segment_box_lanes,
    _segment_segment_lanes,
    collision_index,
    collision_index_lanes,
    collision_index_points,
    point_box_distance,
    ray_bundle,
    ray_bundle_lanes,
    score_lanes,
    segment_box_distance,
    slab_table,
)
from hybridplan.kinematics import (
    LinkCapsule,
    _chain_eval,
    frame_points,
    make_robot,
    normalized_manipulability,
    planar_3r,
    planar_rr,
)
from hybridplan.scenarios import wall_slot
from scalar_reference import raycast, segment_segment_distance, without_broad_phase
from scalar_reference import raycast_many as reference_raycast_many
from test_kinematics import seven_dof

Z = np.array([0.0, 0.0, 1.0])
Y = np.array([0.0, 1.0, 0.0])


# ------------------------------------------------------------------ #
# Distance primitives
# ------------------------------------------------------------------ #
def test_segment_box_distance_matches_point_oracle():
    lo, hi = np.array([-1.0, -1, -1]), np.array([1.0, 1, 1])
    rng = np.random.default_rng(0)
    for _ in range(500):
        p = rng.uniform(-3, 3, size=3)
        q = rng.uniform(-3, 3, size=3)
        got = segment_box_distance(p, q, lo, hi)
        # dense-sampling oracle over the segment
        ts = np.linspace(0, 1, 2001)
        pts = p[None, :] + ts[:, None] * (q - p)[None, :]
        d = np.maximum(np.maximum(lo - pts, 0.0), pts - hi)
        oracle = np.sqrt((d * d).sum(axis=1)).min()
        assert got <= oracle + 1e-12
        assert got >= oracle - 2e-3  # sampling resolution bound


def test_segment_segment_distance_cases():
    cases = [
        # parallel unit-separated segments
        ([0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [1.0, 1, 0], 1.0),
        # crossing at right angles with z gap
        ([-1.0, 0, 0], [1.0, 0, 0], [0.0, -1, 0.5], [0.0, 1, 0.5], 0.5),
        # degenerate: both points
        ([0.0, 0, 0], [0.0, 0, 0], [3.0, 4, 0], [3.0, 4, 0], 5.0),
    ]
    *ends, _ = (np.array(column, dtype=float) for column in zip(*cases))
    batch = _segment_segment_lanes(*ends)
    for k, (*row, want) in enumerate(cases):
        d = segment_segment_distance(*map(np.array, row))
        assert d == pytest.approx(want)
        # the kernel both collision checks call: one row of a batch, and alone
        assert batch[k] == d
        assert _segment_segment_lanes(*(e[k:k + 1] for e in ends))[0] == d


# ------------------------------------------------------------------ #
# collision_index
# ------------------------------------------------------------------ #
def test_collision_empty_scene():
    m = planar_rr()
    assert collision_index(m, m.home, []) == 0


def test_collision_box_enclosing_end_effector():
    m = planar_rr()
    box = Box([1.5, -0.5, -0.5], [2.5, 0.5, 0.5])
    assert collision_index(m, np.array([0.0, 0.0]), [box]) == 1


def test_collision_grazing_margin():
    # horizontal arm along x; box face at y = radius + margin above the link
    m = planar_rr(radius=0.05)
    theta = np.array([0.0, 0.0])
    clear = Box([0.5, 0.05 + 1e-3, -0.1], [1.5, 1.0, 0.1])
    tight = Box([0.5, 0.05 - 1e-4, -0.1], [1.5, 1.0, 0.1])
    assert collision_index(m, theta, [clear]) == 0
    assert collision_index(m, theta, [tight]) == 1


def test_self_collision_nonadjacent_links():
    # 4-link planar chain folded back onto itself
    lim = (-np.pi, np.pi)
    joints = [(Z, DualQuaternion.identity(), lim),
              (Z, DualQuaternion.from_translation([0.5, 0, 0]), lim),
              (Z, DualQuaternion.from_translation([0.5, 0, 0]), lim),
              (Z, DualQuaternion.from_translation([0.5, 0, 0]), lim)]
    tool = DualQuaternion.from_translation([0.5, 0, 0])
    caps = [LinkCapsule(1, 2, 0.04), LinkCapsule(2, 3, 0.04),
            LinkCapsule(3, 4, 0.04), LinkCapsule(4, 5, 0.04)]
    m = make_robot("fold", joints, tool, caps, home=[0.0, 0.5, 0.5, 0.5], task="planar")
    open_pose = np.array([0.0, 0.3, 0.3, 0.3])
    folded = np.array([0.0, 3.0, 3.0, 3.0])  # doubles back over the first link
    assert collision_index(m, open_pose, []) == 0
    assert collision_index(m, folded, []) == 1


def inflated(ob, eps):
    """The box ``ob`` grown by ``eps`` on every side (shrunk for a negative ``eps``)."""
    return Box(ob.lo - eps, ob.hi + eps, ob.id)


def test_collision_conservative_under_inflation():
    m = planar_rr()
    rng = np.random.default_rng(1)
    for _ in range(200):
        theta = rng.uniform(-3, 3, size=2)
        ob = Box(rng.uniform(-2, 0, size=3), rng.uniform(0.05, 2, size=3) + 0.1)
        before = collision_index(m, theta, [ob])
        after = collision_index(m, theta, [inflated(ob, 0.05)])
        assert after >= before


# ------------------------------------------------------------------ #
# collision_index_lanes
# ------------------------------------------------------------------ #
def _degenerate_segments(rng, n):
    """Random segments with axis-aligned, zero-length and tiny rows mixed in."""
    p = rng.uniform(-2, 2, (n, 3))
    q = rng.uniform(-2, 2, (n, 3))
    q[::5] = p[::5] + 0.02 * (q[::5] - p[::5])
    q[::7, 1] = p[::7, 1]
    q[::11] = p[::11]
    q[::13, :2] = p[::13, :2]
    q[::17] = p[::17] + 1e-10
    return p, q


def test_lane_distance_primitives_equal_scalar_bitwise():
    rng = np.random.default_rng(4)
    n = 3000
    p, q = _degenerate_segments(rng, n)
    lo = rng.uniform(-1, 0, (n, 3))
    hi = lo + rng.uniform(0.1, 1, (n, 3))
    p[::19, 0] = lo[::19, 0]                 # endpoints on box faces
    q[::23, 2] = hi[::23, 2]
    ref = [segment_box_distance(*row) for row in zip(p, q, lo, hi)]
    np.testing.assert_array_equal(_segment_box_lanes(p, q, lo, hi), ref)
    p2, q2 = _degenerate_segments(rng, n)
    q2[::9] = p2[::9] + 0.5 * (q - p)[::9]   # parallel pairs
    p2[::29] = p[::29]                       # touching pairs
    ref = [segment_segment_distance(*row) for row in zip(p, q, p2, q2)]
    np.testing.assert_array_equal(_segment_segment_lanes(p, q, p2, q2), ref)


def fold5():
    """Spatial 5-DoF arm whose folded poses bring non-adjacent links together."""
    axes = [Z, Y, Y, Y, Z]
    joints = [(a, DualQuaternion.from_translation([0, 0, 0.3 if k else 0.1]), (-2.9, 2.9))
              for k, a in enumerate(axes)]
    caps = [LinkCapsule(k, k + 1, 0.05) for k in range(1, 6)]
    return make_robot("fold5", joints, DualQuaternion.from_translation([0, 0, 0.2]),
                      caps, home=[0.0, 0.3, 0.3, 0.3, 0.0], task="spatial")


def _scene(name):
    if name == "wall":                     # planar 3R and the wall_slot boxes
        scene = wall_slot()
        return scene["robot"], scene["cell"].obstacles
    if name == "spatial_self":             # every contact is a self-collision
        return fold5(), []
    return fold5(), [Box([0.15, 0.05, 0.35], [0.45, 0.35, 0.65]),
                     Box([-0.5, -0.6, 0.2], [-0.2, -0.3, 0.6])]


@pytest.mark.parametrize("name", ["wall", "spatial_self", "spatial_mixed"])
def test_collision_index_lanes_matches_scalar(name):
    model, obstacles = _scene(name)
    rng = np.random.default_rng(5)
    thetas = rng.uniform(model.limits_lo, model.limits_hi, (600, model.dof))
    ref = np.array([collision_index(model, t, obstacles) for t in thetas])
    assert 0 < ref.sum() < len(ref)
    got = collision_index_lanes(model, thetas, obstacles)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, ref)
    # near contact: bisect between free and colliding configurations until the
    # two ends differ by round-off, and keep both ends
    near = []
    for a, b in zip(thetas[ref == 0][:40], thetas[ref == 1][:40]):
        for _ in range(45):
            mid = 0.5 * (a + b)
            if collision_index(model, mid, obstacles):
                b = mid
            else:
                a = mid
        near += [a, b]
    near = np.array(near)
    ref = np.array([collision_index(model, t, obstacles) for t in near])
    np.testing.assert_array_equal(collision_index_lanes(model, near, obstacles), ref)
    assert ref.sum() == len(near) // 2


@pytest.mark.parametrize("name", ["wall", "spatial_mixed"])
def test_score_lanes_is_both_lane_scores_from_one_walk(name, monkeypatch):
    model, obstacles = _scene(name)
    thetas = np.random.default_rng(6).uniform(model.limits_lo, model.limits_hi,
                                              (200, model.dof))
    man, col = score_lanes(model, thetas, obstacles)
    np.testing.assert_array_equal(man, [normalized_manipulability(model, t) for t in thetas])
    np.testing.assert_array_equal(col, collision_index_lanes(model, thetas, obstacles))
    assert col.dtype == np.uint8
    # zero rows: empty scores, and no chain walk
    monkeypatch.setattr(geometry, "_chain_eval", None)
    man, col = score_lanes(model, np.zeros((0, model.dof)), obstacles)
    assert man.shape == col.shape == (0,) and col.dtype == np.uint8


def test_collision_index_lanes_count_exact_touch_as_contact():
    # radius 0.25 and a stretched arm along x: every distance is exact
    m = planar_rr(radius=0.25)
    theta = np.zeros((1, 2))
    ob = Box([0.5, 0.25, -0.1], [1.5, 1.0, 0.1])
    assert collision_index(m, theta[0], [ob]) == 1
    assert collision_index_lanes(m, theta, [ob])[0] == 1
    assert collision_index_lanes(m, theta, [inflated(ob, -1e-9)])[0] == 0


def test_collision_index_lanes_empty_input_and_no_capsules():
    model, obstacles = _scene("wall")
    out = collision_index_lanes(model, np.zeros((0, model.dof)), obstacles)
    assert out.shape == (0,) and out.dtype == np.uint8
    bare = make_robot("bare", [(Z, DualQuaternion.identity(), (-3.0, 3.0)),
                               (Z, DualQuaternion.from_translation([1, 0, 0]), (-3.0, 3.0))],
                      DualQuaternion.from_translation([1, 0, 0]), [], home=[0.0, 1.0],
                      task="planar")
    box = Box([-5.0, -5.0, -1.0], [5.0, 5.0, 1.0])
    np.testing.assert_array_equal(collision_index_lanes(bare, np.zeros((3, 2)), [box]), 0)


@pytest.mark.parametrize("name", ["wall", "spatial_mixed"])
def test_collision_index_points_takes_one_configuration_or_lanes(name):
    model, obstacles = _scene(name)
    thetas = np.random.default_rng(8).uniform(model.limits_lo, model.limits_hi,
                                              (200, model.dof))
    pts = frame_points(model, thetas)
    assert pts.shape == (200, model.dof + 2, 3)
    for k in range(len(thetas)):
        np.testing.assert_array_equal(pts[k], frame_points(model, thetas[k]))
    lanes = collision_index_points(model, pts, obstacles)
    np.testing.assert_array_equal(lanes, collision_index_lanes(model, thetas, obstacles))
    ref = [collision_index(model, t, obstacles) for t in thetas]
    assert [collision_index_points(model, p, obstacles) for p in pts] == ref
    assert 0 < sum(ref) < len(ref)


# ------------------------------------------------------------------ #
# Broad phase: the verdicts of the exact kernel
# ------------------------------------------------------------------ #
def one_capsule(radius):
    """A one-joint arm whose one capsule runs from frame 1 to frame 2, so
    ``collision_index_points`` judges any segment given as frames 1 and 2."""
    return make_robot("cap", [(Z, DualQuaternion.identity(), (-3.0, 3.0))],
                      DualQuaternion.from_translation([0.3, 0.0, 0.0]),
                      [LinkCapsule(1, 2, radius)], home=[0.0], task="spatial")


BROAD_BOXES = [Box([0.2, -0.3, 0.1], [0.7, 0.4, 0.5]), Box([-0.9, 0.55, -0.35], [-0.4, 1.3, 0.05])]


def tight_gaps(radius):
    """Gaps just inside, at and just outside the broad phase's margin."""
    return [radius - 1e-6, radius + 1e-9, radius + 1e-6]


def broad_phase_segments(bounds, radius, rng):
    """Segments outside each (lo, hi) box of ``bounds`` near each of its
    faces, edges and corners: along each axis of the feature the segment's
    bounding box lies a gap from the box, and at least one gap is r - 1e-6,
    r + 1e-9 or r + 1e-6.  Each segment leaves the feature along the same
    axes, runs parallel to it, or is a point.  Returns (start, end) rows."""
    rows = []
    for lo, hi in bounds:
        for side in itertools.product((-1, 0, 1), repeat=3):
            side = np.array(side)
            if not side.any():
                continue
            anchor = np.where(side > 0, hi, np.where(side < 0, lo, 0.0))
            inner = rng.uniform(lo, hi, (12, 3))
            for k, tight in enumerate(tight_gaps(radius) * 4):
                gaps = rng.choice([0.0, 0.5 * radius, *tight_gaps(radius)], 3)
                gaps[rng.choice(np.flatnonzero(side))] = tight
                p = np.where(side != 0, anchor + side * gaps, inner[k])
                away = np.where(side != 0, side * rng.uniform(0.0, 0.3, 3), rng.normal(0.0, 0.3, 3))
                q = [p + away, p + np.where(side != 0, 0.0, away), p][k % 3]
                rows.append([p, q])
    return np.array(rows)


def test_broad_phase_keeps_the_exact_verdicts_at_the_margin():
    radius = 0.04
    model = one_capsule(radius)
    segments = broad_phase_segments([(b.lo, b.hi) for b in BROAD_BOXES], radius,
                                    np.random.default_rng(30))
    pts = np.concatenate([np.zeros((len(segments), 1, 3)), segments], axis=1)
    obstacles = [BROAD_BOXES[0], Box([2.8, 2.8, 2.8], [3.2, 3.2, 3.2]), BROAD_BOXES[1]]
    exact = np.array([without_broad_phase(collision_index_points, model, p, obstacles)
                      for p in pts])
    assert exact.sum() > 50 and (exact == 0).sum() > 50
    assert [collision_index_points(model, p, obstacles) for p in pts] == exact.tolist()
    lanes = collision_index_points(model, pts, obstacles)
    assert lanes.dtype == np.uint8
    np.testing.assert_array_equal(lanes, exact)
    np.testing.assert_array_equal(
        without_broad_phase(collision_index_points, model, pts, obstacles), exact)
    # the broad phase drops a share of the rows, and only free ones; the
    # float rule and the array rule agree on every row
    lo, hi = np.array([b.lo for b in BROAD_BOXES]), np.array([b.hi for b in BROAD_BOXES])
    near = geometry._near(pts[:, 1, None], pts[:, 2, None], lo, hi, radius)
    assert 0.2 < 1.0 - near.mean() < 0.9
    assert not exact[~near.any(axis=1)].any()
    apart = [[geometry._apart(a.tolist(), b.tolist(), l.tolist(), h.tolist(), radius)
              for l, h in zip(lo, hi)] for a, b in pts[:, 1:]]
    np.testing.assert_array_equal(near, ~np.array(apart))


def test_broad_phase_keeps_the_exact_self_collision_verdicts_at_the_margin():
    # two capsules on non-adjacent links, 0.03 + 0.05 apart at the margin:
    # the first runs along an axis, in a plane and in space, and its
    # bounding box is the box the second one is placed around
    model = make_robot("pair", [(Z, DualQuaternion.identity(), (-3.0, 3.0))] * 3,
                       DualQuaternion.identity(),
                       [LinkCapsule(1, 2, 0.03), LinkCapsule(3, 4, 0.05)], home=[0.0] * 3,
                       task="spatial")
    firsts = [([0.2, -0.1, 0.3], [0.9, -0.1, 0.3]), ([-0.4, 0.1, 0.0], [0.3, 0.6, 0.0]),
              ([0.5, 0.7, -0.2], [0.1, 0.2, 0.4])]
    rng = np.random.default_rng(33)
    pts = []
    for a, b in firsts:
        for p, q in broad_phase_segments([(np.minimum(a, b), np.maximum(a, b))], 0.08, rng):
            pts.append([np.zeros(3), a, b, p, q])
    pts = np.array(pts)
    exact = np.array([without_broad_phase(collision_index_points, model, p, []) for p in pts])
    assert exact.sum() > 20 and (exact == 0).sum() > 500
    assert [collision_index_points(model, p, []) for p in pts] == exact.tolist()
    np.testing.assert_array_equal(collision_index_points(model, pts, []), exact)
    near = geometry._near(pts[:, 1], pts[:, 2], pts[:, 3], pts[:, 4], 0.08)
    assert 0.2 < 1.0 - near.mean() < 0.9


@pytest.mark.parametrize("name", ["wall", "spatial_mixed"])
def test_broad_phase_keeps_the_exact_verdicts_of_whole_arms(name):
    # random configurations, and configurations bisected onto first contact
    model, obstacles = _scene(name)
    rng = np.random.default_rng(31)
    thetas = rng.uniform(model.limits_lo, model.limits_hi, (300, model.dof))
    exact = np.array([without_broad_phase(collision_index, model, t, obstacles)
                      for t in thetas])
    near = []
    for a, b in zip(thetas[exact == 0][:30], thetas[exact == 1][:30]):
        for _ in range(45):
            mid = 0.5 * (a + b)
            a, b = (a, mid) if without_broad_phase(collision_index, model, mid, obstacles) \
                else (mid, b)
        near += [a, b]
    thetas = np.concatenate([thetas, near])
    exact = np.array([without_broad_phase(collision_index, model, t, obstacles)
                      for t in thetas])
    assert [collision_index(model, t, obstacles) for t in thetas] == exact.tolist()
    np.testing.assert_array_equal(collision_index_lanes(model, thetas, obstacles), exact)


# ------------------------------------------------------------------ #
# The capsule 7-DoF model
# ------------------------------------------------------------------ #
def mini7_with_capsules():
    """The 7-DoF test model with capsules on its last three links."""
    m = seven_dof()
    caps = [LinkCapsule(5, 6, 0.03), LinkCapsule(6, 7, 0.03), LinkCapsule(7, 8, 0.03)]
    return make_robot("mini7", [(j.axis, j.offset, j.limits) for j in m.joints], m.tool,
                      caps, m.home, task="spatial")


def mini7_scene():
    """``mini7_with_capsules`` under a box and beside a second one."""
    return mini7_with_capsules(), [Box([-0.6, -0.6, 0.7], [0.6, 0.6, 0.85]),
                                   Box([0.15, -0.2, 0.3], [0.55, 0.2, 0.7])]


# ------------------------------------------------------------------ #
# raycast
# ------------------------------------------------------------------ #
def test_raycast_axis_aligned_box():
    box = Box([2.0, -1, -1], [3.0, 1, 1])
    d = raycast(np.zeros(3), np.array([1.0, 0, 0]), [box], 10.0)
    assert d == pytest.approx(2.0)


def test_raycast_miss_returns_max_range():
    box = Box([2.0, -1, -1], [3.0, 1, 1])
    d = raycast(np.zeros(3), np.array([-1.0, 0, 0]), [box], 7.5)
    assert d == 7.5


def test_raycast_hit_point_on_surface():
    rng = np.random.default_rng(3)
    obstacles = [Box([0.5, 0.5, -0.5], [1.5, 1.5, 0.5]), Box([-1.4, 0.1, -0.4], [-0.6, 0.9, 0.4])]
    hits = 0
    for _ in range(200):
        origin = rng.uniform(-3, 3, size=3)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        d = raycast(origin, direction, obstacles, 6.0)
        assert d <= 6.0
        if d < 6.0:
            hit = origin + d * direction
            hits += 1
            # the hit must lie on a face of one of the boxes (embedded origins
            # exit through the far face, which is still a surface point)
            assert any(point_box_distance(hit, ob.lo, ob.hi) < 1e-9
                       and np.min(np.minimum(hit - ob.lo, ob.hi - hit)) < 1e-6
                       for ob in obstacles)
    assert hits                                 # the check is not vacuous


RAY_BOXES = [Box([1.0, -0.5, -0.25], [1.5, 0.5, 0.25]), Box([-0.75, 0.25, -1.0], [0.5, 1.0, 0.5]),
             Box([1.0, 0.5, -0.25], [2.0, 1.25, 0.0])]          # shares a face with box 0


def adversarial_rays(rng, n):
    """(n, 3) origins and (n, 25, 3) unit directions: origins at random, on
    faces, edges and corners of ``RAY_BOXES`` and inside them; directions with
    one or two zero components (signed zeros included) and along the axes."""
    origins = rng.uniform(-2.0, 2.5, (n, 3))
    for k in range(n):
        box = RAY_BOXES[k % len(RAY_BOXES)]
        pick = k % 5
        if pick:                                   # inside, then on 1, 2, 3 faces
            origins[k] = rng.uniform(box.lo, box.hi)
            axes = rng.permutation(3)[:pick - 1]
            origins[k, axes] = np.where(rng.random(3) < 0.5, box.lo, box.hi)[axes]
    dirs = rng.normal(size=(n, 25, 3))
    zero = rng.random((n, 25, 3)) < 0.3
    dirs[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    dirs[:, :6] = np.concatenate([np.eye(3), -np.eye(3)])
    dirs[:, 6, :] = [-0.0, 1.0, 0.0]
    dirs[np.all(dirs == 0.0, axis=-1)] = [0.0, 0.0, 1.0]
    return origins, dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)


def count_face_plane_passes(monkeypatch):
    """A list that grows by one at each ``raycast_many`` call that takes the
    face-plane fix-up."""
    calls, face_planes = [], geometry._face_planes

    def counted(*args):
        calls.append(1)
        return face_planes(*args)

    monkeypatch.setattr(geometry, "_face_planes", counted)
    return calls


def test_raycast_many_equals_the_per_obstacle_reference_bitwise(monkeypatch):
    rng = np.random.default_rng(40)
    obstacles = list(RAY_BOXES)
    origins, dirs = adversarial_rays(rng, 300)
    passes = count_face_plane_passes(monkeypatch)
    got = geometry.raycast_many(origins, dirs, slab_table(obstacles), 2.5)
    ref = reference_raycast_many(origins, dirs, obstacles, 2.5)
    assert got.shape == (300, 25) and got.tobytes() == ref.tobytes()
    assert (ref == 0.0).any() and (ref < 2.5).mean() > 0.3 and (ref == 2.5).any()
    assert passes == [1]                           # origins on faces: the lanes take it
    for k in range(0, 300, 7):                     # the one-origin form
        one = geometry.raycast_many(origins[k], dirs[k], slab_table(obstacles), 2.5)
        assert one.tobytes() == ref[k].tobytes()
    # twelve overlapping boxes whose lower x faces lie at +0.0 or -0.0, and
    # origins on that plane: a row's -0 and +0 distances tie across more
    # boxes than a vector reduction resolves in the reference's order
    lo = rng.uniform(-1.0, 0.2, (12, 2))
    hi = lo + rng.uniform(0.3, 1.0, (12, 2))
    many = [Box([-0.0 if k % 3 else 0.0, *a], [0.5 + 0.1 * k, *b])
            for k, (a, b) in enumerate(zip(lo, hi))]
    on_plane = rng.uniform(-1.0, 1.0, (300, 3))
    on_plane[:, 0] = 0.0
    got = geometry.raycast_many(on_plane, dirs, slab_table(many), 2.5)
    ref = reference_raycast_many(on_plane, dirs, many, 2.5)
    assert got.tobytes() == ref.tobytes() and np.signbit(ref[ref == 0.0]).any()
    # no obstacles: (N, k) on lanes and (k,) at one origin, never a scalar
    assert geometry.raycast_many(origins, dirs, slab_table([]), 2.5).tobytes() == \
        reference_raycast_many(origins, dirs, [], 2.5).tobytes()
    one = geometry.raycast_many(origins[0], dirs[0], slab_table([]), 2.5)
    assert one.shape == (25,) and one.tobytes() == \
        reference_raycast_many(origins[0], dirs[0], [], 2.5).tobytes()


@pytest.mark.parametrize("case", ["on_a_face", "inside_a_box", "planar_arm"])
def test_one_origin_slab_pass_equals_the_per_obstacle_reference_bitwise(monkeypatch, case):
    """The one-origin call, a one-lane DRL step's ray cast, against the
    reference: origins on a face (a 0/0 slab) or inside a box, and the planar
    arm's bundle, which keeps rays parallel to the z slabs at every
    configuration.  Only the origins on a face take the face-plane fix-up,
    at one origin and on lanes; the others divide by +0.0 alone."""
    passes = count_face_plane_passes(monkeypatch)
    rng = np.random.default_rng(41)
    obstacles = list(RAY_BOXES)
    origins, dirs = adversarial_rays(rng, 200)
    box = RAY_BOXES[0]
    if case == "on_a_face":
        origins = rng.uniform(box.lo, box.hi, (200, 3))
        origins[:, 0] = box.lo[0]
        assert (dirs[:, :, 0] == 0.0).any()        # (lo - at) / 0 is 0 / 0
    elif case == "inside_a_box":
        origins = rng.uniform(box.lo, box.hi, (200, 3))
    else:
        model, obstacles = _scene("wall")
        obstacles = [*obstacles, Box([0.4, 0.1, -0.2], [0.8, 0.5, 0.2])]
        thetas = rng.uniform(model.limits_lo, model.limits_hi, (200, model.dof))
        states = [_chain_eval(model, theta)[3:] for theta in thetas]
        origins = np.array([p for _, p in states])
        dirs = np.array([geometry._BUNDLE @ quat_to_matrix(q).T for q, _ in states])
        assert (dirs[:, :, 2] == 0.0).any(axis=1).all() and (origins[:, 2] == 0.0).all()
        monkeypatch.setattr(geometry, "RAY_RANGE", 2.5)
        for (q, p), ref in zip(states, reference_raycast_many(origins, dirs, obstacles, 2.5)):
            assert ray_bundle_lanes(q, p, slab_table(obstacles)).tobytes() == ref.tobytes()
        assert not passes                          # the arm's plane z = 0 is no face plane
    slabs = slab_table(obstacles)
    ref = reference_raycast_many(origins, dirs, obstacles, 2.5)
    if case == "on_a_face":
        assert (ref == 0.0).any()
    elif case == "inside_a_box":
        assert (ref < 2.5).all()                   # every ray leaves through a face
    passes.clear()
    for k in range(len(origins)):
        assert geometry.raycast_many(origins[k], dirs[k], slabs, 2.5).tobytes() == \
            ref[k].tobytes()
    assert geometry.raycast_many(origins, dirs, slabs, 2.5).tobytes() == ref.tobytes()
    assert len(passes) == (len(origins) + 1 if case == "on_a_face" else 0)
    if case == "on_a_face":                        # and the fix-up is what mends the 0 / 0
        monkeypatch.setattr(geometry, "_face_planes", lambda lohit, hihit, *_: (lohit, hihit))
        assert geometry.raycast_many(origins, dirs, slabs, 2.5).tobytes() != ref.tobytes()


# ------------------------------------------------------------------ #
# ray_bundle
# ------------------------------------------------------------------ #
def test_ray_bundle_empty_scene(monkeypatch):
    monkeypatch.setattr(geometry, "RAY_RANGE", 2.0)
    m = planar_rr()
    d = ray_bundle(m, m.home, [])
    assert d.shape == (25,)
    np.testing.assert_allclose(d, 2.0)


def test_ray_bundle_centered_in_cube(monkeypatch):
    # end effector at (2, 0, 0); cube of half-width 1 centered there
    monkeypatch.setattr(geometry, "RAY_RANGE", 5.0)
    m = planar_rr()
    theta = np.array([0.0, 0.0])
    box = Box([1.0, -1.0, -1.0], [3.0, 1.0, 1.0])
    d = ray_bundle(m, theta, [box])
    # approach axis is EE +x = world +x here; the first ray exits at x = 3
    assert d[0] == pytest.approx(1.0)
    assert np.all(d <= np.sqrt(3) + 1e-9)


def test_ray_bundle_rotates_with_end_effector(monkeypatch):
    monkeypatch.setattr(geometry, "RAY_RANGE", 4.0)
    m = planar_rr()
    box = Box([1.1, 0.6, -0.3], [2.3, 1.7, 0.4])
    d1 = ray_bundle(m, np.array([0.0, np.pi / 4]), [box])
    # rotate scene and configuration together by 90 deg about z
    rot = np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]])
    corner_a = rot @ np.array([2.3, 0.6, -0.3])
    corner_b = rot @ np.array([1.1, 1.7, 0.4])
    box_rot = Box(np.minimum(corner_a, corner_b), np.maximum(corner_a, corner_b))
    d2 = ray_bundle(m, np.array([np.pi / 2, np.pi / 4]), [box_rot])
    np.testing.assert_allclose(d1, d2, atol=1e-9)


@pytest.mark.parametrize("name", ["wall", "spatial_mixed"])
def test_ray_bundle_lanes_equal_one_state_calls_bitwise(monkeypatch, name):
    monkeypatch.setattr(geometry, "RAY_RANGE", 1.5)
    model, obstacles = _scene(name)
    thetas = np.random.default_rng(6).uniform(model.limits_lo, model.limits_hi,
                                              (300, model.dof))
    _, _, _, q, p = _chain_eval(model, thetas)
    got = ray_bundle_lanes(q, p, slab_table(obstacles))
    assert got.shape == (300, 25)
    ref = np.array([ray_bundle(model, t, obstacles) for t in thetas])
    np.testing.assert_array_equal(got, ref)
    assert (ref < 1.5).any() and (ref == 1.5).any()
    _, _, _, q1, p1 = _chain_eval(model, thetas[0])          # one state, on floats
    np.testing.assert_array_equal(
        ray_bundle_lanes(q1, p1, slab_table(obstacles)), ref[0])


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: Box([0, 0, 0], [1, 0, 1]), ValueError, "min < max",
                 id="box_lo_not_below_hi"),
    pytest.param(lambda: geometry.obstacle_line(object()), TypeError, "unknown obstacle type",
                 id="unknown_obstacle_type"),
])
def test_geometry_refuses(call, error, match):
    with pytest.raises(error, match=match):
        call()


class Ball:
    """A sphere-shaped stand-in for an obstacle that is not a ``Box``."""
    center = np.array([1.0, 0.0, 0.0])
    radius = 0.3


@pytest.mark.parametrize("check", [
    lambda m, obs: collision_index(m, m.home, obs),
    lambda m, obs: collision_index_lanes(m, np.tile(m.home, (3, 1)), obs),
    lambda m, obs: score_lanes(m, np.tile(m.home, (3, 1)), obs),
    lambda m, obs: ray_bundle(m, m.home, obs),
], ids=["collision_index", "collision_index_lanes", "score_lanes", "ray_bundle"])
def test_an_obstacle_that_is_not_a_box_is_refused(check):
    # a check that passed over an obstacle it cannot judge would call it free
    m = planar_rr()
    with pytest.raises(TypeError, match="unknown obstacle type 'Ball'"):
        check(m, [Box([1.5, -0.5, -0.5], [2.5, 0.5, 0.5]), Ball()])


@pytest.mark.parametrize("corner", ["lo", "hi"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_box_refuses_a_corner_that_is_not_finite(corner, value):
    # lo < hi alone let an infinite box through: -inf below, inf above
    lo, hi = [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    (lo if corner == "lo" else hi)[2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match="box corners .* are not finite"):
            Box(lo, hi, "b")
