import warnings

import numpy as np
import pytest

from hybridplan import workcell
from hybridplan.dualquat import DualQuaternion, quat_from_axis_angle, quat_mul, quat_to_euler
from hybridplan.geometry import Box, collision_index
from hybridplan.kinematics import ee_state, fk, normalized_manipulability, planar_3r
from hybridplan.task import Task
from hybridplan.workcell import (
    COLLISION_RES_DEG,
    SuccessCriteria,
    Workcell,
    _checked_configs,
    bench,
    count_path_collisions,
    execute,
    wilson_interval,
)
from scalar_reference import execute as reference_execute
from scalar_reference import pose_hit, unannotated
from test_geometry import mini7_with_capsules
from test_kinematics import seven_dof

# a thin post on the +x axis: the stretched-out arm (theta = 0) runs through it
POST = Box([0.9, -0.02, -0.1], [1.0, 0.02, 0.1], "post")


STILL_TASK = Task("still", [DualQuaternion.identity()] * 2)
# joint 1 past its 175 degree limit in 1 degree steps (degrees)
RAMP_PAST_LIMIT = [[174.0, 10.0, -10.0], [175.0, 10.0, -10.0], [176.0, 10.0, -10.0]]


def cell(obstacles=()):
    return Workcell("test", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1], list(obstacles))


def path(*thetas):
    return unannotated(np.array(thetas, dtype=float))


def ramp(a, b, n):
    """n points from a to b inclusive, linear in joint space."""
    return [np.asarray(a) + u * (np.asarray(b) - np.asarray(a)) for u in np.linspace(0, 1, n)]


# ------------------------------------------------------------------ #
# execute
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("value", [0.0, -0.01, np.nan])
@pytest.mark.parametrize("name", ["pos_tol", "rot_tol"])
def test_success_criteria_refuse_a_tolerance_that_is_not_positive(name, value):
    # with a NaN position tolerance execute ignored position: a trajectory
    # parked at the first configuration hit every configuration of equal yaw
    with pytest.raises(ValueError, match="positive"):
        SuccessCriteria(**{name: value})


def test_execute_hits_configs_in_order_and_scores_the_path():
    model = planar_3r()
    pts = ramp([1.2, 0.3, 0.2], [0.6, 0.3, 0.2], 40)
    traj = path(*pts)
    task = Task("t", [fk(model, pts[5]), fk(model, pts[20]), fk(model, pts[39])])
    rep = execute(traj, model, cell([POST]), SuccessCriteria(pos_tol=1e-6, rot_tol=1e-6), task)
    assert rep.config_hits == [5, 20, 39]
    assert rep.failed_config is None
    assert rep.collisions == 0 and not rep.dropped and rep.success
    man = np.array([normalized_manipulability(model, t) for t in pts])
    col = np.array([collision_index(model, t, [POST]) for t in pts])
    assert rep.r_s == float(np.sum(man - col))
    assert rep.max_step == traj.max_step()


def test_execute_reports_the_first_config_missed():
    model = planar_3r()
    pts = ramp([1.2, 0.3, 0.2], [0.6, 0.3, 0.2], 20)
    tight = SuccessCriteria(pos_tol=1e-6, rot_tol=1e-6)
    # the second config lies before the first one's hit: out of order
    task = Task("t", [fk(model, pts[12]), fk(model, pts[3]), fk(model, pts[15])])
    rep = execute(path(*pts), model, cell(), tight, task)
    assert rep.config_hits == [12, None, None]
    assert rep.failed_config == 1 and not rep.success


def test_execute_drops_a_held_payload_on_a_large_step():
    model = planar_3r()
    pts = ramp([1.2, 0.3, 0.2], [1.0, 0.3, 0.2], 5)       # 2.9 degree steps
    tight = SuccessCriteria(pos_tol=1e-6, rot_tol=1e-6)
    configs = [fk(model, pts[0]), fk(model, pts[4])]
    free = execute(path(*pts), model, cell(), tight, Task("t", configs))
    held = execute(path(*pts), model, cell(), tight, Task("t", configs, hold=[True, False]))
    assert not free.dropped and free.success
    assert held.dropped and not held.success
    fine = ramp([1.2, 0.3, 0.2], [1.0, 0.3, 0.2], 8)      # 1.6 degree steps
    ok = execute(path(*fine), model, cell(), tight,
                 Task("t", [fk(model, fine[0]), fk(model, fine[7])], hold=[True, False]))
    assert not ok.dropped and ok.success


def test_execute_counts_collisions_along_the_path():
    model = planar_3r()
    # the middle waypoint runs the arm through the post; the ramps to it collide too
    way = [np.array([0.5, 0.0, 0.05]), np.array([0.0, 0.0, 0.05]),
           np.array([-0.5, 0.0, 0.05])]
    tol = SuccessCriteria(pos_tol=1e-6, rot_tol=1e-6)
    rep = execute(path(*way), model, cell([POST]), tol,
                  Task("t", [fk(model, way[0]), fk(model, way[2])]))
    assert rep.config_hits == [0, 2]
    assert rep.collisions == count_path_collisions(model, way, [POST]) > 1
    assert not rep.success
    # r_s scores the waypoints only
    man = np.array([normalized_manipulability(model, t) for t in way])
    col = np.array([collision_index(model, t, [POST]) for t in way])
    assert col.tolist() == [0, 1, 0]
    assert rep.r_s == float(np.sum(man - col))


def assert_reports_equal(traj, model, obstacles, criteria, task):
    got = execute(traj, model, cell(obstacles), criteria, task)
    assert vars(got) == vars(reference_execute(traj, model, cell(obstacles), criteria, task))
    return got


def near_pose(model, theta, rng, pos_tol, rot_tol):
    """The EE pose at theta moved by up to 1.5 tolerances in position and
    rotation (about z for a planar model, so the pose stays in the plane)."""
    pose = fk(model, theta)
    dp = rng.normal(size=3)
    axis = rng.normal(size=3)
    if model.task == "planar":
        dp[2], axis = 0.0, np.array([0.0, 0.0, 1.0])
    dp *= rng.uniform(0, 1.5 * pos_tol) / np.linalg.norm(dp)
    q = quat_mul(quat_from_axis_angle(axis, rng.uniform(-1.5, 1.5) * rot_tol), pose.real)
    return DualQuaternion.from_pose(pose.translation() + dp, q)


@pytest.mark.parametrize("factory", [planar_3r, seven_dof])
def test_execute_equals_the_reference_scan_on_random_trajectories(factory):
    model = factory()
    obstacles = [POST] if model.task == "planar" else []
    rng = np.random.default_rng(17)
    criteria = SuccessCriteria(pos_tol=0.03, rot_tol=np.radians(8.0))
    seen = {"success": 0, "missed": 0, "dropped": 0, "collided": 0}
    for _ in range(40):
        start = rng.uniform(model.limits_lo, model.limits_hi)
        steps = rng.uniform(-1.0, 1.0, (60, model.dof)) * np.radians(rng.choice([1.5, 3.0]))
        pts = model.clamp(start + np.cumsum(steps, axis=0))
        picks = np.sort(rng.choice(60, size=int(rng.integers(2, 5)), replace=False))
        task = Task("t", [near_pose(model, pts[k], rng, criteria.pos_tol, criteria.rot_tol)
                          for k in picks], hold=list(rng.random(len(picks)) < 0.5))
        rep = assert_reports_equal(path(*pts), model, obstacles, criteria, task)
        seen["success"] += rep.success
        seen["missed"] += rep.failed_config is not None
        seen["dropped"] += rep.dropped
        seen["collided"] += rep.collisions > 0
    assert all(seen.values()) if model.task == "planar" else seen["missed"] and seen["success"]


@pytest.mark.parametrize("scene", ["planar", "spatial"])
def test_execute_checks_inserted_rows_like_the_reference(scene):
    # edges of 3 to 40 degrees: the checked configurations include rows that
    # execute inserts, and waypoints on either side of a contact can be free
    if scene == "planar":
        model, obstacles = planar_3r(), [POST, Box([-0.55, 0.75, -0.15], [-0.25, 1.05, 0.15])]
    else:
        model = mini7_with_capsules()
        obstacles = [Box([-0.6, -0.6, 0.7], [0.6, 0.6, 0.85]),
                     Box([0.15, -0.2, 0.3], [0.55, 0.2, 0.7])]
    rng = np.random.default_rng(19)
    criteria = SuccessCriteria(pos_tol=0.03, rot_tol=np.radians(8.0))
    inserted_only = 0
    for _ in range(30):
        steps = rng.uniform(-1.0, 1.0, (8, model.dof)) * np.radians(rng.uniform(3.0, 40.0))
        pts = model.clamp(rng.uniform(model.limits_lo, model.limits_hi) + np.cumsum(steps, axis=0))
        checked, at = _checked_configs(model, pts)
        assert len(checked) > len(pts)
        picks = np.sort(rng.choice(len(pts), size=int(rng.integers(2, 5)), replace=False))
        task = Task("t", [near_pose(model, pts[k], rng, criteria.pos_tol, criteria.rot_tol)
                          for k in picks], hold=list(rng.random(len(picks)) < 0.5))
        rep = assert_reports_equal(path(*pts), model, obstacles, criteria, task)
        ref = reference_execute(path(*pts), model, cell(obstacles), criteria, task)
        assert rep.r_s.hex() == ref.r_s.hex()
        assert count_path_collisions(model, pts, obstacles) == rep.collisions
        waypoints = sum(collision_index(model, t, obstacles) for t in pts)
        inserted_only += rep.collisions > waypoints
    assert inserted_only >= 5


def bisect(hit, lo, hi):
    """Adjacent parameters (inside, outside) of the tolerance edge, from hit(lo)
    and not hit(hi)."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (mid, hi) if hit(mid) else (lo, mid)


def check_tolerance_edge(model, theta_c, direction, criteria, edge):
    """Points bisected onto the tolerance edge along theta_c + u direction,
    the point just outside listed before the point just inside, then a
    tolerance equal to the outside point's own error: one rounding
    difference between the scans moves a hit.  Returns the outside point's
    EE Euler angles and the configuration's."""
    config = fk(model, theta_c)
    c_pos, c_euler = config.translation(), quat_to_euler(config.real)

    def at(u):
        return theta_c + u * np.asarray(direction)

    def hit(u):
        return pose_hit(model, at(u), c_pos, c_euler, criteria)

    assert hit(0.0) and not hit(1.0)
    u_in, u_out = bisect(hit, 0.0, 1.0)
    pts = [at(1.0), at(u_out), at(u_in), at(0.5 * u_in), theta_c]
    task = Task("t", [config, fk(model, at(u_in))])
    assert assert_reports_equal(path(*pts), model, [], criteria, task).config_hits == [2, 2]
    q, p = ee_state(model, at(u_out))
    if edge == "position":
        exact = SuccessCriteria(float(np.linalg.norm(p - c_pos)), criteria.rot_tol)
    else:
        diff = np.abs((quat_to_euler(q) - c_euler + np.pi) % (2 * np.pi) - np.pi)
        exact = SuccessCriteria(criteria.pos_tol, float(np.max(diff)))
    assert assert_reports_equal(path(*pts), model, [], exact, task).config_hits == [1, 1]
    return quat_to_euler(q), c_euler


POSITION_EDGE = SuccessCriteria(pos_tol=0.05, rot_tol=4.0)     # every rotation passes
ROTATION_EDGE = SuccessCriteria(pos_tol=10.0, rot_tol=0.05)    # every position passes


@pytest.mark.parametrize("edge", ["position", "rotation", "rotation_wrap"])
def test_execute_equals_the_reference_scan_at_the_tolerance_edge(edge):
    model = planar_3r()
    # yaw pi - 0.01; turning joint 3 forward carries the yaw across +-pi
    theta_c = np.array([1.0, 1.2, np.pi - 0.01 - 2.2])
    direction = {"position": [0.3, -0.2, 0.1], "rotation": [0.0, 0.0, -0.2],
                 "rotation_wrap": [0.0, 0.0, 0.2]}[edge]
    criteria = POSITION_EDGE if edge == "position" else ROTATION_EDGE
    euler, c_euler = check_tolerance_edge(model, theta_c, direction, criteria, edge)
    if edge == "rotation_wrap":
        assert euler[2] < 0.0 < c_euler[2]             # the edge lies across +-pi


@pytest.mark.parametrize("edge", ["position", "rotation"])
def test_execute_equals_the_reference_scan_at_spatial_tolerance_edges(edge):
    # three nonzero position components and roll/pitch/yaw: every term rounds
    model = seven_dof()
    rng = np.random.default_rng(5)
    criteria = POSITION_EDGE if edge == "position" else ROTATION_EDGE
    for _ in range(25):
        theta_c = rng.uniform(-2.0, 2.0, model.dof)
        direction = rng.normal(size=model.dof)
        direction /= np.linalg.norm(direction)        # one radian in joint space
        check_tolerance_edge(model, theta_c, direction, criteria, edge)

def test_execute_on_empty_and_one_point_trajectories():
    model = planar_3r()
    task = Task("t", [fk(model, model.home), fk(model, model.home + 0.1)])
    empty = assert_reports_equal(unannotated(np.zeros((0, model.dof))), model, [POST],
                                 SuccessCriteria(), task)
    assert empty.config_hits == [None, None] and empty.failed_config == 0
    assert (empty.collisions, empty.r_s, empty.max_step) == (0, 0.0, 0.0)
    one = assert_reports_equal(path(model.home), model, [POST], SuccessCriteria(), task)
    assert one.config_hits == [0, None] and one.failed_config == 1 and not one.success


def test_execute_lets_one_point_hit_consecutive_configs():
    model = planar_3r()
    pts = ramp([1.2, 0.3, 0.2], [0.6, 0.3, 0.2], 40)
    tight = SuccessCriteria(pos_tol=1e-6, rot_tol=1e-6)
    task = Task("t", [fk(model, pts[10]), fk(model, pts[10]), fk(model, pts[30])],
                hold=[True, True, False])
    rep = assert_reports_equal(path(*pts), model, [POST], tight, task)
    assert rep.config_hits == [10, 10, 30] and rep.success


# ------------------------------------------------------------------ #
# count_path_collisions
# ------------------------------------------------------------------ #
def test_count_path_collisions_checks_interpolants(monkeypatch):
    model = planar_3r()
    a, b = np.array([0.5, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0])
    assert collision_index(model, a, [POST]) == collision_index(model, b, [POST]) == 0
    n = int(np.ceil(1.0 / np.radians(2.0)))              # 29 steps of under 2 degrees
    ref = sum(collision_index(model, a + (k / n) * (b - a), [POST]) for k in range(1, n))
    got = count_path_collisions(model, [a, b], [POST])
    assert got == ref > 0
    assert isinstance(got, int)
    # twice as fine, about twice the colliding interpolants
    with monkeypatch.context() as mp:
        mp.setattr(workcell, "COLLISION_RES_DEG", 1.0)
        assert count_path_collisions(model, [a, b], [POST]) >= 2 * got - 1
    assert count_path_collisions(model, [a, b], []) == 0
    # a waypoint in contact counts once, with no interpolants around it
    assert count_path_collisions(model, [np.zeros(3)], [POST]) == 1


# ------------------------------------------------------------------ #
# benchmarking
# ------------------------------------------------------------------ #
def test_wilson_interval():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(5, 10)
    assert lo == pytest.approx(1.0 - hi) and 0.0 < lo < 0.5 < hi < 1.0
    assert wilson_interval(10, 10)[1] == 1.0


def test_bench_counts_successes_per_task():
    model = planar_3r()
    pts = ramp([1.2, 0.3, 0.2], [1.0, 0.3, 0.2], 10)
    good = Task("good", [fk(model, pts[0]), fk(model, pts[9])])
    bad = Task("bad", [fk(model, pts[0]), fk(model, np.array([-1.0, 0.3, 0.2]))])
    seeds = []

    def planner(task, trial_seed):
        seeds.append(trial_seed)
        return path(*pts)

    rows = []
    out = bench(planner, [good, bad], 2, 0, model, cell(), SuccessCriteria(), "v", rows)
    assert out["successes"] == 2 and out["trials"] == 4 and out["rate"] == 0.5
    assert out["per_task"]["good"]["successes"] == 2
    assert out["per_task"]["bad"]["successes"] == 0
    assert out["wilson"] == wilson_interval(2, 4)
    assert [(r["task"], r["trial"], r["success"]) for r in rows] == [
        ("good", 0, 1), ("good", 1, 1), ("bad", 0, 0), ("bad", 1, 0)]
    assert len(set(seeds)) == 4


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: Task("t", [DualQuaternion.identity()]), "at least 2 critical",
                 id="one_configuration"),
    pytest.param(lambda: Task("t", [DualQuaternion.identity()] * 2, hold=[True]),
                 "hold flags must match", id="hold_count"),
])
def test_task_refuses(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: Workcell("c", [0, 0, 0], [1, 1, 0], []), "min < max",
                 id="flat_workspace"),
    pytest.param(lambda: Workcell("c", [0, 0, 0], [1, 1, 1], [],
                                  {"s": DualQuaternion.from_translation([2, 0, 0])}),
                 "station outside the workspace box", id="station_outside"),
    # a non-finite joint value: refused by the one edge rule, not cast to a
    # negative piece count
    pytest.param(lambda: execute(path([0.1, 0.2, 0.3], [0.2, np.nan, 0.3]), planar_3r(),
                                 cell(), SuccessCriteria(), STILL_TASK),
                 "joint path row 1 is not finite", id="execute_nan"),
    pytest.param(lambda: execute(path([0.1, 0.2, 0.3], [0.2, np.inf, 0.3]), planar_3r(),
                                 cell(), SuccessCriteria(), STILL_TASK),
                 "joint path row 1 is not finite", id="execute_inf"),
    pytest.param(lambda: count_path_collisions(planar_3r(), [[np.nan, 0.2, 0.3]] * 2, [POST]),
                 "joint path row 0 is not finite", id="count_path_collisions_nan"),
    pytest.param(lambda: count_path_collisions(planar_3r(), [[0.1, 0.2, 0.3],
                                                            [0.1, 0.2, -np.inf]], [POST]),
                 "joint path row 1 is not finite", id="count_path_collisions_inf"),
    # a path outside the joint limits (+-175 degrees): refused before it is
    # split, so an absurd step cannot ask for billions of rows
    pytest.param(lambda: execute(path(*np.radians(RAMP_PAST_LIMIT)), planar_3r(), cell(),
                                 SuccessCriteria(), STILL_TASK),
                 "joint path row 2 is outside the joint limits", id="execute_past_limit"),
    pytest.param(lambda: count_path_collisions(planar_3r(), np.radians(RAMP_PAST_LIMIT),
                                               [POST]),
                 "joint path row 2 is outside the joint limits",
                 id="count_path_collisions_past_limit"),
    pytest.param(lambda: execute(path([0.0, 0.2, 0.3], [-1e9, 0.2, 0.3]), planar_3r(),
                                 cell(), SuccessCriteria(), STILL_TASK),
                 "joint path row 1 is outside the joint limits", id="execute_1e9_rad_step"),
    pytest.param(lambda: count_path_collisions(planar_3r(), [[0.0, 0.2, 0.3],
                                                            [0.0, 1e9, 0.3]], [POST]),
                 "joint path row 1 is outside the joint limits",
                 id="count_path_collisions_1e9_rad_step"),
])
def test_workcell_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("corner", ["lo", "hi"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_workcell_refuses_a_workspace_corner_that_is_not_finite(corner, value):
    # lo < hi alone let an infinite workspace through: -inf below, inf above
    lo, hi = [-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]
    (lo if corner == "lo" else hi)[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match="workspace box .* is not finite"):
            Workcell("c", lo, hi, [])
