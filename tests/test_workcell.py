import numpy as np
import pytest

from hybridplan.dualquat import DualQuaternion
from hybridplan.geometry import Box, Sphere, collision_index
from hybridplan.kinematics import fk, normalized_manipulability, planar_3r
from hybridplan.task import Task
from hybridplan.trajectory import JointTrajectory
from hybridplan.workcell import (
    SuccessCriteria,
    Workcell,
    bench,
    count_path_collisions,
    execute,
    load_workcell,
    save_workcell,
    wilson_interval,
)

# a thin post on the +x axis: the stretched-out arm (theta = 0) runs through it
POST = Box([0.9, -0.02, -0.1], [1.0, 0.02, 0.1], "post")


def cell(obstacles=()):
    return Workcell("test", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1], list(obstacles))


def path(*thetas):
    return JointTrajectory(np.array(thetas, dtype=float))


def ramp(a, b, n):
    """n points from a to b inclusive, linear in joint space."""
    return [np.asarray(a) + u * (np.asarray(b) - np.asarray(a)) for u in np.linspace(0, 1, n)]


# ------------------------------------------------------------------ #
# execute
# ------------------------------------------------------------------ #
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


# ------------------------------------------------------------------ #
# count_path_collisions
# ------------------------------------------------------------------ #
def test_count_path_collisions_checks_interpolants():
    model = planar_3r()
    a, b = np.array([0.5, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0])
    assert collision_index(model, a, [POST]) == collision_index(model, b, [POST]) == 0
    n = int(np.ceil(1.0 / np.radians(2.0)))              # 29 steps of under 2 degrees
    ref = sum(collision_index(model, a + (k / n) * (b - a), [POST]) for k in range(1, n))
    got = count_path_collisions(model, [a, b], [POST])
    assert got == ref > 0
    assert isinstance(got, int)
    # twice as fine, about twice the colliding interpolants
    assert count_path_collisions(model, [a, b], [POST], res_deg=1.0) >= 2 * got - 1
    assert count_path_collisions(model, [a, b], []) == 0
    # a waypoint in contact counts once, with no interpolants around it
    assert count_path_collisions(model, [np.zeros(3)], [POST]) == 1


@pytest.mark.parametrize("res_deg", [0.0, -1.0, float("nan")])
def test_count_path_collisions_rejects_non_positive_resolution(res_deg):
    model = planar_3r()
    with pytest.raises(ValueError, match="res_deg"):
        count_path_collisions(model, [model.home, model.home + 0.1], [POST], res_deg=res_deg)


# ------------------------------------------------------------------ #
# files and benchmarking
# ------------------------------------------------------------------ #
def test_workcell_file_roundtrip(tmp_path):
    stations = {"a": DualQuaternion.from_translation([0.3, 0.2, 0.0]),
                "b": DualQuaternion.from_pose([-0.4, 0.5, 0.0], (np.array([0, 0, 1.0]), 0.7))}
    orig = Workcell("rt", [-1.3, -1.2, -0.1], [1.3, 1.1, 0.1],
                    [POST, Sphere([0.1, -0.5, 0.0], 0.25, "ball")], stations)
    save_workcell(orig, tmp_path / "cell.txt")
    back = load_workcell(tmp_path / "cell.txt")
    assert back.name == "rt"
    np.testing.assert_array_equal(back.box_lo, orig.box_lo)
    np.testing.assert_array_equal(back.box_hi, orig.box_hi)
    box, ball = back.obstacles
    assert isinstance(box, Box) and box.id == "post"
    np.testing.assert_array_equal(box.lo, POST.lo)
    np.testing.assert_array_equal(box.hi, POST.hi)
    assert isinstance(ball, Sphere) and ball.id == "ball" and ball.radius == 0.25
    np.testing.assert_array_equal(ball.center, [0.1, -0.5, 0.0])
    assert sorted(back.stations) == ["a", "b"]
    for k in stations:
        np.testing.assert_array_equal(back.stations[k].as_array(), stations[k].as_array())


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
