import warnings

import numpy as np
import pytest

import scalar_reference as ref
from hybridplan import kinematics
from hybridplan.dualquat import (DualQuaternion, _qrot, dq_mul, dq_to_lanes,
                                 dq_translation, quat_from_axis_angle)
from hybridplan.geometry import score_lanes
from hybridplan.kinematics import (
    LinkCapsule,
    _chain_eval,
    _pose_error_raw,
    closed_form_branches,
    fk,
    fk_frames,
    frame_points,
    ik,
    ik_attempt,
    ik_descend,
    jacobian,
    make_robot,
    manipulability,
    normalized_manipulability,
    planar_3r,
    planar_rr,
    robot_hash,
)
from hybridplan.scenarios import planar_pose, wall_slot

Z = np.array([0.0, 0.0, 1.0])
Y = np.array([0.0, 1.0, 0.0])
X = np.array([1.0, 0.0, 0.0])


def seven_dof():
    """Reduced 7-DoF spatial model with alternating z/y axes."""
    axes = [Z, Y, Z, Y, Z, Y, Z]
    offsets = [[0, 0, 0.2], [0, 0, 0.2], [0, 0.05, 0.2], [0.05, 0, 0.15],
               [0, 0, 0.15], [0, 0.05, 0.1], [0, 0, 0.1]]
    lim = (-2.9, 2.9)
    joints = [(a, DualQuaternion.from_translation(o), lim) for a, o in zip(axes, offsets)]
    tool = DualQuaternion.from_translation([0, 0, 0.08])
    home = [0.0, 0.4, 0.0, 0.9, 0.0, 0.7, 0.0]
    return make_robot("mini7", joints, tool, [], home, task="spatial")


# ------------------------------------------------------------------ #
# Independent matrix-chain oracle
# ------------------------------------------------------------------ #
def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def matrix_chain_fk(axes, offsets, tool, theta):
    H = np.eye(4)
    for axis, off, th in zip(axes, offsets, theta):
        T_off = np.eye(4)
        T_off[:3, 3] = off
        T_rot = np.eye(4)
        T_rot[:3, :3] = rodrigues(axis, th)
        H = H @ T_off @ T_rot
    T_tool = np.eye(4)
    T_tool[:3, 3] = tool
    return H @ T_tool


# ------------------------------------------------------------------ #
# fk
# ------------------------------------------------------------------ #
def test_fk_planar_rr_extended():
    m = planar_rr()
    np.testing.assert_allclose(fk(m, np.array([0.0, 0.0])).translation(), [2, 0, 0], atol=1e-12)


def test_fk_planar_rr_rotated_base():
    m = planar_rr()
    np.testing.assert_allclose(fk(m, np.array([np.pi / 2, 0.0])).translation(), [0, 2, 0], atol=1e-12)


@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_fk_on_floats_equals_the_array_form_bit_for_bit(factory):
    m = factory()
    rng = np.random.default_rng(43)
    for theta in [m.home, *rng.uniform(-10.0, 10.0, (1000, m.dof))]:
        got, want = fk(m, theta), ref.fk(m, theta)
        assert got.as_array().tobytes() == want.as_array().tobytes()
        assert got.translation().tobytes() == ref.translation(want.as_array()).tobytes()


def test_fk_seven_dof_matches_matrix_chain():
    m = seven_dof()
    axes = [Z, Y, Z, Y, Z, Y, Z]
    offsets = [[0, 0, 0.2], [0, 0, 0.2], [0, 0.05, 0.2], [0.05, 0, 0.15],
               [0, 0, 0.15], [0, 0.05, 0.1], [0, 0, 0.1]]
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = rng.uniform(-2.0, 2.0, size=7)
        H = matrix_chain_fk(axes, offsets, [0, 0, 0.08], theta)
        d = fk(m, theta)
        np.testing.assert_allclose(d.translation(), H[:3, 3], atol=1e-9)
        # rotation agreement via a rotated probe vector
        probe = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(_qrot(*d.real, *probe), H[:3, :3] @ probe, atol=1e-9)


def test_fk_wrong_dimension():
    with pytest.raises(ValueError):
        fk(planar_rr(), np.zeros(3))


def dual_quaternion_frames(model, theta):
    """Reference: the frames after joints 1..n by composing DualQuaternion
    objects joint by joint."""
    cur = DualQuaternion.identity()
    frames = []
    for j, th in zip(model.joints, theta):
        rot = DualQuaternion(quat_from_axis_angle(j.axis, th), np.zeros(4))
        cur = dq_mul(dq_mul(cur, j.offset), rot)
        frames.append(cur)
    return frames


@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_fk_frames_match_dual_quaternion_chain(factory):
    m = factory()
    rng = np.random.default_rng(5)
    for theta in [m.home, *rng.uniform(m.limits_lo, m.limits_hi, (30, m.dof))]:
        origins, rots = fk_frames(m, theta)
        assert origins.shape == (m.dof, 3) and rots.shape == (m.dof, 4)
        ref = dual_quaternion_frames(m, theta)
        np.testing.assert_allclose(origins, [f.translation() for f in ref], rtol=0, atol=1e-12)
        np.testing.assert_allclose(rots, [f.real for f in ref], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(origins, frame_points(m, theta)[1:-1])
    with pytest.raises(ValueError):
        fk_frames(m, np.zeros(m.dof + 1))


# ------------------------------------------------------------------ #
# jacobian
# ------------------------------------------------------------------ #
def test_jacobian_planar_rr_closed_form():
    m = planar_rr()
    J = jacobian(m, np.array([0.0, 0.0]))
    # dy/dtheta1 = L1 + L2 = 2 at the extended pose
    assert J.shape == (2, 2)
    np.testing.assert_allclose(J, [[0, 0], [2, 1]], atol=1e-12)

    rng = np.random.default_rng(1)
    for _ in range(100):
        t1, t2 = rng.uniform(-2.5, 2.5, size=2)
        J = jacobian(m, np.array([t1, t2]))
        s1, s12 = np.sin(t1), np.sin(t1 + t2)
        c1, c12 = np.cos(t1), np.cos(t1 + t2)
        expect = np.array([[-s1 - s12, -s12], [c1 + c12, c12]])
        np.testing.assert_allclose(J, expect, atol=1e-10)


def pose_error(model, current, target):
    """Error twist from pose ``current`` to ``target`` plus (pos, rot) magnitudes."""
    return _pose_error_raw(model, current.real, current.translation(),
                           target.real, target.translation())


def finite_difference_jacobian(model, theta, h=1e-6):
    m = model.ee_dof
    J = np.zeros((m, model.dof))
    for i in range(model.dof):
        e = np.zeros(model.dof)
        e[i] = h
        plus, minus = fk(model, theta + e), fk(model, theta - e)
        tw, _, _ = pose_error(model, minus, plus)
        J[:, i] = tw / (2 * h)
    return J


@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_jacobian_matches_finite_differences(factory):
    model = factory()
    rng = np.random.default_rng(2)
    for _ in range(100):
        theta = rng.uniform(model.limits_lo * 0.9, model.limits_hi * 0.9)
        J = jacobian(model, theta)
        J_fd = finite_difference_jacobian(model, theta)
        assert np.max(np.abs(J - J_fd)) < 1e-5


def test_jacobian_single_revolute_column_is_axis_cross_lever():
    joints = [(Y, DualQuaternion.from_translation([0, 0, 0.5]), (-3.0, 3.0))]
    m = make_robot("one", joints, DualQuaternion.from_translation([0.4, 0, 0]),
                   [], home=[0.3], task="spatial")
    theta = np.array([0.7])
    J = jacobian(m, theta)
    p_ee = fk(m, theta).translation()
    lever = p_ee - np.array([0, 0, 0.5])
    np.testing.assert_allclose(J[:3, 0], np.cross(Y, lever), atol=1e-12)
    np.testing.assert_allclose(J[3:, 0], Y, atol=1e-12)


# ------------------------------------------------------------------ #
# manipulability
# ------------------------------------------------------------------ #
def test_manipulability_singular_extended():
    assert manipulability(planar_rr(), np.array([0.3, 0.0])) == 0.0


def test_manipulability_planar_rr_closed_form():
    m = planar_rr()
    assert abs(manipulability(m, np.array([0.0, np.pi / 2])) - 1.0) < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(200):
        theta = rng.uniform(-3, 3, size=2)
        np.testing.assert_allclose(manipulability(m, theta), abs(np.sin(theta[1])), atol=1e-10)


def test_manipulability_equals_singular_value_product():
    m = seven_dof()
    rng = np.random.default_rng(4)
    for _ in range(100):
        theta = rng.uniform(-2, 2, size=7)
        sv = np.linalg.svd(jacobian(m, theta), compute_uv=False)
        np.testing.assert_allclose(manipulability(m, theta), np.prod(sv), rtol=1e-8)


def test_manipulability_continuity():
    m = planar_3r()
    rng = np.random.default_rng(5)
    h = 1e-4
    for _ in range(100):
        theta = rng.uniform(-2, 2, size=3)
        base = manipulability(m, theta)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            assert abs(manipulability(m, theta + e) - base) < 10.0 * h


def test_normalized_manipulability():
    m = planar_rr()
    assert normalized_manipulability(m, m.home) == pytest.approx(1.0)
    assert normalized_manipulability(m, np.array([0.2, 0.0])) == 0.0
    # man = sin(theta2); home man = 1; theta2 = pi/6 gives exactly 0.5
    assert normalized_manipulability(m, np.array([0.4, np.pi / 6])) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_normalized_manipulability_lanes_equal_scalar_bitwise(factory):
    model = factory()
    rng = np.random.default_rng(9)
    thetas = rng.uniform(model.limits_lo, model.limits_hi, (300, model.dof))
    thetas[::10] = 0.0                       # stretched out: singular for the planar arms
    ref = np.array([normalized_manipulability(model, t) for t in thetas])
    np.testing.assert_array_equal(score_lanes(model, thetas, [])[0], ref)
    out, _ = score_lanes(model, np.zeros((0, model.dof)), [])
    assert out.shape == (0,)


def chain_leaves(chain):
    """Every number of a ``_chain_eval`` output, in walk order."""
    axes, origins, rots, q, p = chain
    return [v for group in (*axes, *origins, *rots, q, p) for v in group]


@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_chain_eval_one_vector_walks_on_floats_and_equals_lane_rows(factory):
    """The one-vector walk runs on plain Python floats and equals row k of the
    lane walk bit for bit, for list, int and float64 inputs, at the joint
    limits, at +-pi and at random configurations."""
    model = factory()
    rng = np.random.default_rng(21)
    ints = rng.integers(-2, 3, (4, model.dof)).astype(float)
    thetas = np.vstack([model.limits_lo, model.limits_hi, np.full(model.dof, np.pi),
                        np.full(model.dof, -np.pi), np.zeros(model.dof), ints,
                        rng.uniform(model.limits_lo, model.limits_hi, (100, model.dof))])
    n = len(thetas)
    lanes = [np.broadcast_to(v, (n,)) for v in chain_leaves(_chain_eval(model, thetas))]
    for k, theta in enumerate(thetas):
        given = [theta, theta.tolist()]
        if np.all(theta == np.round(theta)):
            given += [theta.astype(int), [int(v) for v in theta]]
        row = np.array([v[k] for v in lanes])
        for g in given:
            one = chain_leaves(_chain_eval(model, g))
            assert all(type(v) is float for v in one)
            assert np.array(one).tobytes() == row.tobytes()


def test_singular_home_rejected():
    z = np.array([0.0, 0.0, 1.0])
    joints = [(z, DualQuaternion.identity(), (-3.0, 3.0)),
              (z, DualQuaternion.from_translation([1, 0, 0]), (-3.0, 3.0))]
    with pytest.raises(ValueError, match="singular home configuration"):
        make_robot("bad", joints, DualQuaternion.from_translation([1, 0, 0]),
                   [], home=[0.0, 0.0], task="planar")


# ------------------------------------------------------------------ #
# ik
# ------------------------------------------------------------------ #
def test_ik_fixed_point():
    m = planar_3r()
    rng = np.random.default_rng(6)
    theta = rng.uniform(m.limits_lo * 0.8, m.limits_hi * 0.8)
    target = fk(m, theta)
    sol = ik(m, target, seed=theta)
    np.testing.assert_allclose(sol, theta, atol=1e-6)


def test_ik_unreachable(monkeypatch):
    monkeypatch.setattr(kinematics, "IK_RESTARTS", 10)
    monkeypatch.setattr(kinematics, "IK_MAX_ITERS", 100)
    m = planar_rr()
    target = DualQuaternion.from_translation([2.05, 0, 0])
    assert ik(m, target, rng=np.random.default_rng(0)) is None


def test_ik_roundtrip_500_targets():
    m = planar_3r()
    rng = np.random.default_rng(7)
    failures = 0
    for _ in range(500):
        theta = rng.uniform(m.limits_lo * 0.85, m.limits_hi * 0.85)
        target = fk(m, theta)
        sol = ik(m, target, rng=rng)
        if sol is None:
            failures += 1
            continue
        assert m.within_limits(sol)
        _, perr, rerr = pose_error(m, fk(m, sol), target)
        assert perr < 1e-3 and rerr < 1e-3
    assert failures <= 5  # >= 99% success


@pytest.mark.parametrize("max_iters", [6, 80])
@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_ik_descend_matches_ik_attempt_per_lane(factory, max_iters):
    model = factory()
    rng = np.random.default_rng(11)
    lo, hi = model.limits_lo, model.limits_hi
    reachable = [fk(model, rng.uniform(lo, hi)) for _ in range(16)]
    targets = list(reachable)
    # unreachable: the same orientations pushed three times as far out
    targets += [DualQuaternion.from_pose(3.0 * t.translation(), t.real) for t in reachable]
    # near and across the workspace boundary, where descents stall and recover
    targets += [DualQuaternion.from_pose(rng.uniform(0.7, 1.3) * t.translation(), t.real)
                for t in (fk(model, rng.uniform(lo, hi)) for _ in range(200))]
    targets += reachable[:4]                 # lanes sharing one pose object
    seeds = rng.uniform(lo - 1.0, hi + 1.0, size=(len(targets), model.dof))
    assert np.any(seeds < lo) and np.any(seeds > hi)
    out = ik_descend(model, targets, seeds, 1e-3, 1e-2, max_iters)
    assert out.shape == (len(targets), model.dof)
    reached = 0
    for k, (target, seed) in enumerate(zip(targets, seeds)):
        ref = ik_attempt(model, target, seed, 1e-3, 1e-2, max_iters)
        if ref is None:
            assert np.all(np.isnan(out[k])), k
        else:
            reached += 1
            np.testing.assert_allclose(out[k], ref, rtol=0, atol=1e-9)
    assert 0 < reached < len(targets)


def test_ik_descend_empty_and_mismatched():
    model = planar_rr()
    assert ik_descend(model, [], np.zeros((0, 2)), 1e-3, 1e-2, 80).shape == (0, 2)
    with pytest.raises(ValueError):
        ik_descend(model, [fk(model, model.home)], np.zeros((2, 2)), 1e-3, 1e-2, 80)


def test_ik_respects_limits(monkeypatch):
    monkeypatch.setattr(kinematics, "PLANAR_LIMITS_DEG", (-100, 100))
    m = planar_3r()
    rng = np.random.default_rng(8)
    for _ in range(50):
        theta = rng.uniform(m.limits_lo, m.limits_hi)
        sol = ik(m, fk(m, theta), rng=rng)
        if sol is not None:
            assert m.within_limits(sol)


def test_ik_reachability_annulus(monkeypatch):
    monkeypatch.setattr(kinematics, "IK_RESTARTS", 12)
    monkeypatch.setattr(kinematics, "IK_MAX_ITERS", 150)
    m = planar_rr()
    rng = np.random.default_rng(9)
    l1 = l2 = 1.0
    disagreements = 0
    total = 0
    band = 0.02
    for _ in range(1000):
        p = rng.uniform(-2.2, 2.2, size=2)
        r = np.linalg.norm(p)
        if abs(r - (l1 + l2)) < band or abs(r - abs(l1 - l2)) < band:
            continue  # tolerance band at the annulus boundary
        total += 1
        reachable = abs(l1 - l2) <= r <= l1 + l2
        sol = ik(m, DualQuaternion.from_translation([p[0], p[1], 0]), rng=rng)
        if (sol is not None) != reachable:
            disagreements += 1
    assert disagreements <= 0.01 * total


# ------------------------------------------------------------------ #
# closed-form branches
# ------------------------------------------------------------------ #
def lanes_of(model, thetas):
    return np.array([dq_to_lanes(fk(model, t)) for t in thetas])


def assert_branches_reach(model, branches, lanes, atol):
    """FK of every non-NaN branch row reproduces its pose: the position, and
    the rotation up to sign when the task space has a yaw."""
    for k, b in zip(*np.nonzero(~np.isnan(branches[..., 0]))):
        got = dq_to_lanes(fk(model, branches[k, b]))
        np.testing.assert_allclose(dq_translation(got), dq_translation(lanes[k]),
                                   rtol=0, atol=atol)
        if model.ee_dof == 3:
            sign = np.sign(got[:4] @ lanes[k, :4])
            np.testing.assert_allclose(sign * got[:4], lanes[k, :4], rtol=0, atol=atol)


def mirrored_elbow(model, theta):
    """The other elbow configuration with the same wrist and end effector,
    wrapped into [-pi, pi)."""
    steps, _, tool_p = model._chain
    l1, l2 = steps[1][1][0], (steps[2][1][0] if model.dof == 3 else tool_p[0])
    t1, t2 = theta[:2]
    m1 = t1 + 2.0 * np.arctan2(l2 * np.sin(t2), l1 + l2 * np.cos(t2))
    out = [m1, -t2] + ([theta[2] + (t1 + t2) - (m1 - t2)] if model.dof == 3 else [])
    return (np.array(out) + np.pi) % (2.0 * np.pi) - np.pi


@pytest.mark.parametrize("factory", [planar_rr, planar_3r])
def test_closed_form_branches_are_the_elbow_up_and_down_solutions(factory):
    model = factory()
    thetas = np.random.default_rng(21).uniform(model.limits_lo, model.limits_hi,
                                               (400, model.dof))
    lanes = lanes_of(model, thetas)
    branches = closed_form_branches(model, lanes, 1e-3)
    assert branches.shape == (len(thetas), 2, model.dof)
    assert_branches_reach(model, branches, lanes, 1e-12)
    both = 0
    for theta, rows in zip(thetas, branches):
        rows = rows[~np.isnan(rows[:, 0])]
        assert all(model.within_limits(r, tol=0.0) for r in rows)
        other = mirrored_elbow(model, theta)
        margin = np.min(np.minimum(other - model.limits_lo, model.limits_hi - other))
        if abs(margin) < 1e-6:
            continue                         # the mirror sits on a limit
        want = [theta, other] if margin > 0 else [theta]
        both += len(want) == 2
        assert len(rows) == len(want)
        for w in want:                       # each solution is one of the rows
            assert np.min(np.max(np.abs(rows - w), axis=1)) < 1e-9
    assert 0 < both < len(thetas)


def pose_with_wrist(model, r, angle, yaw):
    """A pose of planar_3r whose wrist lies at distance r from the base."""
    tool = model._chain[2][0]
    x, y = r * np.cos(angle) + tool * np.cos(yaw), r * np.sin(angle) + tool * np.sin(yaw)
    return dq_to_lanes(planar_pose(x, y, yaw)).reshape(1, 8)


def test_closed_form_branches_respect_the_limits_and_the_reach_tolerance(monkeypatch):
    model = planar_3r()                                  # links 0.5, 0.4, 0.3
    # joint 1 at 178 degrees: the elbow-up branch is past the limit, the
    # elbow-down one (joint 1 near -156 degrees) is not
    lanes = lanes_of(model, [np.array([np.radians(178.0), 0.5, -0.3])])
    branches = closed_form_branches(model, lanes, 1e-3)[0]
    assert np.all(np.isnan(branches[0])) and model.within_limits(branches[1], tol=0.0)
    assert_branches_reach(model, branches[None], lanes, 1e-12)
    monkeypatch.setattr(kinematics, "PLANAR_LIMITS_DEG", (-180.0, 180.0))
    free = planar_3r()
    for r, reached_by in [(0.9 + 0.9e-3, (model, free)), (0.9 + 1.1e-3, ()),
                          (0.1 - 0.9e-3, (free,)), (0.1 - 1.1e-3, ())]:
        lanes = pose_with_wrist(model, r, 0.7, -0.4)
        for arm in (model, free):
            branches = closed_form_branches(arm, lanes, 1e-3)[0]
            if arm not in reached_by:        # out of reach, or the elbow is past 175 deg
                assert np.all(np.isnan(branches)), (r, arm.limits_hi)
                continue
            # on the annulus edge both branches are the stretched or folded arm
            np.testing.assert_array_equal(branches[0], branches[1])
            miss = fk(arm, branches[0]).translation() - dq_translation(lanes[0])
            assert np.linalg.norm(miss) == pytest.approx(abs(r - round(r, 1)), abs=1e-12)
            assert np.all(np.isnan(closed_form_branches(arm, lanes, 0.0)))


def test_closed_form_branches_refuse_chains_they_do_not_cover(monkeypatch):
    from test_geometry import mini7_with_capsules
    lanes = np.zeros((1, 8))
    lanes[0, 0] = 1.0
    monkeypatch.setattr(kinematics, "PLANAR_LIMITS_DEG", (-190.0, 190.0))
    for model in (seven_dof(), mini7_with_capsules(), planar_3r()):
        assert closed_form_branches(model, lanes, 1e-3) is None


def test_ik_attempt_solutions_are_closed_form_branches():
    from test_switch_agent import crossing_plans
    model = wall_slot()["robot"]
    lanes = dq_to_lanes(sum(crossing_plans(), []))
    branches = closed_form_branches(model, lanes, 1e-3)
    seeds = np.vstack([model.home, np.random.default_rng(4).uniform(
        model.limits_lo, model.limits_hi, (8, model.dof))])
    solutions = 0
    for pose, rows in zip(lanes, branches):
        for seed in seeds:
            # every pose the candidates' tolerances reach has a branch ...
            if ik_attempt(model, pose, seed, 1e-3, 1e-2, 150) is not None:
                assert not np.all(np.isnan(rows))
            # ... and a converged descent ends on one; at 1e-3 a descent may
            # stop 0.025 rad away where the elbow is nearly folded
            sol = ik_attempt(model, pose, seed, 1e-9, 1e-9, 150)
            if sol is not None:
                solutions += 1
                assert np.nanmin(np.max(np.abs(rows - sol), axis=1)) < 0.01
    assert solutions > len(lanes)


# ------------------------------------------------------------------ #
# the model's hash and refusals
# ------------------------------------------------------------------ #
@pytest.mark.parametrize("model, digest", [
    (planar_3r, "1e1469316e1484a01f4abc98da295ded1301f78fa7cd25d027abab7172801221"),
    (planar_rr, "9f735688f9a393172496224aa2ab5055ddaf94c14eab265697a1302b5e2b3c5b"),
], ids=["planar_3r", "planar_rr"])
def test_robot_hash_is_pinned(model, digest):
    # every stored map carries its robot's hash: a change to serialize_robot's
    # bytes would make every stored map look built for another robot
    assert robot_hash(model()) == digest


def _robot(joints=2, tool=None, home=(0.0, 1.0), axis=Z, limits=(-3.0, 3.0), capsules=(),
           task="planar"):
    """A planar arm of unit links for the refusals below."""
    chain = [(axis, DualQuaternion.identity(), limits)]
    chain += [(Z, DualQuaternion.from_translation([1, 0, 0]), limits)] * (joints - 1)
    tool = DualQuaternion.from_translation([1, 0, 0]) if tool is None else tool
    return make_robot("r", chain, tool, capsules, home=list(home), task=task)


def _overflowing_robot():
    # a finite tool rotation so large that the home pose's quaternion overflows
    with np.errstate(all="ignore"):
        return _robot(3, DualQuaternion(np.full(4, 1.5e308), np.zeros(4)), (0.0, 1.0, 1.0))


def test_capsule_validation():
    with pytest.raises(ValueError, match="frame index"):
        _robot(capsules=[LinkCapsule(1, 4, 0.05)])      # frames 0-3 on a 2-joint arm
    assert _robot(capsules=[LinkCapsule(0, 3, 0.05)]).capsules == [LinkCapsule(0, 3, 0.05)]
    assert all(isinstance(c, LinkCapsule) for c in planar_rr().capsules)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -0.04], ids=["nan", "inf", "0", "-0.04"])
def test_make_robot_rejects_a_capsule_radius_that_is_not_positive_and_finite(radius):
    with pytest.raises(ValueError, match="capsule radius"):
        _robot(capsules=[LinkCapsule(1, 2, radius)])


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: _robot(axis=np.zeros(3)),
                 r"joint 1 axis must have unit length, got norm 0\.0", id="zero_axis"),
    # refused, not rescaled: the unit rule is checked where the axis is read
    pytest.param(lambda: _robot(axis=[0.0, 0.0, 2.0]),
                 r"joint 1 axis must have unit length, got norm 2\.0", id="scaled_axis"),
    pytest.param(lambda: _robot(limits=(3.0, -3.0)), r"lo < hi, got \[3\.0, -3\.0\]",
                 id="reversed_limits"),
    pytest.param(lambda: _robot(home=[0.0]), "home configuration dimension mismatch",
                 id="home_length"),
    pytest.param(lambda: _robot(home=[0.0, 4.0]), "home configuration violates joint limits",
                 id="home_outside_limits"),
    pytest.param(_overflowing_robot, "home configuration gives non-finite pose",
                 id="non_finite_home_pose"),
    pytest.param(lambda: jacobian(planar_rr(), np.zeros(3)), r"expected 2 joint angles",
                 id="jacobian_shape"),
    pytest.param(lambda: _robot(task="cylindrical"), "unknown task space 'cylindrical'",
                 id="unknown_task"),
    pytest.param(lambda: fk(planar_rr(), np.zeros(3)), r"expected 2 joint angles, got \(3,\)",
                 id="dof_mismatch"),
    # refused before any arithmetic, not left to the SVD of the home check
    pytest.param(lambda: _robot(tool=DualQuaternion(np.array([1.0, 0, 0, 0]),
                                                    np.array([0.0, np.nan, 0, 0]))),
                 r"tool pose must be finite", id="nan_tool"),
    pytest.param(lambda: make_robot("r", [(Z, DualQuaternion(np.array([1.0, 0, 0, 0]),
                                                             np.array([0.0, 0, np.inf, 0])),
                                           (-3.0, 3.0))], task="planar"),
                 r"joint 1 offset must be finite", id="inf_offset"),
])
def test_kinematics_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("axis", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0]], ids=["nan", "inf"])
def test_make_robot_refuses_a_non_finite_joint_axis(axis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # refused before any arithmetic can warn
        with pytest.raises(ValueError, match=r"joint 1 axis must be finite"):
            _robot(axis=np.array(axis))
