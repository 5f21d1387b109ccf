import hashlib
import warnings

import numpy as np
import pytest

import scalar_reference
from scalar_reference import unannotated
from hybridplan import feasibility, switch_agent
from hybridplan.drl_planner import DrlEnvConfig, plan_drl, train_drl
from hybridplan.feasibility import (COLLISION, FJ, NOT_FJ, Segment, SegmentClassification,
                                    build_map, classify_trajectory)
from hybridplan.geometry import Box, collision_index, score_lanes
from hybridplan.hrl_planner import QTables, plan_lfd
from hybridplan.rl_core import PpoConfig
from hybridplan.dualquat import DualQuaternion, dq_to_lanes
from hybridplan.kinematics import (closed_form_branches, fk, normalized_manipulability,
                                   planar_3r, planar_rr)
from hybridplan.switch_agent import (
    ACT_KEEP,
    ACT_SWITCH,
    BandPlan,
    Boundary,
    SwitchConfig,
    assemble,
    blend,
    brute_force_switches,
    densify,
    executed_window_reward,
    find_bands,
    heuristic_switches,
    lfd_joint_candidates,
    policy_switches,
    train_switch,
)
from hybridplan.scenarios import line_library, planar_pose, wall_slot
from hybridplan.task import Task
from hybridplan.trajectory import SOURCE_DRL, SOURCE_LFD, JointTrajectory
from hybridplan.workcell import (COLLISION_RES_DEG, SMOOTH_BOUND_DEG, SuccessCriteria, Workcell,
                                 _checked_configs, count_path_collisions, execute)
from test_geometry import mini7_scene, mini7_with_capsules


def test_train_switch_rejects_scenarios_without_bands():
    # with no band anywhere the rollout loop could never fill a batch
    model = planar_3r()
    n = 6
    cands = JointTrajectory(np.tile(model.home, (n, 1)), np.full(n, SOURCE_LFD, np.uint8),
                            np.ones(n), np.zeros(n, dtype=np.uint8))
    with pytest.raises(ValueError, match="band"):
        train_switch([(cands, []), (cands, [])], model, [], batches=1)


# ------------------------------------------------------------------ #
# blend, densify, assemble, switching
# ------------------------------------------------------------------ #
POST = Box([0.9, -0.02, -0.1], [1.0, 0.02, 0.1], "post")
# joint 1 past its 175 degree limit in 1 degree steps (degrees)
RAMP_PAST_LIMIT = [[174.0, 10.0, -10.0], [175.0, 10.0, -10.0], [176.0, 10.0, -10.0]]


def switch_config(monkeypatch, **constants):
    """``SwitchConfig()`` with the class constants ``constants`` set for the
    test."""
    for name, value in constants.items():
        monkeypatch.setattr(SwitchConfig, name, value)
    return SwitchConfig()


def annotated(model, points, source=SOURCE_LFD):
    """A trajectory through ``points`` annotated by the scalar scores."""
    points = np.asarray(points, dtype=float)
    return JointTrajectory(points, np.full(len(points), source, np.uint8),
                           np.array([normalized_manipulability(model, t) for t in points]),
                           np.array([collision_index(model, t, [POST]) for t in points],
                                    np.uint8))


def assert_annotated(model, traj):
    ref = annotated(model, traj.points)
    np.testing.assert_array_equal(traj.man, ref.man)
    np.testing.assert_array_equal(traj.col, ref.col)


def test_blend_caps_points_and_excludes_endpoints(monkeypatch):
    model = planar_3r()
    cfg = switch_config(monkeypatch, blend_points=7, blend_step_deg=2.0)
    a, b = np.array([0.5, 0.0, 0.0]), np.array([-0.5, 0.0, 0.0])
    out, short, none = blend([(a, b), (a, a + np.radians([5.0, 0.0, -3.0])), (a, a)],
                             model, [POST], cfg)
    assert len(out) == cfg.blend_points                  # 28 would be needed
    assert np.all(out.source == SOURCE_DRL)
    assert not any(np.array_equal(p, a) or np.array_equal(p, b) for p in out.points)
    np.testing.assert_array_equal(out.points[:, 1:], 0.0)   # only joint 1 moves
    u = (out.points[:, 0] - a[0]) / (b[0] - a[0])
    assert np.all((u > 0.0) & (u < 1.0)) and np.all(np.diff(u) > 0.0)
    assert out.col.any()
    assert_annotated(model, out)
    assert len(short) == 2                                # ceil(5 / 2) - 1
    assert_annotated(model, short)
    assert len(none) == 0 and len(none.man) == 0 and len(none.col) == 0
    alone, = blend([(a, a)], model, [POST], cfg)          # no row to score
    assert len(alone) == 0 and alone.man.dtype == float and alone.col.dtype == np.uint8


def test_densify_bounds_steps_and_keeps_the_original_points():
    model = planar_3r()
    pts = [[0.5, 0.0, 0.0], [0.45, 0.01, 0.0], [-0.5, 0.0, 0.1], [-0.5, 0.0, 0.1],
           [-0.2, 0.3, -0.4]]
    traj = annotated(model, pts)
    traj.source[2:] = SOURCE_DRL
    for bound_deg in (2.0, 0.5):
        out = densify(traj, model, [POST], bound_deg)
        assert out.max_step() <= np.radians(bound_deg) + 1e-12
        kept = [next(i for i in range(len(out)) if np.array_equal(out.points[i], p))
                for p in traj.points[:3]]
        kept += [kept[-1] + 1, len(out) - 1]    # the repeated point follows at once
        assert kept == sorted(kept) and len(set(kept)) == len(kept)
        np.testing.assert_array_equal(out.points[kept], traj.points)
        np.testing.assert_array_equal(out.source[kept], traj.source)
        new = np.setdiff1d(np.arange(len(out)), kept)
        assert len(new) > 0
        # an inserted point takes the source of the waypoint it leads to
        np.testing.assert_array_equal(out.source[new], traj.source[np.searchsorted(kept, new)])


@pytest.mark.parametrize("bound_deg", [0.0, -2.0, float("nan")])
def test_densify_rejects_non_positive_bound(bound_deg):
    model = planar_3r()
    traj = annotated(model, [model.home, model.home + 0.1])
    with pytest.raises(ValueError, match="bound_deg"):
        densify(traj, model, [POST], bound_deg)


def edge_paths():
    """Seeded planar_3r joint paths, each named after the edge case it holds;
    the walk starts on the stretched arm, which hits POST."""
    walk = np.cumsum(np.random.default_rng(11).uniform(-0.08, 0.08, (8, 3)), axis=0)
    step, a = np.radians(2.0), walk[0]
    return {
        "random walk": walk,
        "repeated point": np.insert(walk, 3, walk[3], axis=0),      # a zero-length edge
        "k x bound": np.array([[0.0, 0.0, 0.0], [3 * step, 0.0, 0.0],
                               [3 * step, -5 * step, 0.0]]),
        "one point": walk[:1],
        "empty": walk[:0],
        "blend above its cap": np.array([a, a + np.radians([30.0, -4.0, 0.0])]),
        "blend below its cap": np.array([a, a + np.radians([0.0, 7.0, 1.0])]),
    }


EDGE_PATHS = edge_paths()


def assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", list(EDGE_PATHS))
def test_edge_splits_equal_the_per_point_loops(monkeypatch, case):
    model = planar_3r()
    points = EDGE_PATHS[case]
    k = len(points)
    rng = np.random.default_rng(k)
    traj = JointTrajectory(points, rng.integers(0, 2, k).astype(np.uint8),
                           rng.uniform(0.0, 1.0, k), rng.integers(0, 2, k).astype(np.uint8))
    cfg = switch_config(monkeypatch, blend_points=6)
    pairs = []
    for bound_deg in (2.0, 0.5):
        pairs.append((densify(traj, model, [POST], bound_deg),
                      scalar_reference.densify(traj, model, [POST], bound_deg)))
    if k > 1:                      # every edge's blend from one batch
        pairs += zip(blend(list(zip(points[:-1], points[1:])), model, [POST], cfg),
                     [scalar_reference.blend(a, b, model, [POST], cfg)
                      for a, b in zip(points[:-1], points[1:])])
    for got, ref in pairs:
        for field in ("points", "source", "man", "col"):
            if getattr(ref, field) is None:             # densify's unscored path
                assert getattr(got, field) is None
            else:
                assert_same_bits(getattr(got, field), getattr(ref, field))
        assert got.success == ref.success
    if case.startswith("blend"):
        assert (len(pairs[-1][0]) == cfg.blend_points) == (case == "blend above its cap")
    rows, at = _checked_configs(model, points)
    ref_rows, ref_at = scalar_reference.checked_configs(points, COLLISION_RES_DEG)
    assert_same_bits(rows, ref_rows)
    assert at.tolist() == ref_at


def band_scene(model, cfg, n=14, i=5, j=8):
    """LfD candidates on a joint-space ramp with an infeasible band [i, j]
    bridged by a detour, and its decision windows as ``find_bands`` sets them."""
    pts = [np.array([0.9 - 0.08 * k, 0.4, -0.3 + 0.02 * k]) for k in range(n)]
    cands = annotated(model, pts)
    a, b = pts[i - 1], pts[j + 1]
    detour = [a + u * (b - a) + np.array([0.0, 0.3 * np.sin(np.pi * u), 0.0])
              for u in np.linspace(0.1, 0.9, 7)]
    bridge = annotated(model, detour, SOURCE_DRL)
    entry = Boundary("entry", i - 1, max(0, i - 1 - cfg.window), min(i - 1 + cfg.window, j))
    exit_ = Boundary("exit", j + 1, max(i, j + 1 - cfg.window),
                     min(j + 1 + cfg.window, n - 1))
    return cands, BandPlan(i, j, bridge, entry, exit_)


def test_assemble_length_is_the_sum_of_its_parts(monkeypatch):
    model = planar_3r()
    cfg = switch_config(monkeypatch, window=2, blend_points=4)
    cands, band = band_scene(model, cfg)
    for s_in, s_out in [(band.entry.index, band.exit.index), (band.entry.lo, band.exit.hi),
                        (band.entry.hi, band.exit.lo)]:
        out = assemble(cands, [band], [(s_in, s_out)], model, [POST], cfg)
        b_in, b_out = blend([(cands.points[s_in], band.bridge.points[0]),
                             (band.bridge.points[-1], cands.points[s_out])], model, [POST], cfg)
        assert len(out) == (s_in + 1) + len(b_in) + len(band.bridge) + len(b_out) \
            + (len(cands) - s_out)
        np.testing.assert_array_equal(out.points, np.vstack([
            cands.points[:s_in + 1], b_in.points, band.bridge.points, b_out.points,
            cands.points[s_out:]]))
        assert out.man is None and out.col is None            # the path is unscored
    bare = assemble(cands, [], [], model, [POST], cfg)
    assert len(bare) == len(cands) and bare.man is None and bare.col is None


def test_a_densified_held_trajectory_never_drops_the_payload(monkeypatch):
    # densify's smoothness bound is execute's payload-drop bound
    model = planar_3r()
    cfg = switch_config(monkeypatch, window=2, blend_points=4)
    assert cfg.smooth_bound_deg == SMOOTH_BOUND_DEG
    cands, band = band_scene(model, cfg)
    traj = assemble(cands, [band], [(band.entry.lo, band.exit.hi)], model, [POST], cfg)
    task = Task("held", [fk(model, traj.points[0]), fk(model, traj.points[-1])],
                hold=[True, True])
    cell = Workcell("held", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1], [POST])
    tight = SuccessCriteria(pos_tol=1e-6, rot_tol=1e-6)
    assert execute(traj, model, cell, tight, task).dropped       # the ramp steps 4.6 degrees
    report = execute(densify(traj, model, [POST], cfg.smooth_bound_deg), model, cell, tight, task)
    assert report.config_hits[0] == 0 and report.config_hits[1] is not None
    assert not report.dropped


def test_brute_force_switches_never_lose_to_the_heuristic(monkeypatch):
    model = planar_3r()
    for window in (1, 2, 3):
        cfg = switch_config(monkeypatch, window=window, blend_points=4)
        cands, band = band_scene(model, cfg)
        best = brute_force_switches(band, cands, model, [POST], cfg)
        (h_in, h_out), = heuristic_switches([band])
        r_best = executed_window_reward(cands, band, *best, model, [POST], cfg)
        r_heur = executed_window_reward(cands, band, h_in, h_out, model, [POST], cfg)
        assert r_best >= r_heur
        assert band.entry.lo <= best[0] <= band.entry.hi
        assert band.exit.lo <= best[1] <= band.exit.hi


def test_a_band_scores_all_its_blends_in_one_call(monkeypatch):
    # the band's first reward builds the blend of every handover index of
    # both windows and scores their rows in one call; each blend equals the
    # blend of its own pair, bit for bit
    model = planar_3r()
    cfg = switch_config(monkeypatch, window=2, blend_points=4)
    cands, band = band_scene(model, cfg)
    rows = []
    monkeypatch.setattr(switch_agent, "score_lanes",
                        lambda model, thetas, obstacles: rows.append(len(thetas))
                        or score_lanes(model, thetas, obstacles))
    blends = {}
    ins, outs = range(band.entry.lo, band.entry.hi + 1), range(band.exit.lo, band.exit.hi + 1)
    for s_in in ins:
        for s_out in outs:
            executed_window_reward(cands, band, s_in, s_out, model, [POST], cfg, blends)
    assert set(blends) == {("in", s) for s in ins} | {("out", s) for s in outs}
    assert rows == [sum(len(b) for b in blends.values())] and rows[0] > 0
    for (kind, s), got in blends.items():
        ends = ((cands.points[s], band.bridge.points[0]) if kind == "in"
                else (band.bridge.points[-1], cands.points[s]))
        ref = scalar_reference.blend(*ends, model, [POST], cfg)
        for field in ("points", "source", "man", "col"):
            assert_same_bits(getattr(got, field), getattr(ref, field))


def test_executed_window_reward_refuses_a_handover_outside_its_windows(monkeypatch):
    model = planar_3r()
    cfg = switch_config(monkeypatch, window=2, blend_points=4)
    cands, band = band_scene(model, cfg)
    for s_in, s_out in [(band.entry.lo - 1, band.exit.lo), (band.entry.hi + 1, band.exit.lo),
                        (band.entry.lo, band.exit.lo - 1), (band.entry.lo, band.exit.hi + 1)]:
        with pytest.raises(ValueError, match="outside the decision windows"):
            executed_window_reward(cands, band, s_in, s_out, model, [POST], cfg)


class Always:
    """A switching policy that always answers the same action."""

    def __init__(self, action):
        self.action = action
        self.calls = 0

    def mean_action(self, obs):
        self.calls += 1
        return self.action


def test_policy_switches_first_flip_fixes_the_handover(monkeypatch):
    model = planar_3r()
    cfg = switch_config(monkeypatch, window=2, blend_points=4)
    cands, band = band_scene(model, cfg, n=24)
    # the later band's entry window starts where the first band's exit window ends
    _, later = band_scene(model, cfg, n=24, i=14, j=16)
    keep, switch = Always(ACT_KEEP), Always(ACT_SWITCH)
    assert policy_switches(keep, [band, later], cands, cfg) == \
        [(b.entry.hi, b.exit.hi) for b in (band, later)]
    # keeping walks every decision point of both windows
    assert keep.calls == sum((b.entry.hi - b.entry.lo + 1) + (b.exit.hi - b.exit.lo + 1)
                             for b in (band, later))
    assert policy_switches(switch, [band], cands, cfg) == [(band.entry.lo, band.exit.lo)]
    assert switch.calls == 2                     # one decision per window
    assert policy_switches(keep, [], cands, cfg) == []


class EntrySwitcher:
    """A switching policy that switches at once in entry windows and keeps
    in exit windows, read from the kind flag that ends each observation."""

    def mean_action(self, obs):
        return ACT_SWITCH if obs[-1] > 0 else ACT_KEEP


@pytest.mark.parametrize("infeasible, windows, switches", [
    # the first band's exit window reaches 15, past the start of the second
    # band's entry window, 7
    ([(5, 9), (13, 16)], [(0, 15), (7, 22)], [(0, 15), (15, 22)]),
    # the second band's whole entry window, 5 to 11, lies before 15
    ([(5, 9), (11, 11)], [(0, 15), (5, 17)], [(0, 15), (15, 17)]),
], ids=["overlapping_windows", "entry_window_before_the_exit_handover"])
def test_policy_switches_never_hand_over_backwards(infeasible, windows, switches):
    # bands fewer than 2K + 1 = 11 poses apart on a 30-pose straight joint path
    model, cfg, n = planar_3r(), SwitchConfig(), 30
    pts = np.linspace([-0.2, 0.4, -0.3], [1.3, -0.6, 0.7], n)
    cands = annotated(model, pts)
    poses = dq_to_lanes([fk(model, t) for t in pts])
    mask = np.ones(n, dtype=bool)
    for i, j in infeasible:
        mask[i:j + 1] = False
    bounds = np.flatnonzero(mask[1:] != mask[:-1]) + 1
    cls = SegmentClassification([Segment(a, b - 1, FJ if mask[a] else NOT_FJ) for a, b in
                                 zip([0, *bounds], [*bounds, n])], poses, mask)

    def bridge(start, goal, theta):
        # the straight joint path from the start witness to the goal's row
        k = int(np.flatnonzero((poses == goal).all(axis=1))[0])
        return annotated(model, np.linspace(theta, pts[k], 8), SOURCE_DRL)

    bands = find_bands(cls, cands, cfg, bridge)
    assert [(b.entry.lo, b.exit.hi) for b in bands] == windows
    got = policy_switches(EntrySwitcher(), bands, cands, cfg)
    assert got == switches
    # no step of the assembled path is larger than a step of the straight path
    traj = assemble(cands, bands, got, model, [POST], cfg)
    assert traj.max_step() <= cands.max_step() + 1e-12


def train_switch_weights(scenarios, model, cfg):
    pol, val, _ = train_switch(scenarios, model, [POST], cfg, seed=3, batches=2)
    return np.concatenate([np.ravel(a) for a in pol.net.params + val.net.params])


def test_train_switch_memoised_blends_leave_the_weights_unchanged(monkeypatch):
    model = planar_3r()
    cfg = switch_config(monkeypatch, window=2, blend_points=4)
    scenarios = [band_scene(model, cfg), band_scene(model, cfg, n=16, i=6, j=10)]
    scenarios = [(cands, [band]) for cands, band in scenarios]
    calls = []
    original = switch_agent.blend
    monkeypatch.setattr(switch_agent, "blend", lambda *a: calls.append(1) or original(*a))
    memoised = train_switch_weights(scenarios, model, cfg)
    memo_calls = len(calls)
    # each band has one entry blend per s_in and one exit blend per s_out
    distinct = sum((b.entry.hi - b.entry.lo + 1) + (b.exit.hi - b.exit.lo + 1)
                   for _, (b,) in scenarios)
    assert 0 < memo_calls <= distinct
    reward = switch_agent.executed_window_reward
    monkeypatch.setattr(switch_agent, "executed_window_reward",
                        lambda *a: reward(*a[:7]))            # no memo: a fresh blend each time
    calls.clear()
    np.testing.assert_array_equal(train_switch_weights(scenarios, model, cfg), memoised)
    assert len(calls) > memo_calls


# ------------------------------------------------------------------ #
# LfD joint candidates
# ------------------------------------------------------------------ #
def test_lfd_joint_candidates_shape_limits_and_seed_determinism(monkeypatch):
    monkeypatch.setattr(switch_agent, "CHAIN_IK_SEED", 3)
    model = planar_3r()
    thetas = [np.array([0.2, 0.5, -0.4]), np.array([0.3, 0.6, -0.5]),
              np.array([0.5, 0.4, -0.2]), np.array([0.6, 0.2, 0.1])]
    poses = [fk(model, t) for t in thetas]
    poses.insert(2, DualQuaternion.from_translation([2.0, 0.0, 0.0]))   # out of reach
    out = lfd_joint_candidates(poses, model, [POST])
    assert out.points.shape == (len(poses), model.dof)
    assert len(out.source) == len(out.man) == len(out.col) == len(poses)
    assert np.all(out.source == SOURCE_LFD)
    assert all(model.within_limits(t) for t in out.points)
    # the unreachable pose holds the joints of the pose before it
    np.testing.assert_array_equal(out.points[2], out.points[1])
    for k in (0, 1, 3, 4):
        np.testing.assert_allclose(fk(model, out.points[k]).translation(),
                                   poses[k].translation(), atol=2e-3)
    assert_annotated(model, out)
    again = lfd_joint_candidates(poses, model, [POST])
    for field in ("points", "source", "man", "col"):
        np.testing.assert_array_equal(getattr(again, field), getattr(out, field))


def crossing_plans():
    """Straight 12-pose plans of the wall_slot scene: two through the wall,
    one through the slot and one beside the wall."""
    ends = [((0.3, 0.7, 0.0), (0.95, 0.6, 0.2)), ((0.3, -0.6, 0.3), (1.0, -0.5, 0.0)),
            ((0.3, 0.05, 0.0), (0.95, 0.05, 0.0)), ((0.2, 0.8, 0.5), (0.35, -0.7, -0.5))]
    return [[planar_pose(*(np.array(a) + u * (np.subtract(b, a)))) for u in np.linspace(0, 1, 12)]
            for a, b in ends]


def mini7_plans():
    """Three 8-pose plans of the capsule 7-DoF model, poses of straight joint
    paths between seeded configurations, with its scene's two boxes."""
    model, obstacles = mini7_scene()
    rng = np.random.default_rng(3)
    plans = []
    for _ in range(3):
        a, b = 0.7 * rng.uniform(model.limits_lo, model.limits_hi, (2, model.dof))
        plans.append([fk(model, a + u * (b - a)) for u in np.linspace(0, 1, 8)])
    return model, obstacles, plans


@pytest.mark.parametrize("seed", [0, 5])
def test_lfd_joint_candidates_equal_the_full_restart_loop(monkeypatch, seed):
    # the closed form refuses the 7-DoF chain, so the chained IK runs;
    # colliding picks keep its fallback to the first solution exercised
    monkeypatch.setattr(switch_agent, "CHAIN_IK_SEED", seed)
    model, obstacles, plans = mini7_plans()
    colliding = 0
    for poses in plans:
        ref = scalar_reference.lfd_joint_candidates(poses, model, obstacles, seed)
        got = lfd_joint_candidates(poses, model, obstacles)
        for field in ("points", "source", "man", "col"):
            assert_same_bits(getattr(got, field), getattr(ref, field))
        colliding += int(got.col.sum())
    assert colliding >= 4


def enumeration_plans():
    """Planar plans of at most 10 poses with a branch: slices of the wall
    crossings, plans with unreachable poses that hold, seeded plans whose
    poses mostly have two free branches, and an empty plan."""
    far = planar_pose(2.0, 0.0)
    crossings = crossing_plans()
    plans = [p[:10] for p in crossings] + [p[2:] for p in crossings]
    plans += [[far] + crossings[0][:4] + [far, far] + crossings[0][4:8] + [far],
              [far, far], []]
    model = planar_3r()
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 10):
        walk = np.cumsum(rng.uniform(-0.6, 0.6, (n, model.dof)), axis=0)
        plans.append([fk(model, t) for t in np.clip(walk, model.limits_lo, model.limits_hi)])
    return plans


@pytest.mark.parametrize("scene", ["wall_slot", "open"])
def test_lfd_joint_candidates_equal_the_enumerated_branch_choice(scene):
    model = planar_3r()
    obstacles = wall_slot()["cell"].obstacles if scene == "wall_slot" else []
    held = 0
    for poses in enumeration_plans():
        ref = scalar_reference.lfd_joint_candidates_by_enumeration(poses, model, obstacles)
        got = lfd_joint_candidates(poses, model, obstacles)
        for field in ("points", "source", "man", "col"):
            assert_same_bits(getattr(got, field), getattr(ref, field))
        held += int(np.sum(np.isnan(closed_form_branches(
            model, dq_to_lanes(poses).reshape(-1, 8), 1e-3)).all(axis=(1, 2))))
    assert held >= 6


def test_lfd_joint_candidates_on_planar_rr_equal_the_enumerated_branch_choice():
    model = planar_rr()
    rng = np.random.default_rng(2)
    for n in (3, 9):
        thetas = rng.uniform(model.limits_lo, model.limits_hi, (n, model.dof))
        poses = [fk(model, t) for t in thetas] + [planar_pose(2.5, 0.0)]
        ref = scalar_reference.lfd_joint_candidates_by_enumeration(poses, model, [POST])
        got = lfd_joint_candidates(poses, model, [POST])
        for field in ("points", "source", "man", "col"):
            assert_same_bits(getattr(got, field), getattr(ref, field))


def test_lfd_joint_candidates_keep_one_elbow_branch_on_hybrid_seed_41(workloads):
    # the parent's restarts jumped branch at the first step (238.5 degrees),
    # and densify then swept the arm through the wall
    wl = workloads.HybridWorkload(41)
    wl.setup(workloads.Tally())
    task, = [t for t in wl.instances if t.id == "side91"]
    cands = lfd_joint_candidates(wl._plan(task)["poses"], wl.model, wl.cell.obstacles)
    assert len(cands) == 12 and not cands.col.any()
    assert cands.max_step() <= np.radians(10.0)


def test_hybrid_query_runs_end_to_end_on_the_seven_dof_chain(monkeypatch):
    # the one model whose candidates come from the chained IK: a wall
    # across the map box, a plan through it, a DRL bridge over the band
    model = mini7_with_capsules()
    obstacles = [Box([0.1, -0.5, 0.2], [0.2, 0.5, 0.8])]
    monkeypatch.setattr(feasibility, "IK_BUDGET", 6)
    fmap = build_map(model, obstacles, ([-0.45, -0.45, 0.2], [0.45, 0.45, 0.8]), 0.15,
                     orientation_spec=(np.pi, (1, 1, 1)))
    assert fmap.n_cells == 144
    rng = np.random.default_rng(32)
    thetas = [t for t in rng.uniform(model.limits_lo, model.limits_hi, (6, model.dof))
              if collision_index(model, t, obstacles) == 0][:2]
    task = Task("mini7", [fk(model, t) for t in thetas])
    poses = plan_lfd(task, line_library(), QTables(), fmap, points_per_gap=12)["poses"]
    assert closed_form_branches(model, dq_to_lanes(poses), 1e-3) is None
    cls = classify_trajectory(poses, fmap)
    pairs = [(b, a) for _, b, a in cls.infeasible_brackets() if b is not None and a is not None]
    env_cfg = DrlEnvConfig(episode_budget=10, man_baseline=1.0)
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 2)
    policy, _, _ = train_drl(pairs, model, obstacles, env_cfg,
                             PpoConfig(num_steps=32, minibatch_size=16), seed=0, batches=1,
                             start_witnesses=[fmap.lookup(before).witness for before, _ in pairs])
    cfg = SwitchConfig()
    cands = lfd_joint_candidates(poses, model, obstacles)
    bands = find_bands(cls, cands, cfg, lambda start, goal, theta: plan_drl(
        policy, model, obstacles, start, goal, env_cfg, theta0=theta))
    cells = fmap.locate_lanes(cls.poses)
    assert any(np.any(fmap.reasons[cells[b.seg_start:b.seg_end + 1]] == COLLISION)
               for b in bands)
    traj = assemble(cands, bands, heuristic_switches(bands), model, obstacles, cfg)
    traj = densify(traj, model, obstacles, cfg.smooth_bound_deg)
    assert all(model.within_limits(p) for p in traj.points)
    assert traj.max_step() <= np.radians(cfg.smooth_bound_deg) + 1e-9
    report = execute(traj, model, Workcell("mini7", [-1.0, -1.0, -1.0], [1.0, 1.0, 1.5],
                                           obstacles), SuccessCriteria(), task)
    assert report.collisions == count_path_collisions(model, traj.points, obstacles)


# ------------------------------------------------------------------ #
# The hybrid query, pinned end to end
# ------------------------------------------------------------------ #
def _query_digests(workloads, wl, monkeypatch) -> dict:
    """SHA-256 per stage over what one ``run_round`` of a ``hybrid`` workload
    hands between its stages: classification masks and segments, candidate
    and bridge points/annotations/success, band boundaries, the densified
    paths' points/sources/success (they carry no annotations) and
    ``ExecutionReport`` reprs.  No pose is hashed, so the digests do not
    depend on the pose format."""
    h = {name: hashlib.sha256() for name in ("classify", "candidates", "bands",
                                             "densify", "execute")}

    def traj_bytes(traj):
        return b"".join([traj.points.astype("<f8").tobytes(), traj.man.astype("<f8").tobytes(),
                         traj.col.astype("u1").tobytes(), repr(bool(traj.success)).encode()])

    def record(stage, fn, out_bytes):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            h[stage].update(out_bytes(out))
            return out
        return wrapped

    for stage, name, out_bytes in (
            ("classify", "classify_trajectory",
             lambda c: c.feasible_mask.tobytes() + repr(c.segments).encode()),
            ("candidates", "lfd_joint_candidates", traj_bytes),
            ("bands", "find_bands",
             lambda bands: b"".join(repr((b.seg_start, b.seg_end, b.entry, b.exit)).encode()
                                    + traj_bytes(b.bridge) for b in bands) + b"|"),
            ("densify", "densify",
             lambda t: t.points.astype("<f8").tobytes() + t.source.astype("u1").tobytes()
             + repr(bool(t.success)).encode()),
            ("execute", "execute", lambda r: repr(r).encode())):
        monkeypatch.setattr(workloads, name, record(stage, getattr(workloads, name), out_bytes))
    tally = workloads.Tally()
    wl.run_round(tally)
    monkeypatch.undo()
    h["execute"].update(repr((tally.quality, tally.failed)).encode())
    return {name: d.hexdigest() for name, d in h.items()}


# SHA-256 per stage of one hybrid round (training and the 100 queries) for
# seeds 1-2; "classify" recorded while plans were still lists of
# DualQuaternions, the other stages re-recorded when the candidates became
# closed-form branches chosen by the min-jump pass; seed 2's "densify" and
# "execute" re-recorded when each band's entry window came to start at the
# previous band's exit handover (its instance cross36 handed over at 6, 11
# and then back at 10); "densify" re-recorded, on the tree before the
# densified path lost its annotations, when the stage came to hash points,
# sources and success only
QUERY_PINS = {
    1: {
        "classify": "5f6e4565d7b95ee83e9f8ca24d69429ab3995bbae7575b35319d9626e78ee828",
        "candidates": "0c8e6e9ab38221e6f6df1a969271a94511ed92a60e10d9d76c6a9f4470e3f6e2",
        "bands": "d91c0b645d4e4e5fe063e0f423bda8dac561607bca4b61ccb1910041b703aa75",
        "densify": "132ab140a6bc7869ede8075f342baa98fa83e2850be3a2a7ca543ca91a15f352",
        "execute": "0c36a89e794c8fcd26f7d912766b1a52b51effda06df8f4d1df0d672787126a6",
    },
    2: {
        "classify": "d874c84b21c316d87fef467a876c926d96364802d1ca85e6c3be16026202c6ad",
        "candidates": "a1df6c53e0f2bc83db232eb1c1ab4ffe750bcb6ae4b4379009df01dc3a8cf9da",
        "bands": "338e2795fdc769078704b6c54d8668ee8957257947049510f8dcd93a5d34bf65",
        "densify": "3828b54084f745dc2f4cb28e673094b9f61132fc0686b82e4d76321a46bcfe4b",
        "execute": "1117d6ad93ab4921707c0075a36c014c49392dd1ab0a915c0d59db7954e397b1",
    },
}
QUERY_PINS_NUMPY = "2.4.6"


def test_hybrid_query_is_pinned_per_seed(workloads, hybrid_workloads, monkeypatch):
    for wl in hybrid_workloads:
        got = _query_digests(workloads, wl, monkeypatch)
        assert got == QUERY_PINS[wl.seed], (
            f"hybrid seed {wl.seed}: query stages differ from the pins, recorded with "
            f"numpy {QUERY_PINS_NUMPY} (this run: numpy {np.__version__}): {got}")


def test_hybrid_execute_judges_each_unscored_path_by_one_score(workloads, hybrid_workloads,
                                                               monkeypatch):
    """On ``hybrid`` seed 1, over one ``run_round``, every path handed to
    ``execute`` carries no annotations, ``execute`` checks exactly its rows
    (a densified step needs no collision interpolant), and the report's
    ``collisions`` and ``r_s`` equal one ``score_lanes`` of the path, bit for
    bit: the judge scores the executed rows once, itself."""
    wl = hybrid_workloads[0]
    assert wl.seed == 1
    judged, execute_ = [], workloads.execute

    def record(traj, model, *args):
        judged.append((traj, execute_(traj, model, *args)))
        return judged[-1][1]

    monkeypatch.setattr(workloads, "execute", record)
    tally = workloads.Tally()
    wl.run_round(tally)
    assert not tally.failed and len(judged) == len(wl.instances)
    for traj, report in judged:
        assert traj.man is None and traj.col is None
        rows, at = _checked_configs(wl.model, traj.points)
        assert rows.tobytes() == traj.points.tobytes() and at.tolist() == list(range(len(traj)))
        man, col = score_lanes(wl.model, traj.points, wl.cell.obstacles)
        assert report.collisions == int(np.sum(col))
        assert np.float64(report.r_s).tobytes() == np.sum(man - col).tobytes()
    assert any(report.collisions for _, report in judged)      # collisions are judged too


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: switch_agent.switch_reward(unannotated(np.zeros((0, 2)))),
                 "empty trajectory", id="empty_trajectory"),
    pytest.param(lambda: train_switch([], planar_rr(), []), "no switching scenarios",
                 id="no_scenarios"),
    # a non-finite joint value: refused by the one edge rule, not cast to a
    # negative piece count or passed to an SVD
    pytest.param(lambda: densify(unannotated([[0.1, 0.2, 0.3], [0.2, np.nan, 0.3]]),
                                 planar_3r(), [POST], 2.0),
                 "joint path row 1 is not finite", id="densify_nan"),
    pytest.param(lambda: densify(unannotated([[np.inf, 0.2, 0.3], [0.2, 0.1, 0.3]]),
                                 planar_3r(), [POST], 2.0),
                 "joint path row 0 is not finite", id="densify_inf"),
    # a path outside the joint limits (+-175 degrees): refused before it is
    # split, so an absurd step cannot ask for billions of rows
    pytest.param(lambda: densify(unannotated(np.radians(RAMP_PAST_LIMIT)),
                                 planar_3r(), [POST], 2.0),
                 "joint path row 2 is outside the joint limits", id="densify_past_limit"),
    pytest.param(lambda: densify(unannotated([[0.0, 0.2, 0.3], [1e9, 0.2, 0.3]]),
                                 planar_3r(), [POST], 2.0),
                 "joint path row 1 is outside the joint limits", id="densify_1e9_rad_step"),
    pytest.param(lambda: blend([([0.1, 0.2, 0.3], [0.2, np.inf, 0.3])], planar_3r(), [POST],
                               SwitchConfig()),
                 "joint path row 1 is not finite", id="blend_inf"),
    pytest.param(lambda: blend([([np.nan, 0.2, 0.3], [0.2, 0.1, 0.3])], planar_3r(), [POST],
                               SwitchConfig()),
                 "joint path row 0 is not finite", id="blend_nan"),
])
def test_switch_agent_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match=match):
            call()
