"""Per-layer kernel timings (pytest-benchmark), kept out of the tier-1 suite.

Run from the repository root:

    python3 -m pytest benchmarks -q

The scene is the ``map`` workload of ``perfbench``: its planar 3R arm, its
wall-with-slot cell and its 90-cell map box; the skills are those of the
``skills`` workload.
"""
import itertools

import numpy as np
import pytest

import inputs
import workloads
from hybridplan.drl_planner import ROLLOUT_LANES, DrlEnv, DrlEnvConfig, plan_drl, state_dim
from hybridplan.dualquat import (DualQuaternion, dq_mul_lanes, dq_sclerp, dq_sclerp_lanes,
                                 dq_to_lanes, quat_to_matrix)
from hybridplan.feasibility import (
    FEA_MAX_ITERS,
    NOT_FJ,
    OK,
    _draw_seeds,
    _fea_batch,
    build_map,
    classify_trajectory,
)
from hybridplan import geometry
from hybridplan.geometry import (
    RAY_RANGE,
    collision_index,
    collision_index_lanes,
    ray_bundle,
    ray_bundle_lanes,
    raycast_many,
    score_lanes,
    slab_table,
)
from hybridplan.hrl_planner import (
    SENTINEL,
    exhaustive_plan,
    intrinsic_reward,
    plan_lfd,
    train_hrl,
)
from hybridplan.kinematics import (
    _chain_eval,
    closed_form_branches,
    ee_state,
    fk,
    fk_frames,
    frame_points,
    ik_attempt,
    ik_descend,
    jacobian,
    normalized_manipulability,
)
from hybridplan.lfd import BETA_RESAMPLE, Demonstration, SkillLibrary, resample
from hybridplan.rl_core import (
    Adam,
    GaussianPolicy,
    PpoConfig,
    RolloutBatch,
    ValueNet,
    clip_gradients,
    ppo_update,
)
from hybridplan.switch_agent import densify, lfd_joint_candidates
from hybridplan.task import Task
from hybridplan.trajectory import JointTrajectory
from hybridplan.workcell import SuccessCriteria, Workcell, execute

SIZES = workloads.MapSizes()
ORIENTATION = (np.pi, (1, 1, SIZES.yaw_bins))
BOX = ([*SIZES.box_lo, -0.1], [*SIZES.box_hi, 0.1])
TOL_POS = 0.5 * workloads.MAP_VOXEL                  # the map's cell tolerances
TOL_ROT = np.pi / ORIENTATION[1][2]


@pytest.fixture(scope="module")
def model():
    return inputs.robot()


@pytest.fixture(scope="module")
def cell():
    return inputs.wall_cell()


def test_fk(benchmark, model):
    assert benchmark(fk, model, np.array([0.3, 0.6, -0.4])).real.shape == (4,)


def test_fk_translation(benchmark, model):
    theta = np.array([0.3, 0.6, -0.4])
    assert benchmark(lambda: fk(model, theta).translation()).shape == (3,)


def test_from_pose_axis_angle(benchmark):
    # a planar pose of the benchmark: a position and a turn about z
    pose = benchmark(DualQuaternion.from_pose, [0.3, 0.4, 0.0], (inputs.Z_AXIS, 0.7))
    assert pose.real.shape == (4,)


def test_from_pose_quaternion(benchmark, model):
    q, p = ee_state(model, np.array([0.3, 0.6, -0.4]))
    assert benchmark(DualQuaternion.from_pose, p, q).real.shape == (4,)


def test_fk_frames(benchmark, model):
    origins, rots = benchmark(fk_frames, model, np.array([0.3, 0.6, -0.4]))
    assert origins.shape == (model.dof, 3) and rots.shape == (model.dof, 4)


def test_jacobian(benchmark, model):
    assert benchmark(jacobian, model, np.array([0.3, 0.6, -0.4])).shape == (3, model.dof)


def test_ppo_update_512_steps(benchmark, model):
    # one update of train_drl's default networks on a fixed 512-step batch;
    # every round starts from the same fresh networks
    rng = np.random.default_rng(0)
    obs_dim, T = state_dim(model.dof), 512
    batch = RolloutBatch(rng.standard_normal((T, obs_dim)),
                         rng.standard_normal((T, model.dof)),
                         rng.normal(-3.0, 0.5, T), rng.normal(-0.5, 0.2, T),
                         (rng.random(T) < 0.05).astype(float),
                         rng.standard_normal(obs_dim))

    def setup():
        r = np.random.default_rng(1)
        nets = (GaussianPolicy(obs_dim, model.dof, rng=r), ValueNet(obs_dim, rng=r))
        return (*nets, batch, PpoConfig(num_steps=T), r), {}

    stats = benchmark.pedantic(ppo_update, setup=setup, rounds=5)
    assert not stats["aborted"]


@pytest.fixture(scope="module")
def drl_policy(model):
    """train_drl's default policy, 70 -> 64 -> 64 -> 3 plus log_std, and a
    gradient in its flat layout."""
    policy = GaussianPolicy(state_dim(model.dof), model.dof, rng=np.random.default_rng(1))
    return policy, np.random.default_rng(2).standard_normal(policy.net.flat.size) * 1e-2


def test_adam_step_drl_policy(benchmark, drl_policy):
    policy, grad = drl_policy
    params = policy.net.flat.copy()
    opt = Adam(params, 3e-4)
    benchmark(opt.step, params, grad)
    assert opt.t > 0 and np.all(np.isfinite(params))


def test_clip_gradients_drl_policy(benchmark, drl_policy):
    # a bound above the norm: every round measures the same gradient
    policy, grad = drl_policy
    norm = benchmark(clip_gradients, grad, 1e9, policy.net.spans)
    assert norm == pytest.approx(np.linalg.norm(grad))


def test_ik_attempt_warm(benchmark, model):
    # a chained waypoint: the previous joints seed a nearby target
    theta = np.array([0.3, 0.6, -0.4])
    target = fk(model, theta + 0.05)
    sol = benchmark(ik_attempt, model, target, theta, 1e-3, 1e-2, 150)
    assert sol is not None


# straight 12-pose plans: one crosses the upper wall (9 poses put the tool
# link inside it), one runs beside the wall on the near side
LINES = {"through_wall": ((0.3, 0.7, 0.0), (0.95, 0.6, 0.0)),
         "beside_wall": ((0.25, -0.5, 1.57), (0.25, 0.6, 1.57))}


def _line(a, b, n=12):
    return [inputs.planar_pose(*np.add(a, u * np.subtract(b, a))) for u in np.linspace(0, 1, n)]


@pytest.mark.parametrize("where", LINES)
def test_lfd_joint_candidates_12_poses(benchmark, model, cell, where):
    out = benchmark(lfd_joint_candidates, _line(*LINES[where]), model, cell.obstacles)
    assert out.col.sum() == (9 if where == "through_wall" else 0)


@pytest.mark.parametrize("n", [12, 1200])
def test_closed_form_branches(benchmark, model, n):
    # a plan's poses, and about those of a hybrid round's 100 plans
    rng = np.random.default_rng(0)
    lanes = dq_to_lanes([inputs.planar_pose(*xyy) for xyy in
                         rng.uniform([-0.3, -0.6, -np.pi], [1.5, 0.9, np.pi], (n, 3))])
    out = benchmark(closed_form_branches, model, lanes, 1e-3)
    assert out.shape == (n, 2, model.dof)
    assert 0 < np.sum(~np.isnan(out[..., 0])) < 2 * n


def test_ik_descend_1000_lanes(benchmark, model):
    rng = np.random.default_rng(0)
    lo, hi = model.limits_lo, model.limits_hi
    targets = [inputs.planar_pose(*rng.uniform([-0.3, -0.6, -np.pi], [1.5, 0.9, np.pi]))
               for _ in range(1000)]
    seeds = rng.uniform(lo, hi, size=(1000, model.dof))
    out = benchmark(ik_descend, model, targets, seeds, TOL_POS, TOL_ROT, FEA_MAX_ITERS)
    assert 0 < np.sum(~np.isnan(out[:, 0])) < 1000


def test_fea_one_cell(benchmark, model, cell):
    # one pose as the map judges a cell: its IK_BUDGET (12) seeds at the cell
    # tolerances, through the map's own call
    lanes = dq_to_lanes(inputs.planar_pose(0.95, 0.0, 0.0)).reshape(1, 8)   # through the slot
    reasons, _, _ = benchmark(lambda: _fea_batch(
        lanes, [_draw_seeds(model, (), np.random.default_rng(0))], model, cell.obstacles,
        TOL_POS, TOL_ROT))
    assert reasons[0] == OK


def test_build_map_wall_90_cells(benchmark, model, cell):
    fmap = benchmark.pedantic(build_map, args=(model, cell.obstacles, BOX, workloads.MAP_VOXEL),
                              kwargs=dict(orientation_spec=ORIENTATION,
                                          seed=workloads.MAP_IK_SEED),
                              rounds=5, iterations=1)
    assert fmap.n_cells == 90


def test_build_map_hybrid_72_cells(benchmark, model):
    # the hybrid workload's set-up map at seed 1: its cell draws the wall
    # first from the seed's stream
    seed = 1
    hybrid_cell = inputs.wall_cell(np.random.default_rng(seed))
    yaw_bins = workloads.HybridSizes().yaw_bins
    fmap = benchmark.pedantic(build_map, args=(model, hybrid_cell.obstacles,
                                               inputs.hybrid_map_box(hybrid_cell),
                                               inputs.HYBRID_VOXEL),
                              kwargs=dict(orientation_spec=(np.pi, (1, 1, yaw_bins)), seed=seed),
                              rounds=5, iterations=1)
    assert fmap.n_cells == 72


@pytest.fixture(scope="module")
def wall_map(model, cell):
    return build_map(model, cell.obstacles, BOX, workloads.MAP_VOXEL,
                     orientation_spec=ORIENTATION, seed=workloads.MAP_IK_SEED)


def test_classify_trajectory_100_poses(benchmark, wall_map):
    # the first query path of the map workload at seed 1
    wl = workloads.MapWorkload(1)
    wl.setup(workloads.Tally())
    cls = benchmark(classify_trajectory, wl.paths[0], wall_map)
    assert len(cls.feasible_mask) == workloads.PATH_POSES


def test_classify_trajectory_12_poses(benchmark, wall_map):
    # a hybrid-length plan through the wall
    cls = benchmark(classify_trajectory, _line(*LINES["through_wall"]), wall_map)
    assert any(seg.label == NOT_FJ for seg in cls.segments)


def test_cell_pose(benchmark, wall_map):
    assert benchmark(wall_map.cell_pose, (1, 2, 0), (0, 0, 3)).real.shape == (4,)


def test_lookup_one_pose(benchmark, wall_map):
    res = benchmark(wall_map.lookup, inputs.planar_pose(0.3, 0.3, 0.0))
    assert res.feasible


@pytest.mark.parametrize("lanes", [1, ROLLOUT_LANES])
def test_drl_env_step(benchmark, model, cell, lanes):
    # both on lane arrays; ROLLOUT_LANES lanes are a train_drl step (plan_drl
    # steps the transition alone on floats, timed below)
    theta = np.array([1.0, 0.8, 0.6])          # on the near side, clear of the wall
    assert collision_index(model, theta, cell.obstacles) == 0
    env = DrlEnv(model, cell.obstacles, DrlEnvConfig(man_baseline=1.0), lanes)
    env.reset(np.tile(theta, (lanes, 1)), np.tile([0.95, 0.0, 0.0], (lanes, 1)))
    a = np.tile([0.5, -0.5, 0.5], (lanes, 1))
    actions = itertools.cycle([a, -a])        # the arm oscillates about theta
    obs, *_ = benchmark(lambda: env.step(next(actions)))
    assert obs.shape == (lanes, state_dim(model.dof))


def test_drl_bridge_step_one_lane(benchmark, model, cell):
    # the transition plan_drl steps: one lane, on floats between steps
    theta, goal = [1.0, 0.8, 0.6], [0.95, 0.0, 0.0]    # on the near side, clear of the wall
    env = DrlEnv(model, cell.obstacles, DrlEnvConfig(man_baseline=1.0))
    prev = env._observe(theta, goal)[:2]
    a = np.array([0.5, -0.5, 0.5])
    actions = itertools.cycle([a, -a])        # the arm oscillates about theta

    def step():
        nonlocal theta, prev
        theta, _ = env._clamp(theta, next(actions))
        jp, jo, _, obs = env._observe(theta, goal, prev)
        prev = jp, jo
        return obs

    assert benchmark(step).shape == (state_dim(model.dof),)


def test_mean_action_one_observation(benchmark, drl_policy):
    # the policy forward of one plan_drl step, 70 -> 64 -> 64 -> 3
    policy, _ = drl_policy
    obs = np.random.default_rng(3).standard_normal(policy.net.sizes[0])
    assert benchmark(policy.mean_action, obs).shape == (policy.act_dim,)


def test_plan_drl_40_step_bridge(benchmark, model, cell):
    # the hybrid workload's episode budget; fresh seeded weights do not reach
    # the goal behind the wall, so the greedy bridge runs all 40 steps, on
    # the near side clear of the wall
    theta0 = np.array([1.0, 0.8, 0.6])
    policy = GaussianPolicy(state_dim(model.dof), model.dof, rng=np.random.default_rng(0))
    cfg = DrlEnvConfig(episode_budget=40, man_baseline=1.0)
    start, goal = fk(model, theta0), inputs.planar_pose(0.95, 0.0, 0.0)
    traj = benchmark(plan_drl, policy, model, cell.obstacles, start, goal, cfg, theta0=theta0)
    assert len(traj) == 41 and not traj.success and not traj.col.any()


@pytest.mark.parametrize("skill_id, n_configs", [("line", 2), ("arc", 3)])
def test_intrinsic_reward(benchmark, skill_id, n_configs):
    skill = inputs.skill_library()[skill_id]
    picks = np.linspace(0, len(skill.poses) - 1, n_configs).round().astype(int)
    segment = [skill.poses[k] for k in picks]
    r = benchmark(intrinsic_reward, skill, segment)
    assert r > SENTINEL


def test_resample_skill_features(benchmark):
    features = inputs.skill_library()["arc"].features
    assert benchmark(resample, features, BETA_RESAMPLE).shape == (BETA_RESAMPLE, 8)


def test_dq_sclerp_one_lane(benchmark):
    a, b = inputs.planar_pose(0.0, 0.0), inputs.planar_pose(0.4, 0.1, 0.7)
    assert benchmark(dq_sclerp, a, b, 0.3).real.shape == (4,)


def test_dq_sclerp_lanes_32(benchmark):
    poses = inputs.skill_library()["arc"].lanes
    a, b = poses[:-1], poses[1:]
    us = np.linspace(0.0, 1.0, 32)
    idx = np.arange(32) % len(a)
    assert benchmark(dq_sclerp_lanes, a[idx], b[idx], us).shape == (32, 8)


@pytest.mark.parametrize("n", [1, 25, 200])
def test_dq_mul_lanes(benchmark, n):
    # the arc skill's lanes, cycled: unit dual quaternions
    poses = inputs.skill_library()["arc"].lanes
    idx = np.arange(n) % len(poses)
    a, b = poses[idx], poses[::-1][idx]
    assert benchmark(dq_mul_lanes, a, b).shape == (n, 8)


@pytest.fixture(scope="module")
def skills():
    wl = workloads.SkillsWorkload(1)
    wl.setup(workloads.Tally())
    return wl


def _train_first_task(wl):
    # the first task of the skills workload (seed 1), trained as the workload
    # trains it
    return train_hrl([wl.tasks[0].task], wl.library, episodes=wl.sizes.episodes,
                     config=workloads.hrl_config(), seed=1000)


def test_train_hrl_skills_task(benchmark, skills):
    tables = benchmark(_train_first_task, skills)
    assert len(tables.training_curve) == skills.sizes.episodes


def test_exhaustive_plan_skills_task(benchmark, skills):
    st = skills.tasks[0]
    reward, plan = benchmark(exhaustive_plan, st.task, skills.library)
    assert reward == st.optimum and plan


def test_plan_lfd_skills_instance(benchmark, skills):
    # planned at the first task's first placement
    tables = _train_first_task(skills)
    plan = benchmark(plan_lfd, skills.tasks[0].instances[0], skills.library, tables)
    assert len(plan["segments"]) >= 1


def test_plan_lfd_four_gap_plan(benchmark, skills):
    # the plan shape that sets the skills p90: a 5-configuration task, planned
    # at its first placement on its tables as the workload trains them
    k, st = next((k, st) for k, st in enumerate(skills.tasks) if len(st.task.configs) == 5)
    tables = train_hrl([st.task], skills.library, episodes=skills.sizes.episodes,
                       config=workloads.hrl_config(), seed=1000 + k)
    plan = benchmark(plan_lfd, st.instances[0], skills.library, tables)
    assert plan["segments"][-1][0][1] == 4


def _fresh(library):
    """A copy of ``library`` whose skills have their lanes and arc parameters,
    as a library that trained the tables has, but have kept no gap layout."""
    out = SkillLibrary()
    for skill in library.skills.values():
        out.add(Demonstration(skill.id, skill.poses, skill.tags))
        out[skill.id].params
    return out


def test_plan_lfd_four_gap_plan_cold(benchmark, skills):
    # the plan above on fresh skills each round: it fills every gap layout,
    # the cost a warm plan no longer pays
    k, st = next((k, st) for k, st in enumerate(skills.tasks) if len(st.task.configs) == 5)
    tables = train_hrl([st.task], skills.library, episodes=skills.sizes.episodes,
                       config=workloads.hrl_config(), seed=1000 + k)

    def setup():
        return (st.instances[0], _fresh(skills.library), tables), {}

    plan = benchmark.pedantic(plan_lfd, setup=setup, rounds=200)
    assert plan["segments"][-1][0][1] == 4


def _configs(model, n):
    return np.random.default_rng(0).uniform(model.limits_lo, model.limits_hi, (n, model.dof))


def test_collision_index(benchmark, model, cell):
    theta = np.array([0.1, 0.2, -0.3])        # reaching through the slot
    assert benchmark(collision_index, model, theta, cell.obstacles) == 0


def test_collision_index_self_pair(benchmark, model, cell):
    # folded back: the broad phase keeps link 1 and link 3, 0.115 m apart and
    # so clear of their summed radii, and drops every capsule-box pair
    theta = np.array([np.pi / 2, 2.6, 1.0])
    link1, _, link3 = model.capsules
    a, b, c, d = frame_points(model, theta)[[1, 2, 3, 4]].tolist()
    assert not geometry._apart(a, b, c, d, link1.radius + link3.radius)
    assert benchmark(collision_index, model, theta, cell.obstacles) == 0


@pytest.mark.parametrize("n", [1, 10, 200])
def test_collision_index_lanes(benchmark, model, cell, n):
    thetas = _configs(model, n)
    out = benchmark(collision_index_lanes, model, thetas, cell.obstacles)
    assert out.shape == (n,)


def test_normalized_manipulability(benchmark, model):
    assert benchmark(normalized_manipulability, model, np.array([0.3, 0.6, -0.4])) > 0.0


def test_score_lanes_200(benchmark, model, cell):
    man, col = benchmark(score_lanes, model, _configs(model, 200), cell.obstacles)
    assert man.shape == col.shape == (200,)


def test_ray_bundle(benchmark, model, cell):
    d = benchmark(ray_bundle, model, np.array([0.3, 0.6, -0.4]), cell.obstacles)
    assert d.shape == (25,)


@pytest.mark.parametrize("lanes", [1, ROLLOUT_LANES, 200])
def test_raycast_many(benchmark, model, cell, lanes):
    # the bundle cast of a plan_drl step (one origin), of a train_drl step
    # (ROLLOUT_LANES) and of a wide batch, against a slab table built once
    # one origin: the sixth of the random configurations, 23 of whose rays
    # meet the wall
    thetas = _configs(model, 200)[:lanes] if lanes > 1 else _configs(model, 6)[5:]
    _, _, _, q, p = _chain_eval(model, thetas)
    origins, dirs = np.array(p).T, geometry._BUNDLE @ quat_to_matrix(q).T
    if lanes == 1:
        origins, dirs = origins[0], dirs[0]
    d = benchmark(raycast_many, origins, dirs, slab_table(cell.obstacles), RAY_RANGE)
    assert d.shape == dirs.shape[:-1] and (d < RAY_RANGE).any()


def test_ray_bundle_lanes_one_state(benchmark, model, cell):
    # one state from a chain walk's (q, p) floats against a slab table built
    # once, as a one-lane DRL step casts
    _, _, _, q, p = _chain_eval(model, np.array([0.3, 0.6, -0.4]))
    d = benchmark(ray_bundle_lanes, q, p, slab_table(cell.obstacles))
    assert d.shape == (25,)


# near side -> through the slot -> folded back -> near side again
CROSSING = np.array([[1.0, 0.8, 0.6], [0.0, 0.0, 0.0], [0.2, -1.5, 1.5],
                     [-1.0, 1.0, -1.0], [0.8, 0.2, 0.4]])


@pytest.fixture(scope="module")
def crossing(model, cell):
    """The crossing path densified to the switching agent's 2 degree bound,
    like a bridged hybrid trajectory."""
    k = len(CROSSING)
    bare = JointTrajectory(CROSSING, np.zeros(k, np.uint8), np.zeros(k), np.zeros(k, np.uint8))
    traj = densify(bare, model, cell.obstacles, 2.0)
    assert 150 <= len(traj) <= 250
    return traj


def test_collision_index_lanes_crossing(benchmark, model, cell, crossing):
    # the configurations execute checks on the crossing trajectory: every
    # step is within 2 degrees, so they are its points
    out = benchmark(collision_index_lanes, model, crossing.points, cell.obstacles)
    assert out.shape == (len(crossing),) and 0 < out.sum() < len(out)


def test_execute_crossing_trajectory(benchmark, model, cell, crossing):
    way, traj = CROSSING, crossing
    wc = Workcell("kernels", [-1.5, -1.5, -0.3], [1.5, 1.5, 0.3], cell.obstacles)
    task = Task("cross", [fk(model, way[0]), fk(model, way[-1])])
    report = benchmark(execute, traj, model, wc, SuccessCriteria(), task)
    assert report.failed_config is None and report.collisions > 0
