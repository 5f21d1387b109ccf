import warnings

import numpy as np
import pytest

from hybridplan import drl_planner, geometry, kinematics
from hybridplan.drl_planner import (
    ROLLOUT_LANES,
    DrlEnv,
    DrlEnvConfig,
    drl_reward,
    plan_drl,
    state_dim,
    train_drl,
)
from hybridplan.dualquat import DualQuaternion
from hybridplan.geometry import RAY_COUNT, Box, collision_index_lanes, score_lanes
from hybridplan.kinematics import (
    ee_state,
    fk,
    normalized_manipulability,
    planar_3r,
    planar_rr,
)
from hybridplan.rl_core import GaussianPolicy, PpoConfig
from scalar_reference import ScalarDrlEnv
from scalar_reference import plan_drl as reference_plan_drl
from test_kinematics import seven_dof

WALL = Box([0.9, -1.0, -0.2], [1.1, 1.0, 0.2], "wall")
GOAL = np.array([0.3, 0.7, 0.0])
REACH = 0.5 + 0.4 + 0.3          # planar_3r link lengths
# a wall across +x with a slot, within reach of the arm, and a post behind it
WALL_CELL = [Box([0.5, 0.05, -0.25], [0.6, 1.4, 0.25], "wall_upper"),
             Box([0.5, -1.4, -0.25], [0.6, -0.1, 0.25], "wall_lower"),
             Box([0.82, 0.32, -0.08], [0.98, 0.48, 0.08], "post")]


def make_env(cfg=None, lanes=1):
    return DrlEnv(planar_3r(), [WALL], cfg or DrlEnvConfig(), lanes)


def blocks(obs, dof):
    """Observation blocks: JP, JO, LV, AV, TP, TO, rays, goal offset."""
    return np.split(obs, np.cumsum([3 * dof] * 4 + [3, 3, RAY_COUNT]))


# ------------------------------------------------------------------ #
# observation
# ------------------------------------------------------------------ #
def test_observation_shape_and_scale():
    env = make_env()
    model = env.model
    n = model.dof
    obs = env.reset(model.home, GOAL)
    assert obs.shape == (1, state_dim(n))
    jp, jo, lv, av, tp, to, rays, goal = blocks(obs[0], n)
    q, p = ee_state(model, model.home)
    np.testing.assert_allclose(tp, p / REACH)
    np.testing.assert_allclose(goal, (GOAL - p) / REACH)
    assert np.all(lv == 0.0) and np.all(av == 0.0)       # no motion yet
    assert np.all(np.abs(jp) <= 1.0) and np.all(np.abs(jo) <= 1.0)
    assert np.all((rays >= 0.0) & (rays <= 1.0))

    # angular velocities are in units of the full per-step increment: a
    # planar frame's yaw rate is the sum of the increments of the joints before it
    action = np.array([0.5, -0.25, 0.1])
    obs, _, _, info = env.step(action)
    assert not info["clamped"][0]
    av = blocks(obs[0], n)[3].reshape(n, 3)
    np.testing.assert_allclose(av[:, 2], np.cumsum(action), atol=1e-12)
    np.testing.assert_allclose(av[:, :2], 0.0, atol=1e-12)


@pytest.mark.parametrize("factory", [planar_rr, planar_3r, seven_dof])
def test_state_dim_is_the_observation_width(factory):
    model = factory()
    assert len(geometry._BUNDLE) == RAY_COUNT
    env = DrlEnv(model, [WALL], DrlEnvConfig())
    obs = env.reset(model.home, ee_state(model, model.home)[1] + 0.5)
    assert obs.shape == (1, state_dim(model.dof)) == (1, len(env._obs_scale))
    rays = blocks(obs[0], model.dof)[6]
    np.testing.assert_allclose(rays, geometry.ray_bundle(model, model.home, [WALL])
                               / geometry.RAY_RANGE, rtol=0, atol=1e-12)


def test_clamped_flag_at_joint_limit():
    env = make_env()
    model = env.model
    at_limit = model.home.copy()
    at_limit[0] = model.limits_hi[0]
    env.reset(at_limit, GOAL)
    _, _, _, info = env.step([1.0, 0.0, 0.0])
    assert info["clamped"][0]
    assert env._theta[0, 0] == model.limits_hi[0]
    _, _, _, info = env.step([-1.0, 0.0, 0.0])
    assert not info["clamped"][0]
    assert env._theta[0, 0] == pytest.approx(model.limits_hi[0] - np.radians(5.0))


@pytest.mark.parametrize("lanes", [1, ROLLOUT_LANES])
def test_step_walks_the_chain_once_per_lane_step(monkeypatch, lanes):
    env = make_env(lanes=lanes)
    rng = np.random.default_rng(3)
    model = env.model
    env.reset(np.tile(model.home, (lanes, 1)), np.tile(GOAL, (lanes, 1)))
    walks = []
    chain = kinematics._chain_eval

    def counted(model, theta):
        walks.append(np.shape(theta))
        return chain(model, theta)

    # every kernel reads the chain through one of these two bindings
    monkeypatch.setattr(kinematics, "_chain_eval", counted)
    monkeypatch.setattr(drl_planner, "_chain_eval", counted)
    probe = make_env(lanes=lanes)
    vel = np.radians(env.cfg.max_step_deg) / env.cfg.step_time * REACH
    for _ in range(20):
        jp_before = env._jp.copy()
        walks.clear()
        obs, _, _, _ = env.step(rng.uniform(-1.0, 1.0, (lanes, env.dof)))
        # one walk per lane step, on the lane arrays at one lane too
        assert walks == [(lanes, model.dof)]
        probe.reset(env._theta, np.tile(GOAL, (lanes, 1)))
        jp, _, lv = np.split(obs[:, :9 * env.dof], 3, axis=1)
        np.testing.assert_array_equal(jp, probe._jp / REACH)
        # the velocities difference the previous step's frames, not a new walk
        np.testing.assert_array_equal(lv, (probe._jp - jp_before) / env.cfg.step_time / vel)


def assert_lane_equals_scalar(out, ref, k):
    obs, reward, done, info = out
    r_obs, r_reward, r_done, r_info = ref
    np.testing.assert_array_equal(obs[k], r_obs)
    assert reward[k] == r_reward and done[k] == r_done
    assert info["collision"][k] == r_info["collision"]
    assert info["distance"][k] == r_info["distance"]
    assert info["clamped"][k] == r_info["clamped"]
    assert info["reached"][k] == r_info["reached"]


# a post in reach beside a wall, and a post alone
POST_CELLS = {"post_beside_wall": [Box([0.5, 0.3, -0.25], [0.6, 1.4, 0.25], "wall_upper"),
                                   Box([0.4, -0.5, -0.15], [0.7, -0.2, 0.15], "post")],
              "post_alone": [Box([0.4, -0.2, -0.2], [0.8, 0.2, 0.2], "post")]}


@pytest.mark.parametrize("lanes, cell", [
    pytest.param(1, WALL_CELL, id="1"),
    pytest.param(ROLLOUT_LANES, WALL_CELL, id=str(ROLLOUT_LANES)),
    *(pytest.param(lanes, POST_CELLS[name], id=f"{name}-{lanes}")
      for name in POST_CELLS for lanes in (1, ROLLOUT_LANES)),
])
def test_lane_step_equals_the_one_configuration_env(lanes, cell):
    """Lane k of a lane step equals the one-configuration reference env
    stepped on lane k alone, bit for bit, through resets on every kind of
    episode end (reached, budget), collisions, rays on walls and posts,
    and joint-limit clamps."""
    model = planar_3r()
    cfg = DrlEnvConfig(episode_budget=9, man_baseline=1.0)
    rng = np.random.default_rng(11)
    env = DrlEnv(model, cell, cfg, lanes)
    refs = [ScalarDrlEnv(model, cell, cfg) for _ in range(lanes)]
    lo, hi = model.limits_lo, model.limits_hi

    def start():
        theta = rng.uniform(lo, hi)
        near = theta + rng.uniform(-0.4, 0.4, model.dof)
        return theta, ee_state(model, near)[1]     # a goal a few steps away

    starts = [start() for _ in range(lanes)]
    obs = env.reset([s[0] for s in starts], [s[1] for s in starts])
    for k, (theta, goal) in enumerate(starts):
        np.testing.assert_array_equal(obs[k], refs[k].reset(theta, goal))
    seen = {"reached": 0, "collision": 0, "clamped": 0, "budget": 0}
    for _ in range(60):
        actions = rng.uniform(-1.5, 1.5, (lanes, model.dof))
        out = env.step(actions)
        for k in range(lanes):
            ref = refs[k].step(actions[k])
            assert_lane_equals_scalar(out, ref, k)
        info, done = out[3], out[2]
        seen["reached"] += int(info["reached"].sum())
        seen["collision"] += int(info["collision"].sum())
        seen["clamped"] += int(info["clamped"].sum())
        seen["budget"] += int((done & ~info["reached"]).sum())
        ends = np.flatnonzero(done)
        if len(ends):
            new = [start() for _ in ends]
            obs = env.reset([s[0] for s in new], [s[1] for s in new], lanes=ends)
            for k, (theta, goal) in zip(ends, new):
                np.testing.assert_array_equal(obs[k], refs[k].reset(theta, goal))
    assert all(seen.values()), seen


def test_one_lane_transition_equals_a_lane_of_the_lane_arrays():
    """The one-lane transition on floats that ``plan_drl`` steps (``_clamp``
    then ``_observe``) equals lane 0 of the transition on lane arrays, byte
    for byte, through NaN, infinite, signed zero and out-of-range actions and
    joint-limit clamps."""
    model = planar_3r()
    cfg = DrlEnvConfig(episode_budget=50)
    one, many = DrlEnv(model, WALL_CELL, cfg), DrlEnv(model, WALL_CELL, cfg, ROLLOUT_LANES)
    rng = np.random.default_rng(5)
    start = model.limits_hi - 0.05                 # a step from the upper limits
    specials = [np.nan, 0.0, -0.0, 1.0, -1.0, 1.5, -1.5, np.inf, -np.inf]
    clamped = 0
    for k in range(60):
        if k % 15 == 0:
            obs = many.reset(np.tile(start, (ROLLOUT_LANES, 1)), np.tile(GOAL, (ROLLOUT_LANES, 1)))
            theta = start.tolist()
            jp, jo, _, got = one._observe(theta, GOAL.tolist())
            assert got.tobytes() == obs[0].tobytes()
        action = rng.uniform(-1.5, 1.5, model.dof)
        action[k % model.dof] = specials[k % len(specials)]
        theta, hit = one._clamp(theta, action)
        jp, jo, d, got = one._observe(theta, GOAL.tolist(), (jp, jo))
        _, obs, dists, _, _, clamps = many._advance(np.tile(action, (ROLLOUT_LANES, 1)))
        assert np.array(theta).tobytes() == many._theta[0].tobytes()
        assert np.array([jp, jo]).tobytes() == np.array([many._jp[0], many._jo[0]]).tobytes()
        assert got.tobytes() == obs[0].tobytes()
        assert np.float64(d).tobytes() == dists[0].tobytes() and hit == clamps[0]
        clamped += int(hit)
    assert clamped and np.isnan(theta).any()


def test_reset_of_some_lanes_keeps_the_others():
    env = make_env(lanes=3)
    model = env.model
    thetas = np.array([model.home, model.home + 0.1, model.home - 0.1])
    env.reset(thetas, np.tile(GOAL, (3, 1)))
    stepped, *_ = env.step(np.full((3, model.dof), 0.5))
    before = stepped.copy()
    obs = env.reset(model.home + 0.3, GOAL, lanes=[1])
    np.testing.assert_array_equal(stepped, before)       # a returned array is not altered
    np.testing.assert_array_equal(obs[[0, 2]], stepped[[0, 2]])
    np.testing.assert_array_equal(env._theta[1], model.home + 0.3)
    assert np.all(blocks(obs[1], model.dof)[2] == 0.0)   # a fresh episode has no motion


# ------------------------------------------------------------------ #
# reward
# ------------------------------------------------------------------ #
def reached_at(distance):
    """``info["reached"]`` and the done flag of a one-lane step that ends
    ``distance`` from its goal along x."""
    env = make_env()
    home = env.model.home
    env.reset(home, ee_state(env.model, home)[1] + [distance, 0.0, 0.0])
    _, _, done, info = env.step(np.zeros(env.dof))        # a step that does not move
    assert info["distance"][0] == pytest.approx(distance)
    return bool(info["reached"][0]), bool(done[0])


def test_reward_inside_target_ball_ends_the_episode():
    assert drl_reward(DrlEnvConfig(), 0.1, col=1, man=0.5) == 0.1
    assert reached_at(0.1) == (True, True)


def test_reward_collision_penalty():
    assert drl_reward(DrlEnvConfig(), 1.0, col=1, man=0.5) == -2.0
    assert reached_at(1.0) == (False, False)


def test_reward_manipulability_grade():
    model = planar_3r()
    cfg = DrlEnvConfig(man_baseline=1.0)
    theta = np.array([0.2, 1.2, -0.9])
    man = normalized_manipulability(model, theta)
    assert 0.0 < man != 1.0
    assert drl_reward(cfg, 1.0, col=0, man=man) == man - 1.0 - 1.0
    assert reached_at(1.0) == (False, False)


def test_reward_lanes_match_one_lane_calls():
    cfg = DrlEnvConfig(man_baseline=1.0)
    d = np.array([0.1, 1.0, 1.0, 0.6])
    col = np.array([1, 1, 0, 0], dtype=np.uint8)
    man = np.array([0.5, 0.7, 0.3, 1.2])
    rewards = drl_reward(cfg, d, col, man)
    for k in range(len(d)):
        assert rewards[k] == drl_reward(cfg, d[k], col[k], man[k])


# ------------------------------------------------------------------ #
# training
# ------------------------------------------------------------------ #
def bracket(model):
    """A (start, goal) pose pair whose start has a collision-free witness."""
    theta0 = np.array([1.0, 0.8, 0.6])
    goal = fk(model, np.array([0.4, 0.5, -0.3]))
    return (fk(model, theta0), goal), theta0


def small_ppo(monkeypatch, num_steps=64):
    monkeypatch.setattr(PpoConfig, "epochs_per_batch", 2)
    return PpoConfig(num_steps=num_steps, minibatch_size=16)


def weights(policy, value_net):
    return np.concatenate([np.ravel(a) for a in policy.net.params + value_net.net.params])


def test_train_drl_is_seed_deterministic(monkeypatch):
    model = planar_3r()
    pair, theta0 = bracket(model)
    cfg = DrlEnvConfig(episode_budget=10, man_baseline=1.0)
    pool = [theta0, np.array([0.2, 1.0, -0.5]), np.array([0.1, 0.2, -0.3])]
    runs = [train_drl([pair], model, [WALL], cfg, small_ppo(monkeypatch), seed=seed, batches=2,
                      start_witnesses=[theta0], start_pool=pool)
            for seed in (5, 5, 6)]
    (p1, v1, c1), (p2, v2, c2), (p3, v3, _) = runs
    np.testing.assert_array_equal(weights(p1, v1), weights(p2, v2))
    assert c1 == c2 and len(c1) == 2
    assert not np.array_equal(weights(p1, v1), weights(p3, v3))


@pytest.mark.parametrize("num_steps", [ROLLOUT_LANES + 8, 40, 100])
def test_train_drl_rejects_steps_not_a_multiple_of_the_lanes(monkeypatch, num_steps):
    model = planar_3r()
    pair, theta0 = bracket(model)
    with pytest.raises(ValueError, match="multiple"):
        train_drl([pair], model, [WALL], DrlEnvConfig(), small_ppo(monkeypatch, num_steps),
                  start_witnesses=[theta0])


# ------------------------------------------------------------------ #
# online bridging
# ------------------------------------------------------------------ #
class Steady:
    """A policy whose every action is the same joint increment command."""

    def __init__(self, action):
        self.action = np.asarray(action, dtype=float)

    def mean_action(self, obs):
        return self.action


def check_bridge(model, obstacles, traj, theta0, goal_pos, cfg):
    assert np.array_equal(traj.points[0], theta0)
    assert 1 <= len(traj) <= cfg.episode_budget + 1
    assert all(model.within_limits(t) for t in traj.points)
    inside = np.linalg.norm(ee_state(model, traj.points[-1])[1] - goal_pos) < cfg.target_radius
    assert traj.success == inside
    np.testing.assert_array_equal(traj.col, collision_index_lanes(model, traj.points, obstacles))
    np.testing.assert_array_equal(traj.man, score_lanes(model, traj.points, [])[0])


def test_plan_drl_trajectory_contract(monkeypatch):
    model = planar_3r()
    monkeypatch.setattr(DrlEnvConfig, "target_radius", 0.05)
    cfg = DrlEnvConfig(episode_budget=12, man_baseline=1.0)
    theta0 = np.array([0.3, 0.6, -0.4])
    start = fk(model, theta0)
    policy = GaussianPolicy(state_dim(model.dof), model.dof, rng=np.random.default_rng(0))
    cases = [
        (Steady([1.0, 0.0, 0.0]), fk(model, theta0 + [0.3, 0.0, 0.0]), True),   # reaches
        (Steady([1.0, 0.0, 0.0]), fk(model, theta0 - [0.6, 0.0, 0.0]), False),  # budget
        (policy, fk(model, theta0), True),                                      # starts inside
        (policy, fk(model, np.array([-1.0, 1.2, 0.5])), False),
    ]
    for pol, goal, success in cases:
        runs = [plan_drl(pol, model, WALL_CELL, start, goal, cfg, theta0=theta0)
                for _ in range(2)]
        traj = runs[0]
        check_bridge(model, WALL_CELL, traj, theta0, goal.translation(), cfg)
        assert traj.success == success
        if not success:
            assert len(traj) == cfg.episode_budget + 1
        np.testing.assert_array_equal(traj.points, runs[1].points)


def test_plan_drl_equals_a_bridge_stepped_through_the_full_step(monkeypatch):
    """The transition-only bridge and its lane annotations equal a bridge
    stepped through ``DrlEnv.step`` that keeps each step's verdict."""
    model = planar_3r()
    monkeypatch.setattr(DrlEnvConfig, "target_radius", 0.05)
    cfg = DrlEnvConfig(episode_budget=30, man_baseline=1.0)
    theta0 = np.array([0.3, 0.6, -0.4])
    policy = GaussianPolicy(state_dim(model.dof), model.dof, rng=np.random.default_rng(0))
    cases = [
        (Steady([1.0, 0.0, 0.0]), fk(model, theta0 + [0.3, 0.0, 0.0]), True),   # reaches
        (Steady([-1.0, 0.5, 1.0]), fk(model, theta0 - [0.6, 0.0, 0.0]), False),  # budget
        (policy, fk(model, theta0), True),                                      # starts inside
        (policy, fk(model, np.array([-1.0, 1.2, 0.5])), False),                 # budget
    ]
    collided = 0
    for pol, goal, success in cases:
        got = plan_drl(pol, model, WALL_CELL, fk(model, theta0), goal, cfg, theta0=theta0)
        ref = reference_plan_drl(pol, model, WALL_CELL, goal, cfg, theta0)
        assert got.success == ref.success == success
        np.testing.assert_array_equal(got.points, ref.points)
        np.testing.assert_array_equal(got.source, ref.source)
        np.testing.assert_array_equal(got.man, ref.man)
        assert got.col.dtype == ref.col.dtype
        np.testing.assert_array_equal(got.col, ref.col)
        collided += int(got.col.sum())
    assert collided > 0


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: train_drl([], planar_3r(), [WALL], start_witnesses=[]),
                 "no infeasible segments", id="no_pairs"),
    # a start pose 5 m out is beyond the 1.2 m arm: no IK witness
    pytest.param(lambda: train_drl([(DualQuaternion.from_translation([5.0, 0, 0]),
                                     DualQuaternion.from_translation(GOAL))],
                                   planar_3r(), [WALL], batches=1, start_witnesses=[None]),
                 "no segment start pose has an IK witness", id="no_start_witness"),
    pytest.param(lambda: train_drl([bracket(planar_3r())[0]] * 2, planar_3r(), [WALL],
                                   start_witnesses=[bracket(planar_3r())[1]]),
                 "1 start witnesses for 2 pairs", id="a_start_witness_short"),
    pytest.param(lambda: plan_drl(Steady([0.0, 0.0, 0.0]), planar_3r(), [WALL], None,
                                  bracket(planar_3r())[0][1], theta0=[0.1, np.nan, 0.2]),
                 r"theta0 \[0.1, nan, 0.2\] is not finite", id="nan_theta0"),
    pytest.param(lambda: plan_drl(Steady([0.0, 0.0, 0.0]), planar_3r(), [WALL], None,
                                  bracket(planar_3r())[0][1], theta0=[-np.inf, 0.1, 0.2]),
                 r"theta0 \[-inf, 0.1, 0.2\] is not finite", id="inf_theta0"),
])
def test_drl_planner_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match=match):
            call()
