import numpy as np
import pytest

from hybridplan import drl_planner
from hybridplan.drl_planner import DrlEnv, DrlEnvConfig, drl_reward, state_dim
from hybridplan.dualquat import DualQuaternion
from hybridplan.geometry import Box
from hybridplan.kinematics import ee_state, normalized_manipulability, planar_3r

WALL = Box([0.9, -1.0, -0.2], [1.1, 1.0, 0.2], "wall")
GOAL = np.array([0.3, 0.7, 0.0])
REACH = 0.5 + 0.4 + 0.3          # planar_3r link lengths


def make_env(cfg=None):
    return DrlEnv(planar_3r(), [WALL], cfg or DrlEnvConfig())


def blocks(obs, dof):
    """Observation blocks: JP, JO, LV, AV, TP, TO, rays, goal offset."""
    return np.split(obs, np.cumsum([3 * dof] * 4 + [3, 3, 25]))


# ------------------------------------------------------------------ #
# observation
# ------------------------------------------------------------------ #
def test_observation_shape_and_scale():
    env = make_env()
    model = env.model
    n = model.dof
    obs = env.reset(model.home, GOAL)
    assert obs.shape == (state_dim(n),)
    jp, jo, lv, av, tp, to, rays, goal = blocks(obs, n)
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
    assert not info["clamped"]
    av = blocks(obs, n)[3].reshape(n, 3)
    np.testing.assert_allclose(av[:, 2], np.cumsum(action), atol=1e-12)
    np.testing.assert_allclose(av[:, :2], 0.0, atol=1e-12)


def test_clamped_flag_at_joint_limit():
    env = make_env()
    model = env.model
    at_limit = model.home.copy()
    at_limit[0] = model.limits_hi[0]
    env.reset(at_limit, GOAL)
    _, _, _, info = env.step([1.0, 0.0, 0.0])
    assert info["clamped"]
    assert env.theta[0] == model.limits_hi[0]
    _, _, _, info = env.step([-1.0, 0.0, 0.0])
    assert not info["clamped"]
    assert env.theta[0] == pytest.approx(model.limits_hi[0] - np.radians(5.0))


def test_step_reuses_the_frames_of_the_previous_observation(monkeypatch):
    env = make_env()
    probe = make_env()
    rng = np.random.default_rng(3)
    env.reset(env.model.home, GOAL)
    calls = []
    frames = drl_planner.fk_frames
    monkeypatch.setattr(drl_planner, "fk_frames",
                        lambda *a: calls.append(1) or frames(*a))
    for _ in range(20):
        before = env.theta
        calls.clear()
        obs, _, _, _ = env.step(rng.uniform(-1.0, 1.0, env.dof))
        assert len(calls) == 1                      # one frame evaluation per step
        probe._theta = before
        jp_prev, jo_prev = probe._joint_frames()
        np.testing.assert_array_equal(env._prev_jp, jp_prev)
        np.testing.assert_array_equal(env._prev_jo, jo_prev)
        probe._theta = env.theta
        jp_now, _ = probe._joint_frames()
        np.testing.assert_array_equal(blocks(obs, env.dof)[0], jp_now / REACH)


# ------------------------------------------------------------------ #
# reward
# ------------------------------------------------------------------ #
def test_reward_inside_target_ball_ends_the_episode():
    model = planar_3r()
    near = GOAL + np.array([0.1, 0.0, 0.0])
    for mode in ("feasibility", "distance"):
        cfg = DrlEnvConfig(reward_mode=mode)
        r, d, done = drl_reward(model, model.home, near, GOAL, cfg, col=1)
        assert (r, done) == (0.1, True)
        assert d == pytest.approx(0.1)


def test_reward_distance_mode_ignores_feasibility():
    model = planar_3r()
    cfg = DrlEnvConfig(reward_mode="distance")
    far = GOAL + np.array([0.0, -1.0, 0.0])
    for col in (0, 1):
        assert drl_reward(model, model.home, far, GOAL, cfg, col) == (-1.0, 1.0, False)


def test_reward_collision_penalty():
    model = planar_3r()
    cfg = DrlEnvConfig(collision_penalty=-2.5)
    far = GOAL + np.array([0.0, -1.0, 0.0])
    assert drl_reward(model, model.home, far, GOAL, cfg, col=1) == (-3.5, 1.0, False)


def test_reward_manipulability_grade():
    model = planar_3r()
    cfg = DrlEnvConfig(fea_weight=2.0, man_baseline=1.0)
    theta = np.array([0.2, 1.2, -0.9])
    far = GOAL + np.array([0.0, -1.0, 0.0])
    r, d, done = drl_reward(model, theta, far, GOAL, cfg, col=0)
    man = normalized_manipulability(model, theta)
    assert 0.0 < man != 1.0
    assert (r, d, done) == (2.0 * (man - 1.0) - 1.0, 1.0, False)


# ------------------------------------------------------------------ #
# segment pair files
# ------------------------------------------------------------------ #
def test_segments_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)

    def pose():
        q = rng.normal(size=4)
        return DualQuaternion.from_pose(rng.uniform(-1, 1, 3), q / np.linalg.norm(q))

    pairs = [(pose(), pose()) for _ in range(4)]
    path = tmp_path / "segments.txt"
    drl_planner.save_segments(pairs, path)
    loaded = drl_planner.load_segments(path)
    assert len(loaded) == len(pairs)
    for (a, b), (c, d) in zip(pairs, loaded):
        np.testing.assert_array_equal(a.as_array(), c.as_array())
        np.testing.assert_array_equal(b.as_array(), d.as_array())
    drl_planner.save_segments([], path)
    assert drl_planner.load_segments(path) == []


@pytest.mark.parametrize("n_scalars", [15, 17, 8])
def test_load_segments_rejects_a_line_without_16_scalars(tmp_path, n_scalars):
    path = tmp_path / "segments.txt"
    good = " ".join(["1", "0", "0", "0", "0", "0", "0", "0"] * 2)
    path.write_text(good + "\n" + " ".join(["0.5"] * n_scalars) + "\n")
    with pytest.raises(ValueError, match="16 scalars"):
        drl_planner.load_segments(path)
