"""Input generation is a function of the seed."""
import numpy as np

import inputs
from hybridplan.feasibility import build_map, obstacles_signature
from hybridplan.hrl_planner import exhaustive_plan
from hybridplan.kinematics import robot_hash


def _arrays(tasks):
    return [np.array([c.as_array() for c in t.configs]) for t in tasks]


def _hybrid(seed, n=5):
    rng = np.random.default_rng(seed)
    model = inputs.robot()
    cell = inputs.wall_cell(rng)
    fmap = build_map(model, cell.obstacles, inputs.hybrid_map_box(cell), inputs.HYBRID_VOXEL,
                     orientation_spec=(np.pi, (1, 1, 3)), seed=seed)
    tasks, _ = inputs.hybrid_tasks(rng, model, cell, n, 0.4,
                                   bridged=lambda task: task.id.startswith("cross"),
                                   goals=inputs.far_goals(fmap, cell))
    return model, cell, tasks


def test_hybrid_inputs_repeat_for_a_seed_and_change_with_it():
    m1, c1, t1 = _hybrid(3)
    m2, c2, t2 = _hybrid(3)
    _, c3, t3 = _hybrid(4)
    assert robot_hash(m1) == robot_hash(m2)
    assert obstacles_signature(c1.obstacles) == obstacles_signature(c2.obstacles)
    assert obstacles_signature(c1.obstacles) != obstacles_signature(c3.obstacles)
    assert [t.id for t in t1] == [t.id for t in t2]
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(t1), _arrays(t2)))
    assert not np.array_equal(_arrays(t1)[0], _arrays(t3)[0])


def test_crossing_share_is_spread_through_the_task_list():
    _, _, tasks = _hybrid(5, n=10)
    assert [t.id.startswith("cross") for t in tasks] == [False, False, True, False, True] * 2


def test_skill_tasks_repeat_for_a_seed_and_placements_keep_the_optimum():
    lib = inputs.skill_library()
    a, da = inputs.skill_tasks(np.random.default_rng(7), lib, 2, 1)
    b, db = inputs.skill_tasks(np.random.default_rng(7), lib, 2, 1)
    assert da == db
    assert [st.optimum for st in a] == [st.optimum for st in b]
    assert all(np.array_equal(x, y) for x, y in
               zip(_arrays([st.instances[0] for st in a]), _arrays([st.instances[0] for st in b])))
    placed_optimum, _ = exhaustive_plan(a[0].instances[0], lib)
    assert abs(placed_optimum - a[0].optimum) <= 1e-9 * max(1.0, abs(a[0].optimum))
