import re
from dataclasses import replace

import numpy as np
import pytest

from hybridplan.dualquat import DualQuaternion, dq_to_lanes
from hybridplan.feasibility import obstacles_signature
from hybridplan.geometry import Box, collision_index
from hybridplan.kinematics import (closed_form_branches, load_robot, planar_rr, robot_hash,
                                   save_robot)
from hybridplan.lfd import SkillLibrary, load_library
from hybridplan.scenarios import SCENES, write_scene
from hybridplan.task import Task, load_task, save_task
from hybridplan.workcell import SuccessCriteria, Workcell, load_workcell, save_workcell


@pytest.fixture(scope="module", params=sorted(SCENES))
def scene(request):
    return SCENES[request.param]()


def test_scene_builds(scene):
    assert isinstance(scene["cell"], Workcell)
    assert isinstance(scene["library"], SkillLibrary) and len(scene["library"]) > 0
    assert isinstance(scene["criteria"], SuccessCriteria)
    assert scene["tasks"] and all(isinstance(t, Task) for t in scene["tasks"])
    assert len({t.id for t in scene["tasks"]}) == len(scene["tasks"])
    assert scene["cell"].name == scene["name"]


def test_configs_and_stations_lie_in_the_cell_box(scene):
    cell = scene["cell"]
    poses = [c for t in scene["tasks"] for c in t.configs] + list(cell.stations.values())
    for pose in poses:
        p = pose.translation()
        assert np.all(p >= cell.box_lo) and np.all(p <= cell.box_hi), p


def test_no_library_skill_is_constant(scene):
    lib = scene["library"]
    assert not [sid for sid in lib.ids() if lib[sid].params is None]


def test_write_scene_round_trip(scene, tmp_path):
    first, again = tmp_path / "first", tmp_path / "again"
    paths = write_scene(scene, first)
    robot = load_robot(paths["robot"])
    assert robot_hash(robot) == robot_hash(scene["robot"])
    cell = load_workcell(paths["workcell"])
    assert obstacles_signature(cell.obstacles) == obstacles_signature(scene["cell"].obstacles)
    np.testing.assert_array_equal(cell.box_lo, scene["cell"].box_lo)
    np.testing.assert_array_equal(cell.box_hi, scene["cell"].box_hi)
    tasks = []
    for task in scene["tasks"]:
        back = load_task(paths["tasks"] / f"{task.id}.task")
        assert back.id == task.id and back.hold == task.hold
        np.testing.assert_array_equal([c.as_array() for c in back.configs],
                                      [c.as_array() for c in task.configs])
        tasks.append(back)
    lib = load_library(paths["library"])
    assert lib.ids() == scene["library"].ids()
    # the loaded scene writes the same bytes again, so the formats cannot drift
    write_scene({"robot": robot, "cell": cell, "tasks": tasks, "library": lib}, again)
    written = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
    for rel in written:
        assert (again / rel).read_bytes() == (first / rel).read_bytes(), rel


# every scene task configuration without a collision-free exact
# configuration: (scene, task, configuration index) -> why.  Measured by the
# closed-form branches; a scene fix must shrink this list.
IMPOSSIBLE_CONFIGS = {
    **{("tray_sorting", task, 1): "colliding" for task in (
        "touch_a", "touch_b", "touch_a_from_t1", "touch_a_from_t2",
        "carry_a_tray1", "carry_b_tray1", "carry_a_tray2", "carry_b_tray2")},
    ("wall_slot", "cross_high", 0): "unreachable",
    ("wall_slot", "cross_high", 1): "colliding",
    ("wall_slot", "cross_mid", 1): "colliding",
    ("wall_slot", "cross_low", 1): "colliding",
}


def test_scene_configurations_without_a_free_exact_branch_are_listed():
    found = {}
    for name in sorted(SCENES):
        scene = SCENES[name]()
        model, obstacles = scene["robot"], scene["cell"].obstacles
        for task in scene["tasks"]:
            branches = closed_form_branches(model, dq_to_lanes(task.configs), 0.0)
            for k, rows in enumerate(branches):
                rows = rows[~np.isnan(rows[:, 0])]
                if not any(collision_index(model, row, obstacles) == 0 for row in rows):
                    found[name, task.id, k] = "colliding" if len(rows) else "unreachable"
    assert found == IMPOSSIBLE_CONFIGS


BOX = ([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
NAME_WRITERS = {
    "task id": lambda name, path: save_task(Task(name, [DualQuaternion.identity()] * 2), path),
    "workcell name": lambda name, path: save_workcell(Workcell(name, *BOX), path),
    "obstacle id": lambda name, path: save_workcell(
        Workcell("c", *BOX, [Box([0.0, 0.0, 0.0], [0.1, 0.1, 0.1], name)]), path),
    "station label": lambda name, path: save_workcell(
        Workcell("c", *BOX, stations={name: DualQuaternion.identity()}), path),
    "robot name": lambda name, path: save_robot(replace(planar_rr(), name=name), path),
}


@pytest.mark.parametrize("field, name", [
    ("task id", "pick#1"),            # would read back as 'pick'
    ("task id", "pick up"),
    ("workcell name", ""),
    ("obstacle id", "wall upper"),
    ("station label", "s#1"),
    ("robot name", "arm\t2"),
])
def test_writers_refuse_a_name_their_loader_cannot_read_back(tmp_path, field, name):
    path = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(f"record field {name!r} must be nonempty")):
        NAME_WRITERS[field](name, path)
    assert not path.exists()
