import re
from dataclasses import replace

import numpy as np
import pytest

from hybridplan.dualquat import dq_to_lanes
from hybridplan.feasibility import obstacles_signature
from hybridplan.geometry import Box, collision_index
from hybridplan.kinematics import closed_form_branches, planar_rr, robot_hash
from hybridplan.lfd import SkillLibrary
from hybridplan.scenarios import SCENES
from hybridplan.task import Task
from hybridplan.workcell import SuccessCriteria, Workcell


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


# the two hashes a stored map carries are taken over the record lines that
# ``serialize_robot`` and ``obstacle_line`` write, where a name with
# whitespace or '#' would read back as other fields
NAME_HASHES = {
    "robot name": lambda name: robot_hash(replace(planar_rr(), name=name)),
    "obstacle id": lambda name: obstacles_signature([Box([0.0, 0.0, 0.0], [0.1, 0.1, 0.1], name)]),
}


@pytest.mark.parametrize("field, name", [
    ("obstacle id", "wall upper"),
    ("robot name", "arm\t2"),
])
def test_writers_refuse_a_name_their_loader_cannot_read_back(field, name):
    with pytest.raises(ValueError, match=re.escape(f"record field {name!r} must be nonempty")):
        NAME_HASHES[field](name)
