import numpy as np
import pytest

from hybridplan.feasibility import obstacles_signature
from hybridplan.kinematics import load_robot, robot_hash
from hybridplan.lfd import SkillLibrary, load_library
from hybridplan.scenarios import SCENES, write_scene
from hybridplan.task import Task, load_task
from hybridplan.workcell import SuccessCriteria, Workcell, load_workcell


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
    assert not [sid for sid in lib.ids() if lib[sid].is_constant()]


def test_write_scene_round_trip(scene, tmp_path):
    paths = write_scene(scene, tmp_path)
    robot = load_robot(paths["robot"])
    assert robot_hash(robot) == robot_hash(scene["robot"])
    cell = load_workcell(paths["workcell"])
    assert obstacles_signature(cell.obstacles) == obstacles_signature(scene["cell"].obstacles)
    np.testing.assert_array_equal(cell.box_lo, scene["cell"].box_lo)
    np.testing.assert_array_equal(cell.box_hi, scene["cell"].box_hi)
    for task in scene["tasks"]:
        back = load_task(paths["tasks"] / f"{task.id}.task")
        assert back.id == task.id and back.hold == task.hold
        np.testing.assert_array_equal([c.as_array() for c in back.configs],
                                      [c.as_array() for c in task.configs])
    lib = load_library(paths["library"])
    assert lib.ids() == scene["library"].ids()
