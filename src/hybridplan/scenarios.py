"""Standard benchmark scenes: an open workspace, a wall with a slot, and an
enclosed tray-sorting cell, each with a matching skill library and task set.

All three share a planar 3R arm.  The tray-sorting success criterion is
position-based (orientation-free), matching a pick-and-place reading of
success; the wall scenes keep the default position+orientation tolerances.
"""
from __future__ import annotations

import numpy as np

from hybridplan.dualquat import DualQuaternion, dq_sclerp
from hybridplan.geometry import Box
from hybridplan.kinematics import planar_3r
from hybridplan.lfd import Demonstration, SkillLibrary
from hybridplan.task import Task
from hybridplan.workcell import SuccessCriteria, Workcell

Z_AXIS = np.array([0.0, 0.0, 1.0])


def planar_pose(x, y, yaw=0.0) -> DualQuaternion:
    return DualQuaternion.from_pose([x, y, 0.0], (Z_AXIS, yaw))


def _line_demo(demo_id, length, n=8, yaw=0.0):
    a = planar_pose(0.0, 0.0, yaw)
    b = planar_pose(length, 0.0, yaw)
    return Demonstration(demo_id, [dq_sclerp(a, b, u) for u in np.linspace(0, 1, n)],
                         tags=("line",))


def _arc_demo(demo_id, radius, sweep, n=10):
    poses = []
    for t in np.linspace(0.0, sweep, n):
        poses.append(planar_pose(radius * np.sin(t), radius * (1 - np.cos(t)), t))
    return Demonstration(demo_id, poses, tags=("arc",))


def _twist_demo(demo_id, length, twist, n=8):
    poses = []
    for u in np.linspace(0, 1, n):
        poses.append(planar_pose(length * u, 0.0, twist * u))
    return Demonstration(demo_id, poses, tags=("twist",))


def line_library() -> SkillLibrary:
    """Straight-motion skills; gaps retarget to straight paths."""
    lib = SkillLibrary()
    lib.add(_line_demo("line_short", 0.35))
    lib.add(_line_demo("line_mid", 0.7))
    lib.add(_line_demo("line_long", 1.1))
    return lib


def standard_library() -> SkillLibrary:
    lib = line_library()
    lib.add(_arc_demo("arc_quarter", 0.5, np.pi / 2))
    lib.add(_twist_demo("twist_step", 0.4, np.pi / 3))
    return lib


def standard_robot():
    return planar_3r(l=(0.5, 0.4, 0.3), radius=0.04)


# ------------------------------------------------------------------ #
# Scenes
# ------------------------------------------------------------------ #
def open_workspace():
    cell = Workcell("open", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1], [])
    tasks = [
        Task("open_reach", [planar_pose(0.5, 0.5, 0.8),
                            planar_pose(0.9, -0.1, 0.1)]),
        Task("open_sweep", [planar_pose(-0.2, 0.8, 1.2),
                            planar_pose(0.45, 0.65, 0.7),
                            planar_pose(0.9, 0.2, 0.2)]),
    ]
    return {"name": "open", "robot": standard_robot(), "cell": cell,
            "library": standard_library(), "tasks": tasks,
            "criteria": SuccessCriteria()}


WALL_X = (0.45, 0.78)      # thicker than one map voxel so wall cells stay infeasible
SLOT_Y = (-0.12, 0.30)


def wall_slot():
    """A wall band with one slot; straight demonstrations cross the wall."""
    obstacles = [
        Box([WALL_X[0], SLOT_Y[1], -0.25], [WALL_X[1], 1.3, 0.25], "wall_upper"),
        Box([WALL_X[0], -1.3, -0.25], [WALL_X[1], SLOT_Y[0], 0.25], "wall_lower"),
    ]
    cell = Workcell("wall_slot", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1], obstacles)
    tasks = [
        Task("cross_high", [planar_pose(0.28, 0.75, -0.6),
                            planar_pose(0.95, 0.10, 0.05)]),
        Task("cross_mid", [planar_pose(0.25, 0.60, -0.5),
                           planar_pose(0.93, 0.02, 0.0)]),
        Task("cross_low", [planar_pose(0.28, -0.60, 0.5),
                           planar_pose(0.94, 0.12, 0.1)]),
    ]
    return {"name": "wall_slot", "robot": standard_robot(), "cell": cell,
            "library": line_library(), "tasks": tasks,
            "criteria": SuccessCriteria()}


DIVIDER_X = WALL_X
DIVIDER_SLOT_Y = (0.0, 0.26)


def tray_sorting():
    """Enclosed cell with a divider: objects beyond the divider must be
    reached (and some carried back) through its slot.

    Success is position-based: each critical configuration must be attained
    within the position tolerance, with any orientation.
    """
    obstacles = [
        Box([DIVIDER_X[0], DIVIDER_SLOT_Y[1], -0.2], [DIVIDER_X[1], 1.2, 0.2],
            "divider_upper"),
        Box([DIVIDER_X[0], -1.2, -0.2], [DIVIDER_X[1], DIVIDER_SLOT_Y[0], 0.2],
            "divider_lower"),
        Box([-1.25, 1.1, -0.2], [1.25, 1.2, 0.2], "enclosure_n"),
        Box([-1.25, -1.2, -0.2], [1.25, -1.1, 0.2], "enclosure_s"),
        Box([1.1, -1.2, -0.2], [1.2, 1.2, 0.2], "enclosure_e"),
        Box([-1.2, -1.2, -0.2], [-1.1, 1.2, 0.2], "enclosure_w"),
    ]
    stations = {
        "staging": planar_pose(0.22, 0.55, -0.3),
        "object_a": planar_pose(0.92, 0.10, 0.1),
        "object_b": planar_pose(0.88, 0.20, 0.2),
        "tray_1": planar_pose(-0.15, 0.62, 1.2),
        "tray_2": planar_pose(-0.05, -0.55, -1.1),
    }
    cell = Workcell("tray_sorting", [-1.3, -1.3, -0.1], [1.3, 1.3, 0.1],
                    obstacles, stations)

    def touch(task_id, a, b):
        return Task(task_id, [stations[a], stations[b]])

    def carry(task_id, a, b, c):
        return Task(task_id, [stations[a], stations[b], stations[c]],
                    hold=[False, True, False])

    tasks = [
        touch("touch_a", "staging", "object_a"),
        touch("touch_b", "staging", "object_b"),
        touch("touch_a_from_t1", "tray_1", "object_a"),
        touch("touch_a_from_t2", "tray_2", "object_a"),
        carry("carry_a_tray1", "staging", "object_a", "tray_1"),
        carry("carry_b_tray1", "staging", "object_b", "tray_1"),
        carry("carry_a_tray2", "staging", "object_a", "tray_2"),
        carry("carry_b_tray2", "staging", "object_b", "tray_2"),
    ]
    return {"name": "tray_sorting", "robot": standard_robot(), "cell": cell,
            "library": line_library(), "tasks": tasks,
            "criteria": SuccessCriteria(pos_tol=0.05, rot_tol=np.pi)}


SCENES = {"open": open_workspace, "wall_slot": wall_slot,
          "tray_sorting": tray_sorting}

