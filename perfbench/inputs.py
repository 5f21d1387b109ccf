"""Benchmark inputs generated from a seed: the planar 3R arm, a wall-with-slot
cell, skill libraries and tasks.

Everything is built here from hybridplan's public constructors, so the
benchmark does not depend on the shipped scenes.  The same seed gives the
same inputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hybridplan.dualquat import DualQuaternion, dq_mul, dq_sclerp
from hybridplan.feasibility import OK
from hybridplan.geometry import Box, collision_index, point_box_distance
from hybridplan.hrl_planner import SENTINEL, exhaustive_plan
from hybridplan.kinematics import fk, planar_3r
from hybridplan.lfd import Demonstration, SkillLibrary
from hybridplan.task import Task

Z_AXIS = np.array([0.0, 0.0, 1.0])
LINKS = (0.5, 0.4, 0.3)            # reach 1.2 m
HYBRID_VOXEL = 0.3                 # voxel of the hybrid workload's map
WALL_THICKNESS = HYBRID_VOXEL
SLOT_WIDTH = 0.35
NEAR_MARGIN = 0.12                 # clearance of near-side end effectors from the wall
EDGE_MARGIN = 0.05                 # clearance of task configurations from the map box
MAX_DRAWS = 100_000                # rejection-sampling caps: fail rather than hang
MAX_TRIES = 1_000


def planar_pose(x, y, yaw=0.0) -> DualQuaternion:
    return DualQuaternion.from_pose([x, y, 0.0], (Z_AXIS, yaw))


def robot():
    return planar_3r(l=LINKS, radius=0.04)


@dataclass(frozen=True)
class WallCell:
    """A wall band across +x with one slot; the arm base sits at the origin."""
    obstacles: list
    wall_x: tuple                  # (near face, far face)
    slot_y: tuple                  # (low, high)


def wall_cell(rng=None) -> WallCell:
    """The nominal cell, or with ``rng`` the wall and slot moved by up to 3 cm."""
    x0, y0 = 0.50, -0.10
    if rng is not None:
        x0 += rng.uniform(-0.03, 0.03)
        y0 += rng.uniform(-0.03, 0.03)
    wall_x = (x0, x0 + WALL_THICKNESS)
    slot_y = (y0, y0 + SLOT_WIDTH)
    obstacles = [
        Box([wall_x[0], slot_y[1], -0.25], [wall_x[1], 1.4, 0.25], "wall_upper"),
        Box([wall_x[0], -1.4, -0.25], [wall_x[1], slot_y[0], 0.25], "wall_lower"),
    ]
    return WallCell(obstacles, wall_x, slot_y)


def hybrid_map_box(cell: WallCell):
    """Map box whose voxel faces lie on both wall faces and on the slot's low
    edge, so no voxel mixes wall with open space in x: three voxel columns up
    to the far wall face, one behind it, and three voxel rows either side of
    the slot edge."""
    x1, y0, v = cell.wall_x[1], cell.slot_y[0], HYBRID_VOXEL
    return ([x1 - 3 * v, y0 - 3 * v, -0.1], [x1 + v, y0 + 3 * v, 0.1])


# ------------------------------------------------------------------ #
# Skill libraries
# ------------------------------------------------------------------ #
def _line(skill_id, length, n=8):
    a, b = planar_pose(0.0, 0.0), planar_pose(length, 0.0)
    return Demonstration(skill_id, [dq_sclerp(a, b, u) for u in np.linspace(0, 1, n)],
                         tags=("line",))


def _arc(skill_id, radius, sweep, n=10):
    return Demonstration(skill_id, [planar_pose(radius * np.sin(t), radius * (1 - np.cos(t)), t)
                                    for t in np.linspace(0.0, sweep, n)], tags=("arc",))


def _twist(skill_id, length, twist, n=8):
    return Demonstration(skill_id, [planar_pose(length * u, 0.0, twist * u)
                                    for u in np.linspace(0, 1, n)], tags=("twist",))


def line_library() -> SkillLibrary:
    lib = SkillLibrary()
    lib.add(_line("line", 0.4))
    return lib


def skill_library() -> SkillLibrary:
    """Line, arc and twist skills.  Sweeps stay at 40 degrees so that a single
    skill displacement is within the feature tolerance of its own skill."""
    lib = SkillLibrary()
    lib.add(_line("line", 0.4))
    lib.add(_arc("arc", 0.5, np.radians(40.0)))
    lib.add(_twist("twist", 0.35, np.radians(40.0)))
    return lib


# ------------------------------------------------------------------ #
# skills: chained multi-configuration tasks with their exact optimum
# ------------------------------------------------------------------ #
@dataclass
class SkillTask:
    task: Task
    optimum: float                 # exhaustive_plan reward
    instances: list                # rigidly placed copies of the task


def _displacement(skill) -> DualQuaternion:
    return dq_mul(skill.poses[0].conjugate(), skill.poses[-1])


def skill_tasks(rng, library, n_tasks, placements):
    """``n_tasks`` tasks of 3 to 5 configurations, each gap one library skill's
    displacement followed by a small random offset (up to 3 cm and 4.6
    degrees).  Which skill makes each gap follows a fixed pattern, so every
    seed has the same mix of task shapes; the seed draws the start poses, the
    offsets and the placements.  A task is kept only when exhaustive_plan
    finds an admissible plan; otherwise its offsets are drawn again.  Each
    kept task is also placed at ``placements`` random planar rigid
    transforms; features, and so rewards and the optimum, are invariant under
    a common rigid transform.  Returns (tasks, discarded)."""
    ids = library.ids()
    kept, discarded = [], 0
    while len(kept) < n_tasks:
        k = len(kept)
        n_configs = 3 + k % 3
        skills = [ids[(k // 3 + g * (1 + k % 2)) % len(ids)] for g in range(n_configs - 1)]
        pose = planar_pose(*rng.uniform(-0.3, 0.3, 2), rng.uniform(-np.pi, np.pi))
        configs = [pose]
        for skill_id in skills:
            offset = planar_pose(*rng.uniform(-0.03, 0.03, 2), rng.uniform(-0.08, 0.08))
            pose = dq_mul(dq_mul(pose, _displacement(library[skill_id])), offset)
            configs.append(pose)
        task = Task(f"chain{k}_{n_configs}", configs)
        optimum, _ = exhaustive_plan(task, library)
        if optimum <= SENTINEL:
            discarded += 1
            continue
        instances = []
        for j in range(placements):
            place = planar_pose(*rng.uniform(-0.5, 0.5, 2), rng.uniform(-np.pi, np.pi))
            instances.append(Task(f"{task.id}@{j}", [dq_mul(place, c) for c in configs]))
        kept.append(SkillTask(task, optimum, instances))
    return kept, discarded


# ------------------------------------------------------------------ #
# hybrid: tasks on either side of the wall, each config the fk of a
# collision-free joint vector
# ------------------------------------------------------------------ #
def _in_front(p, cell) -> bool:
    lo, hi = hybrid_map_box(cell)
    return 0.1 < p[0] < cell.wall_x[0] - NEAR_MARGIN \
        and lo[1] + EDGE_MARGIN < p[1] < hi[1] - EDGE_MARGIN


def _near_theta(rng, model, cell):
    """Collision-free joints on the home elbow branch, end effector in front
    of the wall."""
    for _ in range(MAX_DRAWS):
        theta = np.array([rng.uniform(-2.2, 2.2), rng.uniform(0.6, 2.2),
                          rng.uniform(-1.8, -0.2)])
        if _in_front(fk(model, theta).translation(), cell) \
                and collision_index(model, theta, cell.obstacles) == 0:
            return theta
    raise RuntimeError("no collision-free configuration in front of the wall")


def far_goals(fmap, cell) -> list:
    """Witnesses of the map's feasible cells behind the wall: collision-free
    joint vectors whose end effector the map itself classifies as feasible."""
    return [fmap.witnesses[i].astype(float)
            for i, (vox, _) in enumerate(fmap.all_cells())
            if fmap.reasons[i] == OK and fmap.voxel_center(vox)[0] > cell.wall_x[1]]


def _far_theta(rng, model, cell, goals):
    """A map witness behind the wall, perturbed by up to 0.05 rad per joint
    and still collision-free."""
    if not goals:
        raise RuntimeError("no feasible map cell behind the wall")
    for _ in range(MAX_TRIES):
        theta = model.clamp(goals[int(rng.integers(len(goals)))]
                            + rng.uniform(-0.05, 0.05, model.dof))
        if collision_index(model, theta, cell.obstacles) == 0:
            return theta
    raise RuntimeError("no collision-free perturbation of a far-side witness")


def _crosses_wall(a, b, cell, samples=50) -> bool:
    return any(point_box_distance(a + u * (b - a), ob.lo, ob.hi) == 0.0
               for u in np.linspace(0.0, 1.0, samples) for ob in cell.obstacles)


def _free_joint_path(model, a, b, cell, samples=12) -> bool:
    return all(collision_index(model, a + u * (b - a), cell.obstacles) == 0
               for u in np.linspace(0.0, 1.0, samples))


def crossing_task(rng, model, cell, task_id, goals) -> Task:
    """Start in front of the wall, goal behind it near one of ``goals``; the
    straight path between them passes through the wall, not the slot."""
    goal = fk(model, _far_theta(rng, model, cell, goals))
    for _ in range(MAX_TRIES):
        start = fk(model, _near_theta(rng, model, cell))
        if _crosses_wall(start.translation(), goal.translation(), cell):
            return Task(task_id, [start, goal])
    raise RuntimeError(f"{task_id}: no start whose straight path crosses the wall")


def same_side_task(rng, model, cell, task_id) -> Task:
    """Start and goal in front of the wall, joined by a collision-free joint
    path."""
    for _ in range(MAX_TRIES):
        a = _near_theta(rng, model, cell)
        b = model.clamp(a + rng.uniform(-0.5, 0.5, model.dof))
        if _in_front(fk(model, b).translation(), cell) and _free_joint_path(model, a, b, cell):
            return Task(task_id, [fk(model, a), fk(model, b)])
    raise RuntimeError(f"{task_id}: no collision-free same-side pair")


def hybrid_tasks(rng, model, cell, n_tasks, crossing_share, bridged, goals):
    """``n_tasks`` tasks of which a ``crossing_share`` fraction, spread evenly
    through the list, cross the wall to a goal near one of ``goals``; the rest
    stay in front of it.

    ``bridged(task)`` tells whether the task's plan has an infeasible segment
    with a feasible pose on both sides, that is, whether a bridge is planned
    for it.  A crossing task is kept only when it is bridged and a same-side
    task only when it is not, so every crossing instance plans a bridge and
    a switch and no same-side instance does.  Returns (tasks, discarded)."""
    tasks, discarded = [], 0
    for k in range(n_tasks):
        crossing = int((k + 1) * crossing_share) > int(k * crossing_share)
        for _ in range(MAX_TRIES):
            if crossing:
                task = crossing_task(rng, model, cell, f"cross{k}", goals)
            else:
                task = same_side_task(rng, model, cell, f"side{k}")
            if bridged(task) == crossing:
                break
            discarded += 1
        else:
            raise RuntimeError(f"task {k}: every candidate discarded")
        tasks.append(task)
    return tasks, discarded
