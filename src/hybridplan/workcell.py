"""Workcell definition, kinematic trajectory execution, and success scoring.

A trial succeeds when the trajectory attains every critical configuration in
order within the position/orientation tolerances, the interpolation-checked
path is collision-free, and no payload is dropped (a drop is modeled as an
inter-waypoint joint step exceeding the smoothness bound while holding).

``execute`` walks the kinematic chain once, over the configurations it
checks: the waypoints and their interpolants, each edge split at
``COLLISION_RES_DEG`` by the rule stated in ``hybridplan.trajectory``
(``_checked_configs``, shared with ``count_path_collisions``).  That walk
gives every checked configuration's collision verdict, end-effector
position, Euler angles and manipulability, and the waypoints' rows are read
out of those lanes by index, with or without inserted rows.  Each critical
configuration's first hit at or after the previous one's is found with a
lane mask; the scalar scan it replaces is the test reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hybridplan.dualquat import dq_to_lanes, dq_translation, quat_to_euler
from hybridplan.geometry import collision_index_lanes, collision_index_points
from hybridplan.kinematics import (
    RobotModel,
    _chain_eval,
    _frame_points_raw,
    _lane_norm,
    _normalized_manipulability_raw,
)
from hybridplan.task import Task
from hybridplan.trajectory import JointTrajectory, edge_steps, subdivide

COLLISION_RES_DEG = 2.0     # interpolation resolution for path checking
SMOOTH_BOUND_DEG = 2.0      # max joint step while holding a payload


@dataclass(eq=False)
class Workcell:
    name: str
    box_lo: np.ndarray
    box_hi: np.ndarray
    obstacles: list = field(default_factory=list)
    stations: dict = field(default_factory=dict)

    def __post_init__(self):
        self.box_lo = np.asarray(self.box_lo, dtype=float)
        self.box_hi = np.asarray(self.box_hi, dtype=float)
        if not np.all(np.isfinite([self.box_lo, self.box_hi])):
            raise ValueError(f"workspace box {self.box_lo.tolist()}, {self.box_hi.tolist()} "
                             "is not finite")
        if not np.all(self.box_lo < self.box_hi):
            raise ValueError("workspace box needs min < max per axis")
        for pose in self.stations.values():
            p = pose.translation()
            if np.any(p < self.box_lo) or np.any(p > self.box_hi):
                raise ValueError("station outside the workspace box")


@dataclass
class SuccessCriteria:
    pos_tol: float = 0.05                    # meters
    rot_tol: float = np.radians(5.0)         # per Euler angle

    def __post_init__(self):
        if not (self.pos_tol > 0 and self.rot_tol > 0):      # NaN fails too
            raise ValueError("tolerances must be positive")


# ------------------------------------------------------------------ #
# Execution scoring
# ------------------------------------------------------------------ #
def _checked_configs(model, points):
    """The waypoints plus interpolated configs at ``COLLISION_RES_DEG``, in
    path order, and the rows of the waypoints among them; a path outside
    ``model``'s joint limits is refused before it is split."""
    model.refuse_outside_limits(points)
    return subdivide(points, np.radians(COLLISION_RES_DEG))


def count_path_collisions(model, points, obstacles):
    """Collisions over waypoints plus interpolated configs at
    ``COLLISION_RES_DEG``."""
    configs, _ = _checked_configs(model, points)
    return int(np.sum(collision_index_lanes(model, configs, obstacles)))


@dataclass
class ExecutionReport:
    success: bool
    config_hits: list                 # waypoint index per config, or None
    collisions: int
    r_s: float
    max_step: float
    dropped: bool
    failed_config: int | None = None


def execute(traj: JointTrajectory, model: RobotModel, cell: Workcell,
            criteria: SuccessCriteria, task: Task) -> ExecutionReport:
    """Score a joint trajectory against a task in a workcell.

    One lane walk over ``_checked_configs`` gives the collision count over
    every checked configuration; the pose hits, the manipulability of
    ``r_s`` and its collision terms are read at the waypoints' rows.  Only
    ``traj``'s points are read: an executed path carries no annotations."""
    points = traj.points
    checked, at = _checked_configs(model, points)
    axes, origins, _, q, p = _chain_eval(model, checked)
    verdicts = collision_index_points(model, _frame_points_raw(origins, p), cell.obstacles)
    ee_pos, ee_euler = np.stack(p, axis=1)[at], quat_to_euler(q)[:, at]
    configs = dq_to_lanes(task.configs)
    targets = dq_translation(configs)
    hits = []
    start_at = 0
    failed = None
    for j, config in enumerate(configs):
        c_euler = quat_to_euler(config[:4])
        diff = np.abs((ee_euler - c_euler[:, None] + np.pi) % (2 * np.pi) - np.pi)
        # not above the tolerance, the scalar rule's test (a NaN passes it)
        hit = ~(_lane_norm(ee_pos - targets[j]) > criteria.pos_tol)
        hit &= np.all(diff <= criteria.rot_tol, axis=0)
        after = np.flatnonzero(hit[start_at:])
        if len(after) == 0:
            failed = j
            break
        start_at += int(after[0])
        hits.append(start_at)
    hits += [None] * (len(task.configs) - len(hits))

    collisions = int(np.sum(verdicts))
    man = _normalized_manipulability_raw(model, axes, origins, p)[at]
    r_s = float(np.sum(man - verdicts[at]))

    # a held segment drops the payload on any step above the smoothness bound
    steps = edge_steps(points)
    bound = np.radians(SMOOTH_BOUND_DEG)
    dropped = any(task.hold[j] and hits[j] is not None and hits[j + 1] is not None
                  and np.max(steps[hits[j]:hits[j + 1]], initial=0.0) > bound + 1e-12
                  for j in range(len(task.configs) - 1))
    success = failed is None and collisions == 0 and not dropped
    return ExecutionReport(success, hits, collisions, r_s, traj.max_step(), dropped, failed)


# ------------------------------------------------------------------ #
# Benchmarking
# ------------------------------------------------------------------ #
def wilson_interval(successes: int, trials: int):
    """Wilson score 95% interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    z = 1.96                         # the two-sided 95% normal quantile
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def bench(planner, tasks, trials_per_task, seed, model, cell, criteria,
          variant="variant", rows_out=None):
    """Run a planner callable over tasks x trials and summarize success.

    ``planner(task, trial_seed) -> JointTrajectory``.  Returns a summary dict
    with per-task and aggregate rates plus Wilson 95% intervals; appends raw
    per-trial rows (variant, task, trial, success, collisions, r_s) to
    rows_out when given.
    """
    per_task = {}
    total_succ = 0
    total = 0
    for ti, task in enumerate(tasks):
        succ = 0
        for trial in range(trials_per_task):
            trial_seed = int(np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(ti, trial))).integers(1 << 31))
            traj = planner(task, trial_seed)
            report = execute(traj, model, cell, criteria, task)
            succ += int(report.success)
            if rows_out is not None:
                rows_out.append({
                    "variant": variant, "task": task.id, "trial": trial,
                    "success": int(report.success),
                    "collisions": report.collisions,
                    "r_s": report.r_s,
                })
        per_task[task.id] = {
            "successes": succ,
            "trials": trials_per_task,
            "rate": succ / trials_per_task if trials_per_task else 0.0,
            "wilson": wilson_interval(succ, trials_per_task),
        }
        total_succ += succ
        total += trials_per_task
    return {
        "variant": variant,
        "per_task": per_task,
        "successes": total_succ,
        "trials": total,
        "rate": total_succ / total if total else 0.0,
        "wilson": wilson_interval(total_succ, total),
    }
