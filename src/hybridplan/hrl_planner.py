"""Global task planner: two-level reinforcement learning over task segments
and library skills.

The task controller values contiguous segments of the remaining critical
configurations; the motion controller values which demonstrated skill realizes
the chosen segment.  The motion controller's reward compares the skill's
feature sequence with the segment's; any per-term distance beyond the
tolerance yields a sentinel treated as minus infinity.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hybridplan import records
from hybridplan.dualquat import (
    DualQuaternion,
    dq_from_lanes,
    dq_to_lanes,
    quat_from_axis_angle,
    quat_mul,
)
from hybridplan.lfd import (
    DELTA_BETA,
    Demonstration,
    SkillLibrary,
    extract_features,
    feature_distance_terms,
    retarget,
    sample_lanes,
)
from hybridplan.task import Task

SENTINEL = -1e9          # stored stand-in for the minus-infinity reward
CURVE_FLOOR = -100.0     # training-curve display clamp for sentinel episodes


# ------------------------------------------------------------------ #
# Rewards
# ------------------------------------------------------------------ #
def intrinsic_reward(skill: Demonstration, segment_poses, delta_beta=DELTA_BETA) -> float:
    """Negated feature-distance sum, or the sentinel when any term exceeds
    the tolerance.  The skill's resampled features are cached on the skill;
    only the segment is resampled."""
    if len(segment_poses) < 2:
        raise ValueError("segment needs at least 2 poses")
    terms = feature_distance_terms(skill, extract_features(segment_poses))
    if np.any(terms > delta_beta):
        return SENTINEL
    return float(-np.sum(terms))


def extrinsic_reward(history) -> float:
    """Running sum of intrinsic rewards; any sentinel absorbs the total."""
    total = 0.0
    for r in history:
        if r <= SENTINEL:
            return SENTINEL
        total += r
    return total


# ------------------------------------------------------------------ #
# Q tables
# ------------------------------------------------------------------ #
@dataclass
class QTables:
    task_q: dict = field(default_factory=dict)    # (state, seg) -> value
    motion_q: dict = field(default_factory=dict)  # (state, seg, skill) -> value
    training_curve: list = field(default_factory=list, repr=False)

    def best_segment(self, state, candidates):
        vals = [self.task_q.get((state, seg), 0.0) for seg in candidates]
        return candidates[int(np.argmax(vals))]

    def best_skill(self, state, seg, skill_ids):
        vals = [self.motion_q.get((state, seg, sk), 0.0) for sk in skill_ids]
        best = int(np.argmax(vals))
        if vals[best] <= SENTINEL:
            raise ValueError(f"no admissible skill for segment {seg}")
        return skill_ids[best]


# fields after the key on each line of a Q-table file
TABLE_FIELDS = {"Q": 5, "q": 6}


def serialize_tables(tables: QTables) -> str:
    return records.text(
        [records.line("Q", *state, *seg, v) for (state, seg), v in sorted(tables.task_q.items())]
        + [records.line("q", *state, *seg, skill, v)
           for (state, seg, skill), v in sorted(tables.motion_q.items())])


def save_tables(tables: QTables, path) -> None:
    Path(path).write_text(serialize_tables(tables))


def load_tables(path) -> QTables:
    tables = QTables()
    for key, f in records.read_keyed(Path(path).read_text(), TABLE_FIELDS, "Q-table"):
        state, seg = (int(f[0]), int(f[1])), (int(f[2]), int(f[3]))
        if key == "Q":
            tables.task_q[(state, seg)] = float(f[4])
        else:
            tables.motion_q[(state, seg, f[4])] = float(f[5])
    return tables


# ------------------------------------------------------------------ #
# Training
# ------------------------------------------------------------------ #
@dataclass
class HrlConfig:
    episodes: int = 400
    alpha: float = 0.2               # tabular learning rate
    gamma: float = 1.0               # undiscounted segment sum
    eps_start: float = 0.95
    eps_end: float = 0.05
    eps_decay: float = 2000.0
    delta_beta: float = DELTA_BETA
    jitter_pos: tuple = (0.02, 0.02, 0.0)   # per-axis task jitter, meters
    jitter_rot: float = np.radians(5.0)     # yaw jitter, radians

    def epsilon(self, episode: int) -> float:
        return self.eps_end + (self.eps_start - self.eps_end) * np.exp(-episode / self.eps_decay)


def _jitter_pose(pose: DualQuaternion, cfg: HrlConfig, rng) -> DualQuaternion:
    amp = np.asarray(cfg.jitter_pos)
    dp = rng.uniform(-amp, amp)
    ang = rng.uniform(-cfg.jitter_rot, cfg.jitter_rot)
    spin = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), ang)
    pos, rot = pose.to_pose()
    return DualQuaternion.from_pose(pos + dp, quat_mul(spin, rot))


def _config_cells(tasks, fmap) -> list:
    """Per task, the state cell of each critical configuration: its flat map
    cell, -2 outside the map, or -1 with no map.  One ``locate_lanes`` call
    covers every task."""
    if fmap is None:
        return [[-1] * len(t.configs) for t in tasks]
    cells = fmap.locate_lanes(dq_to_lanes([p for t in tasks for p in t.configs]))
    splits = np.cumsum([len(t.configs) for t in tasks])[:-1]
    return [c.tolist() for c in np.split(np.where(cells < 0, -2, cells), splits)]


def candidate_segments(tk_index: int, n_configs: int) -> list:
    return [(tk_index, k) for k in range(tk_index + 1, n_configs)]


def train_hrl(tasks, library: SkillLibrary, episodes=None, config=None,
              seed=0, fmap=None):
    """Epsilon-greedy two-level Q-learning over a task set.

    The task controller values segment choices with a bootstrapped update on
    the intrinsic reward; the motion controller is a per-segment bandit over
    skills.  ``episodes``, when given, overrides ``config.episodes`` for this
    call only; ``config`` is not modified.  Deterministic for a given seed.
    """
    if not tasks:
        raise ValueError("empty task set")
    if len(library) == 0:
        raise ValueError("empty skill library")
    cfg = config or HrlConfig()
    if episodes is not None:
        cfg = replace(cfg, episodes=episodes)
    if cfg.episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = np.random.default_rng(seed)
    tables = QTables()
    skill_ids = library.ids()
    # the state keys read the un-jittered configurations
    task_cells = _config_cells(tasks, fmap)

    for ep in range(cfg.episodes):
        k = int(rng.integers(len(tasks)))
        task, cells = tasks[k], task_cells[k]
        configs = [_jitter_pose(p, cfg, rng) for p in task.configs]
        eps = cfg.epsilon(ep)
        idx = 0
        history = []
        while idx < len(configs) - 1:
            state = (idx, cells[idx])
            cands = candidate_segments(idx, len(configs))
            if rng.random() < eps:
                seg = cands[int(rng.integers(len(cands)))]
            else:
                seg = tables.best_segment(state, cands)
            if rng.random() < eps:
                skill_id = skill_ids[int(rng.integers(len(skill_ids)))]
            else:
                vals = [tables.motion_q.get((state, seg, sk), 0.0) for sk in skill_ids]
                skill_id = skill_ids[int(np.argmax(vals))]

            segment_poses = configs[seg[0]:seg[1] + 1]
            r = intrinsic_reward(library[skill_id], segment_poses, cfg.delta_beta)
            history.append(r)

            mk = (state, seg, skill_id)
            q_old = tables.motion_q.get(mk, 0.0)
            tables.motion_q[mk] = q_old + cfg.alpha * (r - q_old)

            next_idx = seg[1]
            if next_idx < len(configs) - 1:
                next_state = (next_idx, cells[next_idx])
                next_cands = candidate_segments(next_idx, len(configs))
                bootstrap = max(tables.task_q.get((next_state, s), 0.0)
                                for s in next_cands)
            else:
                bootstrap = 0.0
            # the task controller values the segment by the best skill the
            # motion controller knows, not by the sampled (possibly
            # exploratory) skill -- a single sentinel draw must not poison it
            r_best = max(tables.motion_q.get((state, seg, sk), 0.0)
                         for sk in skill_ids)
            tk = (state, seg)
            q_old = tables.task_q.get(tk, 0.0)
            target = r_best + cfg.gamma * bootstrap
            tables.task_q[tk] = q_old + cfg.alpha * (target - q_old)
            idx = next_idx
        total = extrinsic_reward(history)
        tables.training_curve.append(max(total, CURVE_FLOOR))
    return tables


# ------------------------------------------------------------------ #
# Planning
# ------------------------------------------------------------------ #
def _slice_skill(skill: Demonstration, u_lo: float, u_hi: float, n: int) -> Demonstration:
    if skill.params is None:
        return skill
    us = np.linspace(u_lo, u_hi, max(n, 2))
    return Demonstration(skill.id, dq_from_lanes(sample_lanes(skill.lanes, skill.params, us)))


def retarget_through(skill: Demonstration, waypoints, points_per_gap: int) -> list:
    """Retarget a skill across several critical configurations.

    The skill is split by arc length into one slice per waypoint gap and each
    slice is retargeted endpoint-exactly, so the result passes through every
    waypoint exactly while keeping the demonstrated profile.
    """
    n_gaps = len(waypoints) - 1
    out = []
    for g in range(n_gaps):
        piece = _slice_skill(skill, g / n_gaps, (g + 1) / n_gaps,
                             max(3, len(skill.poses) // n_gaps))
        traj = retarget(piece, waypoints[g], waypoints[g + 1], points_per_gap)
        if g > 0:
            traj = traj[1:]          # drop the duplicated junction pose
        out.extend(traj)
    return out


def plan_lfd(task: Task, library: SkillLibrary, tables: QTables, fmap=None,
             points_per_gap: int = 25) -> dict:
    """Greedy segment and skill selection; returns the task-space plan.

    Output dict: poses (the trajectory), segments [(seg, skill_id)], and the
    per-segment pose index ranges.
    """
    skill_ids = library.ids()
    cells = _config_cells([task], fmap)[0]
    idx = 0
    poses = []
    chosen = []
    ranges = []
    while idx < len(task.configs) - 1:
        state = (idx, cells[idx])
        cands = candidate_segments(idx, len(task.configs))
        seg = tables.best_segment(state, cands)
        skill_id = tables.best_skill(state, seg, skill_ids)
        waypoints = task.configs[seg[0]:seg[1] + 1]
        traj = retarget_through(library[skill_id], waypoints, points_per_gap)
        start_at = len(poses)
        if poses:
            traj = traj[1:]          # junction pose already present
            start_at -= 1
        poses.extend(traj)
        chosen.append((seg, skill_id))
        ranges.append((start_at, len(poses) - 1))
        idx = seg[1]
    return {"poses": poses, "segments": chosen, "ranges": ranges}


def exhaustive_plan(task: Task, library: SkillLibrary, delta_beta=DELTA_BETA):
    """Brute-force optimal total intrinsic reward over all contiguous
    segmentations and skill assignments (test oracle for small instances)."""
    n = len(task.configs)
    skill_ids = library.ids()
    best = {n - 1: (0.0, [])}

    def solve(i):
        if i in best:
            return best[i]
        options = []
        for k in range(i + 1, n):
            seg_poses = task.configs[i:k + 1]
            tail_r, tail_plan = solve(k)
            for sk in skill_ids:
                r = intrinsic_reward(library[sk], seg_poses, delta_beta)
                if r <= SENTINEL or tail_r <= SENTINEL:
                    total = SENTINEL
                else:
                    total = r + tail_r
                options.append((total, [((i, k), sk)] + tail_plan))
        best[i] = max(options, key=lambda t: t[0])
        return best[i]

    return solve(0)
