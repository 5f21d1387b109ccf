"""Global task planner: two-level reinforcement learning over task segments
and library skills.

The task controller values contiguous segments of the remaining critical
configurations; the motion controller values which demonstrated skill realizes
the chosen segment.  The motion controller's reward compares the skill's
feature sequence with the segment's; any per-term distance beyond the fixed
tolerance ``lfd.DELTA_BETA`` yields a sentinel treated as minus infinity.  The
task controller's target is undiscounted (gamma = 1).

Training pays per episode for its Python and its numpy calls, not for
arithmetic: an episode jitters 3 to 9 poses.  So the jitter draws its offsets
with one ``rng.random`` call and makes its two Hamilton products with
``dualquat.quat_mul_lanes``, the amplitudes are built once per ``train_hrl``
call, and the greedy picks take the first maximum of a Python list, as
``np.argmax`` does, without converting it to an array.  Every table stays
bit-identical.

A ``train_hrl`` or ``exhaustive_plan`` call scores segments through one
scorer that lives for that call only.  It keys a segment by the exact bytes
of its (k, 8) lanes, resamples the segment's features once per distinct
segment and computes the reward once per (skill, segment); a repeated key
goes through the same arithmetic, so a cached reward is the reward.

``plan_lfd`` makes every segment and skill choice first, then retargets all
the waypoint gaps of all the chosen segments together.  A gap's skill side
(the skill's arc-length slice for the gap and its base at ``points_per_gap``
poses) depends only on the skill and the gap layout (g, n, points_per_gap),
so ``lfd.skill_gaps`` keeps it on the skill and fills a plan's new layouts
in one batch; one ``lfd.retarget_sides`` call then maps every gap onto its
waypoints, so a plan whose layouts were seen before costs the task side
alone: four ``dq_mul_lanes`` calls and one ``dq_sclerp_lanes`` call however
many gaps it has.  Each gap's lanes are those of retargeting it on its own.
The plan's poses are those (N, 8) lanes; no pose object is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hybridplan.dualquat import _lane_dot, dq_to_lanes, dq_translation, quat_mul_lanes
from hybridplan.lfd import (
    BETA_RESAMPLE,
    DELTA_BETA,
    Demonstration,
    SkillLibrary,
    chordal_distance,
    extract_features,
    resample,
    retarget_sides,
    skill_gaps,
)
from hybridplan.task import Task

SENTINEL = -1e9          # stored stand-in for the minus-infinity reward
CURVE_FLOOR = -100.0     # training-curve display clamp for sentinel episodes


# ------------------------------------------------------------------ #
# Rewards
# ------------------------------------------------------------------ #
def _reward(skill: Demonstration, segment_features) -> float:
    terms = chordal_distance(skill.resampled_features, segment_features)
    if np.any(terms > DELTA_BETA):
        return SENTINEL
    return float(-np.sum(terms))


def intrinsic_reward(skill: Demonstration, segment_poses) -> float:
    """Negated sum of the per-index chordal distances between the skill's and
    the segment's features, each resampled to ``BETA_RESAMPLE`` entries by arc
    length, or the sentinel when any distance exceeds ``DELTA_BETA``.  The
    segment is given as poses or lanes and needs at least 2 poses; the
    skill's resampled features are cached on the skill."""
    if len(segment_poses) < 2:
        raise ValueError("segment needs at least 2 poses")
    return _reward(skill, resample(extract_features(segment_poses), BETA_RESAMPLE))


def _segment_scorer(library: SkillLibrary):
    """``intrinsic_reward`` as ``score(skill_id, segment_lanes)``, cached for
    the life of the returned function (see the module docstring)."""
    features, rewards = {}, {}

    def score(skill_id, lanes: np.ndarray) -> float:
        seg = lanes.tobytes()
        if (skill_id, seg) not in rewards:
            if seg not in features:
                features[seg] = resample(extract_features(lanes), BETA_RESAMPLE)
            rewards[skill_id, seg] = _reward(library[skill_id], features[seg])
        return rewards[skill_id, seg]

    return score


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
        return candidates[vals.index(max(vals))]

    def best_skill(self, state, seg, skill_ids):
        vals = [self.motion_q.get((state, seg, sk), 0.0) for sk in skill_ids]
        best = vals.index(max(vals))
        if vals[best] <= SENTINEL:
            raise ValueError(f"no admissible skill for segment {seg}")
        return skill_ids[best]


# ------------------------------------------------------------------ #
# Training
# ------------------------------------------------------------------ #
@dataclass
class HrlConfig:
    alpha: float = 0.2               # tabular learning rate
    eps_start: float = 0.95
    eps_end: float = 0.05
    eps_decay: float = 2000.0
    jitter_pos: tuple = (0.02, 0.02, 0.0)   # per-axis task jitter, meters
    jitter_rot: float = np.radians(5.0)     # yaw jitter, radians

    def __post_init__(self):
        if np.shape(self.jitter_pos) != (3,):
            raise ValueError(f"jitter_pos needs 3 per-axis amplitudes, got {self.jitter_pos!r}")
        for name, amp in (("jitter_pos", self.jitter_pos), ("jitter_rot", self.jitter_rot)):
            if not np.all(np.isfinite(amp) & (np.asarray(amp) >= 0.0)):
                raise ValueError(f"{name} must be finite and non-negative, got {amp!r}")
        if not self.eps_decay > 0.0:
            raise ValueError(f"eps_decay must be positive, got {self.eps_decay!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")

    def epsilon(self, episode: int) -> float:
        return self.eps_end + (self.eps_start - self.eps_end) * np.exp(-episode / self.eps_decay)


_Z_SPIN = np.array([0.0, 0.0, 0.0, 1.0])   # the z axis, as sin(half) scales it


def _jitter_lanes(lanes: np.ndarray, amp: np.ndarray, rng) -> np.ndarray:
    """Every pose of the (n, 8) lanes shifted by a uniform offset within
    ``amp[:3]`` (``HrlConfig.jitter_pos``) and spun about z by a uniform
    angle within ``amp[3]`` (``jitter_rot``).

    One (n, 4) draw takes, pose by pose, the three offsets and then the
    angle: ``Generator.uniform``'s ``low + range * u`` of ``rng.random``, the
    same stream and the same values.  The arithmetic is
    ``DualQuaternion.from_pose`` on lanes, its two Hamilton products by
    ``quat_mul_lanes``, so the result and the generator state match
    jittering one pose at a time.  The table product's rows are F-ordered and
    ``_lane_dot`` rounds by layout, so the norm is taken on a C-ordered copy.
    A NaN, an inf or an entry of 1e150 or more, whose products could
    overflow, is refused before any arithmetic: a degenerate rotation in the
    real part, a non-finite position in the dual part, as ``from_pose``
    refuses it."""
    size = np.abs(lanes)
    if not size.max(initial=0.0) < 1e150:                  # NaN fails too
        raise ValueError("non-finite position" if size[:, :4].max() < 1e150
                         else "degenerate rotation")
    draw = -amp + (amp + amp) * rng.random((len(lanes), 4))
    half = 0.5 * draw[:, 3:]
    spin = np.sin(half) * _Z_SPIN    # the signed zeros of sin(half) * 0.0
    spin[:, :1] = np.cos(half)
    rot = np.ascontiguousarray(quat_mul_lanes(spin, lanes[:, :4]))
    norm = np.sqrt(_lane_dot(rot, rot))
    if not np.all(norm >= 1e-12):
        raise ValueError("degenerate rotation")
    rot /= norm[:, None]
    pos = np.zeros((len(lanes), 4))
    np.add(dq_translation(lanes), draw[:, :3], out=pos[:, 1:])
    out = np.empty((len(lanes), 8))
    out[:, :4] = rot
    np.multiply(0.5, quat_mul_lanes(pos, rot), out=out[:, 4:])
    return out


def _config_cells(task_lanes, fmap) -> list:
    """Per task, given as its configurations' lanes, the state cell of each
    critical configuration: its flat map cell, -2 outside the map, or -1 with
    no map.  One ``locate_lanes`` call covers every task."""
    if fmap is None:
        return [[-1] * len(lanes) for lanes in task_lanes]
    cells = fmap.locate_lanes(np.concatenate(task_lanes))
    splits = np.cumsum([len(lanes) for lanes in task_lanes])[:-1]
    return [c.tolist() for c in np.split(np.where(cells < 0, -2, cells), splits)]


def candidate_segments(tk_index: int, n_configs: int) -> list:
    return [(tk_index, k) for k in range(tk_index + 1, n_configs)]


def train_hrl(tasks, library: SkillLibrary, episodes=400, config=None,
              seed=0, fmap=None):
    """Epsilon-greedy two-level Q-learning over a task set for ``episodes`` episodes.

    The task controller values segment choices with an undiscounted
    bootstrapped update on the intrinsic reward; the motion controller is a
    per-segment bandit over skills.  Deterministic for a given seed.
    """
    if not tasks:
        raise ValueError("empty task set")
    if len(library) == 0:
        raise ValueError("empty skill library")
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    cfg = config or HrlConfig()
    rng = np.random.default_rng(seed)
    tables = QTables()
    skill_ids = library.ids()
    score = _segment_scorer(library)
    task_lanes = [dq_to_lanes(t.configs) for t in tasks]
    # the state keys read the un-jittered configurations
    task_cells = _config_cells(task_lanes, fmap)
    amp = np.append(cfg.jitter_pos, cfg.jitter_rot)

    for ep in range(episodes):
        k = int(rng.integers(len(tasks)))
        configs, cells = _jitter_lanes(task_lanes[k], amp, rng), task_cells[k]
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
                skill_id = skill_ids[vals.index(max(vals))]

            r = score(skill_id, configs[seg[0]:seg[1] + 1])
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
            target = r_best + bootstrap
            tables.task_q[tk] = q_old + cfg.alpha * (target - q_old)
            idx = next_idx
        total = extrinsic_reward(history)
        tables.training_curve.append(max(total, CURVE_FLOOR))
    return tables


# ------------------------------------------------------------------ #
# Planning
# ------------------------------------------------------------------ #
def _retarget_segments(segments, points_per_gap: int) -> tuple:
    """Retarget every (skill, (k, 8) waypoint lanes) segment through its
    waypoints, one piece per waypoint gap: the skill side of each gap from
    ``skill_gaps`` and one ``retarget_sides`` call for all of them.

    Gap g of n takes the skill's [g/n, (g+1)/n] arc-length slice at
    max(3, len(skill.poses) // n) poses (a constant skill is its own slice),
    so the result passes through every waypoint exactly while keeping the
    demonstrated profile.  Returns the pieces joined end to end, each
    junction pose once, as lanes, and each segment's (first, last) row.
    """
    gaps = [(skill, waypoints, g, len(waypoints) - 1)
            for skill, waypoints in segments for g in range(len(waypoints) - 1)]
    sides = skill_gaps([(skill, g, n, points_per_gap) for skill, _, g, n in gaps])
    trajs = retarget_sides([(side, waypoints[g], waypoints[g + 1], points_per_gap)
                            for side, (_, waypoints, g, _) in zip(sides, gaps)])
    lanes = np.concatenate([trajs[0]] + [t[1:] for t in trajs[1:]])   # junctions once
    ranges, end = [], 0
    for _, waypoints in segments:
        start, end = end, end + (len(waypoints) - 1) * (points_per_gap - 1)
        ranges.append((start, end))
    return lanes, ranges


def plan_lfd(task: Task, library: SkillLibrary, tables: QTables, fmap=None,
             points_per_gap: int = 25) -> dict:
    """Greedy segment and skill selection; returns the task-space plan.

    Output dict: poses (the trajectory, as (N, 8) lanes), segments
    [(seg, skill_id)], and the per-segment pose index ranges.  The motion of
    all segments is retargeted in one ``_retarget_segments`` call (see the
    module docstring).
    """
    skill_ids = library.ids()
    configs = dq_to_lanes(task.configs)
    cells = _config_cells([configs], fmap)[0]
    idx = 0
    chosen = []
    while idx < len(task.configs) - 1:
        state = (idx, cells[idx])
        cands = candidate_segments(idx, len(task.configs))
        seg = tables.best_segment(state, cands)
        chosen.append((seg, tables.best_skill(state, seg, skill_ids)))
        idx = seg[1]
    lanes, ranges = _retarget_segments(
        [(library[skill_id], configs[a:b + 1]) for (a, b), skill_id in chosen], points_per_gap)
    return {"poses": lanes, "segments": chosen, "ranges": ranges}


def exhaustive_plan(task: Task, library: SkillLibrary):
    """Brute-force optimal total intrinsic reward over all contiguous
    segmentations and skill assignments (test oracle for small instances)."""
    lanes = dq_to_lanes(task.configs)
    n = len(lanes)
    skill_ids = library.ids()
    score = _segment_scorer(library)
    best = {n - 1: (0.0, [])}

    def solve(i):
        if i in best:
            return best[i]
        options = []
        for k in range(i + 1, n):
            tail_r, tail_plan = solve(k)
            for sk in skill_ids:
                r = score(sk, lanes[i:k + 1])
                if r <= SENTINEL or tail_r <= SENTINEL:
                    total = SENTINEL
                else:
                    total = r + tail_r
                options.append((total, [((i, k), sk)] + tail_plan))
        best[i] = max(options, key=lambda t: t[0])
        return best[i]

    return solve(0)
