"""Local motion planning from demonstrations.

A demonstrated skill is a time-ordered pose sequence; its feature sequence
holds, for every pose, the relative transform from that pose to the final
pose.  Features are invariant under a common rigid transform of the whole
demonstration, which is what makes a skill retargetable: the endpoints are
aligned exactly and the residual displacement mismatch is distributed over
the intermediate poses along the screw connecting them.

Pose and feature sequences are (N, 8) dual-quaternion lanes; every
function that takes poses also takes ``DualQuaternion``s, through the entry
conversion ``dq_to_lanes``, and ``retarget`` returns lanes.  Sampling and
retargeting work on many pieces at once: ``sample_pieces`` evaluates the screw
interpolations of all its pieces in one ``dq_sclerp_lanes`` call, so the unit
of work is a whole plan (``hrl_planner.plan_lfd``).  ``arc_params`` and
``sample_lanes`` run the arithmetic of their many-piece forms on one piece
without stacking it.

Retargeting has a skill side, the skill's arc parameters and its base lanes
sampled at the output length (``SkillSide``), and a task side, which aligns
the base to the start and ramps in the correction to the goal
(``retarget_sides``: one set of lane calls for all its pieces).
``retarget`` runs both halves on one skill.  A ``Demonstration`` computes
its lanes, arc parameters, features and resampled features once, and
``skill_gaps`` keeps on it the skill side of every plan gap layout it has
served.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from hybridplan.dualquat import (
    DualQuaternion,
    _lane_dot,
    _refuse_non_unit,
    dq_conjugate_lanes,
    dq_mul_lanes,
    dq_sclerp_lanes,
    dq_to_lanes,
)

BETA_RESAMPLE = 32        # fixed resampling length for feature comparison
DELTA_BETA = 0.5          # default per-term feature tolerance, chordal units
_IDENTITY = DualQuaternion.identity().as_array()


def chordal_distance(a, b):
    """8-vector distance with sign-aligned real parts (double cover).

    Two DualQuaternions (or 8-vectors) give one distance; (N, 8) lanes give
    N distances, rounded like the one-pair ``np.linalg.norm``."""
    va, vb = dq_to_lanes(a), dq_to_lanes(b)
    flip = _lane_dot(va[..., :4], vb[..., :4]) < 0.0
    diff = np.where(flip[..., None], va + vb, va - vb)
    return np.sqrt(_lane_dot(diff, diff))


def extract_features(poses) -> np.ndarray:
    """Relative transform of every pose to the final pose.

    Row k = conj(poses[k]) * poses[-1]; (len(poses) - 1, 8) lanes.
    """
    lanes = dq_to_lanes(poses)
    if len(lanes) < 2:
        raise ValueError("need at least 2 poses to extract features")
    return dq_mul_lanes(dq_conjugate_lanes(lanes[:-1]), lanes[-1])


# ------------------------------------------------------------------ #
# Sequence resampling over normalized arc length
# ------------------------------------------------------------------ #
def _cumulative(gaps) -> np.ndarray | None:
    """Normalized running sum of the chordal gaps from 0 to 1; None when they
    sum below 1e-12."""
    total = float(np.sum(gaps))
    if total < 1e-12:
        return None
    cum = np.concatenate([[0.0], np.cumsum(gaps)]) / total
    cum[-1] = 1.0
    return cum


def _bounds(sizes) -> list:
    """First row of each of several stacked sequences of these sizes, then
    the total, as Python ints."""
    return list(accumulate(sizes, initial=0))


def arc_params_pieces(pieces) -> list:
    """``arc_params`` of every lane sequence in ``pieces``, with the chordal
    gaps of all of them from one ``chordal_distance`` call."""
    bounds = _bounds(map(len, pieces))
    stacked = np.concatenate(pieces)
    gaps = chordal_distance(stacked[:-1], stacked[1:])
    return [_cumulative(gaps[a:b - 1]) for a, b in zip(bounds, bounds[1:])]


def arc_params(poses) -> np.ndarray | None:
    """Normalized cumulative arc length per pose; None when degenerate."""
    lanes = dq_to_lanes(poses)
    return _cumulative(chordal_distance(lanes[:-1], lanes[1:]))


def _span_starts(params, us, n) -> np.ndarray:
    """Index of the knot that starts each parameter's span, over n knots."""
    return np.clip(np.searchsorted(params, us, side="right") - 1, 0, n - 2)


def _sample_spans(lanes, params, us, k) -> np.ndarray:
    """The rule of ``sample_lanes`` on (stacked) lanes, with ``k`` the row
    of the knot that starts each clipped parameter's span."""
    span = params[k + 1] - params[k]
    ok = span >= 1e-15
    local = (us - params[k]) / np.where(ok, span, 1.0)
    out = np.where((ok & (local >= 1.0))[:, None], lanes[k + 1], lanes[k])
    inner = ok & (local > 0.0) & (local < 1.0)
    if np.any(inner):
        ki = k[inner]
        out[inner] = dq_sclerp_lanes(lanes[ki], lanes[ki + 1], local[inner])
    return out


def sample_pieces(pieces) -> list:
    """``sample_lanes`` of every (lanes, params, us) piece of at least 2 lanes,
    with the interpolations of all of them in one ``dq_sclerp_lanes`` call."""
    if not pieces:
        return []
    bounds = _bounds(len(lanes) for lanes, _, _ in pieces)
    us = [np.clip(np.asarray(u, dtype=float), 0.0, 1.0) for _, _, u in pieces]
    cuts = _bounds(map(len, us))
    out = _sample_spans(np.concatenate([lanes for lanes, _, _ in pieces]),
                        np.concatenate([params for _, params, _ in pieces]),
                        np.concatenate(us),
                        np.concatenate([start + _span_starts(p, u, len(lanes)) for
                                        start, (lanes, p, _), u in zip(bounds, pieces, us)]))
    return [out[a:b] for a, b in zip(cuts, cuts[1:])]


def sample_lanes(poses, params, us) -> np.ndarray:
    """Poses at normalized arc parameters ``us`` by piecewise screw
    interpolation over two or more poses, as (len(us), 8) lanes.

    A parameter on a knot, or in a span shorter than 1e-15, takes the knot's
    pose; the others are interpolated in one ``dq_sclerp_lanes`` call.
    """
    lanes = dq_to_lanes(poses)
    us = np.clip(np.asarray(us, dtype=float), 0.0, 1.0)
    return _sample_spans(lanes, params, us, _span_starts(params, us, len(lanes)))


def resample(poses, n_out) -> np.ndarray:
    """``n_out`` poses evenly spaced in normalized arc length, as lanes."""
    lanes = dq_to_lanes(poses)
    params = arc_params(lanes)
    if params is None:
        return np.repeat(lanes[:1], n_out, axis=0)
    return sample_lanes(lanes, params, np.linspace(0.0, 1.0, n_out))


# ------------------------------------------------------------------ #
# Demonstrations and the skill library
# ------------------------------------------------------------------ #
def _read_only(a):
    if a is not None:
        a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Demonstration:
    """A named pose sequence.  ``poses`` is stored as a tuple and the
    dataclass is frozen, so the cached arrays below always describe it.
    Its lanes are read by ``dualquat``'s unit rule: a non-finite entry or a
    pose that is not a unit dual quaternion is refused, naming its row."""
    id: str
    poses: tuple
    tags: tuple = ()
    _gaps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "poses", tuple(self.poses))
        if len(self.poses) < 2:
            raise ValueError("demonstration needs at least 2 poses")
        _refuse_non_unit(self.lanes)

    @cached_property
    def lanes(self) -> np.ndarray:
        """The poses as read-only (N, 8) lanes."""
        return _read_only(dq_to_lanes(self.poses))

    @cached_property
    def params(self) -> np.ndarray | None:
        """Normalized arc length per pose; None for a constant demonstration."""
        return _read_only(arc_params(self.lanes))

    @cached_property
    def features(self) -> np.ndarray:
        """``extract_features`` of the poses, read-only (N - 1, 8) lanes."""
        return _read_only(extract_features(self.lanes))

    @cached_property
    def resampled_features(self) -> np.ndarray:
        """The features resampled to ``BETA_RESAMPLE`` entries, read-only."""
        return _read_only(resample(self.features, BETA_RESAMPLE))


@dataclass
class SkillLibrary:
    skills: dict = field(default_factory=dict)

    def add(self, demo: Demonstration) -> None:
        if demo.id in self.skills:
            raise ValueError(f"duplicate skill id '{demo.id}'")
        self.skills[demo.id] = demo

    def __getitem__(self, skill_id: str) -> Demonstration:
        return self.skills[skill_id]

    def __len__(self) -> int:
        return len(self.skills)

    def ids(self) -> list:
        return sorted(self.skills)


# ------------------------------------------------------------------ #
# Retargeting
# ------------------------------------------------------------------ #
class SkillSide(NamedTuple):
    """The skill-side half of retargeting a pose sequence, ``lanes``, at
    ``n_out`` poses: its arc parameters, the ramp parameters ``us`` and the
    ``base`` lanes sampled at them.  All but ``lanes`` are None when the
    sequence is constant."""
    lanes: np.ndarray
    params: np.ndarray | None
    us: np.ndarray | None
    base: np.ndarray | None


def _skill_sides(pieces) -> list:
    """``SkillSide`` of every (lanes, n_out) piece: the arc parameters from one
    ``chordal_distance`` call and the bases from one ``sample_pieces`` call.
    The base keeps the lanes' own sampling when the lengths match, so a
    self-retarget is exact."""
    if any(n_out < 2 for _, n_out in pieces):
        raise ValueError("n_out must be at least 2")
    params = arc_params_pieces([lanes for lanes, _ in pieces])
    us = [None if p is None else p if n_out == len(lanes) else np.linspace(0.0, 1.0, n_out)
          for (lanes, n_out), p in zip(pieces, params)]
    bases = iter(sample_pieces([(lanes, p, u) for (lanes, _), p, u in zip(pieces, params, us)
                                if p is not None]))
    return [SkillSide(lanes, p, u, None if p is None else next(bases))
            for (lanes, _), p, u in zip(pieces, params, us)]


def skill_gaps(requests) -> list:
    """``SkillSide`` of every (skill, g, n, n_out) request: gap g of n, the
    skill's [g/n, (g+1)/n] arc-length slice at max(3, len(skill.poses) // n)
    poses (a constant skill is its own slice), retargeted at ``n_out`` poses.

    A skill keeps each gap layout's arrays, read-only, for its life: they
    depend on nothing but the skill and (g, n, n_out).  The layouts not yet
    kept are filled together, the slices from one ``sample_pieces`` call and
    the rest by ``_skill_sides``.  Their products are not checked against
    the unit rule: ``dualquat``'s readers check a pose once, where it is read.
    """
    missing = {}
    for skill, g, n, n_out in requests:
        if (g, n, n_out) not in skill._gaps:
            missing[id(skill), g, n, n_out] = (skill, g, n, n_out)
    if missing:
        todo = list(missing.values())
        sliced = iter(sample_pieces(
            [(skill.lanes, skill.params, np.linspace(g / n, (g + 1) / n, max(3, len(skill.poses) // n)))
             for skill, g, n, _ in todo if skill.params is not None]))
        slices = [skill.lanes if skill.params is None else next(sliced) for skill, *_ in todo]
        sides = _skill_sides([(lanes, n_out) for lanes, (*_, n_out) in zip(slices, todo)])
        for (skill, g, n, n_out), side in zip(todo, sides):
            skill._gaps[g, n, n_out] = SkillSide(*map(_read_only, side))
    return [skill._gaps[g, n, n_out] for skill, g, n, n_out in requests]


def retarget_sides(pieces) -> list:
    """The task-side half of retargeting: every (``SkillSide``, start, goal,
    n_out) piece, with start and goal as 8-vectors, mapped onto its start and
    goal; returns each piece's (n_out, 8) lanes.

    A constant piece stays at its start, and raises ValueError when start and
    goal are more than 1e-9 apart.  The moving pieces share four
    ``dq_mul_lanes`` calls for the alignment and the correction and one
    ``dq_sclerp_lanes`` call for the correction ramp.
    """
    if any(side.params is None and chordal_distance(start, goal) > 1e-9
           for side, start, goal, _ in pieces):
        raise ValueError("skill/task displacement mismatch: constant-pose "
                         "skill cannot span distinct start and goal")
    out = [np.tile(np.asarray(start, dtype=float), (n_out, 1)) if side.params is None else None
           for side, start, _, n_out in pieces]
    moving = [i for i, (side, *_) in enumerate(pieces) if side.params is not None]
    if not moving:
        return out
    us = [pieces[i][0].us for i in moving]
    base = np.concatenate([pieces[i][0].base for i in moving])
    bounds = _bounds(map(len, us))
    lane_piece = np.repeat(np.arange(len(moving)), list(map(len, us)))
    starts, goals = (np.array([pieces[i][j] for i in moving], dtype=float) for j in (1, 2))

    g = dq_mul_lanes(starts, dq_conjugate_lanes(base[bounds[:-1]]))
    aligned = dq_mul_lanes(g[lane_piece], base)
    residual = dq_mul_lanes(dq_conjugate_lanes(aligned[[b - 1 for b in bounds[1:]]]), goals)
    corr = dq_sclerp_lanes(_IDENTITY, residual[lane_piece], np.concatenate(us))
    moved = dq_mul_lanes(aligned, corr)
    for i, a, b in zip(moving, bounds, bounds[1:]):
        out[i] = moved[a:b]
    return out


def retarget(skill: Demonstration, start, goal, n_out: int) -> np.ndarray:
    """Map a skill onto new start/goal poses, as (n_out, 8) lanes: the
    ``_skill_sides`` of its lanes, then ``retarget_sides``.

    The start frames are aligned exactly by a left transform; the residual
    between the mapped final pose and the goal is applied as a right
    correction, ramped along normalized arc length so the endpoints land
    exactly while intermediate poses keep the demonstrated motion profile.
    """
    side, = _skill_sides([(skill.lanes, n_out)])
    lanes, = retarget_sides([(side, dq_to_lanes(start), dq_to_lanes(goal), n_out)])
    return lanes


# ------------------------------------------------------------------ #
# Feature distance
# ------------------------------------------------------------------ #
def _resampled(x) -> np.ndarray:
    if isinstance(x, Demonstration):
        return x.resampled_features
    if len(x) == 0:
        raise ValueError("feature sequences must be nonempty")
    return resample(x, BETA_RESAMPLE)


def feature_distance_terms(a, b) -> np.ndarray:
    """Per-index chordal distances after arc-length resampling to
    ``BETA_RESAMPLE`` entries.

    Each side is a feature sequence, as lanes or DualQuaternions, or a
    ``Demonstration``, which stands for its features and resamples them once.
    """
    return chordal_distance(_resampled(a), _resampled(b))
