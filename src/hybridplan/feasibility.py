"""Workspace feasibility: per-configuration checks, the tessellated map, and
trajectory segment classification.

A configuration is feasible when an inverse-kinematics witness exists within
joint limits that is collision-free and keeps normalized manipulability above
a threshold.  The map discretizes the workspace into position voxels crossed
with orientation cells and stores the verdict, the manipulability value, and
the witness joint vector for every cell.  Cell semantics are existential: the
cell is feasible if any witness lands inside it, so the per-cell IK tolerance
is half the cell extent.  A map pass descends every IK seed of its cells as one
``ik_descend`` and judges every witness it reaches with one ``score_lanes``.
A witness qualifies at normalized manipulability ``EPS_M`` or above, each
pose gets ``IK_BUDGET`` seeds, and the map metadata records both; ``fea``
solves one pose to ``POSE_TOL``.
Cells are numbered by ``ravel_multi_index`` over ``voxel_counts +
orient_counts`` (x, y, z voxel, then roll, pitch, yaw bin; yaw varies fastest).

Poses are 8-vectors or (N, 8) lanes (``dq_to_lanes`` also takes
``DualQuaternion``s); a classification keeps its trajectory's lanes and its
brackets are rows of them.  Map lookups run on lanes (``locate_lanes``).  A
pose's voxel is ``floor((p - box_lo) / voxel_size)`` per axis; a pose within
1e-9 (in voxel units) of the box's upper face belongs to the last voxel.  Its
orientation cell bins the ``quat_to_euler`` angles (roll, pitch, yaw) into
equal widths over [-theta_max, theta_max], with yaw first wrapped into
[-pi, pi) when theta_max is pi; an angle up to 1e-9 beyond the range is
clipped into the end bin.  Any other pose is outside the map.  Pitch lies
in [-pi/2, pi/2], so a map with more than one pitch bin has theta_max <= pi/2.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hybridplan import records
from hybridplan.dualquat import (
    DualQuaternion,
    _qmul,
    dq_to_lanes,
    dq_translation,
    quat_from_euler,
    quat_to_euler,
)
from hybridplan.geometry import obstacle_line, score_lanes
from hybridplan.kinematics import RobotModel, ik_descend, robot_hash

OK, UNREACHABLE, COLLISION, LOW_MANIP = 0, 1, 2, 3
# reason by witness grade: none reached, all collide, free, free and at or above EPS_M
_REASON_OF_GRADE = np.array([UNREACHABLE, COLLISION, LOW_MANIP, OK], dtype=np.uint8)

MAN_FIXED_SCALE = 4096.0      # man' stored as 16-bit fixed point
FEA_MAX_ITERS = 80            # DLS iterations per feasibility descent
EPS_M = 0.1                   # man' threshold of a feasible witness
IK_BUDGET = 12                # IK seeds per pose, caller seeds aside
POSE_TOL = (1e-3, 1e-2)       # one-pose IK tolerances: position (m), rotation (rad)
_MAGIC = b"HPFM"
_VERSION = 2


def obstacles_signature(obstacles) -> str:
    """Canonical hash of an obstacle list (order-sensitive)."""
    return hashlib.sha256("\n".join(map(obstacle_line, obstacles)).encode()).hexdigest()


@dataclass
class FeaResult:
    feasible: bool
    man_prime: float
    reason: int
    witness: np.ndarray | None = None


def fea(pose, model: RobotModel, obstacles, *, rng) -> FeaResult:
    """Feasibility of one end-effector pose.

    Runs one IK descent (``FEA_MAX_ITERS`` steps, to ``POSE_TOL``) per seed:
    the home configuration, then random seeds from ``rng`` up to
    ``IK_BUDGET`` seeds.  Existential over witnesses: the first witness in
    seed order that is reachable, collision-free, and at or above ``EPS_M``
    decides feasibility; otherwise the reason reports the first criterion
    that every witness failed, checked in the order reachability, collision,
    manipulability.
    """
    seeds = _draw_seeds(model, (), rng)
    reasons, man, witnesses = _fea_batch(dq_to_lanes(pose).reshape(1, 8), [seeds], model,
                                         obstacles, *POSE_TOL)
    reason = int(reasons[0])
    return FeaResult(reason == OK, float(man[0]), reason,
                     None if reason == UNREACHABLE else witnesses[0])


def _draw_seeds(model: RobotModel, extra_seeds, rng) -> np.ndarray:
    """IK seeds of one pose, (k, dof): caller seeds, home, then uniform random
    seeds up to ``IK_BUDGET`` rows.  Caller seeds are all kept, even past
    ``IK_BUDGET``."""
    extra = np.asarray(extra_seeds, dtype=float).reshape(-1, model.dof)
    n_random = max(IK_BUDGET - len(extra) - 1, 0)
    return np.vstack([extra, model.home,
                      rng.uniform(model.limits_lo, model.limits_hi, size=(n_random, model.dof))])


def _fea_batch(lanes, seed_lists, model: RobotModel, obstacles, tol_pos, tol_rot) -> tuple:
    """``fea`` of (P, 8) pose lanes as (reasons, man', witnesses) arrays, the
    witnesses (P, dof) with NaN rows where none was reached.

    Every seed of every pose descends as one ``ik_descend`` and every witness
    reached is scored by one ``score_lanes``.  A pose's verdict is its first
    witness in seed order that is free and at or above ``EPS_M``, else its
    best free witness, else its best witness (first maximum of man' wins)."""
    counts = [len(seeds) for seeds in seed_lists]
    sols = ik_descend(model, np.repeat(lanes, counts, axis=0), np.concatenate(seed_lists),
                      tol_pos, tol_rot, FEA_MAX_ITERS)
    reached = ~np.isnan(sols[:, 0])
    man, col = np.zeros(len(sols)), np.ones(len(sols), dtype=np.uint8)
    man[reached], col[reached] = score_lanes(model, sols[reached], obstacles)
    free = col == 0
    ok = free & (man >= EPS_M)
    grade = reached.astype(int) + free + ok
    # per pose, last after sorting: highest grade, then highest man' (any
    # qualifying witness ranks equal), then first in seed order
    order = np.lexsort((-np.arange(len(sols)), np.where(ok, 0.0, man), grade,
                        np.repeat(np.arange(len(counts)), counts)))
    pick = order[np.cumsum(counts) - 1]
    return _REASON_OF_GRADE[grade[pick]], man[pick], sols[pick]


# ------------------------------------------------------------------ #
# Tessellated map
# ------------------------------------------------------------------ #
@dataclass(eq=False)
class FeasibilityMap:
    box_lo: np.ndarray
    box_hi: np.ndarray
    voxel_size: float
    voxel_counts: tuple            # (nx, ny, nz)
    theta_max: float               # orientation range [-theta_max, theta_max]
    orient_counts: tuple           # cells per Euler axis (roll, pitch, yaw)
    dof: int
    reasons: np.ndarray            # uint8, flat over all cells
    man: np.ndarray                # float per cell (man', decoded)
    witnesses: np.ndarray          # (cells, dof) float32, NaN where absent
    metadata: dict = field(default_factory=dict)

    # -- indexing ------------------------------------------------------
    @property
    def n_orient(self) -> int:
        cx, cy, cz = self.orient_counts
        return cx * cy * cz

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.voxel_counts
        return nx * ny * nz * self.n_orient

    def voxel_center(self, vox) -> np.ndarray:
        return self.box_lo + (np.asarray(vox) + 0.5) * self.voxel_size

    def orient_center(self, ori) -> np.ndarray:
        widths = 2.0 * self.theta_max / np.asarray(self.orient_counts)
        return -self.theta_max + (np.asarray(ori) + 0.5) * widths

    def cell_pose(self, vox, ori) -> DualQuaternion:
        angles = self.orient_center(ori)
        return DualQuaternion.from_pose(self.voxel_center(vox),
                                        quat_from_euler(*angles))

    def locate_lanes(self, lanes) -> np.ndarray:
        """Flat cell index of each pose of (N, 8) lanes, or -1 outside the map.

        The translation is ``dq_translation`` of the lanes and the angles
        one ``quat_to_euler`` over them; the cell and face rules are those
        of the module docstring.
        """
        lanes = np.asarray(lanes, dtype=float)
        rel = (dq_translation(lanes) - self.box_lo) / self.voxel_size
        vox = np.floor(rel)
        vox -= (vox == self.voxel_counts) & (np.abs(rel - vox) < 1e-9)   # upper face
        tm = self.theta_max
        ang = quat_to_euler(lanes.T[:4]).T
        if abs(tm - np.pi) < 1e-12:
            ang[:, 2] = (ang[:, 2] + np.pi) % (2 * np.pi) - np.pi      # wrap yaw
        n_ori = np.asarray(self.orient_counts)
        ori = np.minimum(np.maximum(np.floor((ang + tm) / (2.0 * tm / n_ori)), 0), n_ori - 1)
        inside = np.all((vox >= 0) & (vox < self.voxel_counts) & (np.abs(ang) <= tm + 1e-9),
                        axis=-1)
        digits = np.where(inside[:, None], np.concatenate([vox, ori], axis=-1), 0)
        flat = np.ravel_multi_index(digits.T.astype(np.intp),
                                    self.voxel_counts + self.orient_counts)
        return np.where(inside, flat, -1)

    def lookup(self, pose) -> FeaResult:
        """Map verdict for the cell containing the pose."""
        idx = int(self.locate_lanes(dq_to_lanes(pose).reshape(1, 8))[0])
        if idx < 0:
            return FeaResult(False, 0.0, UNREACHABLE, None)
        w = self.witnesses[idx]
        witness = None if np.any(np.isnan(w)) else w.astype(float)
        reason = int(self.reasons[idx])
        return FeaResult(reason == OK, float(self.man[idx]), reason, witness)

    def all_cells(self):
        """(voxel, orientation cell) digits of every cell in flat index order."""
        for digits in np.ndindex(*self.voxel_counts, *self.orient_counts):
            yield digits[:3], digits[3:]


def _evaluate_cells(model: RobotModel, obstacles, fmap: FeasibilityMap, indices, seed,
                    seeds_by_cell, spawn_salt) -> tuple:
    """``_fea_batch``'s (reasons, man', witnesses) of the given cells, each
    cell's random seeds drawn from its own (seed, cell index, salt) stream."""
    half_pos = 0.5 * fmap.voxel_size
    half_rot = float(np.min(fmap.theta_max / np.asarray(fmap.orient_counts)))
    digits = np.transpose(np.unravel_index(indices, fmap.voxel_counts + fmap.orient_counts))
    seed_lists = [_draw_seeds(model, seeds_by_cell.get(i, ()), np.random.default_rng(
                      np.random.SeedSequence(seed, spawn_key=(i, spawn_salt))))
                  for i in indices]
    return _fea_batch(_cell_lanes(fmap, digits), seed_lists, model, obstacles, half_pos,
                      half_rot)


def _cell_lanes(fmap: FeasibilityMap, digits) -> np.ndarray:
    """``cell_pose`` of each row of (N, 6) cell digits as (N, 8) lanes: the
    rotation of each orientation cell once, then the dual part
    ``0.5 (0, p) q`` over the voxel centres, in ``from_pose``'s operations."""
    rotations = np.array([fmap.cell_pose(np.zeros(3), ori).real
                          for ori in np.ndindex(*fmap.orient_counts)])
    rw, rx, ry, rz = rotations[np.ravel_multi_index(digits[:, 3:].T, fmap.orient_counts)].T
    px, py, pz = fmap.voxel_center(digits[:, :3]).T
    return np.column_stack([rw, rx, ry, rz, *(0.5 * np.array(_qmul(0.0, px, py, pz,
                                                                  rw, rx, ry, rz)))])


def _neighbor_table(fmap: FeasibilityMap) -> np.ndarray:
    """(cells, 8) flat indices of each cell's adjacent cells, -1 where none:
    -1 then +1 along x, y and z inside the box, then the yaw bins below and
    above (wrapping), each listed once."""
    shape = fmap.voxel_counts + fmap.orient_counts
    digits = np.array(np.unravel_index(np.arange(fmap.n_cells), shape))
    columns = []
    for axis, step in ((0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1), (5, -1), (5, 1)):
        moved = digits.copy()
        moved[axis] += step
        if axis < 5:
            exists = (moved[axis] >= 0) & (moved[axis] < shape[axis])
        else:     # one yaw bin has no neighbour, two have the same one either side
            exists = shape[5] > (1 if step < 0 else 2)
        columns.append(np.where(exists, np.ravel_multi_index(moved, shape, mode="wrap"), -1))
    return np.stack(columns, axis=1)


def _voxel_counts(lo, hi, voxel_size, theta_max, orient_counts) -> tuple:
    """(nx, ny, nz) of the tessellation rule: the box's extent over the voxel
    size, rounded up.  ValueError for a box or voxel size that is not finite,
    an empty tessellation or ``theta_max`` outside (0, pi], or (0, pi/2] over
    several pitch bins: pitch comes from ``arcsin``, so no pose gets beyond."""
    # checked before any arithmetic: an inf would overflow the voxel counts
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(f"workspace box {lo.tolist()}, {hi.tolist()} is not finite")
    if not (np.all(hi > lo) and voxel_size > 0 and min(orient_counts) >= 1):  # NaN fails too
        raise ValueError("empty tessellation")
    if not np.isfinite(voxel_size):
        raise ValueError(f"voxel_size {voxel_size} is not finite")
    if not 0.0 < theta_max <= np.pi:      # False for NaN too
        raise ValueError(f"theta_max {theta_max} is not in (0, pi]")
    if orient_counts[1] > 1 and theta_max > np.pi / 2:
        raise ValueError(f"{orient_counts[1]} pitch bins need theta_max <= pi/2, not {theta_max}")
    return tuple(max(1, int(np.ceil((hi[a] - lo[a]) / voxel_size - 1e-9))) for a in range(3))


def build_map(model: RobotModel, obstacles, workspace_box, voxel_size,
              orientation_spec=(np.pi, (1, 1, 8)), seed=0) -> FeasibilityMap:
    """Evaluate every (voxel, orientation-cell) with a per-cell RNG stream.

    A first pass evaluates every cell independently.  Then up to three
    witness-transfer rounds retry each cell that is not OK and has an OK
    adjacent cell, seeding its IK with those cells' witnesses; a retried cell
    is stored only when it upgrades to OK, and the rounds stop early when
    none does.  Transfer rescues pockets that pure random restarts rarely
    reach, and repeating it lets rescued cells propagate into deeper ones.
    Each pass runs the IK descents of all its cells in lockstep; a cell's
    verdict depends only on (seed, cell index) and the witnesses of the
    passes before.  ``_voxel_counts`` gives the voxel counts and refuses a
    geometry that tessellates nothing.
    """
    lo = np.asarray(workspace_box[0], dtype=float)
    hi = np.asarray(workspace_box[1], dtype=float)
    theta_max, orient_counts = orientation_spec[0], tuple(int(c) for c in orientation_spec[1])
    counts = _voxel_counts(lo, hi, voxel_size, theta_max, orient_counts)
    n_cells = int(np.prod(counts + orient_counts))

    fmap = FeasibilityMap(
        box_lo=lo, box_hi=hi, voxel_size=float(voxel_size),
        voxel_counts=counts, theta_max=float(theta_max),
        orient_counts=orient_counts, dof=model.dof,
        reasons=np.full(n_cells, UNREACHABLE, dtype=np.uint8),
        man=np.zeros(n_cells), witnesses=np.full((n_cells, model.dof), np.nan,
                                                 dtype=np.float32),
        metadata={
            "robot_hash": robot_hash(model),
            "obstacle_hash": obstacles_signature(obstacles),
            "ik_budget": IK_BUDGET,
            "eps_m": EPS_M,
            "seed": int(seed),
        },
    )

    def run_pass(indices, seeds_by_cell, spawn_salt) -> int:
        """Store a pass's verdicts, of a transfer round only the upgrades to
        OK, and return how many it stored."""
        reasons, man, witnesses = _evaluate_cells(model, obstacles, fmap, indices, seed,
                                                  seeds_by_cell, spawn_salt)
        keep = reasons == OK if spawn_salt else slice(None)
        cells = indices[keep]
        fmap.reasons[cells], fmap.witnesses[cells] = reasons[keep], witnesses[keep]
        fmap.man[cells] = _man_fixed(man[keep]) / MAN_FIXED_SCALE
        return len(cells)

    run_pass(np.arange(n_cells), {}, 0)
    neighbors = _neighbor_table(fmap)
    for round_no in range(1, 4):
        ok_neighbor = np.append(fmap.reasons == OK, False)[neighbors]   # -1 reads False
        retry = np.flatnonzero((fmap.reasons != OK) & ok_neighbor.any(axis=1))
        seeds_by_cell = {i: fmap.witnesses[neighbors[i][ok_neighbor[i]]].astype(float)
                         for i in retry}
        if not len(retry) or not run_pass(retry, seeds_by_cell, round_no):
            break
    return fmap


def _man_fixed(man) -> np.ndarray:
    """man' in the map's 16-bit fixed point (the file stores these; the map
    in memory holds them decoded, so RAM == disk)."""
    return np.clip(np.round(np.asarray(man) * MAN_FIXED_SCALE), 0, 65535).astype("<u2")


# ------------------------------------------------------------------ #
# Binary map format
# ------------------------------------------------------------------ #
def map_bytes(fmap: FeasibilityMap) -> bytes:
    """The map file: ``records.pack`` of ``metadata`` and five arrays, the
    geometry (``box_lo``, ``box_hi``, ``voxel_size``, ``theta_max``; f8), the
    counts (``voxel_counts``, ``orient_counts``, ``dof``; u4), ``reasons``
    (u1), ``man`` in 16-bit fixed point (u2) and ``witnesses`` (f4)."""
    geometry = np.concatenate([fmap.box_lo, fmap.box_hi, [fmap.voxel_size, fmap.theta_max]])
    counts = np.array([*fmap.voxel_counts, *fmap.orient_counts, fmap.dof], dtype="<u4")
    return records.pack(_MAGIC, _VERSION, fmap.metadata,
                        [geometry, counts, fmap.reasons.astype(np.uint8), _man_fixed(fmap.man),
                         fmap.witnesses.astype("<f4")])


def save_map(fmap: FeasibilityMap, path) -> None:
    Path(path).write_bytes(map_bytes(fmap))


def load_map(path) -> FeasibilityMap:
    """The map of a ``map_bytes`` file, its ``ik_budget`` and ``seed`` read
    back as int and ``eps_m`` as float.  Raises ValueError for a file
    ``records.unpack`` refuses, for a geometry ``build_map`` would refuse,
    for arrays that disagree with the counts, for voxel counts other than
    ``build_map``'s for the box and voxel size, and for metadata without
    those three keys."""
    meta, arrays = records.unpack(Path(path).read_bytes(), _MAGIC, _VERSION, "feasibility map")
    layout = [(a.dtype.str, a.shape) for a in arrays]
    if layout[:2] != [("<f8", (8,)), ("<u4", (7,))]:
        raise ValueError(f"feasibility map arrays {layout} do not start with the (8,) f8 "
                         "geometry and the (7,) u4 counts")
    geometry, (nx, ny, nz, cx, cy, cz, dof) = arrays[0], arrays[1].tolist()
    try:
        counts = _voxel_counts(geometry[:3], geometry[3:6], *geometry[6:], (cx, cy, cz))
    except ValueError:
        counts = None
    if counts is None or min(nx, ny, nz) < 1:
        raise ValueError(f"feasibility map geometry {geometry.tolist()} (box_lo, box_hi, "
                         f"voxel_size, theta_max) with counts {arrays[1].tolist()[:6]} "
                         "is not a finite, nonempty tessellation with theta_max in (0, pi], "
                         "or (0, pi/2] over several pitch bins")
    n_cells = nx * ny * nz * cx * cy * cz
    if layout[2:] != [("|u1", (n_cells,)), ("<u2", (n_cells,)), ("<f4", (n_cells, dof))]:
        raise ValueError(f"feasibility map arrays {layout[2:]} disagree with {n_cells} cells "
                         f"of dof {dof}")
    if (nx, ny, nz) != counts:
        raise ValueError(f"feasibility map voxel counts {(nx, ny, nz)} disagree with the "
                         f"{counts} of its box and voxel size")
    try:
        metadata = {**meta, "ik_budget": int(meta["ik_budget"]), "eps_m": float(meta["eps_m"]),
                    "seed": int(meta["seed"])}
    except KeyError as key:
        raise ValueError(f"feasibility map metadata lacks {key}") from None
    voxel_size, theta_max = geometry[6:].tolist()
    return FeasibilityMap(geometry[:3], geometry[3:6], voxel_size, (nx, ny, nz), theta_max,
                          (cx, cy, cz), dof, arrays[2], arrays[3] / MAN_FIXED_SCALE, arrays[4],
                          metadata)


# ------------------------------------------------------------------ #
# Trajectory classification
# ------------------------------------------------------------------ #
FJ, NOT_FJ = "FJ", "notFJ"


@dataclass
class Segment:
    start: int          # inclusive pose index
    end: int            # inclusive pose index
    label: str


@dataclass
class SegmentClassification:
    segments: list
    poses: np.ndarray                 # the classified trajectory, (N, 8) lanes
    feasible_mask: np.ndarray

    def infeasible_brackets(self):
        """(segment, start pose or None, goal pose or None) per notFJ segment.

        The brackets are the nearest feasible rows of ``poses`` before/after
        the segment, the start/goal handed to the joint-space bridge planner.
        """
        out = []
        for seg in self.segments:
            if seg.label != NOT_FJ:
                continue
            before = self.poses[seg.start - 1] if seg.start > 0 else None
            after = self.poses[seg.end + 1] if seg.end + 1 < len(self.poses) else None
            out.append((seg, before, after))
        return out


def classify_trajectory(poses, fmap: FeasibilityMap) -> SegmentClassification:
    """Split a task-space trajectory into maximal FJ / notFJ runs, from one
    ``locate_lanes`` call over all its poses."""
    lanes = dq_to_lanes(poses)
    if len(lanes) < 2:
        raise ValueError("trajectory must have at least 2 poses")
    cells = fmap.locate_lanes(lanes)
    mask = (cells >= 0) & (fmap.reasons[cells] == OK)
    bounds = (np.flatnonzero(mask[1:] != mask[:-1]) + 1).tolist()
    starts, ends = [0] + bounds, [b - 1 for b in bounds] + [len(lanes) - 1]
    segments = [Segment(s, e, FJ if mask[s] else NOT_FJ) for s, e in zip(starts, ends)]
    return SegmentClassification(segments, lanes, mask)
