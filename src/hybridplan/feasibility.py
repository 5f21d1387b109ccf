"""Workspace feasibility: per-configuration checks, the tessellated map, and
trajectory segment classification.

A configuration is feasible when an inverse-kinematics witness exists within
joint limits that is collision-free and keeps normalized manipulability above
a threshold.  The map discretizes the workspace into position voxels crossed
with orientation cells and stores the verdict, the manipulability value, and
the witness joint vector for every cell.  Cell semantics are existential: the
cell is feasible if any witness lands inside it, so the per-cell IK tolerance
is half the cell extent.

Poses are 8-vectors or (N, 8) lanes (``dq_to_lanes`` also takes
``DualQuaternion``s); a classification keeps its trajectory's lanes and its
brackets are rows of them.  Map lookups run on lanes (``locate_lanes``).  A
pose's voxel is ``floor((p - box_lo) / voxel_size)`` per axis; a pose within
1e-9 (in voxel units) of the box's upper face belongs to the last voxel.  Its
orientation cell bins the ``quat_to_euler`` angles (roll, pitch, yaw) into
equal widths over [-theta_max, theta_max], with yaw first wrapped into
[-pi, pi) when theta_max is pi; an angle up to 1e-9 beyond the range is
clipped into the end bin.  Any other pose is outside the map.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hybridplan import records
from hybridplan.dualquat import (
    DualQuaternion,
    dq_to_lanes,
    dq_translation,
    quat_from_euler,
    quat_to_euler,
)
from hybridplan.geometry import collision_index, obstacle_line, pose_must_collide
from hybridplan.kinematics import (
    RobotModel,
    ik_attempt,
    ik_descend,
    normalized_manipulability,
    robot_hash,
)

OK, UNREACHABLE, COLLISION, LOW_MANIP = 0, 1, 2, 3

MAN_FIXED_SCALE = 4096.0      # man' stored as 16-bit fixed point
FEA_MAX_ITERS = 80            # DLS iterations per feasibility descent
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


def fea(pose, model: RobotModel, obstacles, eps_m=0.1,
        ik_budget=20, rng=None, tol_pos=1e-3, tol_rot=1e-2, max_iters=FEA_MAX_ITERS,
        extra_seeds=()) -> FeaResult:
    """Feasibility of one end-effector pose.

    Runs one IK descent per seed: every caller-provided seed, then the home
    configuration, then random seeds from ``rng`` until ``ik_budget`` seeds
    are reached.  Caller seeds are all tried, even past ``ik_budget``.
    Existential over witnesses: the first witness in seed order that is
    reachable, collision-free, and above the manipulability threshold
    decides feasibility; otherwise the reason reports the first criterion
    that every witness failed, checked in the order reachability, collision,
    manipulability.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    seeds = _draw_seeds(model, extra_seeds, ik_budget, rng)
    return _fea_batch(dq_to_lanes(pose).reshape(1, 8), [seeds], model, obstacles, eps_m,
                      tol_pos, tol_rot, max_iters)[0]


def ik_free(model: RobotModel, pose, obstacles, rng, attempts=10, tol_pos=1e-3,
            tol_rot=1e-2, seed=None):
    """IK preferring a collision-free witness; falls back to any solution.

    Descends from ``seed`` (home when None), then from a uniform random seed
    drawn from ``rng`` after every attempt without a collision-free solution,
    ``attempts`` descents in all.  Returns the first collision-free solution,
    else the first solution reached, else None.  When ``pose_must_collide``
    certifies the pose, no solution can be free: the first one reached is
    returned without its collision check or the remaining descents, and the
    seeds those descents would have used are still drawn, so ``rng`` ends
    where the full loop leaves it.
    """
    lo, hi = model.limits_lo, model.limits_hi
    seed = model.home if seed is None else seed
    fallback = None
    for k in range(attempts):
        sol = ik_attempt(model, pose, seed, tol_pos, tol_rot, max_iters=150)
        if sol is not None:
            if fallback is None and pose_must_collide(model, pose, obstacles, tol_pos, tol_rot):
                for _ in range(attempts - k):
                    rng.uniform(lo, hi)
                return sol
            if collision_index(model, sol, obstacles) == 0:
                return sol
            if fallback is None:
                fallback = sol
        seed = rng.uniform(lo, hi)
    return fallback


def _draw_seeds(model: RobotModel, extra_seeds, ik_budget, rng) -> list:
    """IK seeds of one pose: caller seeds, home, then uniform random seeds."""
    seeds = [np.asarray(s, dtype=float) for s in extra_seeds]
    seeds.append(model.home)
    lo, hi = model.limits_lo, model.limits_hi
    while len(seeds) < ik_budget:
        seeds.append(rng.uniform(lo, hi))
    return seeds


def _fea_batch(lanes, seed_lists, model: RobotModel, obstacles, eps_m, tol_pos,
               tol_rot, max_iters) -> list:
    """``fea`` of (P, 8) pose lanes: every seed of every pose descends as one
    ``ik_descend``, then each pose's witnesses are judged in seed order."""
    targets = np.repeat(lanes, [len(seeds) for seeds in seed_lists], axis=0)
    sols = ik_descend(model, targets, np.concatenate(seed_lists).reshape(-1, model.dof),
                      tol_pos, tol_rot, max_iters)
    results, start = [], 0
    for seeds in seed_lists:
        results.append(_judge(sols[start:start + len(seeds)], model, obstacles, eps_m))
        start += len(seeds)
    return results


def _judge(sols, model: RobotModel, obstacles, eps_m) -> FeaResult:
    """Verdict over one pose's descents (NaN rows did not reach)."""
    reached = False
    best_free = None       # (man', witness) best collision-free witness
    best_any = None        # (man', witness) best witness of any kind
    for sol in sols:
        if np.isnan(sol[0]):
            continue
        reached = True
        mp = normalized_manipulability(model, sol)
        if best_any is None or mp > best_any[0]:
            best_any = (mp, sol)
        if collision_index(model, sol, obstacles) == 0:
            if best_free is None or mp > best_free[0]:
                best_free = (mp, sol)
            if mp >= eps_m:
                return FeaResult(True, mp, OK, sol)
    if not reached:
        return FeaResult(False, 0.0, UNREACHABLE, None)
    if best_free is None:
        return FeaResult(False, best_any[0], COLLISION, best_any[1])
    return FeaResult(False, best_free[0], LOW_MANIP, best_free[1])


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

    def cell_index(self, vox, ori) -> int:
        nx, ny, nz = self.voxel_counts
        cx, cy, cz = self.orient_counts
        v = (vox[0] * ny + vox[1]) * nz + vox[2]
        o = (ori[0] * cy + ori[1]) * cz + ori[2]
        return v * self.n_orient + o

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
        nx, ny, nz = self.voxel_counts
        cx, cy, cz = self.orient_counts
        for ix in range(nx):
            for iy in range(ny):
                for iz in range(nz):
                    for ir in range(cx):
                        for ip in range(cy):
                            for iw in range(cz):
                                yield (ix, iy, iz), (ir, ip, iw)


def _evaluate_cells(model: RobotModel, obstacles, fmap: FeasibilityMap, indices, seed,
                    eps_m, ik_budget, seeds_by_cell, spawn_salt) -> list:
    """(cell index, FeaResult) for the given cells, each cell's random seeds
    drawn from its own (seed, cell index, salt) stream."""
    half_pos = 0.5 * fmap.voxel_size
    half_rot = float(np.min(fmap.theta_max / np.asarray(fmap.orient_counts)))
    cells = list(fmap.all_cells())
    poses, seed_lists = [], []
    for i in indices:
        poses.append(fmap.cell_pose(*cells[i]))
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(i, spawn_salt)))
        extra = () if seeds_by_cell is None else seeds_by_cell.get(i, ())
        seed_lists.append(_draw_seeds(model, extra, ik_budget, rng))
    results = _fea_batch(dq_to_lanes(poses), seed_lists, model, obstacles, eps_m, half_pos,
                         half_rot, FEA_MAX_ITERS)
    return list(zip(indices, results))


def _neighbor_indices(fmap: FeasibilityMap, vox, ori):
    """Adjacent cells: +-1 per position axis and +-1 yaw bin (wrapping)."""
    out = []
    nx, ny, nz = fmap.voxel_counts
    for a, n in ((0, nx), (1, ny), (2, nz)):
        for d in (-1, 1):
            v = list(vox)
            v[a] += d
            if 0 <= v[a] < n:
                out.append(fmap.cell_index(tuple(v), ori))
    cz = fmap.orient_counts[2]
    if cz > 1:
        for d in (-1, 1):
            o = list(ori)
            o[2] = (o[2] + d) % cz
            out.append(fmap.cell_index(vox, tuple(o)))
    return out


def build_map(model: RobotModel, obstacles, workspace_box, voxel_size,
              orientation_spec=(np.pi, (1, 1, 8)), eps_m=0.1, seed=0,
              ik_budget=12) -> FeasibilityMap:
    """Evaluate every (voxel, orientation-cell) with a per-cell RNG stream.

    Two passes: the first evaluates cells independently; the second retries
    infeasible cells seeding IK with the witnesses of adjacent first-pass
    cells (witness transfer), which rescues pockets that pure random restarts
    rarely reach.  Each pass runs the IK descents of all its cells in
    lockstep; a cell's verdict depends only on (seed, cell index) and the
    witnesses of the passes before.
    """
    lo = np.asarray(workspace_box[0], dtype=float)
    hi = np.asarray(workspace_box[1], dtype=float)
    if not np.all(hi > lo) or voxel_size <= 0:
        raise ValueError("empty tessellation")
    counts = tuple(max(1, int(np.ceil((hi[a] - lo[a]) / voxel_size - 1e-9)))
                   for a in range(3))
    theta_max, orient_counts = orientation_spec
    orient_counts = tuple(int(c) for c in orient_counts)
    if min(orient_counts) < 1:
        raise ValueError("empty tessellation")
    n_orient = int(np.prod(orient_counts))
    n_cells = int(np.prod(counts)) * n_orient
    if n_cells == 0:
        raise ValueError("empty tessellation")

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
            "ik_budget": int(ik_budget),
            "eps_m": float(eps_m),
            "seed": int(seed),
        },
    )

    def run_pass(indices, seeds_by_cell, spawn_salt):
        return _evaluate_cells(model, obstacles, fmap, indices, seed, eps_m,
                               ik_budget, seeds_by_cell, spawn_salt)

    def store(flat):
        for i, res in flat:
            fmap.reasons[i] = res.reason
            fmap.man[i] = _man_roundtrip(res.man_prime)
            if res.witness is not None:
                fmap.witnesses[i] = res.witness

    store(run_pass(list(range(n_cells)), None, 0))

    # witness transfer: retry infeasible cells seeded from feasible neighbors,
    # repeated so rescued cells propagate into deeper pockets
    cells = list(fmap.all_cells())
    for round_no in range(1, 4):
        retry, seeds_by_cell = [], {}
        for i, (vox, ori) in enumerate(cells):
            if fmap.reasons[i] == OK:
                continue
            neigh = [fmap.witnesses[j].astype(float)
                     for j in _neighbor_indices(fmap, vox, ori)
                     if fmap.reasons[j] == OK and not np.any(np.isnan(fmap.witnesses[j]))]
            if neigh:
                retry.append(i)
                seeds_by_cell[i] = neigh
        if not retry:
            break
        upgraded = [(i, res) for i, res in run_pass(retry, seeds_by_cell, round_no)
                    if res.reason == OK]
        store(upgraded)
        if not upgraded:
            break
    return fmap


def _man_roundtrip(v: float) -> float:
    """Quantize man' like the 16-bit file encoding so RAM == disk."""
    fixed = min(max(round(v * MAN_FIXED_SCALE), 0), 65535)
    return fixed / MAN_FIXED_SCALE


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
    man_fixed = np.clip(np.round(fmap.man * MAN_FIXED_SCALE), 0, 65535).astype("<u2")
    return records.pack(_MAGIC, _VERSION, fmap.metadata,
                        [geometry, counts, fmap.reasons.astype(np.uint8), man_fixed,
                         fmap.witnesses.astype("<f4")])


def save_map(fmap: FeasibilityMap, path) -> None:
    Path(path).write_bytes(map_bytes(fmap))


def load_map(path) -> FeasibilityMap:
    """The map of a ``map_bytes`` file, its ``ik_budget`` and ``seed`` read
    back as int and ``eps_m`` as float.  Raises ValueError for a file
    ``records.unpack`` refuses, for a geometry ``build_map`` would refuse or
    that is not finite, for arrays that disagree with the counts and for
    metadata without those three keys."""
    meta, arrays = records.unpack(Path(path).read_bytes(), _MAGIC, _VERSION, "feasibility map")
    layout = [(a.dtype.str, a.shape) for a in arrays]
    if layout[:2] != [("<f8", (8,)), ("<u4", (7,))]:
        raise ValueError(f"feasibility map arrays {layout} do not start with the (8,) f8 "
                         "geometry and the (7,) u4 counts")
    geometry, (nx, ny, nz, cx, cy, cz, dof) = arrays[0], arrays[1].tolist()
    # build_map's rule: a nonempty box, a positive voxel size, every count >= 1
    if not (np.all(np.isfinite(geometry)) and np.all(geometry[3:6] > geometry[:3])
            and geometry[6] > 0.0 and min(nx, ny, nz, cx, cy, cz) >= 1):
        raise ValueError(f"feasibility map geometry {geometry.tolist()} (box_lo, box_hi, "
                         f"voxel_size, theta_max) with counts {arrays[1].tolist()[:6]} "
                         "is not a finite, nonempty tessellation")
    n_cells = nx * ny * nz * cx * cy * cz
    if layout[2:] != [("|u1", (n_cells,)), ("<u2", (n_cells,)), ("<f4", (n_cells, dof))]:
        raise ValueError(f"feasibility map arrays {layout[2:]} disagree with {n_cells} cells "
                         f"of dof {dof}")
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
