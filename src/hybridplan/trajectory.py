"""Joint-space trajectory container with per-point annotations."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SOURCE_LFD, SOURCE_DRL = 0, 1
SOURCE_NAMES = {SOURCE_LFD: "LFD", SOURCE_DRL: "DRL"}


@dataclass(eq=False)
class JointTrajectory:
    points: np.ndarray                  # (k, dof) radians
    source: np.ndarray = None           # (k,) uint8, SOURCE_LFD / SOURCE_DRL
    man: np.ndarray = None              # (k,) normalized manipulability
    col: np.ndarray = None              # (k,) collision index
    success: bool = True
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        k = len(self.points)
        if self.source is None:
            self.source = np.zeros(k, dtype=np.uint8)
        if self.man is None:
            self.man = np.zeros(k)
        if self.col is None:
            self.col = np.zeros(k, dtype=np.uint8)
        for arr in (self.source, self.man, self.col):
            if len(arr) != k:
                raise ValueError("annotation length mismatch")

    def __len__(self) -> int:
        return len(self.points)

    def max_step(self) -> float:
        """Largest inter-waypoint joint move (infinity norm), radians."""
        if len(self.points) < 2:
            return 0.0
        return float(np.max(np.abs(np.diff(self.points, axis=0))))

    def concat(self, other: "JointTrajectory") -> "JointTrajectory":
        return JointTrajectory(
            np.vstack([self.points, other.points]),
            np.concatenate([self.source, other.source]),
            np.concatenate([self.man, other.man]),
            np.concatenate([self.col, other.col]),
            self.success and other.success)


def save_joint_trajectory(traj: JointTrajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# joints {traj.points.shape[1]} success {1 if traj.success else 0}\n")
        for p, s, m, c in zip(traj.points, traj.source, traj.man, traj.col):
            vals = " ".join("%.17g" % x for x in p)
            fh.write(f"{vals} {int(s)} {m:.6g} {int(c)}\n")


def load_joint_trajectory(path) -> JointTrajectory:
    points, source, man, col = [], [], [], []
    success = True
    dof = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tok = line.split()
                if "joints" in tok:
                    dof = int(tok[tok.index("joints") + 1])
                if "success" in tok:
                    success = tok[tok.index("success") + 1] == "1"
                continue
            vals = line.split()
            points.append([float(v) for v in vals[:-3]])
            source.append(int(vals[-3]))
            man.append(float(vals[-2]))
            col.append(int(vals[-1]))
    points = np.array(points, dtype=float)
    if dof is not None:
        points = points.reshape(-1, dof)     # a 0-point file keeps its dof
    return JointTrajectory(points, np.array(source, dtype=np.uint8),
                           np.array(man), np.array(col, dtype=np.uint8), success)
