"""Joint-space trajectory container with per-point annotations."""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hybridplan import records

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
    head = f"# joints {traj.points.shape[1]} success {int(traj.success)}"
    records.write(path, [head] + [records.line(p, s, "%.6g" % m, c) for p, s, m, c
                                  in zip(traj.points, traj.source, traj.man, traj.col)])


def load_joint_trajectory(path) -> JointTrajectory:
    """Read a ``save_joint_trajectory`` file: the ``# joints N success B``
    header, then one row per point of N joint values, source, man and col."""
    header, _, body = Path(path).read_text().partition("\n")
    m = re.fullmatch(r"#\s*joints\s+(\d+)\s+success\s+([01])", header.strip())
    if not m:
        raise ValueError(f"joint trajectory header {header.strip()!r}: expected "
                         "'# joints N success 0|1'")
    dof = int(m.group(1))
    rows = records.read_table(body, dof + 3, "joint trajectory")
    if not np.isin(rows[:, [dof, dof + 2]], (0, 1)).all():
        raise ValueError("joint trajectory source and col fields must be 0 or 1")
    return JointTrajectory(rows[:, :dof], rows[:, dof].astype(np.uint8), rows[:, dof + 1],
                           rows[:, dof + 2].astype(np.uint8), m.group(2) == "1")
