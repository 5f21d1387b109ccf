"""Joint-space trajectory container with per-point annotations, and the one
rule for the edges of a ``(k, dof)`` joint path: an edge's step is the
infinity norm of its joint difference (``edge_steps``), and an edge is split
into ``ceil(step / bound)`` equal pieces, inserting ``a + (j / pieces) * (b - a)``
(``subdivide``, which refuses a path with a NaN or infinite entry).
``densify`` splits at the smoothness bound, ``blend`` at its step cap (at
most ``blend_points`` rows), and ``execute``'s path collision check at
``COLLISION_RES_DEG``.  ``densify`` and the collision check first refuse a
path outside the joint limits (``RobotModel.refuse_outside_limits``), so an
edge's pieces are bounded by the limits' span, not by its input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOURCE_LFD, SOURCE_DRL = 0, 1


@dataclass(eq=False)
class JointTrajectory:
    points: np.ndarray                  # (k, dof) radians
    source: np.ndarray                  # (k,) uint8, SOURCE_LFD / SOURCE_DRL
    man: np.ndarray                     # (k,) normalized manipulability
    col: np.ndarray                     # (k,) collision index
    success: bool = True

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        k = len(self.points)
        for arr in (self.source, self.man, self.col):
            if len(arr) != k:
                raise ValueError("annotation length mismatch")

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, rows: slice) -> "JointTrajectory":
        """The points ``rows`` (a slice) with their annotations and this
        trajectory's success; the arrays are views of this trajectory's."""
        return JointTrajectory(self.points[rows], self.source[rows], self.man[rows],
                               self.col[rows], self.success)

    def max_step(self) -> float:
        """Largest edge step (``edge_steps``), radians; 0.0 below two points."""
        return float(np.max(edge_steps(self.points), initial=0.0))

    def concat(self, *others: "JointTrajectory") -> "JointTrajectory":
        """This trajectory followed by ``others``; successful when all are."""
        parts = (self, *others)
        return JointTrajectory(*(np.concatenate([getattr(p, name) for p in parts])
                                 for name in ("points", "source", "man", "col")),
                               all(p.success for p in parts))


def edge_steps(points) -> np.ndarray:
    """The ``(k - 1,)`` infinity-norm joint steps of a ``(k, dof)`` path."""
    return np.max(np.abs(np.diff(np.asarray(points, dtype=float), axis=0)), axis=1)


def subdivide(points, bound, most=np.inf):
    """Split each edge of a ``(k, dof)`` path into ``ceil(step / bound)``
    equal steps, at most ``most``; an edge of 0 or 1 pieces is left as it is.
    Returns the rows in path order and the row of each original point.  A
    NaN or infinite joint value is refused before any arithmetic."""
    points = np.asarray(points, dtype=float)
    if not np.isfinite(points).all():
        raise ValueError(f"joint path row {np.argmin(np.isfinite(points).all(axis=-1))} "
                         "is not finite")
    pieces = np.minimum(np.ceil(edge_steps(points) / bound), most)
    # rows from each point up to the next one: the point and its edge's inserts
    per_point = np.append(np.maximum(pieces, 1), 1)[:len(points)].astype(int)
    at = np.cumsum(per_point) - per_point
    start = np.repeat(np.arange(len(points)), per_point)     # each row's edge start
    u = (np.arange(len(start)) - at[start]) / per_point[start]
    end = points[np.minimum(start + 1, len(points) - 1)]
    rows = points[start] + u[:, None] * (end - points[start])
    rows[at] = points
    return rows, at

