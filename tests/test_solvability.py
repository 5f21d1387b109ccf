"""Which benchmark tasks any planner could solve: a grid oracle over the free
configuration space of the ``hybrid`` workload's planar 3R arm.

The free nodes of a 5-degree joint grid within the limits are labelled by
26-connected component.  A task is certified when, for each pair of
consecutive configurations, some collision-free closed-form branch of each
lies in a shared component; a branch's components are those of the free
nodes in the 3x3x3 block around its rounded node.  The node check is
optimistic between nodes, so a split on the grid is a real split unless a
passage is narrower than one step.
"""
import numpy as np

from hybridplan.dualquat import dq_to_lanes
from hybridplan.geometry import collision_index_lanes
from hybridplan.kinematics import closed_form_branches

STEP = np.radians(5.0)
CHUNK = 20_000                  # grid nodes per lane collision check
# seed-1 crossing instances that no free branch pair joins on the grid: their
# starts lie in the joint-1 < 0 component and their goals behind the wall in
# the joint-1 >= 0 one.  A scene or sampling fix must shrink this list.
UNCERTIFIED_CROSSING = {f"cross{k}" for k in (
    6, 9, 13, 16, 19, 23, 29, 33, 39, 43, 46, 49, 53, 56, 59, 66, 69, 73, 76, 83, 86, 96, 99)}


def free_grid(model, obstacles):
    """The collision-free nodes of the joint grid, padded by one non-free node
    on every side."""
    axes = [np.linspace(lo, hi, int(round((hi - lo) / STEP)) + 1)
            for lo, hi in zip(model.limits_lo, model.limits_hi)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, model.dof)
    col = np.concatenate([collision_index_lanes(model, nodes[k:k + CHUNK], obstacles)
                          for k in range(0, len(nodes), CHUNK)])
    return np.pad((col == 0).reshape([len(a) for a in axes]), 1)


def box_min(a):
    """The minimum over each interior node's 3x3x3 block, one pass per axis;
    the border nodes keep their values."""
    a = a.copy()
    for axis in range(a.ndim):
        v = np.moveaxis(a, axis, 0)             # a view: the writes land in ``a``
        v[1:-1] = np.minimum(np.minimum(v[:-2], v[1:-1]), v[2:])
    return a


def component_labels(free):
    """Each free node's 26-connected component, labelled by its smallest flat
    index; ``free.size`` on the other nodes."""
    empty = free.size
    labels = np.where(free, np.arange(free.size).reshape(free.shape), empty)
    while True:
        spread = np.where(free, box_min(labels), empty)
        if np.array_equal(spread, labels):
            return labels
        labels = spread


def branch_components(model, obstacles, lanes, labels):
    """Per pose of ``lanes``, the components of its collision-free branches."""
    out = []
    for rows in closed_form_branches(model, lanes, 1e-3):
        rows = rows[~np.isnan(rows[:, 0])]
        if len(rows):
            rows = rows[collision_index_lanes(model, rows, obstacles) == 0]
        found = set()
        for row in rows:
            at = np.rint((row - model.limits_lo) / STEP).astype(int) + 1     # past the padding
            block = labels[tuple(slice(i - 1, i + 2) for i in at)]
            found |= set(block[block < labels.size].tolist())
        out.append(found)
    return out


def test_hybrid_seed_1_crossing_tasks_the_grid_cannot_certify_are_listed(hybrid_workloads):
    wl = hybrid_workloads[0]
    model, obstacles = wl.model, wl.cell.obstacles
    labels = component_labels(free_grid(model, obstacles))
    _, sizes = np.unique(labels[labels < labels.size], return_counts=True)
    # the wall and the +-175 degree limit of joint 1 split the free space in two
    assert sorted(sizes)[-2:] == [105_740, 115_256]
    uncertified = set()
    for task in wl.instances:
        found = branch_components(model, obstacles, dq_to_lanes(task.configs), labels)
        if not all(a & b for a, b in zip(found[:-1], found[1:])):
            uncertified.add(task.id)
    assert sum(task.id.startswith("side") for task in wl.instances) == 70
    assert uncertified == UNCERTIFIED_CROSSING          # every same-side task is certified
