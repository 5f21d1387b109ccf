import numpy as np
import pytest

from scalar_reference import unannotated
from hybridplan.trajectory import JointTrajectory


def annotated(k=5, dof=3, seed=0, success=True):
    rng = np.random.default_rng(seed)
    return JointTrajectory(rng.uniform(-2.0, 2.0, (k, dof)),
                           rng.integers(0, 2, k).astype(np.uint8),
                           rng.uniform(0.0, 1.5, k),
                           rng.integers(0, 2, k).astype(np.uint8),
                           success)


# ------------------------------------------------------------------ #
# container
# ------------------------------------------------------------------ #
def test_one_point_is_promoted_to_a_row():
    traj = unannotated([0.1, 0.2, 0.3])
    assert len(traj) == 1 and traj.points.shape == (1, 3) and traj.success


@pytest.mark.parametrize("field", ["source", "man", "col"])
def test_annotation_length_mismatch_rejected(field):
    annotations = {name: np.zeros(2 if name == field else 3) for name in ("source", "man", "col")}
    with pytest.raises(ValueError, match="annotation length mismatch"):
        JointTrajectory(np.zeros((3, 2)), **annotations)


@pytest.mark.parametrize("given", ["man", "col"])
def test_one_annotation_without_the_other_rejected(given):
    with pytest.raises(ValueError, match="man and col must be given together"):
        JointTrajectory(np.zeros((3, 2)), np.zeros(3, np.uint8), **{given: np.zeros(3)})


def test_max_step_is_the_largest_joint_move():
    traj = unannotated([[0.0, 0.0], [0.1, -0.3], [0.3, -0.2]])
    assert traj.max_step() == pytest.approx(0.3)
    assert unannotated([[1.0, 2.0]]).max_step() == 0.0
    assert unannotated(np.zeros((0, 2))).max_step() == 0.0


@pytest.mark.parametrize("sizes", [(3, 4), (3, 4, 2), (3, 0, 4)],
                         ids=["two parts", "three parts", "an empty part"])
def test_concat_keeps_order_and_ands_success(sizes):
    parts = [annotated(k, seed=s) for s, k in enumerate(sizes, start=1)]
    parts[1].success = False
    out = parts[0].concat(*parts[1:])
    assert len(out) == sum(sizes)
    np.testing.assert_array_equal(out.points, np.vstack([p.points for p in parts]))
    np.testing.assert_array_equal(out.source, np.concatenate([p.source for p in parts]))
    assert out.man is None and out.col is None        # the joined path is unscored
    assert not out.success and not parts[-1].concat(*parts[:-1]).success
    assert parts[0].concat(*parts[2:], annotated(2, seed=9)).success


def test_slice_keeps_rows_annotations_and_success():
    traj = annotated(6, seed=5, success=False)
    for rows in (slice(1, 4), slice(4, None), slice(3, 3)):
        part = traj[rows]
        for name in ("points", "source", "man", "col"):
            np.testing.assert_array_equal(getattr(part, name), getattr(traj, name)[rows])
        assert part.points.shape[1] == 3 and not part.success
        bare = traj.concat()[rows]
        np.testing.assert_array_equal(bare.points, traj.points[rows])
        assert bare.man is None and bare.col is None

