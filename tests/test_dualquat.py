import math
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from hybridplan import dualquat, lfd
from hybridplan.dualquat import (
    DualQuaternion,
    dq_mul,
    dq_mul_lanes,
    dq_sclerp,
    dq_sclerp_lanes,
    dq_to_lanes,
    dq_translation,
    quat_conj,
    quat_from_euler,
    quat_mul,
    quat_to_euler,
)


# ------------------------------------------------------------------ #
# Independent 4x4 homogeneous-matrix oracle (Rodrigues, no library code)
# ------------------------------------------------------------------ #
def rodrigues(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def homogeneous(axis, angle, t):
    H = np.eye(4)
    H[:3, :3] = rodrigues(axis, angle)
    H[:3, 3] = t
    return H


def dq_to_homogeneous(d):
    pos, (w, x, y, z) = d.translation(), d.real
    R = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    H = np.eye(4)
    H[:3, :3] = R
    H[:3, 3] = pos
    return H


def random_unit_dq(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    t = rng.uniform(-2, 2, size=3)
    return DualQuaternion.from_pose(t, q)


# ------------------------------------------------------------------ #
# dq_mul
# ------------------------------------------------------------------ #
def test_mul_identity():
    rng = np.random.default_rng(0)
    d = random_unit_dq(rng)
    out = dq_mul(DualQuaternion.identity(), d)
    np.testing.assert_allclose(out.as_array(), d.as_array(), atol=1e-12)


def test_mul_commuting_translations():
    a = DualQuaternion.from_translation([1.0, 0, 0])
    b = DualQuaternion.from_translation([2.0, 0, 0])
    out = dq_mul(a, b)
    np.testing.assert_allclose(out.translation(), [3.0, 0, 0], atol=1e-12)


def test_mul_rotation_then_translation_matches_matrix_oracle():
    # (rotZ 90deg) o (translate +x by 1): the translation lands on +y
    rot = DualQuaternion.from_pose([0, 0, 0], (np.array([0, 0, 1.0]), np.pi / 2))
    tra = DualQuaternion.from_translation([1.0, 0, 0])
    got = dq_mul(rot, tra)
    np.testing.assert_allclose(got.translation(), [0, 1, 0], atol=1e-12)

    H = homogeneous([0, 0, 1], np.pi / 2, [0, 0, 0]) @ homogeneous([0, 0, 1], 0, [1, 0, 0])
    np.testing.assert_allclose(dq_to_homogeneous(got), H, atol=1e-12)


def test_mul_random_pairs_match_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        axis_a, axis_b = rng.normal(size=3), rng.normal(size=3)
        ang_a, ang_b = rng.uniform(-np.pi, np.pi, size=2)
        ta, tb = rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3)
        a = DualQuaternion.from_pose(ta, (axis_a, ang_a))
        b = DualQuaternion.from_pose(tb, (axis_b, ang_b))
        H = homogeneous(axis_a, ang_a, ta) @ homogeneous(axis_b, ang_b, tb)
        np.testing.assert_allclose(dq_to_homogeneous(dq_mul(a, b)), H, atol=1e-9)


# ------------------------------------------------------------------ #
# conjugate
# ------------------------------------------------------------------ #
def test_conjugate_identity():
    e = DualQuaternion.identity()
    np.testing.assert_allclose(e.conjugate().as_array(), e.as_array(), atol=0)


def test_conjugate_pure_translation():
    d = DualQuaternion.from_translation([0.3, -0.7, 2.0])
    np.testing.assert_allclose(d.conjugate().translation(), [-0.3, 0.7, -2.0], atol=1e-12)


def test_conjugate_is_inverse_over_random_samples():
    rng = np.random.default_rng(2)
    eye = DualQuaternion.identity().as_array()
    for _ in range(1000):
        d = random_unit_dq(rng)
        prod = dq_mul(d.conjugate(), d)
        arr = prod.as_array()
        if arr[0] < 0:
            arr = -arr
        np.testing.assert_allclose(arr, eye, atol=1e-9)


# ------------------------------------------------------------------ #
# from_pose / to_pose
# ------------------------------------------------------------------ #
def test_from_pose_identity():
    d = DualQuaternion.from_pose([0, 0, 0], np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(d.as_array(), DualQuaternion.identity().as_array(), atol=0)


def test_from_pose_dual_part_hand_expansion():
    # pure translation (1,2,3): dual = 0.5 * (0,1,2,3) * (1,0,0,0)
    d = DualQuaternion.from_pose([1, 2, 3], np.array([1.0, 0, 0, 0]))
    np.testing.assert_allclose(d.dual, 0.5 * np.array([0, 1, 2, 3]), atol=0)


def test_from_pose_half_turn_about_z():
    d = DualQuaternion.from_pose([0, 0, 0], (np.array([0, 0, 1.0]), np.pi))
    np.testing.assert_allclose(d.real, [0, 0, 0, 1], atol=1e-15)
    np.testing.assert_allclose(d.dual, np.zeros(4), atol=1e-15)


def test_from_pose_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(500):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        t = rng.uniform(-5, 5, size=3)
        d = DualQuaternion.from_pose(t, q)
        pos, rot = d.translation(), d.real
        np.testing.assert_allclose(pos, t, atol=1e-9)
        if np.dot(rot, q) < 0:
            rot = -rot
        np.testing.assert_allclose(rot, q, atol=1e-9)


def test_from_pose_degenerate_rotation():
    with pytest.raises(ValueError, match="degenerate rotation"):
        DualQuaternion.from_pose([0, 0, 0], np.zeros(4))


def signed_zeros(rng, x, share=0.1):
    """x with about ``share`` of its entries set to +0.0 and as many to -0.0."""
    x = x.copy()
    x[rng.random(x.shape) < share] = 0.0
    x[rng.random(x.shape) < share] = -0.0
    return x


# an axis whose float sum-of-squares norm rounds differently from
# np.linalg.norm's dot product
SUM_OF_SQUARES_AXIS = [0.1, 0.1, 0.8]


def test_one_pose_on_floats_equals_the_array_form_bit_for_bit():
    x, y, z = SUM_OF_SQUARES_AXIS
    assert np.sqrt(x * x + y * y + z * z) != np.linalg.norm(SUM_OF_SQUARES_AXIS)
    rng = np.random.default_rng(31)
    n = 10_000
    scale = 10.0 ** rng.uniform(-3, 3, (n, 1))
    axes = signed_zeros(rng, rng.normal(size=(n, 3)) * scale)
    axes[~np.any(axes, axis=1), 2] = -1.0            # no zero axis
    axes[0] = SUM_OF_SQUARES_AXIS
    quats = signed_zeros(rng, rng.normal(size=(n, 4)) * scale)
    quats[~np.any(quats, axis=1), 0] = -2.0
    angles = signed_zeros(rng, rng.uniform(-1e4, 1e4, n) * 10.0 ** rng.uniform(-6, 0, n))
    shifts = signed_zeros(rng, rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1)))
    for k in range(n):
        axis, angle, q, t = axes[k], angles[k], quats[k], shifts[k]
        # the reference reads a tuple as (axis, angle), the library by its length
        for rotation, as_ref in (((axis, angle), (axis, angle)), (q, q), (tuple(q.tolist()), q)):
            got, want = DualQuaternion.from_pose(t, rotation), ref.from_pose(t, as_ref)
            assert got.as_array().tobytes() == want.as_array().tobytes()
            assert got.translation().tobytes() == ref.translation(got.as_array()).tobytes()
        assert (dualquat.quat_from_axis_angle(axis, angle).tobytes()
                == ref.quat_from_axis_angle(axis, angle).tobytes())
        assert dualquat.quat_normalize(q).tobytes() == ref.quat_normalize(q).tobytes()
        angles3 = angles[[k, k - 1, k - 2]]
        assert quat_from_euler(*angles3).tobytes() == ref.quat_from_euler(*angles3).tobytes()


def test_euler_of_float_quaternions_equals_the_array_form_bit_for_bit():
    """``_euler_floats``, the JO and TO blocks of a one-lane DRL step, equals
    ``quat_to_euler`` of the lane arrays on 10,000 unit quaternions; a
    ``math.atan2``/``math.asin`` form would not."""
    rng = np.random.default_rng(47)
    n = 10_000
    quats = signed_zeros(rng, rng.normal(size=(n, 4)))
    quats[~np.any(quats, axis=1), 0] = -1.0
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    for k in range(0, n, 10):                   # pitch +-pi/2, where the arcsin clip acts
        roll, yaw = rng.uniform(-np.pi, np.pi, 2)
        quats[k] = quat_from_euler(roll, np.pi / 2 if k % 20 else -np.pi / 2, yaw)
    w, x, y, z = quats.T
    sinp = 2.0 * (w * y - z * x)
    assert (sinp > 1.0).any() and (sinp < -1.0).any() and (np.abs(sinp) == 1.0).any()
    assert np.signbit(quats[quats == 0.0]).any() and not np.signbit(quats[quats == 0.0]).all()
    got = np.array(dualquat._euler_floats(quats.tolist()))
    assert got.tobytes() == quat_to_euler(quats.T).T.tobytes()
    for frames in (4, 8):       # a planar 3R's and a 7-DoF arm's joint frames plus the EE
        for rows in np.split(quats, n // frames):
            want = quat_to_euler([c[None] for c in rows.T])      # (3, 1 lane, frames)
            assert np.array(dualquat._euler_floats(rows.tolist())).tobytes() == \
                want[:, 0].T.tobytes()
    rolls = [math.atan2(2.0 * (a * b + c * d), 1.0 - 2.0 * (b * b + c * c))
             for a, b, c, d in quats.tolist()]
    assert np.array(rolls).tobytes() != got[0::3].tobytes()
    assert np.array([math.asin(min(max(v, -1.0), 1.0)) for v in sinp.tolist()]).tobytes() != \
        got[1::3].tobytes()


# ------------------------------------------------------------------ #
# dq_sclerp
# ------------------------------------------------------------------ #
def test_sclerp_endpoints():
    rng = np.random.default_rng(4)
    a, b = random_unit_dq(rng), random_unit_dq(rng)
    np.testing.assert_allclose(dq_sclerp(a, b, 0.0).as_array(), a.as_array(), atol=1e-12)
    got = dq_sclerp(a, b, 1.0).as_array()
    if np.dot(got[:4], b.as_array()[:4]) < 0:
        got = -got
    np.testing.assert_allclose(got, b.as_array(), atol=1e-9)


def test_sclerp_translation_midpoint():
    a = DualQuaternion.identity()
    b = DualQuaternion.from_translation([2.0, 0, 0])
    mid = dq_sclerp(a, b, 0.5)
    np.testing.assert_allclose(mid.translation(), [1.0, 0, 0], atol=1e-12)


def test_sclerp_rotation_matches_matrix_slerp():
    # rotZ 0 -> rotZ 90deg at u=0.5 must equal rotZ 45deg (matrix oracle)
    a = DualQuaternion.identity()
    b = DualQuaternion.from_pose([0, 0, 0], (np.array([0, 0, 1.0]), np.pi / 2))
    mid = dq_to_homogeneous(dq_sclerp(a, b, 0.5))
    np.testing.assert_allclose(mid, homogeneous([0, 0, 1], np.pi / 4, [0, 0, 0]), atol=1e-12)


def test_sclerp_unit_and_monotone_screw_angle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = random_unit_dq(rng), random_unit_dq(rng)
        angles = []
        for u in np.linspace(0, 1, 9):
            d = dq_sclerp(a, b, u)
            assert ref.drift(d) < 1e-8
            rel = dq_mul(a.conjugate(), d)
            w = abs(np.clip(rel.real[0], -1, 1))
            angles.append(2 * np.arccos(w))
        assert all(angles[i] <= angles[i + 1] + 1e-9 for i in range(len(angles) - 1))


def test_sclerp_antipodal_real_parts():
    rng = np.random.default_rng(6)
    a = random_unit_dq(rng)
    b = random_unit_dq(rng)
    b_flipped = ref.negated(b)
    d1 = dq_sclerp(a, b, 0.37)
    d2 = dq_sclerp(a, b_flipped, 0.37)
    np.testing.assert_allclose(dq_to_homogeneous(d1), dq_to_homogeneous(d2), atol=1e-9)


# ------------------------------------------------------------------ #
# lanes against the one-pose reference
# ------------------------------------------------------------------ #
def assert_lanes_match_reference(a_list, b_list, us, atol=1e-12):
    out = dq_sclerp_lanes(dq_to_lanes(a_list), dq_to_lanes(b_list), us)
    assert out.shape == (len(a_list), 8)
    for row, a, b, u in zip(out, a_list, b_list, us):
        np.testing.assert_allclose(row, ref.sclerp(a, b, u).as_array(), rtol=0, atol=atol)


def test_dq_mul_lanes_equals_dq_mul_bit_for_bit():
    rng = np.random.default_rng(20)
    a = [random_unit_dq(rng) for _ in range(50)]
    b = [random_unit_dq(rng) for _ in range(50)]
    out = dq_mul_lanes(dq_to_lanes(a), dq_to_lanes(b))
    np.testing.assert_array_equal(out, [dq_mul(x, y).as_array() for x, y in zip(a, b)])
    # one pose on either side broadcasts over the lanes
    left = dq_mul_lanes(a[0].as_array(), dq_to_lanes(b))
    np.testing.assert_array_equal(left, [dq_mul(a[0], y).as_array() for y in b])
    right = dq_mul_lanes(dq_to_lanes(a), b[0].as_array())
    np.testing.assert_array_equal(right, [dq_mul(x, b[0]).as_array() for x in a])


def wild_lanes(rng, n):
    """Lanes whose entries span 16 decades, with +0.0 and -0.0 mixed in."""
    x = rng.standard_normal((n, 8)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, 8))
    x[rng.random((n, 8)) < 0.1] = 0.0
    x[rng.random((n, 8)) < 0.1] = -0.0
    return x


def same_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_dq_mul_lanes_products_equal_the_component_form_bit_for_bit():
    rng = np.random.default_rng(23)
    zeros = 0
    for n in (1, 2, 3, 7, 25, 200, 2000):
        a, b = wild_lanes(rng, n), wild_lanes(rng, n)
        want = ref.dq_mul_lanes_by_components(a, b)
        same_bits(dq_mul_lanes(a, b), want)
        zeros += np.count_nonzero(np.signbit(want) & (want == 0.0))
        for i in (0, n - 1):
            same_bits(dq_mul_lanes(a[i], b), ref.dq_mul_lanes_by_components(a[i], b))
            same_bits(dq_mul_lanes(a, b[i]), ref.dq_mul_lanes_by_components(a, b[i]))
            same_bits(dq_mul_lanes(a[i], b[i]), ref.dq_mul_lanes_by_components(a[i], b[i]))
    assert zeros > 0                   # some products are -0.0


def test_workload_products_stay_unit(workloads, hybrid_workloads, monkeypatch):
    """Over a seed-1 round of ``skills`` and of ``hybrid``, no product drifts
    from a unit dual quaternion by more than 1e-12: the assumption under
    which only the readers check the unit rule and no product renormalizes.
    ``dq_sclerp_lanes`` calls the module's ``dq_mul_lanes``, and ``lfd`` its
    own binding."""
    skills = workloads.SkillsWorkload(1)
    skills.setup(workloads.Tally())
    drifts, mul = [], dualquat.dq_mul_lanes

    def record(a, b):
        out = mul(a, b)
        drifts.append(ref.drift(out))
        return out

    monkeypatch.setattr(dualquat, "dq_mul_lanes", record)
    monkeypatch.setattr(lfd, "dq_mul_lanes", record)
    for wl in (skills, hybrid_workloads[0]):
        assert wl.seed == 1
        tally, calls = workloads.Tally(), len(drifts)
        wl.run_round(tally)
        assert not tally.failed and len(drifts) > calls
    assert max(drifts) <= 1e-12


def test_readers_accept_a_pose_within_the_unit_tolerance():
    pose = [1.0 + 5e-7, 0, 0, 0, 0, 5e-7, 0, 0]         # both drifts below 1e-6
    assert DualQuaternion.from_array(pose).real[0] == 1.0 + 5e-7
    assert len(lfd.Demonstration("d", np.array([pose, pose])).poses) == 2


def test_dq_mul_lanes_of_no_lanes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((np.empty((0, 8)), np.empty((0, 8))),
                     (np.array([1.0, 0, 0, 0, 0, 0, 0, 0]), np.empty((0, 8))),
                     (np.empty((0, 8)), np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))):
            got = dq_mul_lanes(a, b)
            assert got.shape == (0, 8)
            same_bits(got, ref.dq_mul_lanes_by_components(a, b))


def test_sclerp_lanes_match_reference_on_random_pairs():
    rng = np.random.default_rng(22)
    a = [random_unit_dq(rng) for _ in range(64)]
    b = [random_unit_dq(rng) for _ in range(64)]
    assert_lanes_match_reference(a, b, rng.uniform(0.0, 1.0, 64))


def test_sclerp_lanes_antipodal_flip_per_lane():
    rng = np.random.default_rng(23)
    a = [random_unit_dq(rng) for _ in range(16)]
    b = [ref.negated(random_unit_dq(rng)) if k % 2 else random_unit_dq(rng) for k in range(16)]
    us = rng.uniform(0.0, 1.0, 16)
    assert_lanes_match_reference(a, b, us)
    flipped = dq_sclerp_lanes(dq_to_lanes(a), -dq_to_lanes(b), us)
    for got, want in zip(flipped, dq_sclerp_lanes(dq_to_lanes(a), dq_to_lanes(b), us)):
        np.testing.assert_allclose(dq_to_homogeneous(DualQuaternion.from_array(got)),
                                   dq_to_homogeneous(DualQuaternion.from_array(want)), atol=1e-9)


def test_sclerp_lanes_pure_translation_mixed_with_screws():
    rng = np.random.default_rng(24)
    a, b = [], []
    for k in range(12):
        start = random_unit_dq(rng)
        if k % 3 == 0:                              # no relative rotation at all
            step = DualQuaternion.from_translation(rng.uniform(-1, 1, 3))
        elif k % 3 == 1:                            # rotation below the 1e-9 cutoff
            step = DualQuaternion.from_pose(rng.uniform(-1, 1, 3), (rng.normal(size=3), 1e-12))
        else:
            step = random_unit_dq(rng)
        a.append(start)
        b.append(dq_mul(start, step))
    assert_lanes_match_reference(a, b, rng.uniform(0.0, 1.0, 12))


def test_sclerp_lanes_rotation_near_pi():
    # at exactly a half turn the relative real part can round to w = 0, where
    # only the antipodal test on (a, b) picks the screw's direction
    rng = np.random.default_rng(25)
    a, b = [], []
    for angle, draws in ((np.pi - 1e-3, 25), (np.pi - 1e-9, 25), (np.pi, 300),
                         (-np.pi + 1e-9, 25)):
        for _ in range(draws):
            start = random_unit_dq(rng)
            a.append(start)
            b.append(dq_mul(start, DualQuaternion.from_pose(rng.uniform(-1, 1, 3),
                                                (rng.normal(size=3), angle))))
    assert any(dq_mul(x.conjugate(), y).real[0] == 0.0 for x, y in zip(a, b))
    assert_lanes_match_reference(a, b, rng.uniform(0.0, 1.0, len(a)))


def test_sclerp_lanes_at_the_knots():
    rng = np.random.default_rng(26)
    a = [random_unit_dq(rng) for _ in range(10)]
    b = [random_unit_dq(rng) for _ in range(10)]
    us = np.array([0.0, 1.0] * 5)
    assert_lanes_match_reference(a, b, us)
    out = dq_sclerp_lanes(dq_to_lanes(a), dq_to_lanes(b), us)
    np.testing.assert_allclose(out[0::2], dq_to_lanes(a[0::2]), atol=1e-12)


def test_sclerp_lanes_one_pair_many_parameters():
    rng = np.random.default_rng(27)
    a, b = random_unit_dq(rng), random_unit_dq(rng)
    us = np.linspace(0.0, 1.0, 9)
    out = dq_sclerp_lanes(a.as_array(), b.as_array(), us)
    assert out.shape == (9, 8)
    for row, u in zip(out, us):
        np.testing.assert_allclose(row, ref.sclerp(a, b, u).as_array(), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(dq_sclerp(a, b, u).as_array(),
                                      dq_sclerp_lanes(a.as_array(), b.as_array(), u))


def test_lanes_conversion_roundtrip():
    rng = np.random.default_rng(28)
    poses = [random_unit_dq(rng) for _ in range(5)]
    lanes = dq_to_lanes(poses)
    assert lanes.shape == (5, 8) and dq_to_lanes([]).shape == (0, 8)
    for p, row in zip(poses, lanes):
        np.testing.assert_array_equal(p.as_array(), DualQuaternion.from_array(row).as_array())
    # one pose gives its 8-vector, an array passes through as float64, and a
    # sequence mixing poses and rows is stacked element by element
    np.testing.assert_array_equal(dq_to_lanes(poses[0]), poses[0].as_array())
    assert dq_to_lanes(lanes) is lanes
    assert dq_to_lanes(np.eye(8, dtype=int)).dtype == np.float64
    mixed = dq_to_lanes([lanes[0], poses[1], list(lanes[2])])
    assert mixed.tobytes() == lanes[:3].tobytes()


def test_dq_translation_of_lanes_equals_rows_and_the_quaternion_product():
    # angles over 9 decades and translations over 8
    rng = np.random.default_rng(29)
    n = 2000
    angles = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-9, 0.5, n)
    shifts = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-6, 2, (n, 1))
    poses = [DualQuaternion.from_pose(t, (axis, a))
             for t, axis, a in zip(shifts, rng.normal(size=(n, 3)), angles)]
    lanes = np.concatenate([dq_to_lanes(poses), wild_lanes(rng, 500)])
    want = np.array([2.0 * quat_mul(row[4:], quat_conj(row[:4]))[1:] for row in lanes])
    assert dq_translation(lanes).tobytes() == want.tobytes()
    # one pose on floats, as an 8-vector or a list of 8 floats, and the array form
    for rows in ([dq_translation(row) for row in lanes],
                 [dq_translation(row.tolist()) for row in lanes],
                 [ref.translation(row) for row in lanes]):
        assert np.array(rows).tobytes() == want.tobytes()
    assert np.array([p.translation() for p in poses]).tobytes() == want[:n].tobytes()


# ------------------------------------------------------------------ #
# Algebra invariants
# ------------------------------------------------------------------ #
def test_associativity_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a, b, c = (random_unit_dq(rng) for _ in range(3))
        lhs = dq_mul(dq_mul(a, b), c).as_array()
        rhs = dq_mul(a, dq_mul(b, c)).as_array()
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_unit_condition_preserved_over_1e4_pairs():
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        d = dq_mul(random_unit_dq(rng), random_unit_dq(rng))
        assert ref.drift(d) < 1e-8


def test_double_cover():
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = random_unit_dq(rng)
        np.testing.assert_allclose(dq_to_homogeneous(d), dq_to_homogeneous(ref.negated(d)),
                                   atol=1e-12)


def test_delta_invariance_under_common_left_transform():
    # conj(G A) * (G B) == conj(A) * B for any rigid G
    rng = np.random.default_rng(10)
    for _ in range(1000):
        g, a, b = (random_unit_dq(rng) for _ in range(3))
        lhs = dq_mul(dq_mul(g, a).conjugate(), dq_mul(g, b)).as_array()
        rhs = dq_mul(a.conjugate(), b).as_array()
        if np.dot(lhs[:4], rhs[:4]) < 0:
            lhs = -lhs
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


# ------------------------------------------------------------------ #
# Euler helpers
# ------------------------------------------------------------------ #
def test_euler_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(300):
        angles = rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, size=3)
        back = quat_to_euler(quat_from_euler(*angles))
        np.testing.assert_allclose(back, angles, atol=1e-10)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: dualquat.quat_from_axis_angle(np.zeros(3), 0.3), "degenerate rotation",
                 id="zero_axis"),
    pytest.param(lambda: DualQuaternion.from_array(np.zeros(7)), "expected 8 scalars",
                 id="from_array_shape"),
    # the readers refuse a pose that is not a unit dual quaternion: a zero or
    # scaled rotation, or a dual part not orthogonal to the rotation
    pytest.param(lambda: DualQuaternion.from_array(np.zeros(8)),
                 r"pose row 0 drifts 1 from a unit dual quaternion",
                 id="zero_rotation_from_array"),
    # a demonstration given as (N, 8) lanes is read by the same rule, which
    # names the row
    pytest.param(lambda: lfd.Demonstration("d", np.array([[1.0, 0, 0, 0, 0, 0, 0, 0], [0.0] * 8])),
                 r"pose row 1 drifts 1 from", id="zero_rotation_dq_from_lanes"),
    pytest.param(lambda: DualQuaternion.from_array([1.001, 0, 0, 0, 0, 0, 0, 0]),
                 r"pose row 0 drifts 0.001 from", id="scaled_rotation_from_array"),
    pytest.param(lambda: DualQuaternion.from_array([0.6, 0.8, 0, 0, 1e-5, 0, 0, 0]),
                 r"pose row 0 drifts 6e-06 from", id="oblique_dual_from_array"),
    pytest.param(lambda: lfd.Demonstration("d", np.array([[1.0, 0, 0, 0, 0, 0, 0, 0],
                                                          [0.6, 0.8, 0, 0, 0, 0, 0, 0],
                                                          [0.6, 0.8, 0, 0, 1e-5, 0, 0, 0]])),
                 r"pose row 2 drifts 6e-06 from", id="oblique_dual_dq_from_lanes"),
    # the pose constructors refuse non-finite input
    pytest.param(lambda: DualQuaternion.from_pose([0, 0, 0], (np.array([NAN, 0, 1.0]), 0.3)),
                 "non-finite rotation", id="nan_axis"),
    pytest.param(lambda: DualQuaternion.from_pose([0, 0, 0], (np.array([INF, 0, 1.0]), 0.3)),
                 "non-finite rotation", id="inf_axis"),
    pytest.param(lambda: DualQuaternion.from_pose([0, 0, 0], (np.array([0, 0, 1.0]), NAN)),
                 "non-finite rotation", id="nan_angle"),
    pytest.param(lambda: DualQuaternion.from_pose([0, 0, 0], (np.array([0, 0, 1.0]), -INF)),
                 "non-finite rotation", id="inf_angle"),
    pytest.param(lambda: DualQuaternion.from_pose([0, 0, 0], [1.0, NAN, 0, 0]),
                 "non-finite rotation",
                 id="nan_quaternion"),
    pytest.param(lambda: DualQuaternion.from_pose([0, 0, 0], [1.0, 0, INF, 0]),
                 "non-finite rotation",
                 id="inf_quaternion"),
    pytest.param(lambda: DualQuaternion.from_pose([INF, 0, 0], [1.0, 0, 0, 0]),
                 "non-finite position",
                 id="inf_position"),
    pytest.param(lambda: DualQuaternion.from_translation([0, NAN, 0]), "non-finite position",
                 id="nan_translation"),
    pytest.param(lambda: dualquat.quat_from_axis_angle([0, NAN, 1.0], 0.3),
                 "non-finite rotation", id="quat_from_axis_angle"),
    pytest.param(lambda: dualquat.quat_normalize(np.array([NAN, 0, 0, 0])),
                 "non-finite rotation", id="quat_normalize"),
    pytest.param(lambda: quat_from_euler(0.1, NAN, 0.3), "non-finite rotation",
                 id="quat_from_euler"),
    pytest.param(lambda: DualQuaternion.from_array([1.0, 0, 0, 0, 0, NAN, 0, 0]),
                 r"pose entry \[5\] is nan, not finite", id="nan_from_array"),
    pytest.param(lambda: DualQuaternion.from_array([1.0, 0, 0, -INF, 0, 0, 0, 0]),
                 r"pose entry \[3\] is -inf, not finite", id="inf_from_array"),
    pytest.param(lambda: lfd.Demonstration("d", np.array([[1.0, 0, 0, 0, 0, 0, 0, 0],
                                                          [1.0, 0, 0, 0, 0, 0, INF, 0]])),
                 r"pose entry \[1, 6\] is inf, not finite", id="inf_dq_from_lanes"),
    pytest.param(lambda: lfd.Demonstration("d", np.array([[NAN, 0, 0, 0, 0, 0, 0, 0],
                                                          [1.0, 0, 0, 0, 0, 0, 0, 0]])),
                 r"pose entry \[0, 0\] is nan, not finite", id="nan_dq_from_lanes"),
])
def test_dualquat_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")               # refused before any numpy warning
        with pytest.raises(ValueError, match=match):
            call()
