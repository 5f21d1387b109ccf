import dataclasses
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from hybridplan.dualquat import (
    DualQuaternion,
    dq_mul,
    dq_sclerp,
    dq_to_lanes,
)
from hybridplan.lfd import (
    BETA_RESAMPLE,
    Demonstration,
    SkillLibrary,
    arc_params,
    chordal_distance,
    extract_features,
    feature_distance_terms,
    resample,
    retarget,
    retarget_sides,
    sample_lanes,
    skill_gaps,
)


def pose(x, y, z=0.0, axis=(0, 0, 1.0), angle=0.0):
    return DualQuaternion.from_pose([x, y, z], (np.array(axis), angle))


def random_pose(rng, span=1.5):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return DualQuaternion.from_pose(rng.uniform(-span, span, size=3), q)


def random_demo(rng, n=8):
    return Demonstration("d", [random_pose(rng) for _ in range(n)])


def arc_demo(n=9, radius=1.0):
    """Quarter-circle arc with tangent yaw, a curved non-trivial skill."""
    poses = []
    for t in np.linspace(0, np.pi / 2, n):
        poses.append(DualQuaternion.from_pose(
            [radius * np.cos(t), radius * np.sin(t), 0.0],
            (np.array([0, 0, 1.0]), t)))
    return Demonstration("arc", poses)


# ------------------------------------------------------------------ #
# extract_features
# ------------------------------------------------------------------ #
def test_features_constant_demo_all_identity():
    p = pose(0.5, -0.2, 0.1)
    feats = extract_features([p, p, p, p])
    eye = DualQuaternion.identity().as_array()
    for arr in feats:
        if arr[0] < 0:
            arr = -arr
        np.testing.assert_allclose(arr, eye, atol=1e-12)
    assert len(feats) == 3


def test_features_two_pose_demo():
    rng = np.random.default_rng(0)
    a, b = random_pose(rng), random_pose(rng)
    feats = extract_features([a, b])
    assert len(feats) == 1
    np.testing.assert_allclose(feats[0], dq_mul(a.conjugate(), b).as_array(), atol=1e-12)


def test_features_invariant_under_left_shift():
    rng = np.random.default_rng(1)
    demo = random_demo(rng)
    g = random_pose(rng)
    shifted = [dq_mul(g, p) for p in demo.poses]
    fa, fb = demo.features, extract_features(shifted)
    for x, y in zip(fa, fb):
        assert chordal_distance(x, y) < 1e-8


def test_features_too_short():
    with pytest.raises(ValueError):
        extract_features([pose(0, 0)])


# ------------------------------------------------------------------ #
# retarget
# ------------------------------------------------------------------ #
def test_retarget_self_reproduces_demo():
    demo = arc_demo()
    out = retarget(demo, demo.poses[0], demo.poses[-1], len(demo.poses))
    assert len(out) == len(demo.poses)
    for got, want in zip(out, demo.poses):
        assert chordal_distance(got, want) < 1e-8


def test_retarget_endpoint_exactness_1000_triples():
    rng = np.random.default_rng(2)
    demos = [random_demo(rng, n=rng.integers(3, 10)) for _ in range(20)]
    for k in range(1000):
        demo = demos[k % len(demos)]
        start, goal = random_pose(rng), random_pose(rng)
        out = retarget(demo, start, goal, 12)
        assert chordal_distance(out[0], start) < 1e-9
        assert chordal_distance(out[-1], goal) < 1e-9


def test_retarget_straight_line_skill_stays_straight():
    # translation-only skill retargeted: compare against the sclerp baseline
    a, b = pose(0, 0), pose(1.0, 0)
    demo = Demonstration("line", [dq_sclerp(a, b, u) for u in np.linspace(0, 1, 6)])
    start, goal = pose(0.3, 0.4), pose(-0.9, 1.1)
    out = retarget(demo, start, goal, 6)
    for got, u in zip(out, np.linspace(0, 1, 6)):
        want = dq_sclerp(start, goal, u)
        assert chordal_distance(got, want) < 1e-8


def test_retarget_rotated_task_is_sandwich_of_demo():
    # goal chosen so the task equals the demo rotated 90 deg about z:
    # the output must equal rot90 applied to the whole demo
    demo = arc_demo()
    rot90 = DualQuaternion.from_pose([0, 0, 0], (np.array([0, 0, 1.0]), np.pi / 2))
    start = dq_mul(rot90, demo.poses[0])
    goal = dq_mul(rot90, demo.poses[-1])
    out = retarget(demo, start, goal, len(demo.poses))
    for got, want in zip(out, [dq_mul(rot90, p) for p in demo.poses]):
        assert chordal_distance(got, want) < 1e-8


def test_retarget_idempotence():
    rng = np.random.default_rng(3)
    demo = arc_demo()
    start, goal = random_pose(rng), random_pose(rng)
    once = retarget(demo, start, goal, 10)
    twice = retarget(Demonstration("again", once), start, goal, 10)
    for x, y in zip(once, twice):
        assert chordal_distance(x, y) < 1e-8


def test_retarget_constant_skill():
    p = pose(0.5, 0.5)
    demo = Demonstration("hold", [p, p, p])
    out = retarget(demo, pose(1, 1), pose(1, 1), 5)
    assert all(chordal_distance(d, pose(1, 1)) < 1e-12 for d in out)
    with pytest.raises(ValueError, match="displacement mismatch"):
        retarget(demo, pose(1, 1), pose(2, 2), 5)


# ------------------------------------------------------------------ #
# feature distance: the sum of feature_distance_terms
# ------------------------------------------------------------------ #
def test_beta_identical_sequences():
    demo = arc_demo()
    assert feature_distance_terms(demo.features, demo.features).sum() == 0.0


def test_beta_translation_step_proportionality():
    # two-element sequences: identity vs a single pure-translation step
    eye = DualQuaternion.identity()
    betas = []
    for d in (0.2, 0.4, 0.8):
        a = [eye, eye]
        b = [eye, DualQuaternion.from_translation([d, 0, 0])]
        betas.append(feature_distance_terms(a, b).sum())
    assert betas[1] == pytest.approx(2 * betas[0], rel=1e-9)
    assert betas[2] == pytest.approx(4 * betas[0], rel=1e-9)


def test_beta_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = [random_pose(rng) for _ in range(rng.integers(1, 7))]
        b = [random_pose(rng) for _ in range(rng.integers(1, 7))]
        assert feature_distance_terms(a, b).sum() == pytest.approx(
            feature_distance_terms(b, a).sum(), abs=1e-10)


def test_beta_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = [random_pose(rng) for _ in range(4)]
        b = [random_pose(rng) for _ in range(6)]
        c = [random_pose(rng) for _ in range(3)]
        ab = feature_distance_terms(a, b).sum()
        bc = feature_distance_terms(b, c).sum()
        ac = feature_distance_terms(a, c).sum()
        assert ac <= ab + bc + 1e-9


def test_beta_terms_shape():
    demo = arc_demo()
    terms = feature_distance_terms(demo.features, demo.features[:3])
    assert terms.shape == (32,)
    assert np.all(terms >= 0)


# ------------------------------------------------------------------ #
# lanes against the one-pose reference
# ------------------------------------------------------------------ #
def assert_poses_close(got, want, atol=1e-12):
    np.testing.assert_allclose(dq_to_lanes(got) if isinstance(got, list) else got,
                               dq_to_lanes(want), rtol=0, atol=atol)


def test_features_and_distances_match_reference():
    rng = np.random.default_rng(30)
    for n in (2, 3, 8):
        poses = [random_pose(rng) for _ in range(n)]
        np.testing.assert_array_equal(extract_features(poses),
                                      dq_to_lanes(ref.extract_features(poses)))
        lanes = dq_to_lanes(poses)
        np.testing.assert_array_equal(
            chordal_distance(lanes[:-1], lanes[1:]),
            [ref.chordal_distance(a, b) for a, b in zip(poses[:-1], poses[1:])])
        np.testing.assert_array_equal(arc_params(poses), ref.arc_params(poses))


def test_resample_matches_reference():
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 9):
        poses = [random_pose(rng) for _ in range(n)]
        for n_out in (2, 7, 32):
            assert_poses_close(resample(poses, n_out), ref.resample(poses, n_out))


def test_resample_edge_cases_match_reference():
    rng = np.random.default_rng(32)
    a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
    tiny = dq_sclerp(b, c, 1e-17)                    # a span below 1e-15 of the arc
    cases = {
        "one pose": [a],
        "constant": [a, a, a],
        "repeated knot": [a, b, b, c],
        "tiny span": [a, b, tiny, c],
    }
    for name, poses in cases.items():
        got = resample(poses, 32)
        assert got.shape == (32, 8), name
        assert_poses_close(got, ref.resample(poses, 32))
    # parameters exactly on the knots return the knot poses themselves
    poses = [a, b, c]
    params = arc_params(poses)
    np.testing.assert_array_equal(sample_lanes(poses, params, params), dq_to_lanes(poses))


def test_feature_distance_terms_match_reference():
    rng = np.random.default_rng(33)
    for _ in range(30):
        a = [random_pose(rng) for _ in range(rng.integers(1, 7))]
        b = [random_pose(rng) for _ in range(rng.integers(1, 7))]
        np.testing.assert_allclose(feature_distance_terms(a, b),
                                   ref.feature_distance_terms(a, b), rtol=0, atol=1e-12)
    demo = arc_demo()
    seg = demo.poses[::3]
    np.testing.assert_array_equal(feature_distance_terms(demo, extract_features(seg)),
                                  feature_distance_terms(demo.features, extract_features(seg)))


def test_retarget_matches_reference():
    rng = np.random.default_rng(34)
    for k in range(40):
        demo = random_demo(rng, n=int(rng.integers(2, 9))) if k % 2 else arc_demo()
        start, goal = random_pose(rng), random_pose(rng)
        for n_out in (len(demo.poses), 12):
            assert_poses_close(retarget(demo, start, goal, n_out),
                               ref.retarget(demo.poses, start, goal, n_out))


# ------------------------------------------------------------------ #
# Demonstration caches
# ------------------------------------------------------------------ #
def test_demonstration_poses_cannot_change_under_its_caches():
    demo = arc_demo(n=3)
    assert demo.features.shape == (2, 8)
    assert isinstance(demo.poses, tuple)
    with pytest.raises(AttributeError):
        demo.poses.append(pose(2.0, 0.0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        demo.poses = demo.poses + (pose(2.0, 0.0),)
    for cached in (demo.lanes, demo.params, demo.features, demo.resampled_features):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    np.testing.assert_array_equal(demo.features, extract_features(list(demo.poses)))
    np.testing.assert_array_equal(demo.resampled_features,
                                  resample(demo.features, BETA_RESAMPLE))
    assert demo.resampled_features is demo.resampled_features


def test_skill_gaps_are_kept_read_only_on_the_skill():
    arc, hold = arc_demo(n=9), Demonstration("hold", [pose(0.5, 0.5)] * 4)
    requests = [(arc, 0, 2, 7), (hold, 0, 1, 5), (arc, 1, 2, 7), (arc, 0, 2, 7), (arc, 0, 2, 4)]
    sides = skill_gaps(requests)
    assert sides[0] is sides[3]                       # one fill per layout
    assert [s is t for s, t in zip(skill_gaps(requests), sides)] == [True] * 5
    for side, (skill, g, n, n_out) in zip(sides, requests):
        if skill is hold:                             # a constant skill is its own slice
            assert side.lanes is hold.lanes and side.params is side.us is side.base is None
            continue
        assert len(side.lanes) == max(3, len(skill.poses) // n) and len(side.base) == n_out
        for cached in (side.lanes, side.params, side.us, side.base):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0
        slice_poses = ref.slice_skill(skill.poses, g / n, (g + 1) / n, len(side.lanes))
        np.testing.assert_allclose(side.lanes, dq_to_lanes(slice_poses), rtol=0, atol=1e-12)


def test_skill_gaps_keep_the_slice_sampling_when_the_lengths_match():
    # gap 1 of 2 of a 9-pose arc is a 4-pose slice: at 4 output poses the
    # base is the slice itself, and retargeting it onto its own ends returns it
    arc = arc_demo(n=9)
    side, = skill_gaps([(arc, 1, 2, 4)])
    assert len(side.lanes) == 4 and side.us is side.params
    assert side.base.tobytes() == side.lanes.tobytes()
    out, = retarget_sides([(side, side.lanes[0], side.lanes[-1], 4)])
    assert out[0].tobytes() == side.lanes[0].tobytes()
    assert np.max(chordal_distance(out, side.lanes)) < 1e-12


def test_skill_gaps_refuse_fewer_than_two_output_poses():
    arc = arc_demo(n=9)
    for n_out in (1, 0):
        with pytest.raises(ValueError, match="n_out must be at least 2"):
            skill_gaps([(arc, 0, 1, n_out)])
    assert arc._gaps == {}


def test_demonstration_from_a_list_keeps_a_copy():
    poses = [pose(0, 0), pose(1, 0)]
    demo = Demonstration("d", poses)
    poses.append(pose(2, 0))
    assert len(demo.poses) == 2 and demo.features.shape == (1, 8)


# ------------------------------------------------------------------ #
# the library
# ------------------------------------------------------------------ #
def test_library_load_and_duplicate_rejection():
    lib = SkillLibrary()
    lib.add(arc_demo())
    lib.add(Demonstration("line", [pose(0, 0), pose(1, 0)]))
    assert lib.ids() == ["arc", "line"]
    with pytest.raises(ValueError, match="duplicate skill id 'arc'"):
        lib.add(arc_demo())


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: Demonstration("d", [pose(0, 0)]), "at least 2 poses", id="one_pose"),
    pytest.param(lambda: feature_distance_terms([], [np.zeros(6)] * 3),
                 "feature sequences must be nonempty", id="empty_features"),
    pytest.param(lambda: Demonstration("d", [pose(0, 0), [1.0, 0, 0, 0, 0, np.inf, 0, 0]]),
                 r"pose entry \[1, 5\] is inf, not finite", id="demonstration_inf_row"),
])
def test_lfd_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # refused before any arithmetic
        with pytest.raises(ValueError, match=match):
            call()
