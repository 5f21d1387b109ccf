import hashlib
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from hybridplan.dualquat import DualQuaternion, dq_sclerp, dq_to_lanes
from hybridplan.feasibility import FeasibilityMap
from hybridplan.hrl_planner import (
    CURVE_FLOOR,
    HrlConfig,
    QTables,
    SENTINEL,
    _jitter_lanes,
    _segment_scorer,
    candidate_segments,
    exhaustive_plan,
    extrinsic_reward,
    intrinsic_reward,
    plan_lfd,
    train_hrl,
)
from hybridplan import lfd
from hybridplan.lfd import (
    Demonstration,
    SkillLibrary,
    chordal_distance,
    retarget,
    retarget_sides,
)
from hybridplan.task import Task


def pose(x, y, yaw=0.0):
    return DualQuaternion.from_pose([x, y, 0.0], (np.array([0, 0, 1.0]), yaw))


def line_skill(skill_id, dx, dy, n=6):
    a, b = pose(0, 0), pose(dx, dy)
    return Demonstration(skill_id, [dq_sclerp(a, b, u) for u in np.linspace(0, 1, n)])


def library_of(*skills):
    lib = SkillLibrary()
    for s in skills:
        lib.add(s)
    return lib


NO_JITTER = dict(jitter_pos=(0.0, 0.0, 0.0), jitter_rot=0.0)


# ------------------------------------------------------------------ #
# rewards
# ------------------------------------------------------------------ #
def test_intrinsic_reward_exact_match_is_zero():
    sk = line_skill("x", 1.0, 0.0)
    assert intrinsic_reward(sk, sk.poses) == 0.0


def test_intrinsic_reward_sentinel_on_tolerance_violation():
    sk = line_skill("x", 1.0, 0.0)
    far = [pose(0, 0), pose(0, 3.0)]   # displacement differs by >> delta_beta
    assert intrinsic_reward(sk, far) == SENTINEL


def test_intrinsic_reward_orders_skills_by_similarity():
    target = line_skill("t", 1.0, 0.0).poses
    close = line_skill("a", 1.0, 0.1)
    far = line_skill("b", 1.0, 0.4)
    r_close = intrinsic_reward(close, target)
    r_far = intrinsic_reward(far, target)
    assert r_close > r_far > SENTINEL


def test_extrinsic_reward():
    assert extrinsic_reward([]) == 0.0
    assert extrinsic_reward([-1.0, -2.0]) == -3.0
    assert extrinsic_reward([-1.0, SENTINEL, -2.0]) == SENTINEL


@pytest.fixture(scope="module")
def skills_workloads(workloads):
    """The benchmark's ``skills`` workload set up for seeds 1-3: line, arc and
    twist skills and chained tasks of 3-5 configurations."""
    out = []
    for seed in (1, 2, 3):
        wl = workloads.SkillsWorkload(seed)
        wl.setup(workloads.Tally())
        out.append(wl)
    return out


def test_intrinsic_reward_matches_reference_on_benchmark_tasks(skills_workloads):
    # every (segment, skill) case of every task
    # and the scorer of train_hrl and exhaustive_plan gives intrinsic_reward
    cases = sentinels = 0
    for wl in skills_workloads:
        lib = wl.library
        score = _segment_scorer(lib)
        for st in wl.tasks:
            configs = st.task.configs
            lanes = dq_to_lanes(configs)
            for i in range(len(configs)):
                for k in range(i + 1, len(configs)):
                    for sk in lib.ids():
                        got = intrinsic_reward(lib[sk], configs[i:k + 1])
                        want = ref.intrinsic_reward(lib[sk].poses, configs[i:k + 1])
                        assert (got <= SENTINEL) == (want <= SENTINEL)
                        assert got == pytest.approx(want, rel=0, abs=1e-12)
                        assert score(sk, lanes[i:k + 1]) == got
                        assert score(sk, lanes[i:k + 1].copy()) == got
                        cases += 1
                        sentinels += want <= SENTINEL
    assert cases > 300 and 0 < sentinels < cases


def test_retarget_through_matches_reference(skills_workloads):
    # a one-segment plan retargets its skill through the task's configurations
    lib = skills_workloads[0].library
    for st in skills_workloads[0].tasks:
        for sk in lib.ids():
            for n_gaps in range(1, len(st.task.configs)):
                waypoints = st.task.configs[:n_gaps + 1]
                plan = plan_lfd(Task("w", waypoints), lib, forced_tables([((0, n_gaps), sk)]),
                                points_per_gap=25)
                want = ref.retarget_through(lib[sk], waypoints, 25)
                np.testing.assert_allclose(plan["poses"], dq_to_lanes(want), rtol=0, atol=1e-12)


# ------------------------------------------------------------------ #
# training
# ------------------------------------------------------------------ #
def _random_configs(rng, planar):
    angles = rng.uniform(-np.pi, np.pi, 9)
    axes = [np.array([0.0, 0.0, 1.0]) if planar else rng.normal(size=3) for _ in angles]
    return [DualQuaternion.from_pose(rng.uniform(-1.0, 1.0, 3), (axis, a))
            for axis, a in zip(axes, angles)]


@pytest.mark.parametrize("jitter", [
    NO_JITTER,
    {},                                                    # the default HrlConfig jitter
    dict(jitter_pos=(0.3, 0.1, 0.2), jitter_rot=3.0),      # spins well past -pi/2
])
@pytest.mark.parametrize("planar", [True, False])
def test_lane_jitter_equals_the_per_pose_reference(jitter, planar):
    cfg = HrlConfig(**jitter)
    configs = _random_configs(np.random.default_rng(11), planar)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(4):
        got = _jitter_lanes(dq_to_lanes(configs), cfg, got_rng)
        want = dq_to_lanes([ref.jitter_pose(p, cfg, want_rng) for p in configs])
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()        # signed zeros included
    assert got_rng.random() == want_rng.random()


# Every pin in this file was recorded with numpy 2.4.6; another numpy may
# round a float differently, so a failure names both versions.
NUMPY_HINT = f"differs from the pin recorded with numpy 2.4.6 (this run: numpy {np.__version__})"

# SHA-256 of ref.serialize_tables(train_hrl(...)) for the first three tasks of
# the skills workload of seeds 1-3, trained as the workload trains them
# (seed 1000 * seed + task, 32 episodes of workloads.hrl_config()) and under
# the default HrlConfig (64 episodes), then exhaustive_plan's (reward, plan)
PINNED = {
    (1, 0): ("c0a60a62f842a9cabda30c742b612e2986e87622d9c76f2fbf55a16a81e06670",
             "d2e2859c764df31248cc600ed213174d4693ea45d2f18518c28cd15694658666",
             -6.67680286871971, [((0, 2), "arc")]),
    (1, 1): ("97fd57b7f4cce6118ae90790393c8048e7b2ffa855e31589441925e8a26d6530",
             "23d05a9ff49576efea05794cdeed75712641b1a99269fcc637970904a6423870",
             -12.431588975730195, [((0, 1), "arc"), ((1, 3), "arc")]),
    (1, 2): ("9751d95bb2efd90e34e6e35a8f6d686555b4592823b6df22462941d20a0121d9",
             "0c956a512d7444187c4b26d67ee76a8343b1ced62dbaea18fe7e20fc68f920bb",
             -17.522220454264584, [((0, 2), "arc"), ((2, 3), "twist"), ((3, 4), "arc")]),
    (2, 0): ("6349068638b0d8bec7bd03d1ad2efee53ff11af15f8d1dece43077e7408c804a",
             "c9d5da08a3a544b73f5f9aa2effa93449c2ba3c940aa9d9c2b3b4b55beff3c44",
             -5.712603441127271, [((0, 2), "arc")]),
    (2, 1): ("a517ddecab81725d0853ebef2d4432d256b6c60ec2cf9be0246a9e0559fb4b5f",
             "63a5778dc82df1ef45ff80793b260927092c1b8c55c9a55da80d0ea14bdc8c92",
             -10.064946459366446, [((0, 3), "arc")]),
    (2, 2): ("60fa7b65240bb2c94ec2cc012c80214daaabb9eaf8657049d00d10a847c976ae",
             "a4a21cd1289245f4c445273d5a332d1293552b2afe1f5a0f2b93a741fd26f28a",
             -17.126670068319267, [((0, 2), "arc"), ((2, 3), "twist"), ((3, 4), "arc")]),
    (3, 0): ("01509a457933b1d051c9b00193d43a198a077bd6fb533bbaa4fcf244c2f196f9",
             "77cc25a4c30c5123efbdedb92c47ce77c53b02086dcf9548cd69d9e3654555e8",
             -6.1669330740797115, [((0, 2), "arc")]),
    (3, 1): ("701aaa98714098b859f14065d630238d9dbef1f7826e05e0614a633738cadb98",
             "6ddcc8780c2973b9f9a4fcf860e3f20175fad09f270f93892ae69426687e0dbc",
             -9.591534772581165, [((0, 3), "arc")]),
    (3, 2): ("cd1bc11992f893ffc60b8d76db202649693a691a8b89a5a100290fb8fd40b43a",
             "92f3ab7076eaca4c8c9f64b397540c72888eb34a6fae20926e1092639c6c2ab4",
             -17.71244352237929, [((0, 2), "arc"), ((2, 4), "twist")]),
}


def test_training_and_exhaustive_plan_are_pinned_per_seed(workloads, skills_workloads):
    def digest(tables):
        return hashlib.sha256(ref.serialize_tables(tables).encode()).hexdigest()

    for wl in skills_workloads:
        for k, st in enumerate(wl.tasks[:3]):
            bench_sha, default_sha, reward, plan = PINNED[wl.seed, k]
            seed = 1000 * wl.seed + k
            hint = f"skills seed {wl.seed} task {k}: {NUMPY_HINT}"
            assert digest(train_hrl([st.task], wl.library, episodes=32,
                                    config=workloads.hrl_config(), seed=seed)) == bench_sha, hint
            assert digest(train_hrl([st.task], wl.library, episodes=64,
                                    config=HrlConfig(), seed=seed)) == default_sha, hint
            assert exhaustive_plan(st.task, wl.library) == (reward, plan), hint


def _plans_digest(plans) -> str:
    h = hashlib.sha256()
    for plan in plans:
        h.update(dq_to_lanes(plan["poses"]).tobytes())
        h.update(repr((plan["segments"], plan["ranges"])).encode())
    return h.hexdigest()


# SHA-256 over the plans' pose lanes, segments and ranges: for the 13
# instances of each skills task of seeds 1-3, planned on the task's tables as
# the workload trains them, and for the 112 training and instance tasks of
# the hybrid workload of seeds 1-2; recorded when plan_lfd still retargeted
# each waypoint gap with its own lane calls
PLAN_PINS = {
    ("skills", 1, 0): "8428d7d8b7906cf056852b641ed0bcd726603c7de12cbeebbfbf04873ec42425",
    ("skills", 1, 1): "fe49b906db68858906c375fb7f47035b42aba6821aac274e8de2411be836fe3c",
    ("skills", 1, 2): "dca11ffb89b40532376f9c2c5ec32982aba81d289743da468bf66d84759e3bac",
    ("skills", 1, 3): "a31b4a7c58d641db2e56096aa9c46fbb96ae9f37366d27dce08cdb4c7cdc69c7",
    ("skills", 1, 4): "78571e62f958ec4298c424839e21a5121d5977158156263fcd7fa0e3943907dc",
    ("skills", 1, 5): "28c7a62e3185f67094799bf389b873ce2cdd3d81562e287fdc8c5890564b72e5",
    ("skills", 1, 6): "50558f95d027f681505a765982605992d77feda135e1a56bf1bd9f8dbf98d5d3",
    ("skills", 1, 7): "d1e3a1c2300701dfa28a356d1ccd0de374f114246f3a734c86982863486f0637",
    ("skills", 2, 0): "7f27dae7a053c871b64430ff500ccd2809ee6a296322048b904babb39c00ed58",
    ("skills", 2, 1): "01fab94a2d455c7247d561d94a68d28b9cb6ac18d3ac01788a33947b1bbb4b1a",
    ("skills", 2, 2): "5bacf7a93af6e7acc8064650b62defd6677025164df6554f774ad17a065fe90d",
    ("skills", 2, 3): "8ac8bd03de0cdb2b037415498bc4ddb3c997789f880c58930f4ce3a96899472c",
    ("skills", 2, 4): "027011f9e1941f52d8ea3cd390d69924be5e2e686efd13948d02ff72a6a6032f",
    ("skills", 2, 5): "a529decb0f0d9165b1b25c5aa37f9310f9ff02c654ad66915912a886a1a7e98a",
    ("skills", 2, 6): "bb62fb8854f07bcede483cf7e9f96a4a87da02e6260dc7c5eb859b9fb1e0f96e",
    ("skills", 2, 7): "196187134ecd7760b8da93f26d8f3402dfcca19246afe82b4f29d42cfb127502",
    ("skills", 3, 0): "489de05cd8f421329dfa3320efbc2e9937f138a66f8ec92385009202412047a9",
    ("skills", 3, 1): "21a8dc68f47b7bc92eae28b5ab45a26f689badb0c6656421d6706f42662d2290",
    ("skills", 3, 2): "f6682e34d0fce6b22b2708d7fcab026ca8ae168f57cc5080a130b016c2b9ecc5",
    ("skills", 3, 3): "e42f6e6f4a062c5c86dbbe54519197946172b3be7e8e30b695b36e2d361f8bb1",
    ("skills", 3, 4): "db0d8e82805be3edea120b6b9cc63e9cc9217529c4712f7eeb7ce39668480d9a",
    ("skills", 3, 5): "0105adebd11dfd1197e6e3346b49b317cfac442d57f5034c72f67f58c872e665",
    ("skills", 3, 6): "d882f0d61d69649eee464856eeddf0d255604f29a949a304f36d8d7e229c23e0",
    ("skills", 3, 7): "7dc0445725972d931ee638ada70239e6cdc37a62ff0291bd43e4bc7432600c22",
    ("hybrid", 1): "33564d5413500c4b55745294b20b7bf887be18f915b49d1f7b84c6487de3a489",
    ("hybrid", 2): "7298629eb4a55d4bcdef6ed0b1ec7ad6df46a2dce32e326de4f618503c7d4802",
}


def test_plans_are_pinned_per_seed(workloads, skills_workloads, hybrid_workloads):
    # bit for bit: hybrid bins the plan poses into map cells
    for wl in skills_workloads:
        for k, st in enumerate(wl.tasks):
            tables = train_hrl([st.task], wl.library, episodes=wl.sizes.episodes,
                               config=workloads.hrl_config(), seed=1000 * wl.seed + k)
            plans = [plan_lfd(inst, wl.library, tables) for inst in st.instances]
            assert _plans_digest(plans) == PLAN_PINS["skills", wl.seed, k], \
                f"skills seed {wl.seed} task {k}: {NUMPY_HINT}"
    for wl in hybrid_workloads:
        plans = [wl._plan(task) for task in wl.train_tasks + wl.instances]
        assert len(plans) == 112
        assert _plans_digest(plans) == PLAN_PINS["hybrid", wl.seed], \
            f"hybrid seed {wl.seed}: {NUMPY_HINT}"


def forced_tables(segments):
    """Q tables whose greedy plan without a map is ``segments``."""
    return QTables({((a, -1), (a, b)): 1.0 for (a, b), _ in segments},
                   {((a, -1), (a, b), skill): 1.0 for (a, b), skill in segments})


def assert_plan_is_the_per_gap_plan(task, lib, segments, points_per_gap):
    plan = plan_lfd(task, lib, forced_tables(segments), points_per_gap=points_per_gap)
    poses, ranges = ref.plan_poses_per_gap(task, lib, segments, points_per_gap)
    assert plan["segments"] == segments
    assert plan["ranges"] == ranges
    assert dq_to_lanes(plan["poses"]).tobytes() == dq_to_lanes(poses).tobytes()


@pytest.mark.parametrize("points_per_gap", [25, 12, 10, 5, 4, 2])
def test_plan_lfd_is_the_per_gap_plan_for_mixed_skills(skills_workloads, points_per_gap):
    # arc has 10 poses and line 8: over 2 gaps their slices have 5 and 4
    # poses, so 5 and 4 points per gap keep one slice's own sampling, and 10
    # keeps the whole arc's
    wl = skills_workloads[0]
    lib = wl.library
    assert [len(lib[sk].poses) for sk in ("arc", "line")] == [10, 8]
    task = next(st.task for st in wl.tasks if len(st.task.configs) == 5)
    for segments in ([((0, 2), "arc"), ((2, 4), "line")],
                     [((0, 1), "line"), ((1, 4), "twist")],
                     [((0, 1), "arc"), ((1, 2), "line"), ((2, 3), "twist"), ((3, 4), "arc")],
                     [((0, 4), "line")]):
        assert_plan_is_the_per_gap_plan(task, lib, segments, points_per_gap)


def test_plan_lfd_is_the_per_gap_plan_with_a_constant_skill():
    hold = Demonstration("hold", [pose(0.5, 0.5)] * 4)
    lib = library_of(hold, line_skill("s", 1.0, 0.0, n=7))
    task = Task("t", [pose(0, 0), pose(0, 0), pose(1, 0.1), pose(2, 0), pose(2, 0)])
    for ppg in (4, 7, 3):
        assert_plan_is_the_per_gap_plan(
            task, lib, [((0, 1), "hold"), ((1, 3), "s"), ((3, 4), "hold")], ppg)
    plan = plan_lfd(task, lib, forced_tables([((0, 1), "hold"), ((1, 4), "s")]),
                    points_per_gap=4)
    assert dq_to_lanes(plan["poses"][:4]).tobytes() == dq_to_lanes([task.configs[0]] * 4).tobytes()
    # a constant skill cannot span a displacement, wherever its gap is
    for segments in ([((0, 1), "s"), ((1, 2), "hold"), ((2, 4), "s")],
                     [((0, 2), "hold"), ((2, 4), "s")]):
        with pytest.raises(ValueError, match="displacement mismatch"):
            plan_lfd(task, lib, forced_tables(segments))
        with pytest.raises(ValueError, match="displacement mismatch"):
            ref.plan_poses_per_gap(task, lib, segments, 25)


def retarget_pieces(pieces):
    """Both halves of retargeting on every (skill lanes, start, goal, n_out)
    piece: the skill sides of all pieces, then their task sides."""
    sides = lfd._skill_sides([(lanes, n_out) for lanes, _, _, n_out in pieces])
    return retarget_sides([(side, *piece[1:]) for side, piece in zip(sides, pieces)])


def test_retarget_pieces_mixes_constant_and_moving_pieces():
    # arc-length slices of a moving skill always move, so the constant piece
    # of a batch is a dwell: the per-gap rule still holds piece by piece
    rng = np.random.default_rng(8)
    dwell = Demonstration("dwell", [pose(0.3, -0.2, 0.4)] * 3)
    moving = line_skill("s", 1.0, 0.5, n=6)
    pieces, want = [], []
    for skill, n_out in ((moving, 6), (dwell, 5), (moving, 9), (dwell, 2)):
        start = pose(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
        goal = pose(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3)) if skill is moving else start
        pieces.append((skill.lanes, start.as_array(), goal.as_array(), n_out))
        want.append(dq_to_lanes(ref.retarget_lanes(skill, start, goal, n_out)))
    got = retarget_pieces(pieces)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    bad = pieces[:1] + [(dwell.lanes, pose(0, 0).as_array(), pose(0, 1e-6).as_array(), 5)]
    with pytest.raises(ValueError, match="displacement mismatch"):
        retarget_pieces(bad)
    # within 1e-9 a constant piece stays at its start
    near = retarget_pieces([(dwell.lanes, pose(0, 0).as_array(), pose(0, 1e-10).as_array(), 3)])
    assert near[0].tobytes() == np.tile(pose(0, 0).as_array(), (3, 1)).tobytes()


def test_plan_lfd_edge_plans():
    sk = line_skill("s", 1.0, 0.0)
    lib = library_of(sk)
    task = Task("t", [pose(0, 0), pose(1, 0), pose(2, 0)])
    for ppg in (1, 0):
        with pytest.raises(ValueError, match="n_out must be at least 2"):
            plan_lfd(task, lib, forced_tables([((0, 2), "s")]), points_per_gap=ppg)
        with pytest.raises(ValueError, match="n_out must be at least 2"):
            ref.plan_poses_per_gap(task, lib, [((0, 2), "s")], ppg)


def counted_lane_calls(monkeypatch):
    """Counts of the calls ``lfd`` makes to its two lane kernels."""
    calls = {"dq_sclerp_lanes": 0, "dq_mul_lanes": 0}

    def counted(name):
        kernel = getattr(lfd, name)

        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lfd, name, counted(name))
    return calls


def test_plan_lfd_makes_one_set_of_lane_calls(monkeypatch):
    calls = counted_lane_calls(monkeypatch)
    sk = line_skill("s", 2.0, 0.0, n=8)
    lib = library_of(sk, line_skill("t", 1.0, 0.5, n=5))
    configs = [pose(0, 0), pose(0.5, 0), pose(1.0, 0.1), pose(1.5, 0), pose(2.0, 0)]
    # four gaps in two segments or one, and one gap: the same calls, cold (at
    # most slices, bases and the correction ramp) and then warm (the ramp alone)
    for segments in ([((0, 2), "s"), ((2, 4), "t")], [((0, 4), "s")], [((0, 1), "t")]):
        task = Task("t", configs[:segments[-1][0][1] + 1])
        for most_sclerp in (3, 1):
            for name in calls:
                calls[name] = 0
            plan = plan_lfd(task, lib, forced_tables(segments))
            assert plan["segments"] == segments
            assert calls["dq_mul_lanes"] == 4
            assert 1 <= calls["dq_sclerp_lanes"] <= most_sclerp


def fresh(lib):
    """A copy of ``lib`` whose skills have kept nothing."""
    return library_of(*(Demonstration(s.id, s.poses, s.tags) for s in lib.skills.values()))


def test_plans_of_a_fresh_and_a_reused_library_are_byte_equal(workloads, skills_workloads,
                                                                 hybrid_workloads):
    # a fresh library retargets every gap from scratch; the reused one reads
    # the skill side of the layouts it has served
    cases = []
    for wl in skills_workloads[:2]:
        for k, st in enumerate(wl.tasks):
            tables = train_hrl([st.task], wl.library, episodes=wl.sizes.episodes,
                               config=workloads.hrl_config(), seed=1000 * wl.seed + k)
            cases += [(inst, wl.library, tables, None, 25) for inst in st.instances]
    for wl in hybrid_workloads:
        cases += [(task, wl.library, wl.tables, wl.fmap, workloads.POINTS_PER_GAP)
                  for task in wl.train_tasks + wl.instances]
    assert len(cases) == 2 * 104 + 2 * 112
    for task, lib, tables, fmap, ppg in cases:
        plan_lfd(task, lib, tables, fmap, ppg)                  # the reused library is warm
        warm = plan_lfd(task, lib, tables, fmap, ppg)
        cold = plan_lfd(task, fresh(lib), tables, fmap, ppg)
        assert (warm["segments"], warm["ranges"]) == (cold["segments"], cold["ranges"])
        assert warm["poses"].tobytes() == cold["poses"].tobytes()


def test_a_warm_plan_still_checks_a_constant_skill(monkeypatch):
    hold = Demonstration("hold", [pose(0.5, 0.5)] * 4)
    lib = library_of(hold, line_skill("s", 1.0, 0.0, n=7))
    task = Task("t", [pose(0, 0), pose(0, 0), pose(1, 0.1), pose(2, 0)])
    fits = [((0, 1), "hold"), ((1, 3), "s")]
    plan_lfd(task, lib, forced_tables(fits), points_per_gap=5)
    assert set(hold._gaps) == {(0, 1, 5)}
    calls = counted_lane_calls(monkeypatch)
    plan = plan_lfd(task, lib, forced_tables(fits), points_per_gap=5)
    assert calls["dq_sclerp_lanes"] == 1
    assert plan["poses"][:5].tobytes() == np.tile(task.configs[0].as_array(), (5, 1)).tobytes()
    # the same layouts, with the constant skill over a displacement
    with pytest.raises(ValueError, match="displacement mismatch"):
        plan_lfd(Task("u", [pose(0, 0), pose(0, 0.5), pose(1, 0.1), pose(2, 0)]), lib,
                 forced_tables(fits), points_per_gap=5)


def test_single_matching_skill_chosen_everywhere():
    sk = line_skill("only", 1.0, 0.0)
    task = Task("t", [pose(0, 0), pose(1, 0), pose(2, 0)])
    lib = library_of(sk)
    tables = train_hrl([task], lib, episodes=200, config=HrlConfig(**NO_JITTER), seed=0)
    plan = plan_lfd(task, lib, tables)
    assert all(skill == "only" for _, skill in plan["segments"])


def test_two_skills_assigned_to_matching_segments():
    a = line_skill("xstep", 1.0, 0.0, n=2)
    b = line_skill("ystep", 0.0, 1.0, n=2)
    task = Task("t", [pose(0, 0), pose(1, 0), pose(1, 1)])
    lib = library_of(a, b)
    tables = train_hrl([task], lib, episodes=300, config=HrlConfig(**NO_JITTER), seed=1)
    plan = plan_lfd(task, lib, tables)
    assert plan["segments"] == [((0, 1), "xstep"), ((1, 2), "ystep")]
    # agrees with the brute-force oracle
    best_r, best_plan = exhaustive_plan(task, lib)
    assert plan["segments"] == best_plan
    assert best_r == 0.0


def test_training_curve_trend_improves():
    a = line_skill("xstep", 1.0, 0.0, n=2)
    b = line_skill("ystep", 0.0, 1.0, n=2)
    task = Task("t", [pose(0, 0), pose(1, 0), pose(1, 1)])
    cfg = HrlConfig(eps_decay=80.0, **NO_JITTER)
    tables = train_hrl([task], library_of(a, b), episodes=400, config=cfg, seed=2)
    curve = np.array(tables.training_curve)
    w = 20
    smoothed = np.convolve(curve, np.ones(w) / w, mode="valid")
    span = smoothed.max() - smoothed.min() + 1e-9
    # upward trend: no dip larger than 10% of the span, clear net gain
    assert np.all(np.diff(smoothed) >= -0.1 * span)
    assert smoothed[-1] >= smoothed[0]


def test_train_validates_inputs():
    task = Task("t", [pose(0, 0), pose(1, 0)])
    with pytest.raises(ValueError, match="empty task set"):
        train_hrl([], library_of(line_skill("s", 1, 0)))
    with pytest.raises(ValueError, match="empty skill library"):
        train_hrl([task], SkillLibrary())


def test_train_seed_determinism():
    task = Task("t", [pose(0, 0), pose(1, 0), pose(1, 1)])
    lib = library_of(line_skill("a", 1, 0), line_skill("b", 0, 1))
    t1 = train_hrl([task], lib, episodes=100, seed=42)
    t2 = train_hrl([task], lib, episodes=100, seed=42)
    assert ref.serialize_tables(t1) == ref.serialize_tables(t2)
    assert len(t1.training_curve) == 100


def test_state_keys_are_map_cells():
    # a state is (configuration index, the configuration's map cell), the
    # cell -2 outside the map and -1 with no map
    n = 4 * 4 * 4
    fmap = FeasibilityMap(np.array([-0.5, -0.5, -0.25]), np.array([1.5, 1.5, 0.25]), 0.5,
                          (4, 4, 1), np.pi, (1, 1, 4), 1, np.zeros(n, np.uint8),
                          np.zeros(n), np.zeros((n, 1), np.float32))
    tasks = [Task("inside", [pose(0, 0), pose(1, 0), pose(1, 1, 2.0)]),
             Task("outside", [pose(3, 3), pose(0.2, 0.3, -1.0), pose(1.2, 0.3)])]

    def cell(c):
        found = ref.locate(fmap, c)
        return -2 if found is None else ref.cell_index(fmap, *found)

    keys = [[(i, cell(c)) for i, c in enumerate(t.configs)] for t in tasks]
    lib = library_of(line_skill("a", 1, 0), line_skill("b", 0, 1))
    cfg = HrlConfig(**NO_JITTER)
    tables = train_hrl(tasks, lib, episodes=40, config=cfg, seed=0, fmap=fmap)
    states = {state for state, _ in tables.task_q}
    assert keys[1][0] == (0, -2)
    assert {keys[0][0], keys[1][0]} <= states <= set(keys[0] + keys[1])
    # planning reads the same keys: only the map-keyed state prefers (0, 2)
    for task, task_keys in zip(tasks, keys):
        state = task_keys[0]
        prefer = QTables({(state, (0, 2)): 1.0}, {(state, (0, 2), "b"): 1.0})
        plan = plan_lfd(task, lib, prefer, fmap, points_per_gap=5)
        assert plan["segments"] == [((0, 2), "b")]
    no_map = train_hrl(tasks, lib, episodes=40, config=cfg, seed=0)
    assert {state for state, _ in no_map.task_q} <= {(0, -1), (1, -1)}


# ------------------------------------------------------------------ #
# planning
# ------------------------------------------------------------------ #
def test_plan_two_config_task_single_segment():
    sk = line_skill("s", 1.0, 0.0)
    task = Task("t", [pose(0.2, 0.3), pose(1.2, 0.3)])
    lib = library_of(sk)
    tables = train_hrl([task], lib, episodes=50, config=HrlConfig(**NO_JITTER), seed=0)
    plan = plan_lfd(task, lib, tables, points_per_gap=10)
    assert len(plan["segments"]) == 1
    assert chordal_distance(plan["poses"][0], task.configs[0]) < 1e-9
    assert chordal_distance(plan["poses"][-1], task.configs[1]) < 1e-9


def test_plan_hits_every_critical_configuration():
    sk = line_skill("s", 2.0, 0.0, n=8)
    task = Task("t", [pose(0, 0), pose(0.7, 0), pose(1.5, 0), pose(2, 0)])
    lib = library_of(sk)
    tables = train_hrl([task], lib, episodes=150, config=HrlConfig(**NO_JITTER), seed=3)
    plan = plan_lfd(task, lib, tables, points_per_gap=7)
    hits = [min(chordal_distance(p, c) for p in plan["poses"]) for c in task.configs]
    assert max(hits) < 1e-9


def test_plan_argmax_invariance_under_affine_value_scaling():
    a = line_skill("a", 1.0, 0.0, n=2)
    b = line_skill("b", 0.0, 1.0, n=2)
    task = Task("t", [pose(0, 0), pose(1, 0), pose(1, 1)])
    lib = library_of(a, b)
    tables = train_hrl([task], lib, episodes=200, config=HrlConfig(**NO_JITTER), seed=4)
    plan1 = plan_lfd(task, lib, tables)
    scaled = QTables(
        task_q={k: 3.0 * v + 7.0 for k, v in tables.task_q.items()},
        motion_q={k: 3.0 * v + 7.0 for k, v in tables.motion_q.items()})
    plan2 = plan_lfd(task, lib, scaled)
    assert plan1["segments"] == plan2["segments"]


def test_plan_no_admissible_skill_error():
    tables = QTables(motion_q={((0, -1), (0, 1), "s"): SENTINEL})
    task = Task("t", [pose(0, 0), pose(1, 0)])
    lib = library_of(line_skill("s", 1.0, 0.0))
    with pytest.raises(ValueError, match="no admissible skill"):
        plan_lfd(task, lib, tables)


def test_retarget_through_pins_waypoints():
    sk = line_skill("s", 3.0, 0.0, n=10)
    waypoints = [pose(0, 0), pose(0.9, 0.1), pose(2.1, -0.1), pose(3, 0)]
    traj = plan_lfd(Task("w", waypoints), library_of(sk), forced_tables([((0, 3), "s")]),
                    points_per_gap=8)["poses"]
    for w in waypoints:
        assert min(chordal_distance(p, w) for p in traj) < 1e-9
    assert len(traj) == 3 * 8 - 2


# ------------------------------------------------------------------ #
# small-instance optimality (module-scale version of the acceptance run)
# ------------------------------------------------------------------ #
def random_instance(rng):
    n_skills = int(rng.integers(2, 7))
    skills = []
    for k in range(n_skills):
        dx, dy = rng.uniform(-1.2, 1.2, size=2)
        if np.hypot(dx, dy) < 0.3:
            dx += 0.5
        skills.append(line_skill(f"s{k}", dx, dy, n=int(rng.integers(2, 6))))
    lib = library_of(*skills)
    n_cfg = int(rng.integers(2, 5))
    configs = [pose(*rng.uniform(-1, 1, size=2))]
    for _ in range(n_cfg - 1):
        gen = skills[int(rng.integers(n_skills))]
        end = retarget(gen, configs[-1],
                       pose(*(np.array(configs[-1].translation()[:2])
                              + gen.poses[-1].translation()[:2]
                              - gen.poses[0].translation()[:2]
                              + rng.uniform(-0.05, 0.05, size=2))), 4)[-1]
        configs.append(DualQuaternion.from_array(end))
    return Task("inst", configs), lib


def test_small_instance_optimality_sample():
    rng = np.random.default_rng(7)
    matches = 0
    trials = 20
    for _ in range(trials):
        task, lib = random_instance(rng)
        tables = train_hrl([task], lib, episodes=250,
                           config=HrlConfig(eps_decay=60.0, **NO_JITTER),
                           seed=int(rng.integers(1 << 30)))
        best_r, _ = exhaustive_plan(task, lib)
        try:
            plan = plan_lfd(task, lib, tables)
            got_r = sum(intrinsic_reward(lib[sk], task.configs[s[0]:s[1] + 1])
                        for s, sk in plan["segments"])
        except ValueError:
            got_r = SENTINEL
        if got_r >= best_r - 1e-9 or abs(got_r - best_r) < 1e-9:
            matches += 1
    assert matches >= int(0.95 * trials)


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: intrinsic_reward(line_skill("s", 1.0, 0.0), [pose(0, 0)]),
                 "segment needs at least 2 poses", id="one_pose_segment"),
    pytest.param(lambda: _jitter_lanes(np.zeros((2, 8)), HrlConfig(), np.random.default_rng(0)),
                 "degenerate rotation", id="degenerate_jitter"),
    pytest.param(lambda: _jitter_lanes(np.array([[np.nan, 0, 0, 1, 0, 0, 0, 0]]), HrlConfig(),
                                       np.random.default_rng(0)),
                 "degenerate rotation", id="nan_rotation_jitter"),
    pytest.param(lambda: _jitter_lanes(np.array([[0, 0, 0, 1, np.nan, 0, 0, 0]]), HrlConfig(),
                                       np.random.default_rng(0)),
                 "non-finite position", id="nan_position_jitter"),
    pytest.param(lambda: _jitter_lanes(np.array([[1, 0, 0, 0, 0, np.inf, 0, 0]]), HrlConfig(),
                                       np.random.default_rng(0)),
                 "non-finite position", id="inf_position_jitter"),
    pytest.param(lambda: _jitter_lanes(np.array([[np.inf, 0, 0, 0, 0, 0, 0, 0]]), HrlConfig(),
                                       np.random.default_rng(0)),
                 "degenerate rotation", id="inf_rotation_jitter"),
    # finite, but the translation 2 d r* overflows
    pytest.param(lambda: _jitter_lanes(np.array([[0, 0, 0, 1, 1e308, 1e308, 0, 0]]), HrlConfig(),
                                       np.random.default_rng(0)),
                 "non-finite position", id="overflowing_position_jitter"),
    pytest.param(lambda: train_hrl([Task("t", [pose(0, 0), pose(1, 0)])],
                                   library_of(line_skill("s", 1.0, 0.0)), episodes=0),
                 "episodes must be >= 1", id="no_episodes"),
])
def test_hrl_planner_refuses(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")               # refused before any numpy warning
        with pytest.raises(ValueError, match=match):
            call()
