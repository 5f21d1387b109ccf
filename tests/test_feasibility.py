import numpy as np
import pytest

import scalar_reference as ref
from hybridplan import feasibility, records
from hybridplan.dualquat import (
    DualQuaternion,
    dq_sclerp,
    dq_to_lanes,
    dq_translation,
    quat_from_euler,
)
from hybridplan.feasibility import (
    COLLISION,
    FJ,
    FeaResult,
    FeasibilityMap,
    LOW_MANIP,
    NOT_FJ,
    OK,
    UNREACHABLE,
    build_map,
    classify_trajectory,
    fea,
    load_map,
    map_bytes,
    save_map,
)
from hybridplan.geometry import Box, collision_index
from hybridplan.kinematics import (
    fk,
    ik_attempt,
    normalized_manipulability,
    planar_3r,
    planar_rr,
)

YAW_ONLY = (np.pi, (1, 1, 4))
ORI_FREE = (np.pi, (1, 1, 1))   # position-only arms cannot command yaw


def planar_pose(x, y, yaw=0.0):
    return DualQuaternion.from_pose([x, y, 0.0], (np.array([0, 0, 1.0]), yaw))


# ------------------------------------------------------------------ #
# fea
# ------------------------------------------------------------------ #
def test_fea_unreachable():
    m = planar_rr()
    res = fea(planar_pose(3.0, 0.0), m, [], rng=np.random.default_rng(0))
    assert not res.feasible and res.reason == UNREACHABLE and res.man_prime == 0.0


def test_fea_known_good_configuration():
    m = planar_3r()
    theta = np.array([0.4, 0.8, -0.5])
    pose = fk(m, theta)
    res = fea(pose, m, [], rng=np.random.default_rng(1))
    assert res.feasible and res.reason == OK
    assert res.man_prime >= 0.1
    assert res.witness is not None and m.within_limits(res.witness)


def test_fea_collision_blocked_witnesses(monkeypatch):
    # planar 2R reaching (1.2, 0): both elbow-up and elbow-down witnesses put
    # the elbow at x=1-ish; enclose the whole arm volume except the target
    monkeypatch.setattr(feasibility, "IK_BUDGET", 16)
    m = planar_rr()
    target = planar_pose(1.2, 0.0)
    # both elbow witnesses have the elbow on the circle of radius 1; block both
    blocker_up = Box([-0.1, 0.05, -0.2], [1.3, 1.2, 0.2], "upper")
    blocker_dn = Box([-0.1, -1.2, -0.2], [1.3, -0.05, 0.2], "lower")
    res = fea(target, m, [blocker_up, blocker_dn], rng=np.random.default_rng(2))
    assert not res.feasible and res.reason == COLLISION


def test_fea_low_manipulability(monkeypatch):
    # target at the annulus rim forces a near-singular arm
    monkeypatch.setattr(feasibility, "EPS_M", 0.5)
    m = planar_rr()
    res = fea(planar_pose(1.9995, 0.0), m, [], rng=np.random.default_rng(3))
    assert not res.feasible
    assert res.reason in (LOW_MANIP, UNREACHABLE)
    if res.reason == LOW_MANIP:
        assert res.man_prime < 0.5


def test_fea_witness_seed_priority():
    # a caller seed (the map's witness transfer) descends first and decides
    m = planar_3r()
    theta = np.array([0.3, 0.5, 0.2])
    seeds = feasibility._draw_seeds(m, [theta], np.random.default_rng(4))
    reasons, _, witnesses = feasibility._fea_batch(fk(m, theta).as_array()[None], [seeds], m,
                                                   [], *feasibility.POSE_TOL)
    assert reasons[0] == OK
    np.testing.assert_allclose(witnesses[0], theta, atol=1e-3)


# ------------------------------------------------------------------ #
# build_map
# ------------------------------------------------------------------ #
def build_map_at(*args, eps_m=0.1, ik_budget=12, **kwargs):
    """``build_map`` with ``EPS_M`` and ``IK_BUDGET`` set to ``eps_m`` and
    ``ik_budget`` for the call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feasibility, "EPS_M", eps_m)
        mp.setattr(feasibility, "IK_BUDGET", ik_budget)
        return build_map(*args, **kwargs)


def small_map(model, obstacles=(), seed=0, voxel=0.5, box=((-2.25, -2.25, -0.25), (2.25, 2.25, 0.25))):
    return build_map_at(model, list(obstacles), box, voxel,
                        orientation_spec=ORI_FREE, eps_m=0.05, seed=seed, ik_budget=8)


def test_build_map_all_unreachable_beyond_reach():
    m = planar_rr()
    fmap = build_map_at(m, [], ((3.0, 3.0, -0.25), (4.0, 4.0, 0.25)), 0.5,
                        orientation_spec=ORI_FREE, seed=0, ik_budget=4)
    assert np.all(fmap.reasons == UNREACHABLE)


def test_build_map_empty_tessellation():
    m = planar_rr()
    with pytest.raises(ValueError, match="empty tessellation"):
        build_map(m, [], ((0, 0, 0), (0, 0, 0)), 0.5)


@pytest.mark.parametrize("voxel_size", [0.0, -0.5, np.nan])
def test_build_map_refuses_a_voxel_size_that_is_not_positive(voxel_size):
    with pytest.raises(ValueError, match="empty tessellation"):
        build_map(planar_rr(), [], ((0, 0, 0), (1, 1, 1)), voxel_size)


@pytest.mark.parametrize("box, voxel_size, match", [
    pytest.param(((-np.inf, 0, 0), (1, 1, 1)), 0.5, "workspace box", id="inf lo"),
    pytest.param(((0, 0, 0), (1, np.inf, 1)), 0.5, "workspace box", id="inf hi"),
    pytest.param(((0, np.nan, 0), (1, 1, 1)), 0.5, "workspace box", id="nan lo"),
    pytest.param(((0, 0, 0), (1, 1, np.nan)), 0.5, "workspace box", id="nan hi"),
    pytest.param(((0, 0, 0), (1, 1, 1)), np.inf, "voxel_size inf", id="inf voxel_size"),
])
def test_build_map_refuses_a_box_or_voxel_size_that_is_not_finite(box, voxel_size, match):
    # an inf corner overflowed the voxel counts; an inf voxel size failed deep
    # inside cell_pose
    with pytest.raises(ValueError, match=match):
        build_map(planar_rr(), [], box, voxel_size)


@pytest.mark.parametrize("theta_max", [0.0, -1.0, 4.0, np.nan, np.inf])
def test_build_map_refuses_a_theta_max_outside_zero_to_pi(theta_max):
    # theta_max 0 or -1 would build an all-UNREACHABLE map whose lookups raise
    with pytest.raises(ValueError, match=r"theta_max .* is not in \(0, pi\]"):
        build_map(planar_rr(), [], ((-1.0, -1.0, -0.25), (1.0, 1.0, 0.25)), 1.0,
                  orientation_spec=(theta_max, (1, 1, 1)))


@pytest.mark.parametrize("theta_max", [np.pi / 8, 1.0, np.pi / 2, 2.0, 3 * np.pi / 4, np.pi])
def test_every_cell_centre_locates_into_its_own_cell(tmp_path, theta_max):
    # pitch comes from arcsin, so pitch bins beyond +-pi/2 would hold no pose
    # (at pi, 32 of (4, 4, 4)'s 64 centres located elsewhere)
    model, box = planar_rr(), ((0.5, 0.0, -0.1), (0.7, 0.2, 0.1))
    for orient_counts in [(1, 1, 8), (2, 1, 3), (4, 1, 4), (1, 3, 1), (1, 4, 2), (2, 2, 2),
                          (3, 3, 3), (4, 4, 4), (2, 5, 3)]:
        spec = (theta_max, orient_counts)
        if orient_counts[1] > 1 and theta_max > np.pi / 2:
            with pytest.raises(ValueError, match="pitch bins need theta_max <= pi/2"):
                build_map_at(model, [], box, 0.2, orientation_spec=spec, ik_budget=1)
            save_map(bare_map(theta_max, orient_counts), tmp_path / "pitch.map")
            with pytest.raises(ValueError, match="over several pitch bins"):
                load_map(tmp_path / "pitch.map")
            continue
        fmap = build_map_at(model, [], box, 0.2, orientation_spec=spec, ik_budget=1)
        digits = np.array(list(np.ndindex(*fmap.voxel_counts, *fmap.orient_counts)))
        np.testing.assert_array_equal(fmap.locate_lanes(feasibility._cell_lanes(fmap, digits)),
                                      np.arange(fmap.n_cells))


def test_build_map_annulus_matches_closed_form():
    # reachability (reason != UNREACHABLE) must match |L1-L2| <= r <= L1+L2
    # within one voxel of the boundary
    m = planar_rr()
    fmap = small_map(m, voxel=0.45)
    diag = fmap.voxel_size * np.sqrt(2) / 2
    for vox, ori in fmap.all_cells():
        center = fmap.voxel_center(vox)
        r = np.hypot(center[0], center[1])
        reachable = fmap.reasons[ref.cell_index(fmap, vox, ori)] != UNREACHABLE
        if r < 2.0 - diag and r > diag:
            # strictly inside the annulus by more than half a voxel diagonal
            assert reachable, (vox, ori, r)
        elif r > 2.0 + diag:
            assert not reachable, (vox, ori, r)


def test_build_map_witnesses_reverify():
    from hybridplan.geometry import collision_index
    from hybridplan.kinematics import normalized_manipulability
    m = planar_rr()
    wall = Box([0.4, -1.6, -0.2], [0.8, 1.6, 0.2], "wall")
    fmap = small_map(m, [wall])
    checked = 0
    for vox, ori in fmap.all_cells():
        idx = ref.cell_index(fmap, vox, ori)
        if fmap.reasons[idx] != OK:
            continue
        w = fmap.witnesses[idx].astype(float)
        assert not np.any(np.isnan(w))
        assert m.within_limits(w, tol=1e-5)
        assert collision_index(m, w, [wall]) == 0
        assert normalized_manipulability(m, w) >= fmap.metadata["eps_m"] - 1e-3
        # the witness pose lands inside the cell it vouches for
        assert fmap.locate_lanes(fk(m, w).as_array()[None])[0] == idx
        checked += 1
    assert checked > 10


def test_build_map_obstacle_monotonicity():
    m = planar_rr()
    rng = np.random.default_rng(5)
    for k in range(3):
        lo = rng.uniform(-1.5, 0.5, size=2)
        size = rng.uniform(0.3, 1.0, size=2)
        wall = Box([lo[0], lo[1], -0.2], [lo[0] + size[0], lo[1] + size[1], 0.2])
        free = small_map(m, [], seed=k, voxel=0.75)
        blocked = small_map(m, [wall], seed=k, voxel=0.75)
        assert (blocked.reasons == OK).sum() <= (free.reasons == OK).sum()


def test_build_map_seed_determinism_and_file_roundtrip(tmp_path):
    m = planar_rr()
    wall = Box([0.5, -1.0, -0.2], [0.9, 1.0, 0.2], "w")
    a = small_map(m, [wall], seed=7, voxel=0.75)
    b = small_map(m, [wall], seed=7, voxel=0.75)
    assert map_bytes(a) == map_bytes(b)

    path = tmp_path / "cells.map"
    save_map(a, path)
    loaded = load_map(path)
    assert map_bytes(loaded) == map_bytes(a)
    np.testing.assert_array_equal(loaded.reasons, a.reasons)
    # quantized man values survive the roundtrip exactly
    np.testing.assert_array_equal(loaded.man, a.man)
    np.testing.assert_array_equal(loaded.witnesses, a.witnesses)
    assert loaded.witnesses.dtype == np.float32
    assert loaded.metadata == a.metadata
    assert [type(loaded.metadata[k]) for k in a.metadata] == [type(v) for v in a.metadata.values()]


def test_build_map_yaw_cells_planar_3r():
    m = planar_3r()
    fmap = build_map_at(m, [], ((-0.1, -0.1, -0.25), (0.9, 0.9, 0.25)), 0.5,
                        orientation_spec=YAW_ONLY, eps_m=0.05, seed=1, ik_budget=8)
    assert fmap.n_orient == 4
    # the 3R controls yaw: every feasible cell's witness lands in its yaw bin
    found = 0
    for vox, ori in fmap.all_cells():
        idx = ref.cell_index(fmap, vox, ori)
        if fmap.reasons[idx] != OK:
            continue
        w = fmap.witnesses[idx].astype(float)
        assert fmap.locate_lanes(fk(m, w).as_array()[None])[0] == idx
        found += 1
    assert found >= 4
    # yaw binning: a pose rotated by one bin width lands in the next bin of
    # the same voxel (yaw is the last digit of the flat index)
    cell_a, cell_b = fmap.locate_lanes(dq_to_lanes([planar_pose(0.4, 0.4, 0.1),
                                                    planar_pose(0.4, 0.4, 0.1 + np.pi / 2)]))
    assert cell_b == cell_a + 1


def test_refinement_witness_transfer(monkeypatch):
    # a coarse feasible cell's witness, used as an IK seed, re-verifies in the
    # fine cell that contains its pose
    m = planar_rr()
    coarse = small_map(m, voxel=0.9)
    monkeypatch.setattr(feasibility, "EPS_M", 0.05)
    monkeypatch.setattr(feasibility, "IK_BUDGET", 8)
    fine_voxel = 0.45
    transfers = 0
    for vox, ori in coarse.all_cells():
        idx = ref.cell_index(coarse, vox, ori)
        if coarse.reasons[idx] != OK:
            continue
        w = coarse.witnesses[idx].astype(float)
        seeds = feasibility._draw_seeds(m, [w], np.random.default_rng(0))
        reasons, _, _ = feasibility._fea_batch(fk(m, w).as_array()[None], [seeds], m, [],
                                               fine_voxel / 2, np.pi / 4)
        assert reasons[0] == OK
        transfers += 1
        if transfers >= 25:
            break
    assert transfers > 0


# ------------------------------------------------------------------ #
# build_map against a one-descent-at-a-time reference
# ------------------------------------------------------------------ #
def loop_fea(pose, model, obstacles, eps_m, ik_budget, rng, tol_pos, tol_rot, max_iters,
             extra_seeds):
    """Feasibility of one pose with one scalar ``ik_attempt`` per seed, in seed
    order, stopping at the first qualifying witness."""
    seeds = [np.asarray(s, dtype=float) for s in extra_seeds]
    seeds.append(model.home)
    lo, hi = model.limits_lo, model.limits_hi
    while len(seeds) < ik_budget:
        seeds.append(rng.uniform(lo, hi))
    reached = False
    best_free = None
    best_any = None
    for seed in seeds:
        sol = ik_attempt(model, pose, seed, tol_pos, tol_rot, max_iters)
        if sol is None:
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


WALL = Box([0.4, -1.6, -0.2], [0.8, 1.6, 0.2], "wall")


@pytest.mark.parametrize("factory, box, ori, seed, wall", [
    (planar_rr, ((-2.25, -2.25, -0.25), (2.25, 2.25, 0.25)), ORI_FREE, 1, [WALL]),
    (planar_3r, ((-1.2, -1.2, -0.25), (1.2, 1.2, 0.25)), YAW_ONLY, 0, [WALL]),
    # a second obstacle in the lane judge, and one yaw neighbour per cell
    (planar_3r, ((-1.2, -1.2, -0.25), (1.2, 1.2, 0.25)), (np.pi, (1, 1, 2)), 2,
     [WALL, Box([-0.55, 0.25, -0.25], [-0.05, 0.75, 0.25], "post")]),
], ids=["planar_rr-box0-ori0-1", "planar_3r-box1-ori1-0", "planar_3r-post-two_yaw_bins-2"])
def test_build_map_matches_loop_reference(monkeypatch, factory, box, ori, seed, wall):
    m = factory()
    monkeypatch.setattr(feasibility, "EPS_M", 0.05)
    monkeypatch.setattr(feasibility, "IK_BUDGET", 8)
    args = dict(orientation_spec=ori, seed=seed)
    lockstep = build_map(m, wall, box, 0.5, **args)

    upgrades = []

    def loop_cells(model, obstacles, fmap, indices, seed, seeds_by_cell, spawn_salt):
        half_pos = 0.5 * fmap.voxel_size
        half_rot = float(np.min(fmap.theta_max / np.asarray(fmap.orient_counts)))
        cells = list(fmap.all_cells())
        out = []
        for i in indices:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i, spawn_salt)))
            extra = () if seeds_by_cell is None else seeds_by_cell.get(i, ())
            res = loop_fea(fmap.cell_pose(*cells[i]), model, obstacles, feasibility.EPS_M,
                           feasibility.IK_BUDGET, rng, half_pos, half_rot, 80, extra)
            if spawn_salt and res.reason == OK:
                upgrades.append(i)
            out.append(res)
        return (np.array([res.reason for res in out], dtype=np.uint8),
                np.array([res.man_prime for res in out]),
                np.array([np.full(model.dof, np.nan) if res.witness is None else res.witness
                          for res in out]))

    monkeypatch.setattr(feasibility, "_evaluate_cells", loop_cells)
    reference = build_map(m, wall, box, 0.5, **args)
    assert upgrades, "witness transfer upgraded no cell"
    np.testing.assert_array_equal(lockstep.reasons, reference.reasons)
    np.testing.assert_array_equal(lockstep.man, reference.man)
    np.testing.assert_array_equal(lockstep.witnesses, reference.witnesses)
    assert lockstep.witnesses.dtype == np.float32


def reference_neighbors(fmap, vox, ori):
    """Adjacent cells of one cell, each once: +-1 per position axis inside
    the box, then the yaw bins below and above (wrapping)."""
    out = []
    for axis in range(3):
        for step in (-1, 1):
            moved = list(vox)
            moved[axis] += step
            if 0 <= moved[axis] < fmap.voxel_counts[axis]:
                out.append(ref.cell_index(fmap, moved, ori))
    for step in (-1, 1):
        yaw = (ori[2] + step) % fmap.orient_counts[2]
        j = ref.cell_index(fmap, vox, (*ori[:2], yaw))
        if j != ref.cell_index(fmap, vox, ori) and j not in out:
            out.append(j)
    return out


@pytest.mark.parametrize("counts, orient_counts", [
    ((3, 2, 1), (1, 1, 1)), ((3, 2, 1), (1, 1, 2)), ((1, 3, 2), (1, 1, 3)),
    ((2, 2, 2), (2, 1, 4)),
])
def test_neighbor_table_lists_each_adjacent_cell_once(counts, orient_counts):
    fmap = bare_map(np.pi, orient_counts, counts=counts)
    table = feasibility._neighbor_table(fmap)
    assert table.shape == (fmap.n_cells, 8)
    for i, (vox, ori) in enumerate(fmap.all_cells()):
        assert table[i][table[i] >= 0].tolist() == reference_neighbors(fmap, vox, ori)


def test_two_yaw_bin_transfer_seeds_hold_no_repeated_neighbor(monkeypatch):
    # with two yaw bins the bin below and the bin above are the same cell
    m = planar_3r()
    seeded = {}
    evaluate = feasibility._evaluate_cells

    def recording(model, obstacles, fmap, indices, seed, seeds_by_cell, spawn_salt):
        seeded.update({(spawn_salt, i): seeds for i, seeds in (seeds_by_cell or {}).items()})
        return evaluate(model, obstacles, fmap, indices, seed, seeds_by_cell, spawn_salt)

    monkeypatch.setattr(feasibility, "_evaluate_cells", recording)
    monkeypatch.setattr(feasibility, "EPS_M", 0.05)
    monkeypatch.setattr(feasibility, "IK_BUDGET", 8)
    fmap = build_map(m, [WALL], ((-1.2, -1.2, -0.25), (1.2, 1.2, 0.25)), 0.5,
                     orientation_spec=(np.pi, (1, 1, 2)), seed=2)
    cells = list(fmap.all_cells())
    yaw_seeded = 0
    for (_, i), seeds in seeded.items():
        vox, ori = cells[i]
        yaw_neighbor = ref.cell_index(fmap, vox, (*ori[:2], 1 - ori[2]))
        assert len(np.unique(seeds, axis=0)) == len(seeds)
        assert len(seeds) <= len(reference_neighbors(fmap, vox, ori))
        yaw_seeded += any(np.array_equal(s, fmap.witnesses[yaw_neighbor]) for s in seeds)
    assert yaw_seeded > 0


# ------------------------------------------------------------------ #
# map file validation
# ------------------------------------------------------------------ #
def test_load_map_rejects_truncated_files(tmp_path):
    full = map_bytes(small_map(planar_rr(), voxel=1.5))
    path = tmp_path / "cut.map"
    for cut in range(len(full)):
        path.write_bytes(full[:cut])
        with pytest.raises(ValueError, match=f"truncated feasibility map: {cut} bytes"):
            load_map(path)


def test_load_map_rejects_trailing_bytes(tmp_path):
    full = map_bytes(small_map(planar_rr(), voxel=1.5))
    path = tmp_path / "long.map"
    path.write_bytes(full + b"extra")
    with pytest.raises(ValueError, match=f"{len(full) + 5} bytes, expected {len(full)}"):
        load_map(path)
    path.write_bytes(full)
    assert map_bytes(load_map(path)) == full


@pytest.mark.parametrize("offset, value, match", [
    (0, b"X", "not a feasibility map file"),
    (4, b"\x01", "unsupported feasibility map version 1, expected 2"),
])
def test_load_map_rejects_a_wrong_magic_or_version(tmp_path, offset, value, match):
    full = map_bytes(small_map(planar_rr(), voxel=1.5))
    path = tmp_path / "other.map"
    path.write_bytes(full[:offset] + value + full[offset + 1:])
    with pytest.raises(ValueError, match=match):
        load_map(path)


@pytest.mark.parametrize("change", ["one cell more", "dof 3", "no witnesses", "man as f8"])
def test_load_map_rejects_arrays_that_disagree_with_the_counts(tmp_path, change):
    # a whole, well-framed file whose arrays do not fit its counts
    meta, arrays = records.unpack(map_bytes(small_map(planar_rr(), voxel=1.5)),
                                  feasibility._MAGIC, feasibility._VERSION, "map")
    if change == "one cell more":
        arrays[1][0] += 1
    elif change == "dof 3":
        arrays[1][6] = 3
    elif change == "no witnesses":
        arrays.pop()
    else:
        arrays[3] = arrays[3].astype("<f8")
    path = tmp_path / "odd.map"
    path.write_bytes(records.pack(feasibility._MAGIC, feasibility._VERSION, meta, arrays))
    with pytest.raises(ValueError, match="disagree with"):
        load_map(path)


@pytest.mark.parametrize("change", ["voxel_size 0", "voxel_size -0.5", "voxel_size inf",
                                    "theta_max nan", "theta_max 0", "theta_max -1",
                                    "theta_max 4", "box_lo -inf", "box_hi = box_lo on z",
                                    "box_hi < box_lo on x", "no yaw cells", "no x voxels"])
def test_load_map_rejects_a_geometry_build_map_refuses(tmp_path, change):
    # a whole, well-framed file: with voxel_size 0 every lookup would divide
    # by zero and answer UNREACHABLE
    meta, arrays = records.unpack(map_bytes(small_map(planar_rr(), voxel=1.5)),
                                  feasibility._MAGIC, feasibility._VERSION, "map")
    geometry, counts = arrays[0], arrays[1]
    if change.startswith("voxel_size"):
        geometry[6] = float(change.split()[1])
    elif change.startswith("theta_max"):
        geometry[7] = float(change.split()[1])
    elif change == "box_lo -inf":
        geometry[0] = -np.inf
    elif change == "box_hi = box_lo on z":
        geometry[5] = geometry[2]
    elif change == "box_hi < box_lo on x":
        geometry[3] = geometry[0] - 1.0
    else:
        counts[5 if change == "no yaw cells" else 0] = 0
        arrays[2:] = [a[:0] for a in arrays[2:]]      # the arrays of no cells
    path = tmp_path / "odd.map"
    path.write_bytes(records.pack(feasibility._MAGIC, feasibility._VERSION, meta, arrays))
    with pytest.raises(ValueError, match="is not a finite, nonempty tessellation"):
        load_map(path)


# ------------------------------------------------------------------ #
# map lookups against the one-pose reference
# ------------------------------------------------------------------ #
def bare_map(theta_max, orient_counts, lo=(-0.3, -0.6, -0.1), voxel=0.3, counts=(6, 5, 1)):
    """A map geometry with seeded verdicts and no build."""
    n = int(np.prod(counts) * np.prod(orient_counts))
    lo = np.asarray(lo, dtype=float)
    reasons = np.random.default_rng(0).integers(0, 4, size=n).astype(np.uint8)
    return FeasibilityMap(lo, lo + voxel * np.asarray(counts), voxel, counts, theta_max,
                          orient_counts, 1, reasons, np.linspace(0, 1, n),
                          np.arange(n, dtype=np.float32)[:, None])


def boundary_poses(fmap, n, rng):
    """Poses on voxel faces and bin edges at +-1e-12 and +-2e-9, on the box's
    upper face, outside each side of the box, and at yaw +-pi and
    +-(pi - 1e-12)."""
    tm = fmap.theta_max
    poses = []
    for _ in range(n):
        p = []
        for lo, c in zip(fmap.box_lo, fmap.voxel_counts):
            hi = lo + fmap.voxel_size * c
            p.append(rng.choice([lo + fmap.voxel_size * rng.integers(0, c + 1)
                                 + rng.choice([-2e-9, -1e-12, 0.0, 1e-12, 2e-9]),
                                 rng.choice([lo - 1e-6, hi + 1e-6, lo - 5.0, hi + 5.0]),
                                 rng.uniform(lo, hi)], p=[0.5, 0.1, 0.4]))
        angles = []
        for c in fmap.orient_counts:
            angles.append(rng.choice([-tm + 2 * tm / c * rng.integers(0, c + 1)
                                      + rng.choice([-2e-9, -1e-12, 0.0, 1e-12, 2e-9]),
                                      rng.choice([np.pi, -np.pi, np.pi - 1e-12, 1e-12 - np.pi]),
                                      rng.uniform(-np.pi, np.pi)], p=[0.4, 0.2, 0.4]))
        q = quat_from_euler(*angles)
        poses.append(DualQuaternion.from_pose(p, q if rng.random() < 0.5 else -q))
    return poses


def reference_cells(fmap, poses):
    return np.array([-1 if (cell := ref.locate(fmap, p)) is None
                     else ref.cell_index(fmap, *cell) for p in poses])


@pytest.mark.parametrize("theta_max, orient_counts", [
    (np.pi, (1, 1, 1)), (np.pi, (1, 1, 3)), (np.pi, (1, 1, 8)),
    (0.8, (2, 3, 4)), (np.pi / 2, (2, 3, 4))])
def test_locate_lanes_matches_reference_on_boundaries(theta_max, orient_counts):
    fmap = bare_map(theta_max, orient_counts)
    poses = boundary_poses(fmap, 1000, np.random.default_rng(0))
    want = reference_cells(fmap, poses)
    assert 0 < np.sum(want < 0) < len(want)
    np.testing.assert_array_equal(fmap.locate_lanes(dq_to_lanes(poses)), want)
    # lookup is the one-row call
    for pose, idx in zip(poses[:200], want):
        res = fmap.lookup(pose)
        if idx < 0:
            assert res == FeaResult(False, 0.0, UNREACHABLE, None)
        else:
            assert (res.reason, res.man_prime, res.witness[0]) == (fmap.reasons[idx],
                                                                   fmap.man[idx], idx)


def test_classify_matches_reference_runs():
    fmap = bare_map(np.pi, (1, 1, 3))
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = (planar_pose(*rng.uniform([-0.6, -0.9, -np.pi], [1.8, 1.2, np.pi]))
                for _ in range(2))
        traj = straight_line(a, b, int(rng.integers(2, 60)))
        cells = reference_cells(fmap, traj)
        mask = [idx >= 0 and fmap.reasons[idx] == OK for idx in cells]
        runs, start = [], 0
        for i in range(1, len(traj) + 1):
            if i == len(traj) or mask[i] != mask[start]:
                runs.append((start, i - 1, FJ if mask[start] else NOT_FJ))
                start = i
        cls = classify_trajectory(traj, fmap)
        assert cls.feasible_mask.tolist() == mask
        assert [(s.start, s.end, s.label) for s in cls.segments] == runs
        assert cls.poses.tobytes() == dq_to_lanes(traj).tobytes()


# ------------------------------------------------------------------ #
# classify_trajectory
# ------------------------------------------------------------------ #
def straight_line(a, b, n):
    return [dq_sclerp(a, b, u) for u in np.linspace(0, 1, n)]


def test_classify_all_feasible():
    m = planar_rr()
    fmap = small_map(m)
    traj = straight_line(planar_pose(0.3, 1.2), planar_pose(1.2, 0.3), 12)
    cls = classify_trajectory(traj, fmap)
    assert len(cls.segments) == 1
    assert cls.segments[0].label == FJ
    assert cls.segments[0].start == 0 and cls.segments[0].end == 11


def test_classify_wall_band_three_segments():
    # a block sitting on the path: the middle voxel column is infeasible,
    # the flanks stay feasible
    m = planar_rr()
    block = Box([-0.25, 0.7, -0.2], [0.25, 1.3, 0.2], "block")
    fmap = small_map(m, [block])
    traj = straight_line(planar_pose(-1.4, 0.9), planar_pose(1.4, 0.9), 15)
    cls = classify_trajectory(traj, fmap)
    labels = [s.label for s in cls.segments]
    assert labels == [FJ, NOT_FJ, FJ]
    (seg, before, after), = cls.infeasible_brackets()
    assert before is not None and after is not None
    assert dq_translation(before)[0] < -0.25 and dq_translation(after)[0] > 0.25


def test_classify_all_infeasible():
    m = planar_rr()
    fmap = small_map(m)
    traj = straight_line(planar_pose(3.0, 3.0), planar_pose(3.5, 3.5), 5)
    cls = classify_trajectory(traj, fmap)
    assert len(cls.segments) == 1 and cls.segments[0].label == NOT_FJ
    (seg, before, after), = cls.infeasible_brackets()
    assert before is None and after is None


def test_classify_too_short():
    m = planar_rr()
    fmap = small_map(m)
    with pytest.raises(ValueError):
        classify_trajectory([planar_pose(0, 1)], fmap)


def test_classify_idempotence():
    m = planar_rr()
    block = Box([-0.25, 0.7, -0.2], [0.25, 1.3, 0.2], "block")
    fmap = small_map(m, [block])
    traj = straight_line(planar_pose(-1.4, 0.9), planar_pose(1.4, 0.9), 15)
    cls = classify_trajectory(traj, fmap)
    for seg in cls.segments:
        if seg.end - seg.start + 1 < 2:
            continue
        sub = traj[seg.start:seg.end + 1]
        sub_cls = classify_trajectory(sub, fmap)
        assert len(sub_cls.segments) == 1
        assert sub_cls.segments[0].label == seg.label


def _edited_map_file(path, edit):
    """A planar_rr map file after ``edit(meta, arrays)``, loaded."""
    meta, arrays = records.unpack(map_bytes(small_map(planar_rr(), voxel=1.5)),
                                  feasibility._MAGIC, feasibility._VERSION, "map")
    edit(meta, arrays)
    path.write_bytes(records.pack(feasibility._MAGIC, feasibility._VERSION, meta, arrays))
    return load_map(path)


def _map_file_with_voxel_counts(path, counts):
    """A map file over the box [0.2, 0.8] x [-0.3, 0.3] x [-0.1, 0.2] at
    voxel size 0.3, which makes 2 x 2 x 1 voxels, that says ``counts``,
    loaded."""
    fmap = bare_map(np.pi, (1, 1, 1), lo=(0.2, -0.3, -0.1), counts=counts)
    fmap.box_hi = np.array([0.8, 0.3, 0.2])
    fmap.metadata = {"ik_budget": 1, "eps_m": 0.1, "seed": 0}
    save_map(fmap, path)
    return load_map(path)


def test_a_map_file_with_the_voxel_counts_of_its_box_loads(tmp_path):
    # the control of the map_file_voxel_counts refusal below
    fmap = _map_file_with_voxel_counts(tmp_path / "map.bin", (2, 2, 1))
    assert fmap.voxel_counts == (2, 2, 1)
    beyond = dq_to_lanes(DualQuaternion.from_translation([1.0, 0.0, 0.0])).reshape(1, 8)
    assert fmap.locate_lanes(beyond).tolist() == [-1]


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda tmp: build_map(planar_rr(), [], ((0, 0, 0), (1, 1, 1)), 0.5,
                                       orientation_spec=(np.pi, (1, 1, 0))),
                 "empty tessellation", id="no_orientation_cells"),
    pytest.param(lambda tmp: _edited_map_file(tmp, lambda meta, arrays: arrays.reverse()),
                 "do not start with the", id="map_file_layout"),
    pytest.param(lambda tmp: _edited_map_file(tmp, lambda meta, arrays: meta.pop("seed")),
                 "metadata lacks 'seed'", id="map_file_without_seed"),
    # with a third x voxel a pose at x = 1.0, beyond the box, located into a
    # cell, where build_map's 2 x voxels put it outside the map
    pytest.param(lambda tmp: _map_file_with_voxel_counts(tmp, (3, 2, 1)),
                 r"voxel counts \(3, 2, 1\) disagree with the \(2, 2, 1\)",
                 id="map_file_voxel_counts"),
])
def test_feasibility_refuses(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path / "map.bin")
