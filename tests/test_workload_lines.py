"""``benchmarks/workload_lines.py``: the package lines no benchmark workload
runs, held to the lists below.

One seed-1 round of each workload runs under the tool's tracer once per
test run.  The functions it finds never entered must be exactly the keys of
``NOT_ENTERED_KEPT``, and each partly-run function must leave exactly the
count of lines ``PARTLY_RUN_KEPT`` gives it (a count, not line numbers, so an
edit elsewhere in a file keeps the rule).  Each entry says why the code
stays.  Both lists may only shrink: code that no workload runs either gets a
caller in a workload or goes, and a listed function that starts to run
leaves its list in the same change.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "workload_lines.py"
WORKLOADS = ["map", "skills", "hybrid"]

# why code that no workload runs stays
FILE_IO = "the binary artifacts the CLI stages hand on (ROADMAP items 1 and 10)"
BENCHMARK_NAMES = "named by perfbench: its tracer, inputs or tests (ROADMAP item 14)"
GENERAL_CHAINS = ("chains other than the workloads' planar 3R arm: spatial, RR and "
                  "general chains (ROADMAP items 8 and 17)")
SCENES = "the shipped scenes (ROADMAP items 1 and 25)"
ORACLE = "test-only: a test oracle or model, or a BENCH statistic (ROADMAP items 1, 9 and 16)"
UNSENT = "an input no workload sends"
SAFETY = "safety: the PPO update's abort on a non-finite loss"
PROTOCOL = "a Python protocol no workload invokes: copy, pickle or repr"

# functions no workload enters: qualified name -> why it stays
NOT_ENTERED_KEPT = {
    **{name: FILE_IO for name in [
        "feasibility.map_bytes", "feasibility.save_map", "feasibility.load_map", "records._u4",
        "records.pack", "records.unpack", "records.unpack.<locals>.take",
        "records.unpack.<locals>.u4s", "rl_core.save_checkpoint", "rl_core._param_count",
        "rl_core.load_checkpoint"]},
    # quat_to_rotvec and _pose_error_raw serve ik_attempt alone
    **{name: BENCHMARK_NAMES for name in [
        "dualquat.quat_to_rotvec", "feasibility.fea", "geometry.ray_bundle",
        "kinematics.fk_frames", "kinematics.ee_state", "kinematics.normalized_manipulability",
        "kinematics._pose_error_raw", "kinematics.ik_attempt", "kinematics.ik", "lfd.retarget",
        "lfd._resampled", "lfd.feature_distance_terms", "switch_agent.heuristic_switches",
        "workcell.count_path_collisions"]},
    "switch_agent._chained_ik_free": GENERAL_CHAINS,
    **{name: SCENES for name in [
        "scenarios.planar_pose", "scenarios._line_demo", "scenarios._arc_demo",
        "scenarios._twist_demo", "scenarios.line_library", "scenarios.standard_library",
        "scenarios.standard_robot", "scenarios.open_workspace", "scenarios.wall_slot",
        "scenarios.tray_sorting", "scenarios.tray_sorting.<locals>.touch",
        "scenarios.tray_sorting.<locals>.carry"]},
    **{name: ORACLE for name in [
        "kinematics.planar_rr", "switch_agent.brute_force_switches",
        "workcell.wilson_interval", "workcell.bench"]},
    "geometry._face_planes": UNSENT,                       # a ray origin on a face plane
    **{name: PROTOCOL for name in [
        "dualquat.DualQuaternion.__repr__", "rl_core.Mlp.__getstate__",
        "rl_core.Mlp.__setstate__"]},
}

# functions the workloads enter but do not run through:
# qualified name -> (lines no workload runs, why they stay)
PARTLY_RUN_KEPT = {
    "feasibility.FeasibilityMap.lookup": (1, UNSENT),      # a pose outside the map
    "geometry.raycast_many": (1, UNSENT),                  # a ray origin on a face plane
    "kinematics.RobotModel.ee_dof": (1, GENERAL_CHAINS),
    "kinematics._jacobian_raw": (2, GENERAL_CHAINS),
    "kinematics._pose_error_lanes": (2, GENERAL_CHAINS),
    "kinematics.ik_descend": (1, UNSENT),                  # every lane done before max_iters
    "kinematics._planar_arm": (2, GENERAL_CHAINS),
    "kinematics.closed_form_branches": (1, GENERAL_CHAINS),
    "lfd.sample_pieces": (1, UNSENT),                      # no pieces
    "lfd.retarget_sides": (1, UNSENT),                     # constant-pose skills only
    "rl_core.ppo_update": (8, SAFETY),
    "switch_agent.lfd_joint_candidates": (1, GENERAL_CHAINS),
    "switch_agent._min_jump_picks": (1, UNSENT),           # no pose with a candidate
    "switch_agent.find_bands": (1, UNSENT),                # an infeasible head or tail
    "workcell.Workcell.__post_init__": (2, SCENES),        # stations
    # a configuration never hit, a held segment
    "workcell.execute": (3, UNSENT),
}


@pytest.fixture(scope="module")
def tool():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))          # the tool prepends its paths
        spec = importlib.util.spec_from_file_location("workload_lines", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module


@pytest.fixture(scope="module")
def unrun(tool):
    return tool.unexecuted(WORKLOADS, seed=1)


def platform() -> str:
    # which branches a round runs (a tie, a touch, a threshold) follows its
    # float results, and another numpy build may round them otherwise
    return f"(numpy {np.__version__}; the lists were taken with numpy 2.4.6)"


def test_the_functions_no_workload_enters_are_the_listed_ones(unrun):
    found = {name for name, lines in unrun.items() if lines is None}
    new, entered = sorted(found - set(NOT_ENTERED_KEPT)), sorted(set(NOT_ENTERED_KEPT) - found)
    assert not new and not entered, (
        f"entered by no workload, and not listed (give it a workload caller or delete it): "
        f"{new}; listed, but a workload enters it now (take it off the list): {entered} "
        f"{platform()}")


def test_each_partly_run_function_leaves_its_listed_count_of_lines(unrun, tool):
    found = {name: lines for name, lines in unrun.items() if lines is not None}
    kept = {name: count for name, (count, _) in PARTLY_RUN_KEPT.items()}
    wrong = {name: f"{len(found[name]) if name in found else 'no'} lines unrun "
                   f"({tool.ranges(found.get(name, []))}), listed {kept.get(name, 'none')}"
             for name in sorted(set(found) | set(kept))
             if (len(found[name]) if name in found else None) != kept.get(name)}
    assert not wrong, (f"partly-run functions off their listed counts (run those lines in a "
                       f"workload or delete them; lower a count that falls): {wrong} "
                       f"{platform()}")


def test_ranges_writes_runs_of_lines(tool):
    assert tool.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
