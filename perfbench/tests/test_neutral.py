"""Tracing does not change what the workloads compute."""
import pytest

import inputs
import tracer
import workloads
from workloads import (HybridSizes, HybridWorkload, MapSizes, MapWorkload, SkillsSizes,
                       SkillsWorkload, Tally)

SMALL = {
    "map": (MapWorkload, MapSizes(box_lo=(0.3, -0.3), box_hi=(0.9, 0.3), yaw_bins=2,
                                  queries=10, witness_checks=4)),
    "skills": (SkillsWorkload, SkillsSizes(tasks=2, placements=2, episodes=8)),
    "hybrid": (HybridWorkload, HybridSizes(yaw_bins=2, train_tasks=4,
                                           instances=4, crossing_share=0.5, drl_batches=1,
                                           drl_steps=64, episode_budget=20,
                                           switch_batches=1)),
}


OUTER = {
    "map": {"feasibility.build_map", "feasibility.classify_trajectory"},
    "skills": {"hrl_planner.exhaustive_plan", "hrl_planner.train_hrl", "hrl_planner.plan_lfd"},
    "hybrid": {"drl_planner.train_drl", "switch_agent.train_switch", "drl_planner.plan_drl",
               "switch_agent.densify", "workcell.execute"},
}


def _run(name):
    cls, sizes = SMALL[name]
    wl = cls(seed=1, sizes=sizes)
    tally = Tally()
    wl.setup(tally)
    wl.run_round(tally)
    wl.run_round(tally)
    return tally


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_gives_the_untraced_results(name):
    plain = _run(name)
    rec = tracer.SpanRecorder()
    inst = tracer.install(rec, callers=(workloads, inputs))
    try:
        traced = _run(name)
    finally:
        inst.uninstall()
    assert not plain.check_failures and not traced.check_failures
    assert plain.failed == traced.failed == 0
    assert traced.quality == plain.quality
    assert traced.report.get("bridges") == plain.report.get("bridges")
    assert not inst.absent
    # the benchmark's own calls into each layer are recorded too
    assert OUTER[name] <= {span[0] for span in rec.spans()}
