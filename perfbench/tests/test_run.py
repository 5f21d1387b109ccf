"""The run's wall-clock guard and its per-round layer figures."""
import functools

import pytest

import run
import tracer
import workloads
from test_neutral import SMALL
from workloads import HybridWorkload, SkillsSizes, SkillsWorkload, Tally


def _overrun(*args, **kwargs):
    raise run.WallClockExceeded("run exceeded its wall-clock limit")


def test_an_overrun_inside_a_planned_instance_fails_the_run(monkeypatch, capsys):
    tiny = functools.partial(SkillsWorkload, sizes=SkillsSizes(tasks=2, placements=2, episodes=8))
    monkeypatch.setitem(workloads.WORKLOADS, "skills", tiny)
    monkeypatch.setattr(workloads, "plan_lfd", _overrun)
    assert run.main(["--workload", "skills", "--seed", "1", "--seconds", "1"]) == 3
    assert capsys.readouterr().out == ""          # no result line


def test_an_overrun_inside_a_hybrid_instance_is_not_counted_as_failed(monkeypatch):
    wl = HybridWorkload(1, sizes=SMALL["hybrid"][1])
    tally = Tally()
    wl.setup(tally)

    def no_training(tally):
        wl.policy = wl.switch_policy = None
    monkeypatch.setattr(wl, "_train", no_training)
    monkeypatch.setattr(workloads, "execute", _overrun)
    with pytest.raises(run.WallClockExceeded):
        wl.run_round(tally)
    assert tally.failed == 0


def test_per_layer_figures_are_per_round():
    ticks = iter(range(100))
    rec = tracer.SpanRecorder(clock=lambda: float(next(ticks)))
    for _ in range(2):                               # spans [0, 1] and [2, 3]
        rec.close(rec.open("kinematics.ik_attempt"))
    rec.counters["kinematics.ik_attempt.ok"] += 1
    names = ["kinematics.ik_attempt.calls", "kinematics.ik_attempt.self_s",
             "kinematics.ik_attempt.ok_ratio", "rl_core.ppo_update.aborted",
             "feasibility.fea.retry_ratio", "untraced_s", "trace_overhead_frac"]
    out = run.per_layer(names, rec, tracer.Installation(), window_s=10.0, rounds=2,
                        overhead=0.1)
    assert out == {"kinematics.ik_attempt.calls": 1.0, "kinematics.ik_attempt.self_s": 1.0,
                   "kinematics.ik_attempt.ok_ratio": 0.5, "rl_core.ppo_update.aborted": 0,
                   "feasibility.fea.retry_ratio": None, "untraced_s": 4.0,
                   "trace_overhead_frac": 0.1}


def test_result_entries_hold_only_value_and_unit():
    wanted = [{"name": "kinematics.ik_attempt.calls", "unit": "count"},
              {"name": "feasibility.fea.retry_ratio", "unit": "calls/cell"},
              {"name": "trace_overhead_frac", "unit": "fraction"}]
    result, absent = run.result_metrics(wanted, {"kinematics.ik_attempt.calls": 3,
                                                 "feasibility.fea.retry_ratio": None,
                                                 "trace_overhead_frac": float("nan")})
    assert result == {"kinematics.ik_attempt.calls": {"value": 3.0, "unit": "count"},
                      "feasibility.fea.retry_ratio": {"value": 0.0, "unit": "calls/cell"},
                      "trace_overhead_frac": {"value": 0.0, "unit": "fraction"}}
    assert absent == ["feasibility.fea.retry_ratio", "trace_overhead_frac"]
