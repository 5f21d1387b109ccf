"""The tracer patches every binding of a listed function and restores them."""
import numpy as np

import tracer
from hybridplan import drl_planner, kinematics
from tracer import SpanRecorder, install, layer_value


def test_install_wraps_every_binding_and_uninstall_restores_it():
    original = kinematics.fk_frames
    rec = SpanRecorder()
    inst = install(rec, {"kinematics.fk_frames": None,
                         "kinematics.no_such_function": None,
                         "drl_planner.DrlEnv.no_such_method": None})
    try:
        assert inst.absent == {"kinematics.no_such_function",
                               "drl_planner.DrlEnv.no_such_method"}
        assert drl_planner.fk_frames is not original
        assert drl_planner.fk_frames is kinematics.fk_frames
        model = kinematics.planar_3r()
        drl_planner.fk_frames(model, model.home)
    finally:
        inst.uninstall()
    assert drl_planner.fk_frames is original and kinematics.fk_frames is original
    assert [s[0] for s in rec.spans()] == ["kinematics.fk_frames"]


def test_methods_are_wrapped_on_the_class_and_observers_count_results():
    from hybridplan.rl_core import GaussianPolicy
    original = GaussianPolicy.__dict__["mean_action"]
    rec = SpanRecorder()
    inst = install(rec, {"rl_core.GaussianPolicy.mean_action": None,
                         "kinematics.ik_attempt": tracer.LISTED["kinematics.ik_attempt"]})
    try:
        policy = GaussianPolicy(3, 2, (4,), np.random.default_rng(0))
        policy.mean_action(np.zeros(3))
        model = kinematics.planar_3r()
        target = kinematics.fk(model, model.home)
        kinematics.ik(model, target)
    finally:
        inst.uninstall()
    assert GaussianPolicy.__dict__["mean_action"] is original
    summary = {}
    for name, *_ in rec.spans():
        summary[name] = summary.get(name, 0) + 1
    assert summary["rl_core.GaussianPolicy.mean_action"] == 1
    assert rec.counters["kinematics.ik_attempt.ok"] == 1


def test_layer_value_marks_absent_names_and_baseless_ratios():
    summary = {"kinematics.ik_attempt": {"calls": 4, "self_s": 0.5, "busy_s": 0.5}}
    counters = {"kinematics.ik_attempt.ok": 3, "feasibility.cells": 0}
    assert layer_value("kinematics.ik_attempt.ok_ratio", summary, counters, set()) == 0.75
    assert layer_value("kinematics.ik_attempt.self_s", summary, counters, set()) == 0.5
    assert layer_value("geometry.collision_index.calls", summary, counters, set()) == 0
    assert layer_value("geometry.collision_index.hit_ratio", summary, counters, set()) is None
    assert layer_value("feasibility.fea.retry_ratio", summary, counters, set()) is None
    assert layer_value("kinematics.ee_state.calls", summary, counters,
                       {"kinematics.ee_state"}) is None


def test_every_per_layer_metric_of_the_benchmark_is_derivable():
    import json
    from collections import Counter
    from pathlib import Path
    spec = json.loads((Path(tracer.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        if m["name"] in ("untraced_s", "trace_overhead_frac"):
            continue
        layer_value(m["name"], {}, Counter(), set())     # raises on an unknown name
