"""In-memory span recorder attached to hybridplan from the outside.

``install`` replaces, inside the running process only, every attribute of a
loaded ``hybridplan.*`` module or class that is bound to one of the listed
functions with a wrapper that records a span around the call.  Modules that
import a function by name hold their own binding, so each binding is
replaced, including those of the calling modules named at install time;
``uninstall`` restores every original.  A listed name that does not exist in
the program is reported absent instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "hybridplan"
SENTINEL_CUTOFF = -1e9     # hrl_planner.SENTINEL: the stored minus-infinity reward


def _ok(attr):
    def observe(counters, name, args, kwargs, out):
        counters[name + ".ok"] += bool(getattr(out, attr)) if attr else out is not None
    return observe


def _hit(counters, name, args, kwargs, out):
    counters[name + ".hit"] += int(out == 1)


def _cells(counters, name, args, kwargs, out):
    counters["feasibility.cells"] += out.n_cells
    for code, label in enumerate(("ok", "unreachable", "collision", "low_manip")):
        counters["feasibility.cells_" + label] += int((out.reasons == code).sum())


def _sentinel(counters, name, args, kwargs, out):
    counters[name + ".sentinel"] += int(out <= SENTINEL_CUTOFF)


def _aborted(counters, name, args, kwargs, out):
    counters[name + ".aborted"] += int(bool(out.get("aborted")))


def _bridge(counters, name, args, kwargs, out):
    counters[name + ".steps"] += len(out) - 1
    counters[name + ".reached"] += int(bool(out.success))


def _inserted(counters, name, args, kwargs, out):
    traj = args[0] if args else kwargs["traj"]
    counters[name + ".inserted"] += len(out) - len(traj)


# listed function (module-relative qualified name) -> result observer or None
LISTED = {
    "kinematics.ik_attempt": _ok(None),
    "kinematics.normalized_manipulability": None,
    "kinematics.ee_state": None,
    "kinematics.fk_frames": None,
    "geometry.collision_index": _hit,
    "geometry.ray_bundle": None,
    "feasibility.build_map": _cells,
    "feasibility.fea": _ok("feasible"),
    "feasibility.classify_trajectory": None,
    "lfd.retarget": None,
    "lfd.feature_distance_terms": None,
    "lfd.extract_features": None,
    "dualquat.dq_sclerp": None,
    "hrl_planner.train_hrl": None,
    "hrl_planner.intrinsic_reward": _sentinel,
    "hrl_planner.plan_lfd": None,
    "hrl_planner.exhaustive_plan": None,
    "rl_core.ppo_update": _aborted,
    "rl_core.GaussianPolicy.act": None,
    "rl_core.GaussianPolicy.mean_action": None,
    "rl_core.CategoricalPolicy.act": None,
    "drl_planner.train_drl": None,
    "drl_planner.DrlEnv.step": None,
    "drl_planner.plan_drl": _bridge,
    "switch_agent.lfd_joint_candidates": None,
    "switch_agent.train_switch": None,
    "switch_agent.assemble": None,
    "switch_agent.blend": None,
    "switch_agent.densify": _inserted,
    "workcell.execute": None,
    "workcell.count_path_collisions": None,
}


class SpanRecorder:
    """Spans kept in compact arrays; one thread, strictly nested."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = []
        self.counters = Counter()

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = self.clock()
        self._stack.pop()

    def spans(self):
        return [(self.names[n], s, e, p) for n, s, e, p in
                zip(self._name, self._start, self._end, self._parent)]


def _traced(fn, name, recorder, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = recorder.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            recorder.close(idx)
        if observe is not None:
            observe(recorder.counters, name, args, kwargs, out)
        return out
    return wrapper


def _resolve(qualname):
    """The function object a listed name denotes, or None when it is absent."""
    mod_name, _, attr_path = qualname.partition(".")
    try:
        obj = importlib.import_module(f"{PACKAGE}.{mod_name}")
    except ImportError:
        return None
    for part in attr_path.split("."):
        owner = obj
        obj = inspect.getattr_static(owner, part, None)
        if obj is None:
            return None
    return obj if inspect.isfunction(obj) else None


class Installation:
    def __init__(self):
        self.patched = []          # (owner, attribute, original)
        self.absent = set()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def install(recorder: SpanRecorder, listed=None, callers=()) -> Installation:
    """Wrap the listed functions.  ``callers`` are further modules, such as
    the benchmark's own, whose imported bindings are replaced too, so that
    their calls into each layer are recorded."""
    listed = LISTED if listed is None else listed
    inst = Installation()
    targets = {}
    for qualname, observe in listed.items():
        fn = _resolve(qualname)
        if fn is None:
            inst.absent.add(qualname)
        else:
            targets[id(fn)] = _traced(fn, qualname, recorder, observe)
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    owners = list(modules) + list(callers)
    for mod in modules:
        owners.extend(v for v in vars(mod).values()
                      if inspect.isclass(v) and v.__module__.startswith(PACKAGE))
    seen = set()
    for owner in owners:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, value in list(vars(owner).items()):
            wrapper = targets.get(id(value))
            if wrapper is not None:
                setattr(owner, attr, wrapper)
                inst.patched.append((owner, attr, value))
    return inst


_RATIO_COUNTERS = {"ok_ratio": "ok", "hit_ratio": "hit",
                   "sentinel_ratio": "sentinel", "reach_ratio": "reached"}
_MEAN_COUNTERS = {"steps_mean": "steps"}
_TOTAL_COUNTERS = {"aborted": "aborted", "inserted_points": "inserted"}


def layer_value(metric, summary, counters, absent):
    """Value of one ``<module>.<function>.<measure>`` metric, or None when the
    function is absent or the measure has no base (a ratio over zero calls)."""
    fn, _, measure = metric.rpartition(".")
    if measure.startswith("cells_"):       # feasibility.cells_<verdict>
        return None if "feasibility.build_map" in absent else counters[metric]
    if fn not in LISTED:
        raise KeyError(f"no span for metric {metric!r}")
    if fn in absent:
        return None
    row = summary.get(fn, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
    calls = row["calls"]
    if measure in row:
        return row[measure]
    if measure in _RATIO_COUNTERS:
        return counters[f"{fn}.{_RATIO_COUNTERS[measure]}"] / calls if calls else None
    if measure in _MEAN_COUNTERS:
        return counters[f"{fn}.{_MEAN_COUNTERS[measure]}"] / calls if calls else None
    if measure in _TOTAL_COUNTERS:
        return counters[f"{fn}.{_TOTAL_COUNTERS[measure]}"]
    if measure == "retry_ratio":           # fea calls per map cell
        cells = counters["feasibility.cells"]
        return calls / cells if cells else None
    raise KeyError(f"unknown measure in metric {metric!r}")
