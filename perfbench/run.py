"""hybridplan benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload {map,skills,hybrid} --seed N \
        --seconds S --trace {0,1}

The run builds its inputs from the seed and repeats a round -- set up a
fresh workload, then run its timed work -- until ``--seconds`` have passed
and at least MIN_ROUNDS rounds have run.  ``setup_s`` is the median set-up;
every round repeats the same work, and each timed item counts at the
median of its repeats.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, every time scaled to a reference machine speed (speed.py).
``--trace 1`` measures a fixed amount of work, one round:
once untraced for reference, then repeatedly until ``--seconds`` have
passed (at least once) with every listed hybridplan function wrapped by an
in-memory span recorder.  It reports the per-layer metrics per round, so
they do not depend on how many rounds fit.  The last line of standard
output is the JSON result; the lines before it are a readable report with
the run manifest.  The exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import speed
import stats
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WALL_LIMIT_S = 170           # a run that hangs fails instead of outliving 180 s
MIN_ROUNDS = 3               # so every timed item has repeats to take the median of
BLAS_THREADS = "1"
RUN_METRICS = ("untraced_s", "trace_overhead_frac")


def pin_environment():
    """One BLAS thread, and build_map at its default worker count.  Must run
    before numpy is first imported.  Returns the HYBRIDPLAN_THREADS value
    that was removed (None when unset)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    return os.environ.pop("HYBRIDPLAN_THREADS", None)


REMOVED_HYBRIDPLAN_THREADS = pin_environment()

import numpy as np  # noqa: E402  (after the pinning above)


class WallClockExceeded(BaseException):
    """Not an Exception, so the workloads' per-operation handlers, which
    count a raising operation as failed and go on, let it through."""


def _on_alarm(signum, frame):
    raise WallClockExceeded(f"run exceeded {WALL_LIMIT_S} s")


def git_sha() -> str:
    """HEAD commit read from .git without starting a process; 'unknown'
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def manifest(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "HYBRIDPLAN_THREADS": REMOVED_HYBRIDPLAN_THREADS,
    }


def run_rounds(wl_cls, seed, tally, seconds, clock, min_rounds=MIN_ROUNDS):
    """Rounds, each on a freshly set-up workload, until ``seconds`` have
    passed and at least ``min_rounds`` have run.  Set-ups are timed apart
    from the rounds, so they are spread over the run like the rounds.
    Returns (last workload, set-up times, round times)."""
    setups, rounds = [], []
    t0 = clock()
    while len(rounds) < min_rounds or clock() - t0 < seconds:
        workload = wl_cls(seed)
        t = clock()
        workload.setup(tally)
        setups.append(tally.since(t))
        t = clock()
        workload.run_round(tally)
        rounds.append(clock() - t)
    return workload, setups, rounds


def end_to_end(tally, setups) -> dict:
    hits, base = tally.quality
    return {
        "setup_s": float(np.median(setups)),
        "train_s": tally.median_train_s(),
        "query_ms_p90": float(np.percentile(tally.median_query_ms(), 90)),
        "quality_rate": hits / base,
    }


def per_layer(names, recorder, installation, window_s, rounds, overhead) -> dict:
    """Per-layer metrics per round: totals over the traced window divided by
    the number of rounds (ratios are unchanged by the division)."""
    summary, covered = stats.span_summary(recorder.spans())
    summary = {fn: {k: v / rounds for k, v in row.items()} for fn, row in summary.items()}
    counters = Counter({k: v / rounds for k, v in recorder.counters.items()})
    out = {"untraced_s": (window_s - covered) / rounds, "trace_overhead_frac": overhead}
    for name in names:
        if name not in RUN_METRICS:
            out[name] = tracer.layer_value(name, summary, counters, installation.absent)
    return out


def result_metrics(wanted, metrics):
    """Entries of exactly ``value`` and ``unit`` for the result line, plus the
    names that have no value (an absent function, or a ratio over zero
    calls): those read 0 in the result and are listed in the report."""
    result, absent = {}, []
    for m in wanted:
        value = metrics.get(m["name"])
        if value is None or not np.isfinite(value):
            absent.append(m["name"])
            value = 0.0
        result[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return result, absent


def readable_report(workload, tally, setups) -> dict:
    """Figures under the names a reader of the workload expects, each with
    its sample count or base."""
    rep = {"setup_s": {"median": float(np.median(setups)), "n": len(setups), "unit": "s"}}
    rep.update(workload.figures(tally))
    rep["errors"] = dict(tally.errors)
    if tally.speed is not None:
        rep["speed"] = tally.speed.summary()
    return rep


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hybridplan" / "__init__.py").is_file():
        print(f"hybridplan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import workloads
    from workloads import WORKLOADS, Tally

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WALL_LIMIT_S)
    clock = time.perf_counter
    try:
        wl_cls = WORKLOADS[args.workload]
        tally = Tally(manifest=manifest(args))
        if args.trace:
            _, ref_setup, ref_round = run_rounds(wl_cls, args.seed, Tally(), 0, clock, 1)
            untraced_round = ref_setup[0] + ref_round[0]
            recorder = tracer.SpanRecorder(clock)
            installation = tracer.install(recorder, callers=(workloads, inputs))
            try:
                t0 = clock()
                workload, setups, rounds = run_rounds(wl_cls, args.seed, tally,
                                                      args.seconds, clock, 1)
                window = clock() - t0
            finally:
                installation.uninstall()
            traced_round = float(np.median([s + r for s, r in zip(setups, rounds)]))
            wanted = spec["per_layer"]
            metrics = per_layer([m["name"] for m in wanted], recorder, installation, window,
                                len(rounds), traced_round / untraced_round - 1.0)
        else:
            tally.speed = speed.Speedometer(clock)
            tally.speed.start()
            try:
                workload, setups, rounds = run_rounds(wl_cls, args.seed, tally,
                                                      args.seconds, clock)
            finally:
                tally.speed.stop()
            metrics = end_to_end(tally, setups)
            wanted = spec["end_to_end"]
    except WallClockExceeded as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    result, absent = result_metrics(wanted, metrics)
    report = {"manifest": tally.manifest, "rounds": len(rounds),
              "round_s": [round(r, 3) for r in rounds],
              "workload": readable_report(workload, tally, setups),
              "absent_metrics": absent,
              "check_failures": tally.check_failures}
    print(json.dumps(report, indent=1, default=str))
    correct = not tally.check_failures
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
