"""Span arithmetic for the benchmark's per-layer metrics.

Spans are ``(name, start, end, parent)`` tuples in the order they were
opened; ``parent`` is the index of the enclosing span or -1 at top level.
Spans come from one thread, so children nest strictly inside their parent
and never overlap one another.
"""
from __future__ import annotations


def span_summary(spans):
    """Per-name ``{"calls", "self_s", "busy_s"}`` plus the top-level covered time.

    Self time is a span's duration minus the time its direct children cover.
    Busy time sums the durations of a name's outermost spans only, so a
    function that re-enters itself is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0})
        row["calls"] += 1
        row["self_s"] += dur - child_time[i]
        if parent < 0:
            covered += dur
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            row["busy_s"] += dur
    return out, covered
