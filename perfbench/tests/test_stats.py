"""Timing summaries and span arithmetic on hand-built inputs."""
import pytest

from stats import span_summary
from tracer import SpanRecorder
from workloads import _timing


def test_timing_summary_interpolates_between_order_statistics():
    assert _timing([4, 1, 3, 2]) == {"p50": 2.5, "p90": pytest.approx(3.7), "mean": 2.5,
                                     "n": 4, "unit": "ms"}
    assert _timing(list(range(1, 11)))["p90"] == pytest.approx(9.1)
    assert _timing([7.0]) == {"p50": 7.0, "p90": 7.0, "mean": 7.0, "n": 1, "unit": "ms"}


# a [0,10] holds b [1,4] (which holds c [2,3]), b [5,6] and a re-entered a
# [7,9]; d [12,13] is a second top-level span
SPANS = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
         ("b", 5.0, 6.0, 0), ("a", 7.0, 9.0, 0), ("d", 12.0, 13.0, -1)]


def test_self_time_subtracts_direct_children_only():
    summary, _ = span_summary(SPANS)
    assert summary["a"]["self_s"] == 4.0 + 2.0
    assert summary["b"]["self_s"] == 2.0 + 1.0
    assert summary["c"]["self_s"] == 1.0
    assert sum(r["self_s"] for r in summary.values()) == 11.0


def test_busy_time_counts_outermost_spans_and_coverage_top_level():
    summary, covered = span_summary(SPANS)
    assert summary["a"] == {"calls": 2, "self_s": 6.0, "busy_s": 10.0}
    assert summary["b"]["busy_s"] == 4.0
    assert covered == 11.0


def test_recorder_links_nested_spans_to_their_parent():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    after = rec.open("after")
    rec.close(after)
    assert rec.spans() == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0),
                           ("after", 4.0, 5.0, -1)]
