"""``benchmarks/workload_lines.py``: the package lines no benchmark workload runs."""
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "benchmarks" / "workload_lines.py"


def test_workload_lines_lists_what_a_skills_round_leaves_unrun(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))      # the tool prepends its paths
    spec = importlib.util.spec_from_file_location("workload_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    listed = tool.unexecuted(["skills"])
    assert listed["lfd.load_library"] is None            # no workload reads a library file
    assert "hrl_planner.train_hrl" not in listed         # every line but its refusals runs
    assert "drl_planner.train_drl" in listed             # the skills round trains no bridge
    assert tool.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
