"""Fixtures shared by the test modules: the benchmark's workloads."""
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="session")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        import workloads
    return workloads


@pytest.fixture(scope="session")
def hybrid_workloads(workloads):
    """The benchmark's ``hybrid`` workload set up for seeds 1-2: its map and
    the HRL tables over its 12 training tasks and 100 instances."""
    out = []
    for seed in (1, 2):
        wl = workloads.HybridWorkload(seed)
        wl.setup(workloads.Tally())
        out.append(wl)
    return out
