import importlib
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")       # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_script_entry_point_imports():
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_kernel_benchmark_suite_runs():
    # the kernel suite sits outside the test paths; one untimed pass catches
    # an API change that breaks it
    pytest.importorskip("pytest_benchmark")
    out = subprocess.run([sys.executable, "-m", "pytest", "benchmarks", "-q",
                          "--benchmark-disable"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
