import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")       # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "hybridplan"
# imports kept without a use in their module: (module, name) -> why
UNUSED_IMPORTS_KEPT = {
    ("drl_planner", "fk_frames"): "perfbench/tests/test_tracer.py wraps this binding "
                                  "(ROADMAP item 6(d))",
}


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


def unused_imports(path):
    """Names a module imports (``__future__`` aside) and never reads."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports are its public names
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py" for name in unused_imports(path)}
    assert found == set(UNUSED_IMPORTS_KEPT)
