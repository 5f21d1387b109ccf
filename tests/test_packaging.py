import ast
import dataclasses
import importlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")       # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "hybridplan"
PERFBENCH = ROOT / "perfbench"
# imports kept without a use in their module: (module, name) -> why
UNUSED_IMPORTS_KEPT = {
    ("drl_planner", "fk_frames"): "perfbench/tests/test_tracer.py wraps this binding "
                                  "(ROADMAP item 14)",
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


def test_benchmark_suite_runs():
    # tier-1 collects tests/ only; the benchmark's own tests check the names
    # and configurations it takes from the package
    out = subprocess.run([sys.executable, "-m", "pytest", "perfbench/tests", "-q"],
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


def imported_modules(path):
    """Top-level names of the modules a module imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add((node.module or "").split(".")[0])
    return out


def test_only_records_imports_struct():
    # one binary layout for every artifact file: records.pack and unpack
    found = {path.stem for path in sorted(PACKAGE.glob("*.py"))
             if "struct" in imported_modules(path)}
    assert found <= {"records"}


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports are its public names
    found = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py" for name in unused_imports(path)}
    assert found == set(UNUSED_IMPORTS_KEPT)


# public top-level functions, classes and constants, and public methods and
# properties (``Class.method``), that nothing in src/ references:
# (module, name) -> why they stay.  The list may only shrink: a name leaves it
# when a stage of the pipeline calls it, or when it is deleted.
BENCHMARK_NAMES = "imported or traced by perfbench/, which composes the stages (ROADMAP item 14)"
TEST_ONLY = "called by tests only (ROADMAP item 9)"
FILE_IO = "the binary artifacts the CLI stages hand on (ROADMAP items 1 and 10)"
UNREFERENCED_KEPT = {
    **{name: BENCHMARK_NAMES for name in [
        ("drl_planner", "plan_drl"), ("drl_planner", "train_drl"),
        ("dualquat", "DualQuaternion.conjugate"),
        ("feasibility", "FeasibilityMap.all_cells"), ("feasibility", "FeasibilityMap.lookup"),
        ("feasibility", "build_map"), ("feasibility", "classify_trajectory"),
        ("feasibility", "fea"), ("geometry", "point_box_distance"),
        ("geometry", "ray_bundle"), ("hrl_planner", "exhaustive_plan"),
        ("hrl_planner", "intrinsic_reward"), ("hrl_planner", "plan_lfd"),
        ("hrl_planner", "train_hrl"), ("kinematics", "fk_frames"), ("kinematics", "ik"),
        ("kinematics", "normalized_manipulability"),
        ("lfd", "feature_distance_terms"), ("lfd", "retarget"),
        ("switch_agent", "assemble"), ("switch_agent", "densify"),
        ("switch_agent", "find_bands"), ("switch_agent", "heuristic_switches"),
        ("switch_agent", "lfd_joint_candidates"), ("switch_agent", "policy_switches"),
        ("switch_agent", "train_switch"), ("workcell", "count_path_collisions")]},
    **{name: TEST_ONLY for name in [
        ("kinematics", "planar_rr"),
        ("switch_agent", "brute_force_switches"), ("workcell", "bench")]},
    **{name: FILE_IO for name in [
        ("feasibility", "load_map"), ("feasibility", "save_map"),
        ("rl_core", "load_checkpoint"), ("rl_core", "save_checkpoint")]},
    ("scenarios", "SCENES"): "the scene table of the CLI (ROADMAP item 1)",
    ("switch_agent", "ACT_KEEP"): "the switching agent's other action, beside ACT_SWITCH",
}


def referenced_names(node) -> Counter:
    """Every name read and every attribute taken under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def public_definitions(tree):
    """(name, node) of each public top-level function, class and constant of a
    module, and of each public method and property of its classes, named
    ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((name.id, node) for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def unreferenced_public_names(package):
    """(module, name) of each public definition (``public_definitions``) that
    no module of ``package`` references outside the definition itself; the
    names the package's ``__init__`` imports are its public API and count as
    referenced.  A method counts as referenced when any attribute of its
    name is taken."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    total = sum((referenced_names(tree) for tree in trees.values()), Counter())
    total.update(alias.asname or alias.name for node in ast.walk(trees["__init__"])
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    found = set()
    for module, tree in trees.items():
        for qualified, node in public_definitions(tree):
            name = qualified.rpartition(".")[2]
            if not name.startswith("_") and total[name] == referenced_names(node)[name]:
                found.add((module, qualified))
    return found


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_public_names(PACKAGE) == set(UNREFERENCED_KEPT)


def test_benchmark_names_kept_are_used_by_the_benchmark():
    used = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        used |= set(referenced_names(tree))
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        # the tracer lists its functions by dotted name
        used |= {part for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 for part in node.value.split(".")}
    assert {name.rpartition(".")[2] for (_, name), why in UNREFERENCED_KEPT.items()
            if why == BENCHMARK_NAMES} <= used


# each init field of these configurations must be set by a caller outside the
# tests: by keyword or position to its class, or by keyword to
# ``dataclasses.replace``; a field no caller sets is a constant (a ``ClassVar``
# or a module constant).
CONFIG_CLASSES = {"HrlConfig": "hrl_planner", "PpoConfig": "rl_core",
                  "SwitchConfig": "switch_agent", "DrlEnvConfig": "drl_planner",
                  "SuccessCriteria": "workcell"}


def config_fields():
    """{class name: its init field names in order}."""
    out = {}
    for name, module in CONFIG_CLASSES.items():
        cls = getattr(importlib.import_module(f"hybridplan.{module}"), name)
        out[name] = [f.name for f in dataclasses.fields(cls) if f.init]
    return out


def config_fields_set(paths, fields):
    """(class, field) of each configuration field a call in ``paths`` sets."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            keywords = {kw.arg for kw in node.keywords}
            if callee in fields:
                found |= {(callee, f) for f in fields[callee][:len(node.args)]}
                found |= {(callee, f) for f in keywords}
            elif callee == "replace":       # the object's class is not known here
                found |= {(cls, f) for cls, names in fields.items() for f in names
                          if f in keywords}
    return found


def test_every_config_field_is_set_by_a_caller():
    fields = config_fields()
    every = {(cls, f) for cls, names in fields.items() for f in names}
    callers = [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    assert every - config_fields_set(callers, fields) == set()


# defaulted parameters of public functions and methods (``__init__`` counts
# as a call of its class) that no call in src/, perfbench/ or benchmarks/
# passes: (module, function, parameter) -> why they stay.  Only inputs belong
# here; a setting that no caller varies is a module constant.  The list may
# only shrink.
HEADS = "set by load_checkpoint, which builds the policy as _HEADS[kind](...)"
PARAMETERS_KEPT = {
    ("kinematics", "ik", "seed"): "input: the first IK seed, home when None",
    ("kinematics", "ik", "rng"): "input: the stream of the restart seeds",
    ("rl_core", "GaussianPolicy.__init__", "hidden"): HEADS,
    ("rl_core", "CategoricalPolicy.__init__", "hidden"): HEADS,
    ("kinematics", "planar_rr", "radius"): TEST_ONLY,
    ("workcell", "bench", "variant"): TEST_ONLY,
    ("workcell", "bench", "rows_out"): TEST_ONLY,
}


def public_functions(tree):
    """(qualified name, callee name, node, arguments bound before the
    caller's) of each public function of a module and each public method and
    ``__init__`` of its public classes: a call names a method by its
    attribute and ``__init__`` by its class, and passes no ``self`` or
    ``cls``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (item.name == "__init__"
                                                          or not item.name.startswith("_")):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield (f"{node.name}.{item.name}",
                           node.name if item.name == "__init__" else item.name, item,
                           0 if static else 1)


def defaulted_parameters(fn, bound):
    """(name, position among a call's arguments, None when keyword-only) of
    each parameter of ``fn`` that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def arguments_passed(paths) -> dict:
    """{callee name: (most positional arguments of one call, keywords
    passed)} over the calls in ``paths``; a ``*args`` call passes every
    position and a ``**kwargs`` call every keyword (keyword None)."""
    found = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            most, keywords = found.get(callee, (0, set()))
            star = any(isinstance(a, ast.Starred) for a in node.args)
            found[callee] = (max(most, float("inf") if star else len(node.args)),
                             keywords | {kw.arg for kw in node.keywords})
    return found


def test_every_keyword_default_is_passed_by_a_caller():
    callers = [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    passed = arguments_passed(callers)
    unpassed = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for qualified, callee, fn, bound in public_functions(ast.parse(path.read_text())):
            most, keywords = passed.get(callee, (0, set()))
            unpassed |= {(path.stem, qualified, name)
                         for name, position in defaulted_parameters(fn, bound)
                         if not ({name, None} & keywords or position is not None
                                 and most > position)}
    assert unpassed == set(PARAMETERS_KEPT)
