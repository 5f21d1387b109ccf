"""The lines of ``src/hybridplan`` that no benchmark workload executes.

Run from the repository root:

    python3 benchmarks/workload_lines.py [--seed N] [WORKLOAD ...]

One round of each named ``perfbench`` workload (all of them by default) --
its ``setup``, then one ``run_round`` -- runs under ``sys.settrace``.  The
report has one line per function of ``src/hybridplan`` with a line that
none of the rounds executed, in module and line order:

    geometry.collision_index_points: 251-252, 260
    rl_core.load_checkpoint: not entered

A function's lines are the lines of its code object and of the
comprehensions, generator expressions and lambdas inside it, its ``def``
line and its ``raise`` statements aside: the workloads feed valid inputs, so
no refusal runs.  Module and class bodies, which run on import, are left
out.  A line counts as executed when the tracer sees it start.

The tier-1 suite enforces this output: ``tests/test_workload_lines.py`` runs
all three workloads at seed 1 and holds the functions not entered, and the
count of unrun lines of each partly-run one, to its lists of kept code, each
entry with its reason.  Both lists may only shrink.
"""
from __future__ import annotations

import argparse
import ast
import inspect
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridplan"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def function_lines() -> dict:
    """{``module.qualname``: (file, sorted line numbers)} of every function
    of the package, ``raise`` statements aside."""
    out = {}

    def visit(code, path, owner):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            lines = {line for _, _, line in const.co_lines() if line is not None}
            if const.co_name.startswith("<"):          # a comprehension or lambda
                if owner is not None:
                    owner |= lines
                visit(const, path, owner)
            elif const.co_flags & inspect.CO_OPTIMIZED:       # a function
                own = lines - {const.co_firstlineno}
                out[f"{path.stem}.{const.co_qualname}"] = (str(path), own)
                visit(const, path, own)
            else:                                      # a class body
                visit(const, path, None)

    raises = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        raises[str(path)] = {line for node in ast.walk(ast.parse(source))
                             if isinstance(node, ast.Raise)
                             for line in range(node.lineno, node.end_lineno + 1)}
        visit(compile(source, str(path), "exec"), path, None)
    return {name: (path, sorted(lines - raises[path])) for name, (path, lines) in out.items()}


def executed_lines(names, seed: int) -> set:
    """(file, line) of every package line that one round of each workload in
    ``names`` executed."""
    import workloads

    files = {str(path) for path in PACKAGE.glob("*.py")}
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        for name in names:
            workload = workloads.WORKLOADS[name](seed)
            tally = workloads.Tally()
            workload.setup(tally)
            workload.run_round(tally)
            if tally.failed or tally.check_failures:
                raise RuntimeError(f"{name} round failed: {tally.errors} {tally.check_failures}")
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return seen


def unexecuted(names, seed: int = 1) -> dict:
    """{``module.qualname``: the lines no round executed, or None when none
    entered the function} for each package function with such a line."""
    seen = executed_lines(names, seed)
    out = {}
    for name, (path, lines) in function_lines().items():
        missed = [line for line in lines if (path, line) not in seen]
        if missed:
            out[name] = None if len(missed) == len(lines) else missed
    return out


def ranges(lines) -> str:
    """``[3, 4, 5, 9]`` as ``3-5, 9``."""
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None) -> None:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"one of {', '.join(workloads.WORKLOADS)} (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(workloads.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    for name, lines in unexecuted(args.workloads or list(workloads.WORKLOADS), args.seed).items():
        print(f"{name}: {'not entered' if lines is None else ranges(lines)}")


if __name__ == "__main__":
    main()
