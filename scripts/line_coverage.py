#!/usr/bin/env python3
"""Print, per module of the package, each statement inside a function that the tests never ran.

    python3 scripts/line_coverage.py [PYTEST_ARGS...]

Run from the repository root; it needs pytest only, not a coverage package.
It runs `pytest -q -p no:cacheprovider` (plus PYTEST_ARGS, such as one test
file) in this process under a `sys.settrace` / `threading.settrace` tracer
that records line events only in frames whose code lies under
src/creditfactors. A statement counts when its first line carries bytecode of
a function, method or nested function; module and class bodies run on import
and are left out. Docstrings, `global` and `nonlocal` carry no bytecode and
never count.

Tests that run the package in a subprocess (the demos, the cold-start checks,
and the CLI runs of `python -m creditfactors.cli` in the acceptance and
stderr tests) are not traced, so code that only they reach is listed as never
run. Tracing makes the suite a few times slower than a plain `pytest` run.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "creditfactors") + os.sep
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

ran = set()  # (file, line) of every line event in the package


def _trace(frame, event, arg):
    """Global tracer: trace a frame's lines only when its code is in the package."""
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    return local


def _code_lines(code):
    """Lines that carry bytecode in the code objects nested in code: functions and class bodies."""
    lines = set()
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= {line for _, _, line in const.co_lines() if line is not None}
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """{first line: (enclosing function, statement)} of every statement inside a function."""
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            elif isinstance(child, ast.ClassDef):
                name = None
            if isinstance(child, ast.stmt) and owner is not None:
                found.setdefault(child.lineno, (owner, child))
            visit(child, name)

    visit(tree, None)
    return found


def report(path):
    """(statements inside functions, [(line, function, source) never run]) of one file."""
    with open(path) as fh:
        source = fh.read()
    code = compile(source, path, "exec")
    statements = _statements(ast.parse(source))
    countable = sorted(set(statements) & _code_lines(code))
    missed = [(line, statements[line][0], source.splitlines()[line - 1].strip())
              for line in countable if (path, line) not in ran]
    return len(countable), missed


def main(argv):
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = never = 0
    for fname in sorted(os.listdir(PACKAGE)):
        if not fname.endswith(".py"):
            continue
        n, missed = report(os.path.join(PACKAGE, fname))
        total, never = total + n, never + len(missed)
        print(f"\n{fname}: {len(missed)} of {n} statements in functions never ran")
        for line, function, text in missed:
            print(f"  {line:4d}  {function}: {text}")
    print(f"\ntotal: {never} of {total} statements in functions never ran "
          f"(pytest exit {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
