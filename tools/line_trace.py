"""Report the lines of the ``awb`` package that no test runs.

Runs pytest in this process with a line tracer installed by
``sys.settrace`` and ``threading.settrace``, then prints each line inside a
function body of a ``src/awb`` module that no test ran, with its text, as
``<path>:<line>: <text>``, module by module in name order, and a last line
that counts them. A line counts when its function body holds it (a
docstring, a ``def`` line and a decorator do not) and the compiler gave it
code, so a blank line, a comment or an ``else:`` is never reported.
Module-level code and class bodies, which run on import, are not
reported; nor is code run in a subprocess, such as a command-line test
that starts ``python -m awb.cli``.

The tracer is one module-level function, which records the line of each
event in a frame of a watched module and hands itself back as that
frame's local tracer; it makes no function per frame, so it keeps no frame
alive and adds no reference cycle.

Usage::

    python tools/line_trace.py [PYTEST_ARGS...]

The arguments go to pytest unchanged. Exits with pytest's exit code, so a
test that fails under tracing fails the run; the report never does. Uses
only the standard library and pytest.
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "awb"

# The real path of each watched module -> the lines run in it.
_hits: dict = {}
# Each code object's file name as the tracer meets it -> that module's
# set in ``_hits``, or None when the module is not watched.
_by_name: dict = {}


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    try:
        lines = _by_name[name]
    except KeyError:
        lines = _by_name[name] = _hits.get(os.path.realpath(name))
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _trace


def _code_lines(code) -> set:
    """The lines given code in ``code`` and in the function code objects
    nested in it, counting function bodies only: module and class bodies
    lack the ``CO_OPTIMIZED`` flag."""
    out = set()
    if code.co_flags & inspect.CO_OPTIMIZED:
        out.update(line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if inspect.iscode(const):
            out |= _code_lines(const)
    return out


def body_lines(source: str, filename: str = "<source>") -> set:
    """The lines of ``source`` that lie in a function body, after any
    docstring, and that the compiler gave code."""
    inside = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Lambda):
            inside.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if ast.get_docstring(node, clean=False) is not None and len(body) > 1:
                body = body[1:]
            inside.update(range(body[0].lineno, node.end_lineno + 1))
    return inside & _code_lines(compile(source, filename, "exec"))


def main(pytest_args: list, package: Path = PACKAGE) -> int:
    """Run pytest on ``pytest_args`` under the tracer, print the report for
    the modules of ``package``, and return pytest's exit code."""
    import pytest

    modules = sorted(package.glob("*.py"))
    _by_name.clear()
    _hits.clear()
    _hits.update((os.path.realpath(path), set()) for path in modules)
    old, old_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(old)
        threading.settrace(old_threads)
    total = 0
    for path in modules:
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        shown = os.path.relpath(path)
        for line in sorted(body_lines(source, str(path)) - _hits[os.path.realpath(path)]):
            print(f"{shown}:{line}: {text[line - 1].strip()}")
            total += 1
    print(f"{total} lines in function bodies of {package.name} not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
