"""List the lines of the package that a pytest run never executes.

    python3 tools/unrun_lines.py [PYTEST_ARGS...]

The script puts this checkout's ``src`` and its root on ``sys.path`` (the
tests import ``tests.*`` modules), puts ``src`` on ``PYTHONPATH`` for the
subprocesses the tests start, installs a trace function for this
thread and every thread started after it (``sys.settrace``,
``threading.settrace``) and runs ``pytest.main(PYTEST_ARGS)`` in this
process.  The trace function follows only frames whose code lives in
``src/superint``, so the rest of the run is not slowed by it.  A line is
executable when a code object of its module maps an instruction to it
(``co_lines``); it ran when a frame of the package reported it, as a line
or as the first line of a call.  Code run by subprocesses (the CLI tests)
is not traced.

The script prints, for each module with executable lines that never ran,
their count and their numbers, as ranges, and then the total; it exits
with pytest's exit status.
"""

from __future__ import annotations

import os
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PKG = os.path.join(ROOT, "src", "superint")


def _codes(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def executable_lines(path):
    """The line numbers of the Python file ``path`` that some instruction maps to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    return {line for c in _codes(code) for _, _, line in c.co_lines() if line is not None}


def _ranges(lines):
    """``lines``, sorted, as "a-b" runs of consecutive numbers."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = n
        prev = n
    return ", ".join(out)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    # subprocesses (the CLI tests) import the same package, untraced
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    ran, ours = {}, {}

    def in_package(filename):
        if filename not in ours:
            ours[filename] = os.path.realpath(filename).startswith(PKG + os.sep)
        return ours[filename]

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not in_package(filename):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return trace_lines

    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    by_path = {}
    for filename, lines in ran.items():
        by_path.setdefault(os.path.realpath(filename), set()).update(lines)
    total = 0
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        unrun = executable_lines(path) - by_path.get(path, set())
        total += len(unrun)
        if unrun:
            print(f"{name}: {len(unrun)} never ran: {_ranges(unrun)}")
    print(f"total: {total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
