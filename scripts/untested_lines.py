#!/usr/bin/env python3
"""Print the executable lines of src/pidlab that no test reaches.

    python3 scripts/untested_lines.py [PYTEST_ARG ...]

Run from the root of the repository. Runs pytest in this process, with the
PYTEST_ARGs passed through and src first on sys.path, under a sys.settrace
tracer limited to the files under src/pidlab: a frame of any other file
gets no local tracer. Threads started under the tracer are traced too
(threading.settrace). A line is executable when a code object compiled
from its file lists it in co_lines(). For each file the script prints the
executable lines that no traced frame reached, as ranges of consecutive
executable lines, then a total; its exit code is pytest's.

Lines that run only in a child process, such as cli.entry under a
subprocess, are reported as untested: the tracer sees this process only.
Under the tracer the tier-1 suite took 189 s, against 88 s without it
(2 vCPUs), so it is no tier-1 test.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

PACKAGE = Path("src") / "pidlab"


def executable_lines(path):
    """The line numbers that some code object compiled from path lists in
    co_lines() (line 0, a module's entry, is none)."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return lines


def untested(pytest_args):
    """pytest's exit code and {path: (executable lines, those no test
    reached)}, both sorted, for each .py file under PACKAGE, over one traced
    in-process pytest run."""
    import pytest

    package = PACKAGE.resolve()
    paths = sorted(package.rglob("*.py"))
    reached = {str(path): set() for path in paths}

    def trace(frame, event, arg):
        hits = reached.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            hits.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(package.parent))
    before = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
        sys.path.remove(str(package.parent))
    lines = {path: sorted(executable_lines(path)) for path in paths}
    return int(code), {path: (lines[path], [line for line in lines[path]
                                            if line not in reached[str(path)]])
                       for path in paths}


def ranges(missing, executable):
    """missing as 'a-b' runs of consecutive lines of sorted executable."""
    at = {line: k for k, line in enumerate(executable)}
    runs = []
    for line in missing:
        if runs and at[line] == at[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv=None):
    code, missing = untested(sys.argv[1:] if argv is None else argv)
    total = count = 0
    for path, (executable, lines) in missing.items():
        total += len(executable)
        count += len(lines)
        if lines:
            print(f"{os.path.relpath(path)}: {ranges(lines, executable)}")
    print(f"{count} of {total} executable lines untested")
    return code


if __name__ == "__main__":
    sys.exit(main())
