"""Pytest plugin: the run fails if an executable line of ``src/twinbeam`` never ran.

    PYTHONPATH=src:tools python -m pytest -p linetrace -q

Every line event in a file of the package is recorded, on the main thread
through ``sys.settrace`` and on threads that tests start (the
``ThreadPoolExecutor`` in ``tests/test_qdii.py``) through
``threading.settrace``.  Tracing starts when pytest loads
the plugin, before any test module imports the package, so module-level
lines count too.  A line is executable when it starts a line of a compiled
code object of the module.  The body of ``if __name__ == "__main__":`` is
left out: it runs only as a script.  Lines run in a child process, such as a
CLI subprocess, are not seen.
"""

from __future__ import annotations

import ast
import dis
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twinbeam"

_hits: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
_by_name: dict[str, set[int] | None] = {}
_missed: list[str] = []


def _lines_of(filename: str) -> set[int] | None:
    """The hit set of a code object's file, None outside the package."""
    if filename not in _by_name:
        _by_name[filename] = _hits.get(Path(filename).resolve())
    return _by_name[filename]


def _trace(frame, event, arg):
    lines = _lines_of(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """Line starts of every code object in the module, without the body of
    an ``if __name__ == "__main__":`` block."""
    source = path.read_text(encoding="utf-8")
    lines: set[int] = set()
    codes = [compile(source, str(path), "exec")]
    while codes:
        code = codes.pop()
        # a module's code starts at line 0, which no line event reports
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.difference_update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    for path in sorted(_hits):
        for line in sorted(executable_lines(path) - _hits[path]):
            _missed.append(f"{path.relative_to(PACKAGE.parents[1])}:{line}")
    if _missed and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("linetrace")
    terminalreporter.write_line(
        f"{len(_missed)} executable line(s) of {PACKAGE.parent.name}/{PACKAGE.name} did not run")
    for where in _missed:
        terminalreporter.write_line(f"  {where}")


sys.settrace(_trace)
threading.settrace(_trace)
