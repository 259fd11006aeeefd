"""List the statements of src/tracecloak that a pytest run never executes.

    python3 tools/linecov.py [PYTEST-ARG ...]

It runs pytest in this process, with the arguments given, and counts the
lines of src/tracecloak that run with `trace.Trace(count=1, trace=0)`.  The
trace function is set with `threading.settrace` as well, so that the
threads a test starts, such as a `SocketServer` loop, are traced too.  Only
frames of the package's files are handed to the tracer: its own
`ignoredirs` test caches by file name without the directory, so it would
skip every `__init__.py` once it has skipped one.

A statement is a node of the module's `ast`, without docstrings, `def` and
`class` lines, imports, and `global` and `nonlocal` declarations, which
compile to no traced line.  It ran when a line of it ran; for a compound
statement (`if`, `for`, `try`, ...) only the lines before its body count.
For each module it prints every statement that never ran, as file:line and
its first line of source, then one count per module and a total.  The exit
status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tracecloak"

_NOT_COUNTED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal,
)  # fmt: skip


def statements(source: str) -> dict[int, range]:
    """First line -> the lines that show a statement ran, for each counted
    statement of one module's source."""
    found: dict[int, range] = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _NOT_COUNTED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return found


def _run_pytest(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    prefix = f"{PACKAGE}{os.sep}"

    def package_only(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return tracer.globaltrace(frame, event, arg)
        return None

    threading.settrace(package_only)
    sys.settrace(package_only)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), set(tracer.results().counts)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    status, counts = _run_pytest(argv)
    ran: dict[Path, set[int]] = {}
    for filename, line in counts:
        ran.setdefault(Path(filename), set()).add(line)
    summary, missed_total, total = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        hit = ran.get(path, set())
        name = path.relative_to(ROOT)
        found = statements(source)
        missed = [first for first, lines in sorted(found.items()) if hit.isdisjoint(lines)]
        for first in missed:
            print(f"{name}:{first}  {text[first - 1].strip()}")
        summary.append(f"{len(missed):6d} of {len(found):5d} statements not run  {name}")
        missed_total += len(missed)
        total += len(found)
    print(*summary, sep="\n")
    print(f"{missed_total:6d} of {total:5d} statements not run  total")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
