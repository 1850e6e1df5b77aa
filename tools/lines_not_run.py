"""Print each line of ``src/gripstream`` that a pytest run never executes.

Usage, from the repository root::

    python tools/lines_not_run.py [pytest arguments]

It runs pytest in this process under ``sys.settrace`` and
``threading.settrace``, records the lines executed in files under
``src/gripstream``, and prints, per module, the lines that hold code
(``co_lines`` of every code object compiled from the file) and never ran,
as ``module.py: 12, 40-42``. Code run in a child process is not seen.
Arguments go to pytest unchanged; with none, it runs ``-q -p no:cacheprovider``
over ``tests``. The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gripstream"


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code in some code object compiled from it."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a, b-c``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        seen = ran[frame.f_code.co_filename]

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        seen.add(frame.f_lineno)  # a function's header line, which no line event reports
        return line

    sys.path.insert(0, str(ROOT / "src"))
    sys.dont_write_bytecode = True
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(code_lines(path) - ran[str(path)])
        if missed:
            print(f"{path.name}: {ranges(missed)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
