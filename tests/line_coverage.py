"""List every line of src/qsgames that has bytecode and that the tests never run.

Runs pytest in this interpreter under sys.settrace, recording the lines
executed in frames whose code lives under src/qsgames, then compiles
each module and prints each line that some code object maps bytecode
to but no test ran.  Code run only in a subprocess the tests start is
not seen.  pytest does not collect this file.

    python tests/line_coverage.py [PYTEST_ARGS ...]

PYTEST_ARGS default to `-q` and this directory.  Exit status is
pytest's, so a failing suite is not read as a coverage list.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsgames"


def code_lines(path: Path) -> set[int]:
    """Line numbers that some code object of the module has bytecode on."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's RESUME is on line 0
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run, per file under PACKAGE."""
    import pytest

    prefix = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        # the call itself runs the def line's RESUME, which gets no line event
        executed.setdefault(filename, set()).add(frame.f_code.co_firstlineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv: list[str]) -> int:
    status, executed = run(argv or ["-q", str(Path(__file__).resolve().parent)])
    if status:
        print(f"pytest exited {status}; no coverage list", file=sys.stderr)
        return status
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        missed = sorted(lines - executed.get(str(path), set()))
        total, unrun = total + len(lines), unrun + len(missed)
        source = path.read_text().splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} of {total} code lines never run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
