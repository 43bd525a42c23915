"""Line coverage of the library without coverage.py: a pytest plugin that
traces the frames of src/pencilorbits with sys.settrace and, at the end of
the run, lists the library lines that no test executed.  Worker processes
are not traced.  Not collected (no test_ prefix); load it by name:

    PYTHONPATH=src:tests python -m pytest -p linecov
"""

import sys
import types
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "pencilorbits"
_executed: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(LIBRARY)):
        return None

    def line(frame, event, arg):
        if event == "line":
            _executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    return line


def _statement_lines(code: types.CodeType) -> set[int]:
    """Lines that raise a 'line' event, nested code objects included; a
    function's own def line runs in the enclosing code."""
    lines = {n for _, _, n in code.co_lines() if n and n != code.co_firstlineno}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _statement_lines(const)
    return lines


def pytest_load_initial_conftests(early_config, parser, args):
    # before tests/conftest.py imports the library
    sys.settrace(_trace)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    terminalreporter.section("library lines never executed")
    for path in sorted(LIBRARY.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        missed = sorted(n for n in _statement_lines(code) if (str(path), n) not in _executed)
        terminalreporter.write_line(f"{path.name}: {', '.join(map(str, missed)) or 'none'}")
