"""Report the lines under src/ that a pytest run never reaches.

A pytest plugin that needs only the standard library.  Load it by name:

    PYTHONPATH=src:tools python -m pytest -p reach -q

From the loading of the first conftest file to the end of the session
it line-traces every frame whose code lies under src/, then prints, per
module, how many of the module's executable lines no frame reached, and
their numbers.  A line is executable when the compiler gives it to a
code object of the module.  Work done in child processes (`skewarch run
--jobs 2`, say) is not traced.  The run takes two to three times as long
as an untraced one.
"""

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_inside = {}       # co_filename -> resolved path under src/, or None
_left = {}         # code object under src/ -> its lines not reached yet


def _source_path(filename):
    if filename not in _inside:
        path = Path(filename).resolve()
        _inside[filename] = path if SRC in path.parents else None
    return _inside[filename]


def _own_lines(code):
    return {line for _, _, line in code.co_lines() if line is not None}


def _code_lines(code):
    """Line numbers of code and of the code objects nested in it."""
    lines = _own_lines(code)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _line(frame, event, arg):
    left = _left[frame.f_code]
    left.discard(frame.f_lineno)
    return _line if left else None   # a fully reached frame runs untraced


def _call(frame, event, arg):
    code = frame.f_code
    left = _left.get(code)
    if left is None:
        if _source_path(code.co_filename) is None:
            return None
        left = _left[code] = _own_lines(code)
    return _line(frame, event, arg) if left else None


def _ranges(lines):
    """'3-5,9' for the sorted lines [3, 4, 5, 9]."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ",".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in spans)


def unreached():
    """(module path relative to src/, sorted unreached lines) per module."""
    reached = {}
    for code, left in _left.items():
        reached.setdefault(_source_path(code.co_filename), set()).update(
            _own_lines(code) - left)
    rows = []
    for path in sorted(SRC.rglob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        missed = sorted(_code_lines(code) - reached.get(path, set()))
        rows.append((path.relative_to(SRC), missed))
    return rows


def _trace(tracer):
    sys.settrace(tracer)
    threading.settrace(tracer)


def pytest_load_initial_conftests(early_config, parser, args):
    # runs before pytest loads the conftest files that import the
    # package, so its module-level lines count as reached too
    _trace(_call)


def pytest_unconfigure(config):
    _trace(None)


def pytest_terminal_summary(terminalreporter):
    _trace(None)
    rows = unreached()
    terminalreporter.section("src lines not reached")
    for path, missed in rows:
        terminalreporter.write_line(("%-28s %4d  %s" % (
            path.as_posix(), len(missed), _ranges(missed))).rstrip())
    terminalreporter.write_line("%-28s %4d" % ("total", sum(len(m) for _, m in rows)))
