"""The lines of ``src/moljoint`` that the tier-1 tests never run.

Runs pytest in this process under a ``sys.settrace`` hook that traces only
frames whose code lives in ``src/moljoint``, then prints, per file, the
executable lines (the lines the compiler gives code to) that no test ran.
No coverage package is needed. Lines that only a test's subprocess runs
count as never run.

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

With no arguments it runs ``tests/`` with pytest's terminal output off, so
that stdout holds only the report; the exit code is pytest's either way.
"""

import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "moljoint"


def executable_lines(path: Path) -> set[int]:
    """Every line that some code object compiled from ``path`` runs."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3-5, 9"."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def traced(fn):
    """``fn()``'s result and the lines it ran of each file in ``src/moljoint``, by resolved path.

    Any tracer already set is put back afterwards.
    """
    ran: dict[str, set[int]] = {}
    lines_of: dict[types.CodeType, set[int] | None] = {}  # a code object's set in ``ran``; None outside
    root = str(SRC) + "/"

    def local(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in lines_of:
            path = str(Path(code.co_filename).resolve())
            lines_of[code] = ran.setdefault(path, set()) if path.startswith(root) else None
        if lines_of[code] is None:
            return None
        lines_of[code].add(frame.f_lineno)  # the line of the call event: a def's, or a module's first
        return local

    outer = sys.gettrace()
    sys.settrace(hook)
    try:
        return fn(), ran
    finally:
        sys.settrace(outer)


def main(argv: list[str]) -> int:
    args = argv or ["-p", "no:terminal", "-p", "no:cacheprovider", str(Path(__file__).parent)]
    code, by_path = traced(lambda: int(pytest.main(args)))
    total_missed = total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - by_path.get(str(path), set()))
        total_missed, total = total_missed + len(missed), total + len(lines)
        print(f"{path.name}: {len(missed)} of {len(lines)} lines never run" + (f": {ranges(missed)}" if missed else ""))
    print(f"src/moljoint: {total_missed} of {total} executable lines never run (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
