"""The line tracer behind ``tests/linetrace.py``."""

from pathlib import Path

import numpy as np

import linetrace
from moljoint import numerics as nm


def test_executable_lines_and_ranges(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""doc"""\n\ndef f(x):\n    if x:\n        return 1\n    return 2\n')
    assert linetrace.executable_lines(src) == {1, 3, 4, 5, 6}
    assert linetrace.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"


def test_a_traced_call_runs_each_line_of_the_path_it_takes():
    code = nm._unbroadcast.__code__
    grad, ran = linetrace.traced(lambda: nm._unbroadcast(np.ones((2, 3)), (3,)))
    np.testing.assert_array_equal(grad, [2.0, 2.0, 2.0])
    assert {line for _, _, line in code.co_lines() if line} <= ran[str(Path(code.co_filename).resolve())]
