"""Shared set-up for the benchmark scripts.

Importing this module pins the BLAS thread count (before numpy loads),
puts the repository's ``src`` directory on ``sys.path`` and checks that
``moljoint`` imports; the scripts stop with exit code 2 when it does not.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    from moljoint import cli  # noqa: E402
except ImportError as e:
    print(f"benchmark: cannot import moljoint from {ROOT / 'src'}: {e}", file=sys.stderr)
    sys.exit(2)


def run_cli(argv: list[str]) -> int:
    """Run one ``moljoint`` command in this process; returns its exit code.

    The command's own stdout is discarded so that the benchmark's result
    stays the last line of its output. Exceptions the CLI does not map to
    an exit code propagate.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def digest_tree(path: Path) -> dict[str, str]:
    """sha256 of every regular file under ``path``, keyed by relative name."""
    return {
        p.relative_to(path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*")) if p.is_file()
    }
