"""``tests/outputs.py``: its declared-change rule, and a three-command matrix against HEAD."""

import shutil
import subprocess
from pathlib import Path

import pytest

import outputs


def test_every_difference_is_declared_and_every_declaration_matches_one():
    names = ["opt/trace.jsonl", "opt/summary.json", "optimize:stdout"]
    assert outputs.undeclared_and_stale(names, ["opt/*", "optimize:stdout"]) == ([], [])
    assert outputs.undeclared_and_stale(names, ["opt/trace.jsonl", "optimize:*"]) == (["opt/summary.json"], [])
    assert outputs.undeclared_and_stale(names, ["opt/*", "*:stdout", "sample:*"]) == ([], ["sample:*"])
    assert outputs.undeclared_and_stale(names, []) == (names, [])
    assert outputs.undeclared_and_stale([], ["opt/*"]) == ([], ["opt/*"])


def _worktree_available() -> bool:
    """True when this checkout is a git work tree of its own that can add worktrees."""
    if shutil.which("git") is None:
        return False
    top = subprocess.run(["git", "-C", str(outputs.ROOT), "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    if top.returncode or Path(top.stdout.strip()).resolve() != outputs.ROOT:
        return False
    return subprocess.run(["git", "-C", str(outputs.ROOT), "worktree", "list"], capture_output=True).returncode == 0


@pytest.mark.skipif(not _worktree_available(), reason="needs this checkout to be a git work tree with git worktree")
def test_a_three_command_matrix_matches_head(capsys):
    matrix = [c for c in outputs.MATRIX if c[0] in ("corpus", "sample-argmax", "pretrain-missing-data")]
    assert len(matrix) == 3
    assert outputs.main(["--base", "HEAD"], matrix=matrix) == 0, capsys.readouterr().out
