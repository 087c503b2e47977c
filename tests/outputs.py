"""Parent-versus-change output check: every CLI output at a base revision against this checkout's.

    python tests/outputs.py --base REV

It adds a detached ``git worktree`` of REV in a temporary directory and
removes it afterwards. Then it runs one command matrix (``MATRIX``) once per
side: the base first, then this checkout's working tree. Each command is a
subprocess with that side's ``src`` on PYTHONPATH and OPENBLAS_NUM_THREADS=1.
Both sides run in the same absolute run directory, which holds a copy of the
benchmark fixture checkpoint (``fixture/``) and the corpus that the first
command generates, so no output path names a checkout. Every output file,
stdout, stderr and exit code is compared. Each difference is printed, and the
exit code is 1 on any difference, else 0.

Byte identity depends on the OpenBLAS kernel and the numpy build, so this
compares two checkouts on one machine; no hashes are committed.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "bench" / "fixture" / "checkpoint"
CLI = ["-m", "moljoint.cli"]

# (name, python arguments, expected exit code); each runs in the run directory, in order
MATRIX = [
    ("corpus", ["-c", "from moljoint.datagen import toy_corpus; "
                      "open('corpus.txt', 'w').write('\\n'.join(toy_corpus(200, seed=7, min_atoms=6)) + '\\n')"], 0),
    ("pretrain", CLI + ["pretrain", "--data", "corpus.txt", "--embed-dim", "64", "--n-layers", "2", "--n-heads", "4",
                        "--ff-dim", "192", "--max-len", "32", "--batch-size", "64", "--max-iters", "30",
                        "--warmup-iters", "5", "--lr-max", "2e-3", "--lr-min", "2e-4", "--dropout", "0.15",
                        "--eval-interval", "10", "--seed", "0", "--out-dir", "pre"], 0),
    ("finetune", CLI + ["finetune", "--checkpoint", "fixture", "--data", "corpus.txt", "--objective", "toy_mpo",
                        "--p-task", "0.1", "--dropout", "0.15", "--max-iters", "30", "--lr-max", "1e-3",
                        "--batch-size", "32", "--eval-interval", "10", "--seed", "0", "--out-dir", "ft"], 0),
    ("sample", CLI + ["sample", "--checkpoint", "fixture", "-n", "256", "--sample-y", "--seed", "1",
                      "--out-dir", "samples"], 0),
    ("optimize", CLI + ["optimize", "--checkpoint", "fixture", "--y-c", "0.4", "--eval-budget", "50",
                        "--sample-budget", "600", "--objective", "toy_mpo", "--seed", "0", "--out-dir", "opt"], 0),
    ("sample-pretrained", CLI + ["sample", "--checkpoint", "pre/checkpoint", "-n", "64", "--seed", "2",
                                 "--out-dir", "pre-samples"], 0),
    ("evaluate", CLI + ["evaluate", "--samples", "samples/samples.tsv", "--data", "corpus.txt", "--histograms",
                        "--seed", "0", "--out-dir", "eval"], 0),
    ("pretrain-missing-data", CLI + ["pretrain", "--data", "missing.txt", "--out-dir", "missing"], 2),
]


def run_side(src: Path, run_dir: Path) -> dict[str, tuple[int, bytes, bytes]]:
    """Run ``MATRIX`` in a fresh ``run_dir`` with ``src`` on PYTHONPATH; each command's (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "JT_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    where = subprocess.run([sys.executable, "-c", "import moljoint; print(moljoint.__file__)"], env=env,
                           cwd=run_dir.parent, capture_output=True, text=True, check=True).stdout.strip()
    if Path(where).resolve().parent.parent != src.resolve():
        raise SystemExit(f"moljoint imports from {where}, not from {src}")
    run_dir.mkdir()
    shutil.copytree(FIXTURE, run_dir / "fixture")
    results = {}
    for name, args, _ in MATRIX:
        done = subprocess.run([sys.executable, *args], env=env, cwd=run_dir, capture_output=True)
        results[name] = (done.returncode, done.stdout, done.stderr)
    return results


def files(top: Path) -> dict[str, bytes]:
    return {str(p.relative_to(top)): p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


def first_difference(a: bytes, b: bytes) -> str:
    """The first line that only the base has and the first that only the change has, as in a unified diff."""
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    body = list(difflib.unified_diff(la, lb, n=0, lineterm=""))[2:]  # past the ---/+++ header
    first = [next((d for d in body if d[0] == sign), None) for sign in "-+"]
    return "\n".join("      " + d[:160] for d in first if d) or "      (line endings or trailing bytes)"


def compare(base: dict, change: dict, base_files: dict, change_files: dict) -> list[str]:
    out = []
    for name, _, expected in MATRIX:
        (rc_a, out_a, err_a), (rc_b, out_b, err_b) = base[name], change[name]
        if rc_a != rc_b:
            out.append(f"{name}: exit code {rc_a} at base, {rc_b} here")
        elif rc_a != expected:
            print(f"note: {name} exits {rc_a} on both sides, not {expected}:\n{err_a.decode(errors='replace')}")
        for stream, a, b in (("stdout", out_a, out_b), ("stderr", err_a, err_b)):
            if a != b:
                out.append(f"{name}: {stream} differs\n{first_difference(a, b)}")
    for path in sorted(base_files.keys() | change_files.keys()):
        a, b = base_files.get(path), change_files.get(path)
        if a is None or b is None:
            out.append(f"{path}: only {'here' if a is None else 'at base'}")
        elif a != b:
            out.append(f"{path}: bytes differ ({len(a)} at base, {len(b)} here)\n{first_difference(a, b)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against, e.g. HEAD or HEAD^1")
    args = parser.parse_args(argv)
    tmp = Path(tempfile.mkdtemp(prefix="moljoint-outputs-"))
    base_tree, run_dir = tmp / "base", tmp / "run"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(base_tree), args.base],
                   check=True)
    try:
        sides = {}
        for side, src in (("base", base_tree / "src"), ("change", ROOT / "src")):
            sides[side] = run_side(src, run_dir), files(run_dir)
            shutil.rmtree(run_dir)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base_tree)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)
    (base, base_files), (change, change_files) = sides["base"], sides["change"]
    differences = compare(base, change, base_files, change_files)
    for d in differences:
        print("DIFF " + d)
    print(f"{len(MATRIX)} commands, {len(base_files | change_files)} files against {args.base}: "
          + (f"{len(differences)} differences" if differences else "identical"))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
