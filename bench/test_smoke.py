"""Smoke test of the benchmark: one short run of every workload.

    pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks_pass(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout.splitlines()[-2]
    assert result["attempted"] > 0 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in section] == list(result["metrics"])
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    # counts and shares come from the fixed reps: a second run must repeat them exactly
    again = json.loads(_run(ROOT, workload, trace).stdout.splitlines()[-1])
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] != "ms"} for r in (result, again)]
    assert counts[0] == counts[1]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = _run(tmp_path, "pretrain", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_sampler_failure_is_counted_and_the_run_goes_on(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import run  # noqa: E402  (imports moljoint from src/)
    from moljoint import generation

    real = generation._next_token_ids
    picks = []

    def out_of_range_now_and_then(logits, cfg, rng):
        # the id V that rounding in the sampler can produce; detokenize then raises
        ids = real(logits, cfg, rng)
        picks.append(None)
        if len(picks) % 100 == 50:
            ids[0] = logits.shape[-1]
        return ids

    monkeypatch.setattr(generation, "_next_token_ids", out_of_range_now_and_then)
    assert run.main(["--workload", "optimize", "--seed", "3", "--seconds", "1", "--trace", "0"]) == 0
    record, result = (json.loads(ln) for ln in capsys.readouterr().out.splitlines()[-2:])
    assert result["failed"] > 0 and result["failed"] % 64 == 0
    assert result["attempted"] > result["failed"]
    assert any(e.startswith("IndexError") for e in record["errors"])
