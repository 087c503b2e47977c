"""moljoint benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload pretrain --seed 1 --seconds 30 --trace 0

Workloads (all at the README model size, on toy_corpus(200, seed, min_atoms=6)):

* ``pretrain``: ``moljoint pretrain`` from a fresh init (batch 64, p_task 0.95).
* ``finetune``: ``moljoint finetune --objective toy_mpo --p-task 0.1`` from
  the fixture checkpoint in ``bench/fixture``.
* ``optimize``: ``moljoint optimize`` from the fixture with ``toy_mpo``
  re-scoring, then ``moljoint evaluate`` over the drawn strings.

Each CLI command runs in this process. A rep is one fixed-size command
pipeline; rep k of a run with seed s makes its corpus and passes ``--seed``
from the rep seed 1000 * s + k, so a run averages over many inputs and the
same seed repeats the same reps. One short warm-up rep (k = 0) runs first,
then reps run until their wall time reaches ``--seconds`` (at least
``FIXED_REPS``). An operation is a training step or a draw; the timed calls
are ``train_step`` and the 64-draw ``sample_batch`` chunks.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the tracer in ``tracing.py`` wraps the library's public
functions and the result holds the per-layer metrics. The last line of
stdout is the result object; the line before it is the run record (tool
versions, checks, failures), also written to ``bench/.runs/``. Exit code
0 means the run completed, whether or not its checks passed (see
``correct``); 2 means moljoint cannot be imported, 3 a bad fixture.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402  (pins BLAS threads, exits 2 without moljoint)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from moljoint import datagen  # noqa: E402
from moljoint.smiles import split_tokens, validate  # noqa: E402
from moljoint.training import Checkpoint  # noqa: E402

IMPORT_S = perf_counter() - T_START

FIXTURE = common.BENCH_DIR / "fixture"
RUNS_DIR = common.BENCH_DIR / ".runs"
MODEL_FLAGS = ["--embed-dim", "64", "--n-layers", "2", "--n-heads", "4", "--ff-dim", "192",
               "--max-len", "32", "--dropout-rate", "0.15"]
# reps 1..FIXED_REPS always run: counts and quality figures come from them alone,
# so they repeat exactly across runs of one seed
FIXED_REPS = 2
# stop starting reps after this much wall time, whatever --seconds says
WALL_CAP_S = 120.0
# draw validity may fall this far below the fixture's (6 binomial sigmas for 256 draws)
VALIDITY_MARGIN = 0.15


class CheckFailed(Exception):
    pass


class CommandFailed(Exception):
    pass


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def write_corpus(seed: int, path: Path) -> None:
    path.write_text("\n".join(datagen.toy_corpus(200, seed=seed, min_atoms=6)) + "\n")


def load_fixture() -> dict:
    """fixture.json, after checking the checkpoint bundle against its sha256 list."""
    doc = json.loads((FIXTURE / "fixture.json").read_text())
    found = common.digest_tree(FIXTURE / "checkpoint")
    if found != doc["sha256"]:
        bad = sorted(k for k in set(found) | set(doc["sha256"]) if found.get(k) != doc["sha256"].get(k))
        print(f"benchmark: fixture checkpoint does not match fixture.json sha256: {bad}", file=sys.stderr)
        sys.exit(3)
    return doc


class Training:
    """pretrain / finetune: one rep is one CLI training command of fixed length."""

    unit = "step"
    op_target = "moljoint.training:train_step"

    def __init__(self, command: str, steps: int, warm_steps: int, flags: list[str]):
        self.command, self.steps, self.warm_steps, self.flags = command, steps, warm_steps, flags
        self.uses_fixture = command == "finetune"

    @staticmethod
    def op_weight(*args, **kwargs) -> int:
        return 1

    def run(self, seed, rep_dir: Path, corpus: Path, warm: bool, cli, fixture: dict) -> None:
        steps = self.warm_steps if warm else self.steps
        argv = [self.command, "--data", str(corpus), "--out-dir", str(rep_dir),
                "--max-iters", str(steps), "--seed", str(seed), *self.flags]
        if self.command == "finetune":
            argv += ["--checkpoint", str(FIXTURE / "checkpoint")]
        cli(argv)

    def check(self, rep_dir: Path, warm: bool, fixture: dict) -> dict:
        steps = self.warm_steps if warm else self.steps
        rows = [ln.split("\t") for ln in (rep_dir / "loss.log").read_text().splitlines()[1:]]
        _check([int(r[0]) for r in rows] == list(range(steps)), "loss.log holds every iteration once")
        losses = [float(r[2]) for r in rows if not (r[1] == "prediction" and float(r[2]) == 0.0)]
        _check(all(math.isfinite(v) for v in losses), "every loss is finite")
        tenth = max(1, len(losses) // 10)
        first, last = statistics.fmean(losses[:tenth]), statistics.fmean(losses[-tenth:])
        if self.command == "pretrain" and not warm:
            _check(last < first, f"pretrain loss falls from first to last tenth ({first:.4f} -> {last:.4f})")
        state = Checkpoint.load(rep_dir / "checkpoint")
        _check(state.iteration == steps, "final checkpoint holds the last iteration")
        _check(all(np.isfinite(t.data).all() for t in state.params.tensors.values()),
               "final checkpoint parameters are finite")
        return {"loss_first": first, "loss_last": last}


class Optimize:
    """optimize + evaluate: one rep is a fixed sample budget from the fixture."""

    unit = "draw"
    op_target = "moljoint.generation:sample_batch"
    uses_fixture = True

    def __init__(self, draws: int, warm_draws: int):
        self.draws, self.warm_draws = draws, warm_draws

    @staticmethod
    def op_weight(params, vocab, cfg, n, *args, **kwargs) -> int:
        return n

    def run(self, seed, rep_dir: Path, corpus: Path, warm: bool, cli, fixture: dict) -> None:
        draws = self.warm_draws if warm else self.draws
        y_c = fixture["sampling"]["y_c"]
        cli(["optimize", "--checkpoint", str(FIXTURE / "checkpoint"), "--y-c", str(y_c),
             "--eval-budget", str(draws), "--sample-budget", str(draws),
             "--objective", "toy_mpo", "--seed", str(seed), "--out-dir", str(rep_dir)])
        with (rep_dir / "trace.jsonl").open() as fh:
            drawn = [json.loads(ln)["smiles"] for ln in fh]
        (rep_dir / "drawn.txt").write_text("\n".join(drawn) + "\n")
        cli(["evaluate", "--samples", str(rep_dir / "drawn.txt"), "--data", str(corpus),
             "--seed", str(seed), "--out-dir", str(rep_dir / "eval")])

    def check(self, rep_dir: Path, warm: bool, fixture: dict) -> dict:
        draws = self.warm_draws if warm else self.draws
        y_c = fixture["sampling"]["y_c"]
        vocab = set((FIXTURE / "checkpoint" / "vocab.txt").read_text().splitlines())
        summary = json.loads((rep_dir / "summary.json").read_text())
        trace = [json.loads(ln) for ln in (rep_dir / "trace.jsonl").read_text().splitlines()]
        _check(summary["draws_used"] == draws == len(trace), "the whole sample budget is drawn")
        smiles = [r["smiles"] for r in trace]
        # an empty string is a draw whose first token was EOS
        _check(all(all(t in vocab for t in split_tokens(s)) for s in smiles if s),
               "every drawn token is in the fixture vocabulary")
        ok = [bool(validate(s)) for s in smiles]
        for r, valid in zip(trace, ok):
            _check(r["accepted"] == (valid and r["y_pred"] >= y_c), "acceptance is valid and y_pred >= y_c")
            _check(math.isfinite(r["y_pred"]), "every y_pred is finite")
            if r["accepted"]:
                _check(r["oracle"] is not None and 0.0 <= r["oracle"] <= 1.0, "accepted draws are re-scored")
        validity = sum(ok) / len(ok)
        floor = fixture["sampling"]["validity"] - VALIDITY_MARGIN
        if not warm:
            _check(validity >= floor, f"sample validity {validity:.4f} >= floor {floor:.4f}")
        report = json.loads((rep_dir / "eval" / "metrics.json").read_text())
        nonempty = [v for s, v in zip(smiles, ok) if s]
        _check(abs(report["validity"] - sum(nonempty) / len(nonempty)) < 1e-12,
               "evaluate's validity matches validate() over the drawn strings")
        for key in ("uniqueness", "novelty", "feature_kl"):
            _check(0.0 <= report[key] <= 1.0, f"evaluate {key} lies in [0, 1]")
        return {"validity": validity, "accepted": summary["accepted_count"]}


TRAIN_FLAGS = ["--batch-size", "64", "--p-task", "0.95", "--dropout", "0.15",
               "--warmup-iters", "8", "--lr-max", "2e-3", "--lr-min", "2e-4", "--eval-interval", "8"]
FINETUNE_FLAGS = ["--objective", "toy_mpo", "--p-task", "0.1", "--batch-size", "32",
                  "--lr-max", "1e-3", "--eval-interval", "16"]
WORKLOADS = {
    "pretrain": Training("pretrain", steps=32, warm_steps=4, flags=MODEL_FLAGS + TRAIN_FLAGS),
    "finetune": Training("finetune", steps=32, warm_steps=4, flags=FINETUNE_FLAGS),
    "optimize": Optimize(draws=256, warm_draws=64),
}


def git_commit() -> str:
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": common.BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "platform": platform.platform(),
    }


def interpreter_start_s() -> float:
    """Wall time for a fresh interpreter to start and import the moljoint CLI."""
    code = f"import sys; sys.path.insert(0, {str(common.ROOT / 'src')!r}); import moljoint.cli"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return perf_counter() - t0


class Rep:
    """Timing and outcome of one rep."""

    def __init__(self):
        self.setup_s = None  # rep start -> first timed call
        self.wall_s = 0.0    # first timed call -> rep end
        self.total_s = 0.0
        self.op_ms: list[float] = []
        self.attempted = self.completed = self.failed = 0
        self.errors: list[str] = []
        self.outcome: dict | None = None


def run_rep(wl, seed: int, run_id: int, work: Path, probe, tracer, fixture) -> Rep:
    """Run id 0 is the warm-up; the tracer files the rep's spans under its run id."""
    rep = Rep()
    warm = run_id == 0
    rep_dir = work / f"rep{run_id}"

    def cli(argv):
        with tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext():
            rc = common.run_cli(argv)
        if rc != 0:
            raise CommandFailed(f"moljoint {argv[0]} exited with code {rc}")

    rep_seed = 1000 * seed + run_id
    first = len(probe.calls)
    if tracer is not None:
        tracer.run = run_id
    t0 = perf_counter()
    rep_dir.mkdir()
    corpus = rep_dir / "corpus.txt"
    try:
        write_corpus(rep_seed, corpus)
        wl.run(rep_seed, rep_dir, corpus, warm, cli, fixture)
        crashed = None
    except Exception as e:  # a failing command or op must not end the run
        crashed = f"{type(e).__name__}: {e}"
    t1 = perf_counter()
    if tracer is not None:
        tracer.run = -1  # the checks below call moljoint too; keep them out of the metrics
    rep.total_s = t1 - t0
    calls = probe.calls[first:]
    if calls:
        rep.setup_s = calls[0][0] - t0
        rep.wall_s = t1 - calls[0][0]
    for c0, c1, err, weight in calls:
        rep.attempted += weight
        if err is None:
            rep.completed += weight
            rep.op_ms.append((c1 - c0) * 1e3)
        else:
            rep.failed += weight
            rep.errors.append(err)
    if crashed is not None:
        rep.errors.append(crashed)
        if rep.failed == 0:
            rep.attempted += 1  # failed before or after its timed calls: count the rep itself
            rep.failed += 1
    else:
        try:
            rep.outcome = wl.check(rep_dir, warm, fixture)
        except (CheckFailed, OSError, ValueError, KeyError) as e:
            rep.errors.append(f"check failed: {type(e).__name__}: {e}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    wl = WORKLOADS[args.workload]

    fixture = load_fixture() if wl.uses_fixture else {}
    RUNS_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    patcher = tracing.Patcher()
    probe = tracing.Probe(wl.op_weight)
    tracer = tracing.Tracer() if args.trace else None
    try:
        patcher.replace(wl.op_target, probe.wrap)
        if tracer is not None:
            tracing.install(patcher, tracer)
        reps = [run_rep(wl, args.seed, 0, work, probe, tracer, fixture)]
        measured_s = 0.0
        while (len(reps) <= FIXED_REPS or measured_s < args.seconds) and perf_counter() - T_START < WALL_CAP_S:
            reps.append(run_rep(wl, args.seed, len(reps), work, probe, tracer, fixture))
            measured_s += reps[-1].total_s
    finally:
        patcher.restore()
        shutil.rmtree(work, ignore_errors=True)

    measured, fixed = reps[1:], reps[1:FIXED_REPS + 1]
    checks_failed = [e for r in reps for e in r.errors if e.startswith("check failed")]
    units = sum(len(r.op_ms) for r in measured)
    if units == 0:
        print(f"benchmark: no {wl.unit} completed: {[e for r in reps for e in r.errors]}", file=sys.stderr)
        return 1
    e2e = {
        "setup_s": statistics.median(interpreter_start_s() for _ in range(3))
                   + statistics.median(r.setup_s for r in reps if r.setup_s is not None),
        "ops_per_s": statistics.median(r.completed / r.wall_s for r in measured if r.wall_s),
        "batch_ms_p50": statistics.median(ms for r in measured for ms in r.op_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    quality = {}
    if all(r.outcome is not None for r in fixed):
        key = "loss_last" if wl.unit == "step" else "validity"
        quality[key] = statistics.fmean(r.outcome[key] for r in fixed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "import_s": IMPORT_S,
        "reps": len(measured), "ops_unit": wl.unit, "timed_calls": units,
        "setup_s_each": [r.setup_s for r in reps],
        "ops_per_s_each": [r.completed / r.wall_s if r.wall_s else None for r in measured],
        "end_to_end": e2e, "quality": quality,
        "errors": [e for r in reps for e in r.errors],
    }
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    if tracer is not None:
        # times over every measured rep; counts, shares and quality over the fixed reps only
        timed = tracing.layer_metrics(tracer.spans, set(range(1, len(reps))), units)
        counted = tracing.layer_metrics(tracer.spans, set(range(1, FIXED_REPS + 1)),
                                        sum(len(r.op_ms) for r in fixed))
        counted["training.loss_last"] = quality.get("loss_last", 0.0)
        counted["generation.validity"] = quality.get("validity", 0.0)
        record["per_layer"] = {m["name"]: (timed if m["unit"] == "ms" else counted)[m["name"]]
                               for m in spec["per_layer"]}
        spans_path = RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(common.ROOT))
    record["checks_failed"] = checks_failed
    correct = bool(quality) and not checks_failed and all(math.isfinite(v) for v in e2e.values())
    (RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    section, values = (spec["per_layer"], record["per_layer"]) if tracer else (spec["end_to_end"], e2e)
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in measured),
        "failed": sum(r.failed for r in measured),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }
    print(json.dumps({k: v for k, v in record.items() if k != "per_layer"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
