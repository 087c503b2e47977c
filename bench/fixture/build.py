"""Build the benchmark's fixture checkpoint through the moljoint CLI.

    python3 bench/fixture/build.py

Pretrains the README-size model (embed 64, 2 layers, 4 heads, ff 192,
max_len 32) on ``toy_corpus(200, seed=7, min_atoms=6)`` with the README
flags, fine-tunes it with ``--objective toy_mpo --p-task 0.1``, and
copies the resulting ``jtckpt-v1`` bundle to ``bench/fixture/checkpoint``.
It then samples 1024 draws from the bundle and writes ``fixture.json``:
the sha256 of every bundle file (checked by ``bench/run.py`` before each
use), the draws' validity, truncated share and y_pred quantiles, and the
``optimize`` threshold ``y_c``: the largest y_pred that ~3% of the draws
are valid and reach.

Everything is seeded; the bundle is committed so that the ``finetune``
and ``optimize`` workloads start from fixed weights even when a change
to the training code alters rounding.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import common  # noqa: E402  (sets BLAS threads before numpy is imported)

import numpy as np  # noqa: E402

from moljoint.datagen import toy_corpus  # noqa: E402
from moljoint.generation import SamplerConfig, sample_batch  # noqa: E402
from moljoint.smiles import validate  # noqa: E402
from moljoint.training import Checkpoint  # noqa: E402

CORPUS_SEED = 7
STATS_DRAWS = 1024
STATS_SEED = 0
ACCEPT_RATE = 0.03  # share of draws that y_c lets through

PRETRAIN = [
    "--embed-dim", "64", "--n-layers", "2", "--n-heads", "4", "--ff-dim", "192",
    "--max-len", "32", "--batch-size", "64", "--max-iters", "3000",
    "--warmup-iters", "150", "--lr-max", "2e-3", "--lr-min", "2e-4",
    "--dropout", "0.15", "--dropout-rate", "0.15", "--seed", "0",
]
FINETUNE = [
    "--objective", "toy_mpo", "--p-task", "0.1", "--max-iters", "800",
    "--lr-max", "1e-3", "--batch-size", "32", "--seed", "0",
]


def _cli(argv: list[str]) -> None:
    rc = common.run_cli(argv)
    if rc != 0:
        raise SystemExit(f"moljoint {argv[0]} exited with code {rc}")


def build(work: Path) -> Path:
    corpus = work / "corpus.txt"
    corpus.write_text("\n".join(toy_corpus(200, seed=CORPUS_SEED, min_atoms=6)) + "\n")
    _cli(["pretrain", "--data", str(corpus), "--out-dir", str(work / "pre"), *PRETRAIN])
    _cli(["finetune", "--checkpoint", str(work / "pre" / "checkpoint"),
          "--data", str(corpus), "--out-dir", str(work / "ft"), *FINETUNE])
    return work / "ft" / "checkpoint"


def sampling_stats(ckpt_dir: Path) -> dict:
    state = Checkpoint.load(ckpt_dir)
    draws = sample_batch(state.params, state.vocab, SamplerConfig(seed=STATS_SEED), STATS_DRAWS)
    ys = np.array([d.y for d in draws])
    qs = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.97, 0.99)
    valid_ys = sorted((d.y for d in draws if validate(d.smiles)), reverse=True)
    y_c = math.floor(valid_ys[int(ACCEPT_RATE * STATS_DRAWS) - 1] * 1e4) / 1e4
    accepted = sum(1 for d in draws if d.y >= y_c and validate(d.smiles))
    return {
        "draws": STATS_DRAWS,
        "sampler_seed": STATS_SEED,
        "validity": sum(1 for d in draws if validate(d.smiles)) / STATS_DRAWS,
        "truncated_share": sum(d.truncated for d in draws) / STATS_DRAWS,
        "y_pred_quantiles": {str(q): round(float(np.quantile(ys, q)), 6) for q in qs},
        "y_c": y_c,
        "accept_rate_at_y_c": accepted / STATS_DRAWS,
    }


def main() -> int:
    dest = HERE / "checkpoint"
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        built = build(Path(tmp))
        if dest.exists():
            shutil.rmtree(dest)
        shutil.copytree(built, dest)
    doc = {
        "recipe": {"corpus": f"toy_corpus(200, seed={CORPUS_SEED}, min_atoms=6)",
                   "pretrain": PRETRAIN, "finetune": FINETUNE},
        "sha256": common.digest_tree(dest),
        "sampling": sampling_stats(dest),
    }
    (HERE / "fixture.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["sampling"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
