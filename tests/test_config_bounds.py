"""Every config field's declared bounds: checked when the config is built, and by each command's flags."""

import dataclasses
import math
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from moljoint import datagen
from moljoint.cli import main
from moljoint.generation import PbboConfig, SamplerConfig
from moljoint.model import ModelConfig
from moljoint.objectives import ObjectiveSpec
from moljoint.training import TrainConfig

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"

# one valid instance per config, with the fields it lacks bounds on; every single field can sit at
# its bound here without breaking a cross-field rule (n_heads divides embed_dim 1, lr_min 0 <= lr_max 0,
# warmup_iters 0 <= decay_iters 0)
_BASES = [
    (ModelConfig(vocab_size=8, n_heads=1), set()),
    (TrainConfig(lr_min=0.0, warmup_iters=0), {"decay_lr"}),
    (SamplerConfig(), {"sample_y"}),
    (PbboConfig(y_c=0.0, eval_budget=1, sample_budget=1), set()),
    (ObjectiveSpec(), {"name"}),
]


def _bounded(cls):
    return [f for f in dataclasses.fields(cls) if "bounds" in f.metadata]


def _bound_cases(cls, f):
    """(value, accepted) at and just past each finite end of ``f``'s bounds, at each open infinite end,
    and NaN for a float field."""
    lo, hi, open_lo, open_hi = f.metadata["bounds"]
    hint = get_type_hints(cls)[f.name]
    is_float = float in (hint, *get_args(hint))
    cases = []
    for bound, is_open, outward in ((lo, open_lo, -math.inf), (hi, open_hi, math.inf)):
        if math.isinf(bound):
            if is_open:
                cases.append((bound, False))
            continue
        cases.append((bound, not is_open))
        past = float(np.nextafter(bound, outward)) if is_float else bound + (1 if outward > 0 else -1)
        cases.append((past, False))
    return cases + [(math.nan, False)] * is_float


@pytest.mark.parametrize("base, unbounded", _BASES, ids=[type(b).__name__ for b, _ in _BASES])
def test_every_declared_bound_is_checked_when_the_config_is_built(base, unbounded):
    cls = type(base)
    assert {f.name for f in dataclasses.fields(cls)} - {f.name for f in _bounded(cls)} == unbounded
    for f in _bounded(cls):
        for value, accepted in _bound_cases(cls, f):
            if accepted:
                assert getattr(dataclasses.replace(base, **{f.name: value}), f.name) == value
            else:
                with pytest.raises(ValueError, match=f"^{f.name} must "):
                    dataclasses.replace(base, **{f.name: value})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("bounds") / "corpus.txt"
    path.write_text("\n".join(datagen.toy_corpus(20, seed=7, min_atoms=6)) + "\n")  # in the fixture's vocabulary
    return str(path)


def run_args(command, corpus):
    """A command line that runs ``command`` from the bench fixture, with every config it builds."""
    ckpt = ["--checkpoint", str(FIXTURE)]
    return {
        "pretrain": ["--data", corpus, "--max-iters", "1", "--embed-dim", "16", "--n-layers", "1", "--ff-dim", "32"],
        "finetune": [*ckpt, "--data", corpus, "--objective", "toy_mpo", "--max-iters", "1"],
        "sample": [*ckpt, "-n", "2"],
        "optimize": [*ckpt, "--y-c", "0", "--eval-budget", "1", "--sample-budget", "1", "--objective", "toy_mpo"],
        "evaluate": [*ckpt, "--n-samples", "2", "--objective", "toy_mpo"],
    }[command]


# each config a command builds from its command line, and the fields that have no flag there
_COMMAND_CONFIGS = [
    ("pretrain", ModelConfig, {"vocab_size"}),
    ("pretrain", TrainConfig, set()),
    ("finetune", TrainConfig, set()),
    ("finetune", ObjectiveSpec, set()),
    ("sample", SamplerConfig, set()),
    ("optimize", PbboConfig, set()),
    ("optimize", SamplerConfig, {"max_new_tokens"}),
    ("optimize", ObjectiveSpec, set()),
    ("evaluate", ObjectiveSpec, set()),
]


@pytest.mark.parametrize("command, cls, no_flag", _COMMAND_CONFIGS,
                         ids=[f"{c}-{cls.__name__}" for c, cls, _ in _COMMAND_CONFIGS])
def test_every_declared_bound_exits_1_before_the_run_starts(corpus, tmp_path, capsys, command, cls, no_flag):
    out = tmp_path / "run"
    refused = [(f.name, value) for f in _bounded(cls) if f.name not in no_flag
               for value, accepted in _bound_cases(cls, f) if not accepted]
    assert refused
    for name, value in refused:
        flag = (f"--objective-params={name}={value!r}" if cls is ObjectiveSpec
                else f"--{name.replace('_', '-')}={value!r}")
        assert main([command, *run_args(command, corpus), flag, "--out-dir", str(out)]) == 1, flag
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {name} must "), (flag, err)
        assert not out.exists(), flag


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", ["pretrain", "finetune", "sample", "optimize", "evaluate"])
def test_negative_seed_exits_1_before_the_run_starts(corpus, tmp_path, capsys, monkeypatch, command, via):
    argv = [command, *run_args(command, corpus), "--out-dir", str(tmp_path / "run")]
    if via == "flag":
        argv.append("--seed=-1")
    else:
        monkeypatch.setenv("JT_SEED", "-1")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error: seed must be >= 0")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("field", ["lr_max", "lr_min"])
def test_learning_rates_must_be_finite(field):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0, got inf$"):
        TrainConfig(**{field: math.inf})


def test_infinite_learning_rate_exits_1_before_the_run_starts(corpus, tmp_path, capsys):
    """At lr_max inf the first AdamW step made every weight non-finite, after loss.log was written."""
    out = tmp_path / "run"
    argv = ["pretrain", *run_args("pretrain", corpus), "--lr-max", "inf", "--lr-min", "0", "--warmup-iters", "0",
            "--out-dir", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("configuration error: lr_max must be finite")
    assert not out.exists()
