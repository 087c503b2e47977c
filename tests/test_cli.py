"""Command-line surface tests: wiring, exit codes, reproducibility."""

import argparse
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import moljoint
from moljoint import cli, datagen
from moljoint.checkpoint import load_bundle, save_bundle
from moljoint.cli import build_parser, main
from moljoint.generation import PbboConfig, SamplerConfig
from moljoint.model import ModelConfig
from moljoint.smiles import validate
from moljoint.training import Checkpoint, TrainConfig

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"  # split q|k|v tensors
TRAIN_ARGS = [
    "--embed-dim", "16", "--n-layers", "1", "--n-heads", "2", "--ff-dim", "32",
    "--predictor-hidden-dim", "8", "--max-len", "32",
    "--batch-size", "8", "--warmup-iters", "5", "--lr-max", "2e-3",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = datagen.toy_corpus(40, seed=31)
    (root / "corpus.txt").write_text("\n".join(corpus) + "\n")
    code = main(["pretrain", "--data", str(root / "corpus.txt"),
                 "--max-iters", "40", *TRAIN_ARGS,
                 "--seed", "3", "--out-dir", str(root / "pre")])
    assert code == 0
    return root


def test_missing_data_path_exits_2(tmp_path, capsys):
    code = main(["pretrain", "--data", str(tmp_path / "nope.txt"),
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "nope.txt" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--data", "empty.txt"],
    ["finetune", "--checkpoint", str(FIXTURE), "--data", "empty.txt", "--objective", "toy_mpo"],
    ["finetune", "--checkpoint", str(FIXTURE), "--data", "empty.tsv"],
    ["evaluate", "--checkpoint", str(FIXTURE), "--test", "empty.tsv", "--n-samples", "4"],
], ids=["pretrain", "finetune_objective", "finetune_labeled", "evaluate_test"])
def test_empty_data_file_exits_2_before_the_run_starts(tmp_path, capsys, argv):
    for name in ("empty.txt", "empty.tsv"):
        (tmp_path / name).write_text("\n  \n\n")  # blank lines only
    argv = [str(tmp_path / a) if a.startswith("empty.") else a for a in argv]
    out = tmp_path / "run"
    assert main([*argv, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_unknown_flag_is_fatal_config_error(tmp_path):
    code = main(["pretrain", "--data", "x", "--definitely-not-a-flag", "1"])
    assert code == 1


def test_bad_flag_value_is_config_error(workdir, tmp_path):
    code = main(["sample", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "--temperature", "-2", "-n", "1", "--out-dir", str(tmp_path)])
    assert code == 1


def test_pretrain_zero_iters_writes_initialized_checkpoint(workdir, tmp_path):
    out = tmp_path / "run"
    code = main(["pretrain", "--data", str(workdir / "corpus.txt"),
                 "--max-iters", "0", *TRAIN_ARGS, "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    assert (out / "checkpoint" / "meta.json").exists()
    assert json.loads((out / "checkpoint" / "meta.json").read_text())["iteration"] == 0


def test_pretrain_loss_log_iterations_strictly_monotone(workdir):
    lines = (workdir / "pre" / "loss.log").read_text().splitlines()[1:]
    iters = [int(ln.split("\t")[0]) for ln in lines]
    assert iters == sorted(iters)
    assert len(set(iters)) == len(iters)
    assert len(iters) == 40


def test_config_echo_written_and_complete(workdir):
    doc = json.loads((workdir / "pre" / "config_echo.json").read_text())
    assert doc["command"] == "pretrain"
    assert doc["seed"] == 3
    assert doc["train"]["max_iters"] == 40
    assert doc["model"]["embed_dim"] == 16
    assert (workdir / "pre" / "manifest.json").exists()


def test_sample_zero_is_empty_file(workdir, tmp_path):
    out = tmp_path / "s0"
    code = main(["sample", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "-n", "0", "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    assert (out / "samples.tsv").read_text() == ""


def test_sample_fixed_seed_byte_identical(workdir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["sample", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                     "-n", "25", "--seed", "11", "--out-dir", str(out)])
        assert code == 0
        outs.append((out / "samples.tsv").read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 25


def test_jt_seed_env_fallback(workdir, tmp_path, monkeypatch):
    monkeypatch.setenv("JT_SEED", "11")
    out_env = tmp_path / "env"
    code = main(["sample", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "-n", "10", "--out-dir", str(out_env)])
    assert code == 0
    monkeypatch.delenv("JT_SEED")
    out_flag = tmp_path / "flag"
    main(["sample", "--checkpoint", str(workdir / "pre" / "checkpoint"),
          "-n", "10", "--seed", "11", "--out-dir", str(out_flag)])
    assert (out_env / "samples.tsv").read_bytes() == (out_flag / "samples.tsv").read_bytes()


def test_sample_loads_bundle_with_legacy_dropout_rate(workdir, tmp_path):
    ckpt = tmp_path / "legacy"
    shutil.copytree(workdir / "pre" / "checkpoint", ckpt)
    doc = json.loads((ckpt / "config.json").read_text())
    doc["model"]["dropout_rate"] = 0.15
    (ckpt / "config.json").write_text(json.dumps(doc))
    out = tmp_path / "s"
    code = main(["sample", "--checkpoint", str(ckpt), "-n", "5", "--seed", "1",
                 "--out-dir", str(out)])
    assert code == 0
    assert len((out / "samples.tsv").read_text().splitlines()) == 5


def test_bundle_with_a_tensor_the_model_lacks_exits_2(tmp_path, capsys):
    """A stray tensor is a data error, as an unknown config key is; the fixture's split q|k|v still loads."""
    bundle = load_bundle(FIXTURE)
    bundle["params"]["h9.attn.wo"] = np.zeros((3, 3), dtype=np.float32)
    save_bundle(tmp_path / "stray", **bundle)
    code = main(["sample", "--checkpoint", str(tmp_path / "stray"), "-n", "2", "--out-dir", str(tmp_path / "s")])
    assert code == 2
    assert "h9.attn.wo" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()
    assert main(["sample", "--checkpoint", str(FIXTURE), "-n", "2", "--out-dir", str(tmp_path / "ok")]) == 0


@pytest.mark.parametrize("argv", [
    ["finetune", "--data", "corpus.txt", "--objective", "toy_mpo", "--max-iters", "1"],
    ["sample", "-n", "2"],
    ["optimize", "--y-c", "0", "--eval-budget", "1", "--sample-budget", "1"],
    ["evaluate", "--n-samples", "2"],
], ids=lambda argv: argv[0])
def test_bundle_whose_vocabulary_disagrees_with_its_config_exits_2(tmp_path, capsys, monkeypatch, argv):
    ckpt = tmp_path / "short"
    shutil.copytree(FIXTURE, ckpt)
    tokens = (ckpt / "vocab.txt").read_text().splitlines()
    (ckpt / "vocab.txt").write_text("\n".join(tokens[:-2]) + "\n")
    (tmp_path / "corpus.txt").write_text("CC\nCCC\n")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert main([argv[0], "--checkpoint", str(ckpt), *argv[1:], "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "vocab_size" in err
    assert not out.exists()


@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_damaged_params_blob_exits_2(workdir, tmp_path, capsys, damage):
    ckpt = tmp_path / "damaged"
    shutil.copytree(workdir / "pre" / "checkpoint", ckpt)
    raw = bytearray((ckpt / "params.bin").read_bytes())
    if damage == "flip":
        raw[len(raw) // 2] ^= 0x01
    else:
        del raw[-4:]
    (ckpt / "params.bin").write_bytes(bytes(raw))
    code = main(["sample", "--checkpoint", str(ckpt), "-n", "2", "--out-dir", str(tmp_path / "s")])
    assert code == 2
    assert "params.bin" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_manifest_without_digests_loads_unchecked(workdir, tmp_path):
    """Bundles written before the manifests held a length and sha256 still load."""
    ckpt = tmp_path / "old"
    shutil.copytree(workdir / "pre" / "checkpoint", ckpt)
    for stem in ("params", "optim"):
        doc = json.loads((ckpt / f"{stem}.json").read_text())
        assert {"bytes", "sha256"} <= doc.keys()
        del doc["bytes"], doc["sha256"]
        (ckpt / f"{stem}.json").write_text(json.dumps(doc))
    old, new = Checkpoint.load(ckpt), Checkpoint.load(workdir / "pre" / "checkpoint")
    for name, t in new.params.tensors.items():
        np.testing.assert_array_equal(old.params[name].data, t.data)
    assert old.opt.steps == new.opt.steps


def test_dropout_rate_is_a_second_spelling_of_dropout(workdir, tmp_path):
    out = tmp_path / "run"
    code = main(["pretrain", "--data", str(workdir / "corpus.txt"), "--max-iters", "0",
                 *TRAIN_ARGS, "--dropout-rate", "0.3", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "config_echo.json").read_text())
    assert doc["train"]["dropout"] == 0.3
    assert "dropout_rate" not in doc["model"]


def test_finetune_autolabel_equals_prelabeled(workdir, tmp_path):
    """Auto-labeling with the objective equals a pre-labeled file (purity)."""
    from moljoint.objectives import ObjectiveSpec, evaluate

    corpus = (workdir / "corpus.txt").read_text().splitlines()[:20]
    sub = tmp_path / "sub.txt"
    sub.write_text("\n".join(corpus) + "\n")
    obj = ObjectiveSpec()
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("".join(f"{s}\t{evaluate(obj, s):.10f}\n" for s in corpus))

    args_common = ["--checkpoint", str(workdir / "pre" / "checkpoint"),
                   "--max-iters", "5", "--batch-size", "4", "--seed", "5"]
    a, b = tmp_path / "auto", tmp_path / "pre"
    assert main(["finetune", *args_common, "--data", str(sub),
                 "--objective", "toy_mpo", "--out-dir", str(a)]) == 0
    assert main(["finetune", *args_common, "--data", str(labeled),
                 "--out-dir", str(b)]) == 0
    pa = (a / "checkpoint" / "params.bin").read_bytes()
    pb = (b / "checkpoint" / "params.bin").read_bytes()
    assert pa == pb


def test_finetune_vocabulary_mismatch_exits_2(workdir, tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("CS(Br)I\t0.5\n")  # S, Br, I not in the toy vocabulary
    code = main(["finetune", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "--data", str(bad), "--max-iters", "2", "--out-dir", str(tmp_path / "o")])
    assert code == 2


def test_finetune_ablations_are_p_task_and_mask_rate_zero(workdir, tmp_path):
    """--p-task 0 drops the generation branch and --mask-rate 0 the masked-token
    term: every step trains the prediction term alone and head.w never moves."""
    base = workdir / "pre" / "checkpoint"
    argv = ["finetune", "--checkpoint", str(base), "--data", str(workdir / "corpus.txt"),
            "--objective", "toy_mpo", "--max-iters", "6", "--batch-size", "4", "--seed", "2"]
    out = tmp_path / "abl"
    assert main([*argv, "--p-task", "0", "--mask-rate", "0", "--out-dir", str(out)]) == 0
    steps = [ln.split("\t") for ln in (out / "loss.log").read_text().splitlines()[1:]]
    assert len(steps) == 6
    assert all(task == "prediction" and float(loss) > 0 for _, task, loss in steps)
    head = Checkpoint.load(out / "checkpoint").params["head.w"].data
    assert head.tobytes() == Checkpoint.load(base).params["head.w"].data.tobytes()
    for retired in ("--encoder-term", "--generation-task"):  # the switches they replace
        assert main([*argv, retired, "false", "--out-dir", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x").exists()


def test_optimize_impossible_threshold_empty_but_ok(workdir, tmp_path):
    out = tmp_path / "opt"
    code = main(["optimize", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "--y-c", "99.0", "--eval-budget", "5", "--sample-budget", "20",
                 "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["accepted_count"] == 0
    assert doc["draws_used"] == 20
    assert doc["eval_budget"] == 5 and doc["sample_budget"] == 20  # budgets echoed
    assert doc["top1"] is None
    trace = (out / "trace.jsonl").read_text().splitlines()
    assert len(trace) == 20


def test_optimize_writes_minus_inf_threshold_as_strict_json(workdir, tmp_path):
    out = tmp_path / "opt"
    assert main(["optimize", "--checkpoint", str(workdir / "pre" / "checkpoint"), "--y-c=-inf",
                 "--eval-budget", "2", "--sample-budget", "4", "--seed", "0", "--out-dir", str(out)]) == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    for name in ("summary.json", "config_echo.json"):
        doc = json.loads((out / name).read_text(), parse_constant=no_constants)
        assert doc["y_c"] == "-inf"
        assert float(doc["y_c"]) == -math.inf


@pytest.mark.parametrize("bad", ["data", "checkpoint"])
def test_evaluate_bad_input_exits_2_before_the_run_starts(workdir, tmp_path, capsys, bad):
    samples = tmp_path / "samples.txt"
    samples.write_text("CCO\n")
    no_valid = tmp_path / "ref.txt"
    no_valid.write_text("C((\n")
    source = {"data": ["--data", str(no_valid)], "checkpoint": ["--checkpoint", str(tmp_path / "nope")]}[bad]
    out = tmp_path / "ev"
    assert main(["evaluate", "--samples", str(samples), *source, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_evaluate_hand_file_reproduces_hand_counts(workdir, tmp_path):
    hand = tmp_path / "hand.txt"
    hand.write_text("CCO\nC1CC1\nC((\n")
    ref = tmp_path / "ref.txt"
    ref.write_text("CCO\nNCN\n")
    out = tmp_path / "ev"
    code = main(["evaluate", "--samples", str(hand), "--data", str(ref),
                 "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["validity"] == pytest.approx(2 / 3)
    assert doc["uniqueness"] == 1.0
    assert doc["novelty"] == pytest.approx(2 / 3)
    assert "config_hash" in doc["metadata"]


def test_evaluate_samples_reads_the_tsv_that_sample_writes(tmp_path):
    samples = tmp_path / "samples.tsv"
    # the third draw is empty, an invalid sample; the blank line is no draw
    samples.write_text("CCO\t0.500000\nCCN\t0.200000\n\t0.300000\n\n")
    ref = tmp_path / "ref.txt"
    ref.write_text("CCO\nNCN\n")
    out = tmp_path / "ev"
    code = main(["evaluate", "--samples", str(samples), "--data", str(ref),
                 "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["sample_count"] == 3
    assert doc["validity"] == pytest.approx(2 / 3)
    assert doc["novelty"] == pytest.approx(2 / 3)


def test_evaluate_counts_empty_draws_alike_from_a_file_or_a_checkpoint(workdir, tmp_path):
    """evaluate --samples on sample's output equals evaluate drawing the same
    samples itself, empty draws included."""
    pre = tmp_path / "pre"
    assert main(["pretrain", "--data", str(workdir / "corpus.txt"), "--max-iters", "0",
                 *TRAIN_ARGS, "--seed", "0", "--out-dir", str(pre)]) == 0
    ckpt = str(pre / "checkpoint")
    assert main(["sample", "--checkpoint", ckpt, "-n", "64", "--seed", "4",
                 "--out-dir", str(tmp_path / "s")]) == 0
    draws = (tmp_path / "s" / "samples.tsv").read_text().splitlines()
    assert sum(ln.startswith("\t") for ln in draws) >= 1  # an untrained model emits empty draws
    docs = []
    for name, source in (("f", ["--samples", str(tmp_path / "s" / "samples.tsv")]),
                         ("c", ["--checkpoint", ckpt, "--n-samples", "64"])):
        assert main(["evaluate", *source, "--seed", "4", "--out-dir", str(tmp_path / name)]) == 0
        docs.append(json.loads((tmp_path / name / "metrics.json").read_text()))
    for key in ("sample_count", "validity", "uniqueness"):
        assert docs[0][key] == docs[1][key], key
    assert docs[0]["sample_count"] == 64


@pytest.mark.parametrize("command", ["finetune", "evaluate"])
def test_non_finite_label_is_a_data_error(workdir, tmp_path, capsys, command):
    smiles = (workdir / "corpus.txt").read_text().splitlines()[:2]
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text(f"{smiles[0]}\t0.5\n{smiles[1]}\tnan\n")
    ckpt = str(workdir / "pre" / "checkpoint")
    out = tmp_path / "o"
    if command == "finetune":
        argv = ["finetune", "--checkpoint", ckpt, "--data", str(labeled), "--max-iters", "2"]
    else:
        argv = ["evaluate", "--checkpoint", ckpt, "--test", str(labeled), "--n-samples", "0"]
    assert main([*argv, "--seed", "0", "--out-dir", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (out / "loss.log").exists() and not (out / "metrics.json").exists()


def test_evaluate_draws_once_for_sample_metrics_and_sampled_mae(workdir, tmp_path, monkeypatch):
    calls = []
    sample_batch = cli.gen.sample_batch

    def spy(params, vocab, cfg, n, *args, **kwargs):
        draws = sample_batch(params, vocab, cfg, n, *args, **kwargs)
        calls.append((n, cfg.seed, draws))
        return draws

    for mod in list(sys.modules.values()):  # every module that bound the sampler
        if mod.__name__.startswith("moljoint") and vars(mod).get("sample_batch") is sample_batch:
            monkeypatch.setattr(mod, "sample_batch", spy)
    out = tmp_path / "ev"
    assert main(["evaluate", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "--objective", "toy_mpo", "--n-samples", "16", "--seed", "3",
                 "--out-dir", str(out)]) == 0
    assert [(n, seed) for n, seed, _ in calls] == [(16, 3)]
    valid = sum(bool(validate(s.smiles)) for s in calls[0][2])
    report = json.loads((out / "metrics.json").read_text())
    assert report["sample_count"] == 16 and report["mae_sampled_retained"] == valid
    assert (report["mae_sampled"] is None) == (valid == 0)


def test_evaluate_reports_draws_with_no_valid_string(workdir, tmp_path, monkeypatch):
    samples = tmp_path / "samples.tsv"
    samples.write_text("C((\t0.5\n\t0.1\n")
    # the checkpoint's own draws are invalid too, so the sampled MAE has nothing to score
    monkeypatch.setattr(cli.gen, "sample_batch", lambda params, vocab, cfg, n: [cli.gen.Sample("C1CC", 0.5)] * n)
    out = tmp_path / "ev"
    assert main(["evaluate", "--samples", str(samples), "--data", str(workdir / "corpus.txt"),
                 "--checkpoint", str(workdir / "pre" / "checkpoint"), "--objective", "toy_mpo",
                 "--n-samples", "4", "--histograms", "--out-dir", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["validity"] == 0.0 and report["feature_kl"] is None
    assert report["mae_sampled"] is None and report["mae_sampled_retained"] == 0
    assert not (out / "histograms.csv").exists()


def test_evaluate_histogram_csv_rows_match_bins(workdir, tmp_path):
    from moljoint.evaluation import feature_histograms

    hand = tmp_path / "hand.txt"
    hand.write_text("CCO\nC1CC1\n")
    ref = tmp_path / "ref.txt"
    ref.write_text("CCO\nNCN\nCCC\n")
    out = tmp_path / "ev"
    code = main(["evaluate", "--samples", str(hand), "--data", str(ref),
                 "--histograms", "--seed", "0", "--out-dir", str(out)])
    assert code == 0
    rows = (out / "histograms.csv").read_text().splitlines()
    want = feature_histograms(["CCO", "C1CC1"], ["CCO", "NCN", "CCC"])
    assert len(rows) == len(want) + 1  # header + one row per bin


@pytest.mark.parametrize("source", ["samples", "checkpoint", "objective"])
def test_evaluate_validates_each_string_once(workdir, tmp_path, monkeypatch, source):
    """One validate call per reference line and per sample, histograms and the sampled MAE included.

    The histograms need a valid sample, which a barely trained checkpoint need not draw."""
    from moljoint import evaluation, generation, objectives, smiles

    reference = (workdir / "corpus.txt").read_text().split()
    if source == "samples":
        samples = ["CCO", "C1CC1", "C((", "CCO", reference[0]]
        (tmp_path / "hand.txt").write_text("\n".join(samples) + "\n")
        argv = ["--samples", str(tmp_path / "hand.txt")]
    else:
        state = Checkpoint.load(workdir / "pre" / "checkpoint")
        samples = [s.smiles for s in generation.sample_batch(
            state.params, state.vocab, generation.SamplerConfig(seed=2), 24)]
        argv = ["--checkpoint", str(workdir / "pre" / "checkpoint"), "--n-samples", "24"]
        if source == "objective":  # the sampled MAE scores the same draws
            argv += ["--objective", "toy_mpo"]
    calls, validate = [], smiles.validate
    for module in (cli, evaluation, generation, objectives):
        monkeypatch.setattr(module, "validate", lambda s, *a: calls.append(s) or validate(s, *a))
    out = tmp_path / "ev"
    assert main(["evaluate", *argv, "--data", str(workdir / "corpus.txt"), "--histograms", "--seed", "2",
                 "--out-dir", str(out)]) == 0
    assert calls == reference + samples
    assert (out / "histograms.csv").exists() == any(validate(s) for s in samples)


@pytest.mark.parametrize("argv", [
    ["pretrain", "--n-heads", "0"],
    ["pretrain", "--batch-size", "0"],
    ["optimize", "--y-c", "0", "--eval-budget", "2", "--sample-budget", "4",
     "--objective", "toy_mpo", "--objective-params", "sigma_rings=0"],
    ["evaluate", "--n-samples", "4", "--objective", "toy_mpo", "--objective-params", "weights=1"],
    ["optimize", "--y-c", "0", "--eval-budget", "2", "--sample-budget", "4",
     "--objective", "toy_mpo", "--objective-params", "target_length=nan"],
    ["optimize", "--y-c", "0", "--eval-budget", "2", "--sample-budget", "4",
     "--objective-params", "sigma_rings=0.5"],
    ["finetune", "--max-iters", "1", "--objective-params", "sigma_rings=0.5"],
    ["evaluate", "--n-samples", "4", "--objective-params", "sigma_rings=0.5"],
    ["sample", "--max-new-tokens", "-1"],
    ["sample", "--max-new-tokens", "40"],  # the checkpoint's max_len is 32
    ["sample", "--temperature", "nan"],
    ["sample", "--temperature", "inf"],
    ["optimize", "--y-c", "nan", "--eval-budget", "2", "--sample-budget", "4"],
    ["sample", "-n", "-3"],
    ["optimize", "--y-c", "inf", "--eval-budget", "2", "--sample-budget", "4"],
    ["finetune", "--max-iters", "-1", "--objective", "toy_mpo"],
    ["evaluate", "--n-samples", "-3", "--objective", "toy_mpo"],
    ["evaluate", "--n-samples", "0", "--objective", "toy_mpo"],
    ["evaluate", "--n-samples", "4", "--histograms"],
    ["pretrain", "--max-iters", "0", "--decay-lr", "ture"],
    ["sample", "-n", "1", "--sample-y", "on"],
], ids=["n_heads", "batch_size", "sigma", "objective_key", "non_finite",
        "params_without_objective_optimize", "params_without_objective_finetune",
        "params_without_objective_evaluate", "max_new_tokens_negative", "max_new_tokens_past_max_len",
        "temperature_nan", "temperature_inf", "y_c_nan", "n_negative", "y_c_inf", "finetune_max_iters_negative",
        "n_samples_negative", "objective_without_samples", "histograms_without_data", "decay_lr_ture",
        "sample_y_on"])
def test_bad_setting_exits_1_before_the_run_starts(workdir, tmp_path, capsys, argv):
    source = [] if argv[0] == "pretrain" else ["--checkpoint", str(workdir / "pre" / "checkpoint")]
    if argv[0] in ("pretrain", "finetune"):
        source += ["--data", str(workdir / "corpus.txt")]
    out = tmp_path / "run"
    assert main([argv[0], *source, *argv[1:], "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--dropout", "1.5"], ["--dropout", "1.0"], ["--dropout", "-0.1"], ["--mask-rate", "1.5"],
    ["--mask-rate", "-0.5"], ["--lr-max", "-1", "--lr-min", "-2"], ["--lr-min", "-0.0001"],
    ["--beta1", "1.0"], ["--beta2", "1.0"], ["--beta2", "-0.5"], ["--eval-interval", "-3"],
], ids=lambda flags: "=".join(flags[:2]).lstrip("-"))
def test_train_config_out_of_bounds_exits_1_before_the_run_starts(workdir, tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert main(["pretrain", "--data", str(workdir / "corpus.txt"), *TRAIN_ARGS, *flags,
                 "--max-iters", "2", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err
    assert not out.exists()


_UPDATE_OVERFLOWS = "iter 0 (generation step): non-finite values in op output tok_emb (AdamW update)"


@pytest.mark.parametrize("lr, iters, failure", [
    ("1e39", ["--max-iters", "1"], _UPDATE_OVERFLOWS),
    ("1e39", ["--max-iters", "2", "--eval-interval", "1"], _UPDATE_OVERFLOWS),
    ("1e30", ["--max-iters", "3"], "iter 1 (generation step): non-finite values in attention scores"),
], ids=["update_overflows", "update_overflows_before_a_periodic_save", "forward_overflows"])
def test_numeric_blow_up_exits_3_and_saves_nothing(workdir, tmp_path, capsys, lr, iters, failure):
    """lr 1e39 is finite, but lr * update overflows float32; lr 1e30 makes the next forward overflow."""
    out = tmp_path / "run"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["pretrain", "--data", str(workdir / "corpus.txt"), *TRAIN_ARGS, *iters,
                     "--warmup-iters", "0", "--lr-max", lr, "--lr-min", lr, "--out-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"numeric failure: training aborted at {failure}")
    assert not (out / "checkpoint").exists()


def test_numeric_blow_up_under_warnings_as_errors_exits_3(workdir, tmp_path):
    """Under -W error numpy's overflow warning is raised, from layer_norm_fwd here: a numeric failure too,
    reported with the iteration and branch as a NonFiniteError is."""
    out = tmp_path / "run"
    env = dict(os.environ, PYTHONPATH=str(Path(moljoint.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "moljoint.cli", "pretrain",
                           "--data", str(workdir / "corpus.txt"), *TRAIN_ARGS, "--max-iters", "3",
                           "--warmup-iters", "0", "--lr-max", "1e30", "--lr-min", "1e30", "--out-dir", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numeric failure: training aborted at iter 1 (generation step): overflow")
    assert "Traceback" not in proc.stderr
    assert not (out / "checkpoint").exists()


@pytest.mark.parametrize("objective", [[], ["--objective", "toy_mpo"]], ids=["plain", "objective"])
def test_finetune_checks_its_flags_before_it_reads_data(workdir, tmp_path, capsys, monkeypatch, objective):
    """A bad flag exits 1 although plain SMILES without --objective would be a data error (exit 2),
    and nothing is tokenized or labeled first."""
    read = []
    monkeypatch.setattr(cli, "_read_dataset", lambda *args, **kwargs: read.append(args))
    out = tmp_path / "run"
    assert main(["finetune", "--checkpoint", str(workdir / "pre" / "checkpoint"), "--data",
                 str(workdir / "corpus.txt"), *objective, "--max-iters", "-1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: max_iters")
    assert read == [] and not out.exists()


@pytest.mark.parametrize("line, error", [("CCC\tabc", "bad target 'abc'"), ("CCC", "expected 'SMILES<TAB>float'")],
                         ids=["bad_target", "no_target"])
def test_bad_line_in_finetune_data_exits_2_naming_it(workdir, tmp_path, capsys, line, error):
    (tmp_path / "labeled.tsv").write_text(f"CCO\t0.5\n{line}\n")
    out = tmp_path / "run"
    assert main(["finetune", "--checkpoint", str(workdir / "pre" / "checkpoint"),
                 "--data", str(tmp_path / "labeled.tsv"), "--max-iters", "1", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: line 2: {error}")
    assert not out.exists()


def test_run_without_out_dir_goes_under_runs(workdir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--checkpoint", str(workdir / "pre" / "checkpoint"), "-n", "2"]) == 0
    (run,) = (tmp_path / "runs").iterdir()
    assert re.fullmatch(r"\d{8}-\d{6}-sample", run.name)
    assert len((run / "samples.tsv").read_text().splitlines()) == 2


def test_evaluate_requires_some_input(tmp_path):
    assert main(["evaluate", "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("flag", [["--test", "held_out.tsv"], ["--objective", "toy_mpo"]])
def test_evaluate_test_and_objective_need_a_checkpoint(tmp_path, capsys, flag):
    hand = tmp_path / "hand.txt"
    hand.write_text("CCO\n")
    out = tmp_path / "ev"
    assert main(["evaluate", "--samples", str(hand), *flag, "--out-dir", str(out)]) == 1
    assert "--checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_model_flag_defaults_are_model_config_defaults():
    args = build_parser().parse_args(["pretrain", "--data", "corpus.txt"])
    want = ModelConfig(vocab_size=1)
    for name in ("max_len", "embed_dim", "n_layers", "n_heads", "ff_dim",
                 "predictor_hidden_dim", "predictor_layers"):
        assert getattr(args, name) == getattr(want, name), name


# every config each command builds from its flags: (command, config class, defaults, fields without a flag)
_CONFIG_FLAGS = [
    ("pretrain", ModelConfig, ModelConfig(vocab_size=1), {"vocab_size"}),
    ("pretrain", TrainConfig, TrainConfig(), set()),
    ("finetune", TrainConfig, TrainConfig.finetune_defaults(), set()),
    ("sample", SamplerConfig, SamplerConfig(), set()),
    ("optimize", PbboConfig, None, set()),
    ("optimize", SamplerConfig, SamplerConfig(), {"max_new_tokens", "sample_y"}),
]


def test_each_config_field_is_one_flag_with_the_config_default():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for command, cls, defaults, skipped in _CONFIG_FLAGS:
        actions = commands[command]._actions
        for f in dataclasses.fields(cls):
            flags = [a for a in actions if a.dest == f.name]
            if f.name == "seed":  # the common --seed, with the JT_SEED fallback
                assert [a.option_strings for a in flags] == [["--seed"]]
                continue
            if f.name in skipped:
                assert flags == [], (command, f.name)
                continue
            assert len(flags) == 1, (command, f.name)
            (flag,) = flags
            assert flag.option_strings[0] == "--" + f.name.replace("_", "-")
            no_default = f.default is dataclasses.MISSING
            assert flag.required is no_default, (command, f.name)
            if not no_default:
                assert flag.default == getattr(defaults, f.name), (command, f.name)

    def parse(*argv):
        return parser.parse_args(list(argv))

    assert parse("pretrain", "--data", "c.txt", "--dropout-rate", "0.3").dropout == 0.3
    assert parse("sample", "--checkpoint", "c").sample_y is False
    assert parse("sample", "--checkpoint", "c", "--sample-y").sample_y is True
    assert parse("sample", "--checkpoint", "c", "--sample-y", "false", "-n", "3").sample_y is False
    assert parse("sample", "--checkpoint", "c", "--sample-y", "true").sample_y is True
    assert parse("sample", "--checkpoint", "c", "--sample-y", "YES").sample_y is True
    assert parse("sample", "--checkpoint", "c", "--sample-y", "No").sample_y is False
    assert parse("pretrain", "--data", "c.txt", "--decay-lr", "0").decay_lr is False
    assert parse("pretrain", "--data", "c.txt").decay_lr is True
    assert parse("pretrain", "--data", "c.txt", "--decay-lr", "false").decay_lr is False
    assert parse("finetune", "--checkpoint", "c", "--data", "d").decay_lr is False
    assert parse("finetune", "--checkpoint", "c", "--data", "d", "--decay-lr").decay_lr is True


# stepmem's README-size generation steps, run under the CLI's allocator settings
_FAULTS_PER_STEP = textwrap.dedent("""
    import json
    import stepmem
    from moljoint import cli

    applied = cli._keep_freed_memory()
    print(json.dumps({"applied": applied, "faults_per_step": stepmem.minor_faults_per_step()}))
""")


def test_cli_allocator_keeps_training_steps_free_of_page_faults():
    """Freed step memory stays in the process, so later steps fault nothing in."""
    src = str(Path(moljoint.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["applied"]:
        pytest.skip("this libc has no mallopt taking these thresholds")
    assert result["faults_per_step"] < 1000


def test_allocator_setup_is_a_no_op_without_mallopt(monkeypatch, capsys):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace())
    assert cli._keep_freed_memory() is False
    assert capsys.readouterr() == ("", "")


_CLI_WITHOUT_SCIPY = textwrap.dedent("""
    import json, sys
    sys.modules["scipy"] = None  # any import of scipy now raises ImportError
    from moljoint.cli import main

    for argv in json.loads(sys.argv[1]):
        code = main(argv)
        if code:
            sys.exit(f"{argv[0]} exited {code}")
""")


def test_library_and_cli_run_without_scipy(tmp_path):
    """scipy is a test dependency only: no library module imports it, and
    every CLI command runs with it blocked."""
    import ast

    src = Path(moljoint.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), f"{path.name} imports scipy"

    corpus = datagen.toy_corpus(40, seed=31)
    (tmp_path / "corpus.txt").write_text("\n".join(corpus) + "\n")
    (tmp_path / "test.tsv").write_text("".join(f"{s}\t0.5\n" for s in corpus[:8]))
    ckpt = str(tmp_path / "pre" / "checkpoint")
    runs = [
        ["pretrain", "--data", str(tmp_path / "corpus.txt"), "--max-iters", "2", *TRAIN_ARGS,
         "--out-dir", str(tmp_path / "pre")],
        ["sample", "--checkpoint", ckpt, "-n", "64", "--out-dir", str(tmp_path / "s")],
        ["optimize", "--checkpoint", ckpt, "--y-c", "0", "--eval-budget", "4",
         "--sample-budget", "16", "--objective", "toy_mpo", "--out-dir", str(tmp_path / "opt")],
        ["evaluate", "--checkpoint", ckpt, "--samples", str(tmp_path / "s" / "samples.tsv"),
         "--data", str(tmp_path / "corpus.txt"), "--test", str(tmp_path / "test.tsv"),
         "--objective", "toy_mpo", "--n-samples", "16", "--histograms",
         "--out-dir", str(tmp_path / "ev")],
    ]
    env = dict(os.environ, PYTHONPATH=str(src.parent), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CLI_WITHOUT_SCIPY, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ev" / "histograms.csv").exists()
