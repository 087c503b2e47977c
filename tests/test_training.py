"""Training-loop tests: schedule, task switch, clipping, checkpoint roundtrip."""

import dataclasses
import json

import numpy as np
import pytest

from moljoint import checkpoint as ckpt_io, datagen, model as M, training as T
from moljoint.cli import main
from moljoint.model import JointModelParams, ModelConfig, Task
from moljoint.numerics import Rng
from moljoint.smiles import build_vocabulary
from moljoint.training import AdamW, Checkpoint, Dataset, TrainConfig


@pytest.fixture(scope="module")
def setup():
    corpus = datagen.toy_corpus(50, seed=21)
    vocab = build_vocabulary(corpus)
    mcfg = ModelConfig(vocab_size=len(vocab), max_len=32, embed_dim=16, n_layers=2,
                       n_heads=2, ff_dim=32, predictor_hidden_dim=8)
    dataset = T.encode_corpus(corpus, vocab, 32)
    return corpus, vocab, mcfg, dataset


def _cfg(**kw):
    base = dict(batch_size=8, max_iters=10, warmup_iters=2, lr_max=1e-3,
                lr_min=1e-4, seed=0, eval_interval=0)
    base.update(kw)
    return TrainConfig(**base)


def _train(setup, dataset=None, weights=None, **kw) -> Checkpoint:
    """Train from an iteration-0 start on the setup corpus (or `dataset`)."""
    _, vocab, mcfg, corpus = setup
    return T.train(Checkpoint.start(vocab, mcfg, _cfg(**kw), weights), corpus if dataset is None else dataset)


def _weights(state: Checkpoint) -> dict:
    return {n: t.data for n, t in state.params.tensors.items()}


# ---------------------------------------------------------------- lr schedule

def test_lr_schedule_endpoints():
    cfg = TrainConfig(max_iters=10_000, warmup_iters=2000, lr_max=6e-4, lr_min=6e-5)
    assert T.lr_at(0, cfg) == 0.0
    assert T.lr_at(2000, cfg) == pytest.approx(6e-4)
    assert T.lr_at(10_000, cfg) == pytest.approx(6e-5)
    assert T.lr_at(99_999, cfg) == pytest.approx(6e-5)
    mid = T.lr_at(6000, cfg)
    assert 6e-5 < mid < 6e-4


def test_lr_schedule_monotone_after_warmup():
    cfg = TrainConfig(max_iters=1000, warmup_iters=100)
    vals = [T.lr_at(i, cfg) for i in range(100, 1001)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lr_constant_when_decay_disabled():
    cfg = dataclasses.replace(TrainConfig.finetune_defaults(), max_iters=100)
    assert not cfg.decay_lr
    assert {T.lr_at(i, cfg) for i in (0, 50, 100, 10_000)} == {3e-5}


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(p_task=1.5)
    with pytest.raises(ValueError):
        TrainConfig(lr_max=1e-5, lr_min=1e-3)
    with pytest.raises(ValueError):
        TrainConfig(warmup_iters=100, decay_iters=50)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)


# ----------------------------------------------------------------- task switch

def test_bernoulli_switch_frequency(setup):
    _, _, _, dataset = setup
    rng = Rng(123)
    p_task = 0.7
    n = 10_000
    hits = sum(rng.random() < p_task for _ in range(n))
    assert abs(hits / n - p_task) < 0.02  # the switch draw used by train_step


def test_p_task_one_is_all_generation_and_freezes_predictor(setup):
    _, vocab, mcfg, dataset = setup
    state = Checkpoint.start(vocab, mcfg, _cfg(p_task=1.0, max_iters=25))
    phi_before = {n: state.params[n].data.copy() for n in state.params.predictor_names()}
    tasks = []
    T.train(state, dataset, log_cb=lambda it, loss, task: tasks.append(task))
    assert len(tasks) == 25 and all(t is Task.GENERATION for t in tasks)
    for n, before in phi_before.items():
        np.testing.assert_array_equal(state.params[n].data, before)


def test_p_task_zero_on_unsupervised_is_pure_encoder(setup):
    _, vocab, mcfg, dataset = setup
    state = Checkpoint.start(vocab, mcfg, _cfg(p_task=0.0, max_iters=15, seed=1))
    phi_before = {n: state.params[n].data.copy() for n in state.params.predictor_names()}
    trunk_before = state.params["tok_emb"].data.copy()
    tasks = []
    T.train(state, dataset, log_cb=lambda it, loss, task: tasks.append(task))
    assert len(tasks) == 15 and all(t is Task.PREDICTION for t in tasks)
    for n, before in phi_before.items():
        np.testing.assert_array_equal(state.params[n].data, before)
    assert np.abs(state.params["tok_emb"].data - trunk_before).max() > 0


def test_supervised_steps_move_predictor(setup):
    _, vocab, mcfg, dataset = setup
    sup = Dataset(dataset.sequences, np.linspace(0.1, 0.9, len(dataset)))
    state = Checkpoint.start(vocab, mcfg, _cfg(p_task=0.0, max_iters=10, seed=2))
    phi_before = state.params["pred.l0.w"].data.copy()
    T.train(state, sup)
    assert np.abs(state.params["pred.l0.w"].data - phi_before).max() > 0


def test_labeled_step_with_empty_mask_leaves_token_head_alone(setup):
    """No masked positions: the loss never reaches head.w, so AdamW skips it."""
    _, _, mcfg, dataset = setup
    sup = Dataset(dataset.sequences, np.linspace(0.1, 0.9, len(dataset)))
    cfg = _cfg(p_task=0.0, mask_rate=0.0)
    rng = Rng(4)
    params = JointModelParams(mcfg, rng)
    opt = AdamW(params)
    head_before = params["head.w"].data.copy()
    phi_before = params["pred.l0.w"].data.copy()
    _, task = T.train_step(params, opt, T._batch(sup, rng, cfg), cfg, rng, 5)
    assert task is Task.PREDICTION
    np.testing.assert_array_equal(params["head.w"].data, head_before)
    np.testing.assert_array_equal(opt.m["head.w"], 0.0)
    np.testing.assert_array_equal(opt.v["head.w"], 0.0)
    assert opt.steps["head.w"] == 0
    assert np.abs(params["pred.l0.w"].data - phi_before).max() > 0


def test_unlabeled_step_with_empty_mask_changes_nothing(setup):
    """No masked positions and no targets: the loss is 0 and reaches no parameter."""
    _, _, mcfg, dataset = setup
    cfg = _cfg(p_task=0.0, mask_rate=0.0, dropout=0.2)
    params = JointModelParams(mcfg, Rng(4))
    opt = AdamW(params)
    rng, ref = Rng(6), Rng(6)
    batch = T._batch(dataset, rng, cfg)
    T._batch(dataset, ref, cfg)
    T.train_step(params, opt, batch, _cfg(p_task=0.0), Rng(0), 4)  # moments and step counts not all zero
    before = {n: (t.data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, t in params.tensors.items()}
    steps = dict(opt.steps)
    assert any(steps.values())
    assert T.train_step(params, opt, batch, cfg, rng, 5) == (0.0, Task.PREDICTION)
    for n, arrays in before.items():
        for now, then in zip((params[n].data, opt.m[n], opt.v[n]), arrays):
            np.testing.assert_array_equal(now, then)
    assert opt.steps == steps
    ref.random()  # the task switch
    ref.random(batch[0].shape)  # the mask; no dropout is drawn
    assert rng.get_state() == ref.get_state()


def test_generation_step_leaves_predictor_grads_none(setup):
    _, _, mcfg, dataset = setup
    cfg = _cfg(p_task=1.0)
    rng = Rng(5)
    params = JointModelParams(mcfg, rng)
    opt = AdamW(params)
    _, task = T.train_step(params, opt, T._batch(dataset, rng, cfg), cfg, rng, 5)
    assert task is Task.GENERATION
    for n in params.predictor_names():
        assert params[n].grad is None
        assert opt.steps[n] == 0
    assert opt.steps["head.w"] == 1


# -------------------------------------------------------------------- clipping

def test_gradient_clipping_bounds_global_norm(setup):
    _, _, mcfg, _ = setup
    params = JointModelParams(mcfg, Rng(3))
    for t in params.tensors.values():
        t.grad = np.full_like(t.data, 100.0)
    names = params.names()
    norm = T.clip_gradients(params, names, clip=1.0)
    assert norm > 1.0
    post = np.sqrt(sum(float((params[n].grad ** 2).sum()) for n in names))
    assert post <= 1.0 + 1e-6


# ----------------------------------------------------------- loops & persistence

def test_train_takes_labeled_and_unlabeled_data_from_either_start(setup):
    """No start is tied to one kind of data: each step trains the terms its batch has."""
    _, _, _, dataset = setup
    sup = Dataset(dataset.sequences, np.full(len(dataset), 0.5))
    fresh = _train(setup, sup, p_task=0.0, max_iters=3)
    init = JointModelParams(fresh.model_config, Rng(0))
    assert np.abs(fresh.params["pred.l0.w"].data - init["pred.l0.w"].data).max() > 0
    tuned = _train(setup, dataset, weights=_weights(fresh), p_task=0.0, max_iters=3)
    assert tuned.iteration == 3
    for n in fresh.params.predictor_names():
        np.testing.assert_array_equal(tuned.params[n].data, fresh.params[n].data)


def test_pretrain_zero_iters_returns_initialized_state(setup):
    _, _, mcfg, _ = setup
    ck = _train(setup, max_iters=0)
    fresh = JointModelParams(mcfg, Rng(0))
    assert ck.iteration == 0
    for n in fresh.names():
        np.testing.assert_array_equal(ck.params[n].data, fresh[n].data)


def test_toy_loss_decreases(setup):
    """500 steps on a 50-string corpus at least halve the decoder loss."""
    corpus, vocab, _, dataset = setup
    mcfg = ModelConfig(vocab_size=len(vocab), max_len=32, embed_dim=24, n_layers=2,
                       n_heads=2, ff_dim=96, predictor_hidden_dim=8)
    cfg = _cfg(max_iters=500, batch_size=16, warmup_iters=20, lr_max=3e-3,
               lr_min=3e-4, decay_iters=500)
    hist = []
    T.train(Checkpoint.start(vocab, mcfg, cfg), dataset, log_cb=lambda i, l, t: hist.append((l, t)))
    gen = [l for l, t in hist if t is Task.GENERATION]
    first = float(np.mean(gen[:10]))
    last = float(np.mean(gen[-50:]))
    assert last < 0.5 * first


def test_checkpoint_roundtrip_and_resume_identical(tmp_path, setup):
    """save -> load -> train 10 equals train 10 without the roundtrip."""
    dataset = setup[3]
    # decay_iters pinned so both legs see the same LR schedule
    unbroken = _train(setup, max_iters=30, decay_iters=30)

    half = _train(setup, max_iters=20, decay_iters=30)
    half.save(tmp_path / "ck")
    reloaded = Checkpoint.load(tmp_path / "ck")
    # bit-identical state after the roundtrip
    for n in half.params.names():
        assert half.params[n].data.tobytes() == reloaded.params[n].data.tobytes()
    assert half.rng.get_state() == reloaded.rng.get_state()
    np.testing.assert_array_equal(half.opt.m["tok_emb"], reloaded.opt.m["tok_emb"])
    reloaded.train_config = _cfg(max_iters=30, decay_iters=30)
    resumed = T.train(reloaded, dataset)
    for n in unbroken.params.names():
        assert unbroken.params[n].data.tobytes() == resumed.params[n].data.tobytes(), n


def test_resume_runs_under_the_config_it_is_given(tmp_path, setup):
    """A resumed run's optimizer and saved bundle use the run's config, not the bundle's."""
    dataset = setup[3]
    _train(setup, max_iters=4, decay_iters=8).save(tmp_path / "ck")
    ends = {}
    for wd in (0.1, 0.0):
        state = Checkpoint.load(tmp_path / "ck")
        state.train_config = _cfg(max_iters=8, decay_iters=8, beta2=0.5, weight_decay=wd)
        T.train(state, dataset, checkpoint_dir=tmp_path / f"wd{wd}")
        saved = json.loads((tmp_path / f"wd{wd}" / "config.json").read_text())["train"]
        assert saved == dataclasses.asdict(state.train_config)
        ends[wd] = state.params["h0.attn.wqkv"].data.tobytes()
    assert ends[0.1] != ends[0.0]


@pytest.mark.parametrize("max_iters, saved_at", [(4, [2, 4]), (5, [2, 4, 5]), (0, [0])])
def test_each_checkpoint_is_written_once(tmp_path, setup, monkeypatch, max_iters, saved_at):
    _, vocab, mcfg, dataset = setup
    saves = []
    monkeypatch.setattr(Checkpoint, "save", lambda self, path: saves.append(self.iteration))
    T.train(Checkpoint.start(vocab, mcfg, _cfg(max_iters=max_iters, eval_interval=2)), dataset,
            checkpoint_dir=tmp_path / "ck")
    assert saves == saved_at


def test_checkpoint_save_killed_midway_keeps_previous_bundle(tmp_path, setup, monkeypatch):
    """A save that dies after meta.json leaves the last complete bundle in place."""
    from moljoint import checkpoint as ckpt_io

    first = _train(setup, max_iters=1)
    first.save(tmp_path / "ck")
    saved = {n: first.params[n].data.tobytes() for n in first.params.names()}
    second = _train(setup, max_iters=3)
    write_blobs = ckpt_io._write_blobs

    def killed_at_optim(dirpath, stem, *args, **kwargs):
        if stem == "optim":
            raise KeyboardInterrupt("killed mid-save")
        return write_blobs(dirpath, stem, *args, **kwargs)

    monkeypatch.setattr(ckpt_io, "_write_blobs", killed_at_optim)
    with pytest.raises(KeyboardInterrupt):
        second.save(tmp_path / "ck")
    loaded = Checkpoint.load(tmp_path / "ck")
    assert loaded.iteration == 1
    assert {n: loaded.params[n].data.tobytes() for n in loaded.params.names()} == saved

    # killed between moving the old bundle aside and renaming the new one in
    (tmp_path / "ck").rename(tmp_path / "ck.old")
    with pytest.raises(KeyboardInterrupt):
        second.save(tmp_path / "ck")
    assert Checkpoint.load(tmp_path / "ck").iteration == 1

    monkeypatch.setattr(ckpt_io, "_write_blobs", write_blobs)
    second.save(tmp_path / "ck")  # also clears what the killed save left
    assert Checkpoint.load(tmp_path / "ck").iteration == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]


def test_checkpoint_format_tag(tmp_path, setup):
    vocab = setup[1]
    ck = _train(setup, max_iters=1)
    ck.save(tmp_path / "ck")
    meta = (tmp_path / "ck" / "meta.json").read_text()
    assert "jtckpt-v1" in meta
    vocab_lines = (tmp_path / "ck" / "vocab.txt").read_text().splitlines()
    assert vocab_lines == list(vocab.tokens)


@pytest.mark.parametrize("section, key, value, loads", [
    # dropout_rate was never read, so any value loads
    ("model", "dropout_rate", 0.15, True),
    ("model", "dropout_rate", 0.5, True),
    # the other retired keys load only at the value this code implements
    ("model", "ln_eps", 1e-5, True),
    ("model", "ln_eps", 1e-6, False),
    ("model", "n_classes", 0, True),
    ("model", "n_classes", 3, False),
    ("train", "encoder_term", True, True),
    ("train", "encoder_term", False, False),
    ("train", "generation_task", True, True),
    ("train", "generation_task", False, False),
    ("model", "mystery", 1, False),
    ("train", "mystery", 1, False),
])
def test_checkpoint_load_retired_and_unknown_keys(tmp_path, setup, capsys, section, key, value, loads):
    """Older bundles carry retired config keys; a value this code cannot
    reproduce, or a key it does not know, is a data error (exit 2)."""
    mcfg = setup[2]
    ck = _train(setup, max_iters=1)
    ck.save(tmp_path / "ck")
    config_path = tmp_path / "ck" / "config.json"
    doc = json.loads(config_path.read_text())
    doc[section][key] = value
    config_path.write_text(json.dumps(doc))
    if loads:
        loaded = Checkpoint.load(tmp_path / "ck")
        assert loaded.model_config == mcfg and loaded.train_config == ck.train_config
        for n in ck.params.names():
            assert ck.params[n].data.tobytes() == loaded.params[n].data.tobytes()
        return
    with pytest.raises(ValueError, match=key):
        Checkpoint.load(tmp_path / "ck")
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tmp_path / "ck"), "-n", "2", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and key in err
    assert not out.exists()


_SPLIT = {"attn.wqkv": ("attn.wq", "attn.wk", "attn.wv"), "attn.bqkv": ("attn.bq", "attn.bk", "attn.bv")}


def _save_split_attention(src, dst, blocks=("h0", "h1")) -> dict:
    """Copy the bundle at ``src`` to ``dst`` in the older layout: in each of ``blocks``, the
    fused attention tensors, their AdamW moments and step counts as q, k and v entries."""
    bundle = ckpt_io.load_bundle(src)

    def split(entries, cut):
        out = {}
        for key, value in entries.items():
            head, sep, name = key.rpartition(":")  # "m:h0.attn.wqkv" -> "m", ":", "h0.attn.wqkv"
            block, _, tail = name.partition(".")
            if block in blocks and tail in _SPLIT:
                out.update((f"{head}{sep}{block}.{part}", piece) for part, piece in zip(_SPLIT[tail], cut(value)))
            else:
                out[key] = value
        return out

    thirds = lambda a: np.split(a, 3, axis=-1)  # noqa: E731
    old = dict(bundle, params=split(bundle["params"], thirds), optim_arrays=split(bundle["optim_arrays"], thirds),
               optim_extra=dict(bundle["optim_extra"], steps=split(bundle["optim_extra"]["steps"], lambda k: [k] * 3)))
    ckpt_io.save_bundle(dst, **old)
    return old


def test_new_bundles_hold_fused_attention_tensors(tmp_path, setup):
    _train(setup, max_iters=1).save(tmp_path / "ck")
    bundle = ckpt_io.load_bundle(tmp_path / "ck")
    want = {f"h{i}.attn.{n}" for i in range(2) for n in ("wqkv", "bqkv", "wo", "bo")}
    assert {n for n in bundle["params"] if ".attn." in n} == want
    assert {n for n in bundle["optim_arrays"] if ".attn." in n} == {f"{m}:{n}" for m in "mv" for n in want}
    assert {n for n in bundle["optim_extra"]["steps"] if ".attn." in n} == want


def test_split_attention_bundle_loads_joined(tmp_path, setup):
    """An older bundle's wq|wk|wv and bq|bk|bv load as the fused tensors, moments and steps."""
    # p_task 0.5: the predictor head trains on fewer steps than the trunk
    new = _train(setup, dataset=Dataset(setup[3].sequences, np.linspace(0, 1, len(setup[3]))),
                 max_iters=4, p_task=0.5)
    new.save(tmp_path / "new")
    old = _save_split_attention(tmp_path / "new", tmp_path / "old")
    assert "h1.attn.wk" in old["params"] and "v:h0.attn.bv" in old["optim_arrays"]
    assert not any(n.endswith("qkv") for n in [*old["params"], *old["optim_extra"]["steps"]])
    loaded = Checkpoint.load(tmp_path / "old")
    assert loaded.params.names() == new.params.names()
    for n in new.params.names():
        assert loaded.params[n].data.tobytes() == new.params[n].data.tobytes(), n
        assert loaded.opt.m[n].tobytes() == new.opt.m[n].tobytes(), n
        assert loaded.opt.v[n].tobytes() == new.opt.v[n].tobytes(), n
    assert loaded.opt.steps == new.opt.steps and len(set(new.opt.steps.values())) > 1
    assert loaded.rng.get_state() == new.rng.get_state() and loaded.iteration == 4


@pytest.mark.parametrize("fault", ["mixed", "unequal_steps"])
def test_inconsistent_split_attention_bundle_exits_2(tmp_path, setup, capsys, fault):
    _train(setup, max_iters=2).save(tmp_path / "new")
    if fault == "mixed":  # h0 split, h1 fused
        _save_split_attention(tmp_path / "new", tmp_path / "old", blocks=("h0",))
    else:
        _save_split_attention(tmp_path / "new", tmp_path / "old")
        doc = json.loads((tmp_path / "old" / "optim.json").read_text())
        doc["steps"]["h1.attn.wk"] += 1
        (tmp_path / "old" / "optim.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="mixes" if fault == "mixed" else "unequal"):
        Checkpoint.load(tmp_path / "old")
    out = tmp_path / "s"
    assert main(["sample", "--checkpoint", str(tmp_path / "old"), "-n", "2", "--out-dir", str(out)]) == 2
    assert "cannot load checkpoint" in capsys.readouterr().err
    assert not out.exists()


def test_finetune_leaves_base_checkpoint_untouched(setup):
    _, _, _, dataset = setup
    base = _train(setup, max_iters=5)
    before = {n: base.params[n].data.copy() for n in base.params.names()}
    sup = Dataset(dataset.sequences, np.full(len(dataset), 0.5))
    tuned = _train(setup, sup, weights=_weights(base), p_task=0.1, max_iters=10)
    assert tuned.iteration == 10 and tuned.opt.steps["pred.l0.w"] > 0
    for n, arr in before.items():
        np.testing.assert_array_equal(base.params[n].data, arr)
    assert np.abs(tuned.params["pred.l0.w"].data - before["pred.l0.w"]).max() > 0


def test_finetune_vocabulary_mismatch_raises(setup):
    """Every start, fresh or copied, checks the dataset against its vocabulary."""
    _, vocab, _, dataset = setup
    base = _train(setup, max_iters=0)
    alien = Dataset([type(dataset.sequences[0])((0, len(vocab) + 3, 1))],
                    np.array([0.5]))
    for weights in (None, _weights(base)):
        with pytest.raises(ValueError, match="vocabulary"):
            _train(setup, alien, weights=weights)


def test_dataset_target_validation(setup):
    _, _, _, dataset = setup
    with pytest.raises(ValueError):
        Dataset(dataset.sequences, np.ones(3))  # misaligned
    with pytest.raises(ValueError):
        Dataset(dataset.sequences, np.full(len(dataset), 1.5))  # out of range
    with pytest.raises(ValueError, match="finite"):
        Dataset(dataset.sequences, np.full(len(dataset), np.nan))


def test_weight_decay_partition(setup):
    _, _, mcfg, _ = setup
    params = JointModelParams(mcfg, Rng(0))
    opt = AdamW(params)
    assert "tok_emb" not in opt.decay_set
    assert "pos_emb" not in opt.decay_set
    assert "h0.ln1.g" not in opt.decay_set
    assert "h0.attn.bqkv" not in opt.decay_set
    assert "h0.attn.wqkv" in opt.decay_set
    assert "pred.l0.w" in opt.decay_set


def test_non_finite_loss_aborts_with_diagnostic(setup):
    _, _, mcfg, dataset = setup
    params = JointModelParams(mcfg, Rng(0))
    params["tok_emb"].data[0, 0] = np.nan  # poisons the BOS embedding
    cfg = _cfg(max_iters=1)
    opt = AdamW(params)
    rng = Rng(0)
    batch = T._batch(dataset, rng, cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(Exception, match="iter 0"):
            T.train_step(params, opt, batch, cfg, rng, 0)
