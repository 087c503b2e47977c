"""The length-grouped trunk against one group of all rows.

A row's outputs must not depend on the group it lands in: each row run
alone gives the same outputs to 1e-6. That check runs in float64,
because in float32 a lone row's GEMMs round differently from a batch's
by about one float32 step of a logit (~1e-6 at -0.4, ~2e-6 at 16),
grouped or not. The grouped losses and gradients must match the
single-group pass to 1e-8 relative in float64, with dropout on. The
single-group reference replaces ``_length_groups``. Every position-wise
op runs once per layer over the packed cells, and attention once per
layer over all the groups, each time on the cell layout it takes as given.
"""

from pathlib import Path

import numpy as np
import pytest

from gradcheck import assert_grads_match
from moljoint import datagen
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig, Task
from moljoint.numerics import Rng, Tape
from moljoint.smiles import MASK_ID, PAD_ID, build_vocabulary, tokenize
from moljoint.training import Checkpoint

ROW_TOL = 1e-6  # float64, absolute
GRAD_TOL = 1e-8  # float64, norm-wise relative
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"


def _random_model(dtype=np.float32):
    lines = datagen.toy_corpus(64, seed=23, min_atoms=4)
    vocab = build_vocabulary(lines)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=40, embed_dim=16, n_layers=2,
                      n_heads=2, ff_dim=24, predictor_hidden_dim=8)
    with nm.using_dtype(dtype):
        params = JointModelParams(cfg, Rng(3), init_std=0.2)
    return params, M.pad_batch([tokenize(s, vocab, 40) for s in lines])


def _fixture_model(dtype=np.float32):
    with nm.using_dtype(dtype):
        state = Checkpoint.load(FIXTURE)
    lines = datagen.toy_corpus(64, seed=5, min_atoms=6)
    return state.params, M.pad_batch([tokenize(s, state.vocab, 32) for s in lines])


def _groups(ids):
    return M._length_groups((ids != PAD_ID).sum(axis=1))


def _one_group(monkeypatch):
    monkeypatch.setattr(M, "_length_groups", lambda lengths: [np.arange(len(lengths))])


def test_groups_are_equal_count_sorted_by_length_and_merge_at_equal_width():
    lengths = np.array([5, 1, 9, 3, 7, 2, 8, 4] * 8)  # 64 rows
    groups = _groups(np.where(np.arange(12) < lengths[:, None], 7, PAD_ID))
    assert len(groups) == M.MAX_GROUPS
    assert [len(g) for g in groups] == [16] * 4
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(64))
    for g in groups:
        assert np.array_equal(g, np.sort(g))
    for shorter, longer in zip(groups, groups[1:]):
        assert lengths[shorter].max() <= lengths[longer].min()
    assert len(M._length_groups(lengths[:M.MIN_GROUP_ROWS * 2])) == 2
    assert len(M._length_groups(lengths[:M.MIN_GROUP_ROWS * 2 - 1])) == 1
    same = M._length_groups(np.full(64, 6))
    assert len(same) == 1 and np.array_equal(same[0], np.arange(64))
    # the two shortest quarters trim to the same width: they merge
    merged = M._length_groups(np.repeat([4, 4, 6, 9], 16))
    assert [len(g) for g in merged] == [32, 16, 16]


@pytest.mark.parametrize("source", [_random_model, _fixture_model], ids=["random", "fixture"])
def test_each_row_matches_that_row_run_alone(source):
    params, ids = source(np.float64)
    assert len(_groups(ids)) > 1
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    lengths = (ids != PAD_ID).sum(axis=1)
    with nm.using_dtype(np.float64):
        dec = M.forward_decoder(params, ids).data
        enc = M.forward_encoder(params, ids, mask).data
        pred = M.predict_target(params, ids)
        for i, n in enumerate(lengths):
            row = ids[i:i + 1]
            np.testing.assert_allclose(dec[i, :n], M.forward_decoder(params, row).data[0, :n],
                                       rtol=0, atol=ROW_TOL)
            np.testing.assert_allclose(enc[i, :n], M.forward_encoder(params, row, mask[i:i + 1]).data[0, :n],
                                       rtol=0, atol=ROW_TOL)
            np.testing.assert_allclose(pred[i], M.predict_target(params, row)[0], rtol=0, atol=ROW_TOL)


def _loss_and_grads(params, ids, y, task):
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    for t in params.tensors.values():
        t.grad = None
    rng = Rng(9)
    with Tape() as tape:
        loss = M.loss_joint(params, ids, y, mask, task, dropout=0.2, rng=rng)
    tape.backward(loss)
    grads = {n: t.grad.copy() for n, t in params.tensors.items() if t.grad is not None}
    return loss.item(), grads, rng.random()


@pytest.mark.parametrize("task, labeled", [(Task.GENERATION, False), (Task.PREDICTION, False),
                                           (Task.PREDICTION, True)],
                         ids=["generation", "prediction-unlabeled", "prediction-labeled"])
def test_grouped_loss_and_gradients_match_one_group_in_float64(task, labeled, monkeypatch):
    """Same loss, gradients and RNG use: the dropout masks are drawn once and sliced."""
    params, ids = _random_model(dtype=np.float64)
    assert len(_groups(ids)) > 1
    y = np.linspace(0.1, 0.9, ids.shape[0]) if labeled else None
    with nm.using_dtype(np.float64):
        loss, got, next_draw = _loss_and_grads(params, ids, y, task)
        _one_group(monkeypatch)
        want_loss, want, want_next_draw = _loss_and_grads(params, ids, y, task)
    assert next_draw == want_next_draw
    assert abs(loss - want_loss) <= GRAD_TOL * abs(want_loss)
    assert any(n.startswith("pred.") for n in got) == labeled
    assert_grads_match(got, want, GRAD_TOL)


def test_position_wise_ops_run_once_over_the_packed_cells(monkeypatch):
    """A grouped training pass runs each layer norm, GEMM and GELU on exactly the non-PAD cells, and
    one attention op per layer over every group; the last block's query rows of a read pass never
    repeat a cell."""
    params, ids = _fixture_model()
    assert len(_groups(ids)) == M.MAX_GROUPS == 4
    packed = int((ids != PAD_ID).sum())
    with Tape() as tape:
        M._transformer(params, ids, causal=True, dropout=0.1, rng=Rng(0))
    ops = [out for out, _ in tape._ops]
    assert {out.shape[0] for out in ops if out.name in ("layer_norm", "matmul", "gelu")} == {packed}
    assert [out.name for out in ops].count("attention") == params.config.n_layers

    seen, attention = [], nm.attention
    monkeypatch.setattr(nm, "attention", lambda *a, **k: seen.append(k["queries"]) or attention(*a, **k))
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    with Tape():
        M.loss_encoder(params, ids, mask, dropout=0.1, rng=Rng(0))
    assert seen[:-1] == [None] * (params.config.n_layers - 1)
    rows = np.concatenate([q.ravel() for q in seen[-1]])
    rows = rows[rows >= 0]
    assert len(np.unique(rows)) == len(rows) >= mask.sum()


def test_every_pass_hands_attention_the_layout_it_takes_as_given(monkeypatch):
    """``numerics.attention`` assumes, unchecked, that each row of every cell array is its tokens
    followed by -1s, and that the cells hold every row of x exactly once: the decoder loss, the
    encoder loss with its reads and the predictor pass must hand it that layout."""
    params = _random_model()[0]
    seen, attention = [], nm.attention

    def spy(x, wqkv, bqkv, wo, bo, cells, *args, **kwargs):
        seen.append((len(x.data), cells))
        return attention(x, wqkv, bqkv, wo, bo, cells, *args, **kwargs)

    monkeypatch.setattr(nm, "attention", spy)
    rng = np.random.default_rng(31)
    for B in (1, 3, 16, 33, 64, 80):
        lengths = rng.integers(1, 13, B)
        lengths[0] = max(lengths[0], 2)  # one next token for the decoder loss to score
        ids = np.where(np.arange(12) < lengths[:, None], rng.integers(MASK_ID + 1, params.config.vocab_size,
                                                                      (B, 12)), PAD_ID)
        mask = M.sample_mask_vector(ids, 0.3, Rng(B))
        mask[0, 0] = True
        M.loss_decoder(params, ids)
        M.loss_encoder(params, ids, mask)
        M.forward_predictor(params, ids)
    assert len(seen) == 6 * 3 * params.config.n_layers
    for n, cells in seen:
        assert np.array_equal(np.sort(np.concatenate([c[c >= 0] for c in cells])), np.arange(n))
        for c in cells:
            tokens = (c >= 0).sum(axis=1)
            assert tokens.min() >= 1 and np.array_equal(c >= 0, np.arange(c.shape[1]) < tokens[:, None])
