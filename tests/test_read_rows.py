"""The last block at the read rows only, against the full last block.

``loss_encoder`` reads the masked positions and ``forward_predictor``
position 0, so their trunk passes run the last block past its keys and
values only at those rows. Losses, gradients and RNG use must match the
full last block to 1e-8 relative in float64, with dropout on, in one
length group and in several. The full-block reference runs the trunk at
every position and gathers the read rows from its output; it replaces
``_transformer``.
"""

import numpy as np
import pytest

from gradcheck import assert_grads_match
from moljoint import datagen
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig, Task
from moljoint.numerics import Rng, Tape
from moljoint.smiles import PAD_ID, build_vocabulary, tokenize

GRAD_TOL = 1e-8  # float64, norm-wise relative


def _random_model():
    lines = datagen.toy_corpus(64, seed=23, min_atoms=4)
    vocab = build_vocabulary(lines)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=40, embed_dim=16, n_layers=2,
                      n_heads=2, ff_dim=24, predictor_hidden_dim=8)
    with nm.using_dtype(np.float64):
        params = JointModelParams(cfg, Rng(3), init_std=0.2)
    return params, M.pad_batch([tokenize(s, vocab, 40) for s in lines])


def _full_last_block(monkeypatch):
    transformer = M._transformer

    def full(params, ids, *args, reads=None, **kwargs):
        h = transformer(params, ids, *args, **kwargs)  # every non-PAD cell's row, row-major
        return h if reads is None else nm.gather(h, M._row_numbers(ids != PAD_ID)[reads])

    monkeypatch.setattr(M, "_transformer", full)


def _one_group(monkeypatch):
    monkeypatch.setattr(M, "_length_groups", lambda lengths: [np.arange(len(lengths))])


def _loss_and_grads(params, ids, y):
    mask = M.sample_mask_vector(ids, 0.15, Rng(2))
    for t in params.tensors.values():
        t.grad = None
    rng = Rng(9)
    with Tape() as tape:
        loss = M.loss_joint(params, ids, y, mask, Task.PREDICTION, dropout=0.2, rng=rng)
    tape.backward(loss)
    grads = {n: t.grad.copy() for n, t in params.tensors.items() if t.grad is not None}
    rows = sum(out.shape[0] for out, _ in tape._ops if out.name == "attention")
    return loss.item(), grads, rng.random(), rows


@pytest.mark.parametrize("grouped", [False, True], ids=["one-group", "groups"])
@pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
def test_read_rows_match_the_full_last_block_in_float64(labeled, grouped, monkeypatch):
    params, ids = _random_model()
    if grouped:
        assert len(M._length_groups((ids != PAD_ID).sum(axis=1))) > 1
    else:
        _one_group(monkeypatch)
    y = np.linspace(0.1, 0.9, ids.shape[0]) if labeled else None
    with nm.using_dtype(np.float64):
        loss, got, next_draw, rows = _loss_and_grads(params, ids, y)
        _full_last_block(monkeypatch)
        want_loss, want, want_next_draw, full_rows = _loss_and_grads(params, ids, y)
    assert rows < full_rows
    assert next_draw == want_next_draw
    assert abs(loss - want_loss) <= GRAD_TOL * abs(want_loss)
    assert any(n.startswith("pred.") for n in got) == labeled
    assert_grads_match(got, want, GRAD_TOL)


def test_predict_target_matches_the_full_last_block(monkeypatch):
    """predict_target runs the packed tape ops with no tape recording, its last block at position 0 only;
    its reference is the tape predictor with the full last block."""
    params, ids = _random_model()
    with nm.using_dtype(np.float64):
        got = M.predict_target(params, ids)
        _full_last_block(monkeypatch)
        want = M.forward_predictor(params, ids).data[:, 0]
    np.testing.assert_allclose(got, want, rtol=GRAD_TOL, atol=0)


def test_read_positions_put_each_rows_reads_first():
    reads = np.array([[0, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=bool)
    np.testing.assert_array_equal(M._read_positions(reads), [[1, 3], [0, 1], [0, 1]])


@pytest.mark.parametrize("task", [Task.GENERATION, Task.PREDICTION])
def test_the_heads_score_only_their_rows(task, monkeypatch):
    """The token head and cross_entropy see one row per scored cell (a cell with a next token, or a
    masked one), the predictor one row per sequence, and nothing picks position 0 out of a padded array."""
    params, ids = _random_model()
    mask = M.sample_mask_vector(ids, 0.15, Rng(2))
    y = np.linspace(0.1, 0.9, ids.shape[0])
    rows = {}  # weight name or "cross_entropy" -> the rows of each call
    matmul, cross_entropy = nm.matmul, nm.cross_entropy
    monkeypatch.setattr(nm, "matmul", lambda a, b: rows.setdefault(b.name, []).append(a.shape[0]) or matmul(a, b))
    monkeypatch.setattr(nm, "cross_entropy", lambda logits, *targets: rows.setdefault(
        "cross_entropy", []).append(logits.shape[0]) or cross_entropy(logits, *targets))
    with Tape() as tape:
        M.loss_joint(params, ids, y, mask, task, dropout=0.2, rng=Rng(9))
    if task is Task.GENERATION:
        scored = int((ids[:, 1:] != PAD_ID).sum())
        assert not any(n.startswith("pred.") for n in rows)
    else:
        scored = int(mask.sum())
        assert {n: r for n, r in rows.items() if n.startswith("pred.")} == {
            n: [ids.shape[0]] for n in params.predictor_names() if n.endswith(".w")}
    assert rows["head.w"] == [scored]
    assert rows["cross_entropy"] == [scored]
    assert "take" not in [out.name for out, _ in tape._ops]
