"""The decode step and the tape-free predictor pass against the tape passes.

``_decode_step`` runs the trunk on the ``numerics`` array kernels over a KV
cache; its logits must match the full-prefix tape pass to 1e-5.
``predict_target`` is the tape ``forward_predictor`` with no tape
recording: it refuses to run under one, and its packed pass must match a
pass with all rows in one length group to 1e-6 on the benchmark fixture's
64-draw chunks and on random models. Both
raise the tape ops' ``NonFiniteError`` under the same op names.
"""

from pathlib import Path

import numpy as np
import pytest

from moljoint import datagen
from moljoint import generation as G
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.generation import SamplerConfig
from moljoint.model import JointModelParams, ModelConfig
from moljoint.numerics import NonFiniteError, Rng, Tape
from moljoint.smiles import BOS_ID, MASK_ID, build_vocabulary, tokenize
from moljoint.training import Checkpoint

LOGIT_TOL = 1e-5  # float32, absolute
PRED_TOL = 1e-6  # absolute
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"


def _params(n_layers=2, vocab_size=8, max_len=16, dtype=np.float32, seed=3):
    cfg = ModelConfig(vocab_size=vocab_size, max_len=max_len, embed_dim=24, n_layers=n_layers, n_heads=3,
                      ff_dim=40, predictor_hidden_dim=8)
    with nm.using_dtype(dtype):
        return JointModelParams(cfg, Rng(seed), init_std=0.3)


def _ids(params, rows, seed=1):
    ids = Rng(seed).integers(MASK_ID + 1, params.config.vocab_size, (rows, params.config.max_len))
    ids[:, 0] = BOS_ID
    return ids


def _decode(params, ids, cache, prefill=3):
    out = [M.forward_decoder(params, ids[:, :prefill], cache=cache).data]
    for t in range(prefill + 1, ids.shape[1] + 1):
        out.append(M.forward_decoder(params, ids[:, t - 1:t], cache=cache).data)
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("rows", [1, 7, 13])
def test_decode_matches_the_full_prefix(n_layers, rows):
    params = _params(n_layers)
    ids = _ids(params, rows)
    got = _decode(params, ids, M.KVCache(params, rows))
    want = M.forward_decoder(params, ids).data
    np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_TOL)


def _fixture_chunks():
    """The fixture's params, three decoded 64-draw chunks and 64 corpus lines."""
    state = Checkpoint.load(FIXTURE)
    chunks = [G._decode_chunk(state.params, SamplerConfig(seed=seed), 64, Rng(seed))[0] for seed in (1, 2, 3)]
    corpus = datagen.toy_corpus(64, seed=5, min_atoms=6)
    chunks.append(M.pad_batch([tokenize(s, state.vocab, 32) for s in corpus]))
    return state.params, chunks


def _one_group(monkeypatch):
    monkeypatch.setattr(M, "_length_groups", lambda lengths: [np.arange(len(lengths))])


def test_predict_target_matches_one_length_group_on_the_fixture(monkeypatch):
    params, chunks = _fixture_chunks()
    got = [M.predict_target(params, ids) for ids in chunks]
    _one_group(monkeypatch)
    for g, ids in zip(got, chunks):
        np.testing.assert_allclose(g, M.predict_target(params, ids), rtol=0, atol=PRED_TOL)


def _random_corpus_model(n_layers, dtype, rows):
    lines = datagen.toy_corpus(rows, seed=29, min_atoms=4)
    vocab = build_vocabulary(lines)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=40, embed_dim=16, n_layers=n_layers, n_heads=2, ff_dim=24,
                      predictor_hidden_dim=8, predictor_layers=2)
    with nm.using_dtype(dtype):
        params = JointModelParams(cfg, Rng(7), init_std=0.2)
    return params, M.pad_batch([tokenize(s, vocab, 40) for s in lines])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("rows", [1, 37, 64])
def test_predict_target_matches_one_length_group_on_random_models(dtype, n_layers, rows, monkeypatch):
    params, ids = _random_corpus_model(n_layers, dtype, rows)
    with nm.using_dtype(dtype):
        got = M.predict_target(params, ids)
        _one_group(monkeypatch)
        want = M.predict_target(params, ids)
    assert got.shape == (rows,) and got.dtype == dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=PRED_TOL)


def test_predict_target_refuses_a_recording_tape_and_leaves_no_op_on_it():
    params, ids = _random_corpus_model(2, np.float32, 37)
    with Tape() as tape:
        with pytest.raises(RuntimeError, match="inference only"):
            M.predict_target(params, ids)
    assert len(tape) == 0


@pytest.mark.parametrize("name, at, value, op", [
    ("tok_emb", (5, 2), np.nan, "embedding"),
    ("pos_emb", (1, 0), np.inf, "embedding"),
    ("h0.ln1.g", (3,), np.nan, "layer_norm"),
    ("pred.l0.w", (2, 1), np.inf, "matmul"),
    ("pred.l0.b", (4,), np.nan, "add"),
    ("pred.l1.w", (0, 0), np.nan, "matmul"),
])
def test_non_finite_weight_raises_under_the_op_name(name, at, value, op):
    params = _params()
    params[name].data[at] = value
    ids = _ids(params, 6)
    ids[:, 1], ids[:, 2:] = 6, 5
    passes = [lambda: M.predict_target(params, ids)]
    if not name.startswith("pred."):
        passes.append(lambda: M.forward_decoder(params, ids[:, :3], cache=M.KVCache(params, len(ids))))
    for run in passes:
        with pytest.raises(NonFiniteError, match=f"op output {op}$"):
            run()
