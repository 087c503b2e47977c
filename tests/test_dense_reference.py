"""The trunk against a dense float64 reference (``tests/dense.py``) on random batches.

Hypothesis draws the batch shape (B up to 80 rows, so a pass reaches
``MAX_GROUPS`` length groups; S up to 12), the heads, the layers, the pass
(causal or bidirectional) and whether and how densely the caller reads; a
seed drawn with them fills the lengths, the ids, the reads and every weight.
``_transformer``'s rows at the reads must equal the reference's, dropout off,
in float64.

``loss_decoder`` on random batches, 1-token rows among them, must equal the
reference's decoder loss in float64, and its tape gradient along a random
direction must match a central difference of that loss.

A KV-cached decode of random full-length batches, one column at a time and
with ``KVCache.keep`` dropping a random subset of rows midway, must give the
reference's causal logits at every step for the rows still decoding.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense
from gradcheck import tape_grads
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig
from moljoint.smiles import PAD_ID

TOL = 1e-10  # float64, absolute
VOCAB, MAX_LEN, E = 9, 12, 8


@settings(derandomize=True, max_examples=200, deadline=None)
@given(B=st.integers(1, 80), S=st.integers(1, MAX_LEN), n_heads=st.sampled_from([1, 2, 4]),
       n_layers=st.integers(1, 3), causal=st.booleans(), read_share=st.sampled_from([None, 0.2, 0.7]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_trunk_rows_match_a_dense_float64_reference(B, S, n_heads, n_layers, causal, read_share, seed):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, S + 1, B)
    real = np.arange(S) < lengths[:, None]
    ids = np.where(real, rng.choice([i for i in range(VOCAB) if i != PAD_ID], (B, S)), PAD_ID)
    reads = None if read_share is None else real & (rng.random((B, S)) < read_share)
    cfg = ModelConfig(vocab_size=VOCAB, max_len=MAX_LEN, embed_dim=E, n_layers=n_layers, n_heads=n_heads,
                      ff_dim=12)
    with nm.using_dtype(np.float64):
        params = JointModelParams(cfg)
        for name, t in params.tensors.items():
            t.data[...] = rng.normal(1.0 if name.endswith(".g") else 0.0, 0.5, t.shape)
        got = M._transformer(params, ids, causal, reads=reads).data
    want = dense.trunk({n: t.data for n, t in params.tensors.items()}, ids, lengths, causal, n_heads)
    np.testing.assert_allclose(got, want[real if reads is None else reads], rtol=0, atol=TOL)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(B=st.integers(1, 40), S=st.integers(1, MAX_LEN), n_heads=st.sampled_from([1, 2, 4]),
       n_layers=st.integers(1, 3), one_token_share=st.sampled_from([0.0, 0.3, 0.8]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decoder_loss_and_its_gradient_match_the_dense_reference(B, S, n_heads, n_layers, one_token_share, seed):
    rng = np.random.default_rng(seed)
    lengths = np.where(rng.random(B) < one_token_share, 1, rng.integers(1, S + 1, B))
    ids = np.where(np.arange(S) < lengths[:, None], rng.choice([i for i in range(VOCAB) if i != PAD_ID], (B, S)),
                   PAD_ID)
    cfg = ModelConfig(vocab_size=VOCAB, max_len=MAX_LEN, embed_dim=E, n_layers=n_layers, n_heads=n_heads,
                      ff_dim=12)
    with nm.using_dtype(np.float64):
        params = JointModelParams(cfg)
        for name, t in params.tensors.items():
            t.data[...] = rng.normal(1.0 if name.endswith(".g") else 0.0, 0.5, t.shape)
        if (lengths == 1).all():  # no cell has a next token
            with pytest.raises(ValueError, match="no rows to score"):
                M.loss_decoder(params, ids)
            return
        got = M.loss_decoder(params, ids).item()
        grads = tape_grads(lambda: M.loss_decoder(params, ids), list(params.tensors.values()))
    w = {n: t.data.copy() for n, t in params.tensors.items()}
    assert abs(got - dense.loss_decoder(w, ids, lengths, n_heads)) <= TOL

    direction = {n: rng.normal(size=a.shape) for n, a in w.items()}
    h = 1e-7  # the stencil's truncation error, O(h^2), and its rounding, about ulp(loss) / h, both stay below 1e-8
    moved = [dense.loss_decoder({n: a + sign * h * direction[n] for n, a in w.items()}, ids, lengths, n_heads)
             for sign in (1, -1)]
    want = (moved[0] - moved[1]) / (2 * h)
    along = sum(float((g * direction[n]).sum()) for g, n in zip(grads, w))
    assert abs(along - want) <= 1e-7 * max(1.0, abs(want))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(B=st.integers(1, 80), S=st.integers(1, MAX_LEN), n_heads=st.sampled_from([1, 2, 4]),
       n_layers=st.integers(1, 3), keep_share=st.sampled_from([0.1, 0.5, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
def test_cached_decode_logits_match_the_dense_reference(B, S, n_heads, n_layers, keep_share, seed):
    rng = np.random.default_rng(seed)
    ids = rng.choice([i for i in range(VOCAB) if i != PAD_ID], (B, S))
    cfg = ModelConfig(vocab_size=VOCAB, max_len=MAX_LEN, embed_dim=E, n_layers=n_layers, n_heads=n_heads,
                      ff_dim=12)
    with nm.using_dtype(np.float64):
        params = JointModelParams(cfg)
        for name, t in params.tensors.items():
            t.data[...] = rng.normal(1.0 if name.endswith(".g") else 0.0, 0.5, t.shape)
        want = dense.causal_logits({n: t.data for n, t in params.tensors.items()}, ids, np.full(B, S), n_heads)
        cache, live = M.KVCache(params, B), np.arange(B)
        for t in range(S):
            if t == S // 2 and t:  # midway, drop a random subset of rows, keeping at least one
                keep = rng.random(len(live)) < keep_share
                keep[rng.integers(len(live))] = True
                cache.keep(keep)
                live = live[keep]
            got = M.forward_decoder(params, ids[live, t:t + 1], cache=cache).data[:, -1]
            np.testing.assert_allclose(got, want[live, t], rtol=0, atol=TOL)
