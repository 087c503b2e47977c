"""Cached incremental decoding against the full-prefix reference.

The reference re-runs ``forward_decoder`` over the whole prefix at every
step and keeps finished rows in the batch; the cached sampler must give
the same logits (to 1e-5) and the same draws.
"""

import numpy as np
import pytest

from moljoint import generation as G
from moljoint import model as M
from moljoint.generation import SamplerConfig, sample_batch
from moljoint.model import JointModelParams, ModelConfig
from moljoint.numerics import Rng
from moljoint.smiles import BOS_ID, EOS_ID, MASK_ID, PAD_ID, build_vocabulary

LOGIT_TOL = 1e-5


@pytest.fixture(scope="module")
def random_model():
    vocab = build_vocabulary(["CCO", "CN(C)CO", "C1CC1N", "C=CC#N", "OC(=O)c1ccccc1"])
    cfg = ModelConfig(vocab_size=len(vocab), max_len=24, embed_dim=32, n_layers=2,
                      n_heads=4, ff_dim=64, predictor_hidden_dim=8)
    return JointModelParams(cfg, Rng(11), init_std=0.3), vocab


@pytest.fixture(params=["memorized", "random"])
def model(request, memorized, random_model):
    if request.param == "memorized":
        return memorized[0], memorized[1]
    return random_model


def _token_ids(params, rows, cols, seed):
    """(rows, cols) ids: BOS, then random non-special tokens."""
    ids = Rng(seed).integers(MASK_ID + 1, params.config.vocab_size, (rows, cols))
    ids[:, 0] = BOS_ID
    return ids


def _reference_decode(params, cfg, n, rng):
    """The full-prefix decoder: every step re-runs the whole prefix, finished rows stay."""
    max_new = cfg.max_new_tokens if cfg.max_new_tokens is not None else params.config.max_len - 1
    ids = np.full((n, max_new + 1), PAD_ID, dtype=np.int64)
    ids[:, 0] = BOS_ID
    done = np.zeros(n, dtype=bool)
    length = 1
    while length <= max_new and not done.all():
        logits = M.forward_decoder(params, ids[:, :length]).data[:, -1, :]
        active = ~done
        col = np.full(n, PAD_ID, dtype=np.int64)
        col[active] = G._next_token_ids(logits[active], cfg, rng)
        ids[:, length] = col
        done |= col == EOS_ID
        length += 1
    return ids[:, :length], ~done


def test_cached_step_logits_match_full_prefix(model):
    params, _ = model
    ids = _token_ids(params, 5, params.config.max_len, seed=1)
    cache = M.KVCache(params, len(ids))
    for t in range(1, ids.shape[1] + 1):
        got = M.forward_decoder(params, ids[:, t - 1 : t], cache=cache).data[:, 0]
        want = M.forward_decoder(params, ids[:, :t]).data[:, t - 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_TOL)
    assert cache.length == params.config.max_len


def test_cached_prefill_then_steps_with_dropped_rows(model):
    params, _ = model
    ids = _token_ids(params, 6, 12, seed=2)
    cache = M.KVCache(params, len(ids))
    got = M.forward_decoder(params, ids[:, :4], cache=cache).data
    np.testing.assert_allclose(got, M.forward_decoder(params, ids[:, :4]).data, rtol=0, atol=LOGIT_TOL)
    rows = np.arange(6)
    for t in range(5, 13):
        if t in (6, 9):  # rows leave the batch and the cache
            keep = np.arange(len(rows)) % 2 == 0
            rows = rows[keep]
            cache.keep(keep)
        got = M.forward_decoder(params, ids[rows, t - 1 : t], cache=cache).data[:, 0]
        want = M.forward_decoder(params, ids[rows, :t]).data[:, t - 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_TOL)
    assert len(rows) == 2 and cache.layers[0][0].shape[0] == 2


@pytest.mark.parametrize("sampler", [
    SamplerConfig(temperature=0.0, seed=3),
    SamplerConfig(temperature=1.0, seed=4),
    SamplerConfig(temperature=1.0, top_k=3, seed=5),
    SamplerConfig(temperature=1.0, max_new_tokens=6, seed=6),
], ids=["argmax", "temperature1", "top_k3", "max_new6"])
def test_cached_draws_match_full_prefix_decoding(model, sampler, monkeypatch):
    params, vocab = model
    rng_ref, rng = Rng(sampler.seed), Rng(sampler.seed)
    want_ids, want_trunc = _reference_decode(params, sampler, 37, rng_ref)
    got_ids, got_trunc = G._decode_chunk(params, sampler, 37, rng)
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got_trunc, want_trunc)
    assert rng.get_state() == rng_ref.get_state()  # same number of uniform draws

    got = sample_batch(params, vocab, sampler, 80)
    monkeypatch.setattr(G, "_decode_chunk", _reference_decode)
    want = sample_batch(params, vocab, sampler, 80)
    assert got == want  # smiles, y and truncation flag


def test_cached_decoding_shrinks_rows_that_finish_early(random_model, monkeypatch):
    params, _ = random_model
    seen = []
    real = M.forward_decoder

    def spy(params, ids, *args, **kwargs):
        seen.append(ids.shape)
        return real(params, ids, *args, **kwargs)

    monkeypatch.setattr(M, "forward_decoder", spy)
    ids, truncated = G._decode_chunk(params, SamplerConfig(seed=7), 40, Rng(7))
    ends = [int(np.flatnonzero(row == EOS_ID)[0]) for row, t in zip(ids, truncated) if not t]
    assert len(set(ends)) > 1, "rows must finish at different steps"
    # one new column per step, over exactly the rows still decoding
    live = [int((ids[:, :t] != EOS_ID).all(axis=1).sum()) for t in range(1, ids.shape[1])]
    assert seen == [(b, 1) for b in live]
    assert sum(b for b, _ in seen) == int(((ids != PAD_ID) & (ids != BOS_ID)).sum())
