"""The preallocated KV cache: in-place writes, row compaction, row checks, and random decodes.

Every step's keys and values must be views of the one buffer the cache
made, a step or keep for other rows than the cache holds must raise, and
random prefill widths with rows leaving at random steps must give the
full-prefix logits (to 1e-5).
"""

import numpy as np
import pytest

from moljoint import model as M
from moljoint.model import JointModelParams, ModelConfig
from moljoint.numerics import Rng
from moljoint.smiles import BOS_ID, MASK_ID

LOGIT_TOL = 1e-5


@pytest.fixture(scope="module")
def params():
    cfg = ModelConfig(vocab_size=14, max_len=20, embed_dim=24, n_layers=2, n_heads=3, ff_dim=40,
                      predictor_hidden_dim=8)
    return JointModelParams(cfg, Rng(5), init_std=0.3)


def _token_ids(params, rows, seed):
    ids = Rng(seed).integers(MASK_ID + 1, params.config.vocab_size, (rows, params.config.max_len))
    ids[:, 0] = BOS_ID
    return ids


def test_steps_write_into_buffers_made_once(params):
    ids = _token_ids(params, 4, seed=1)
    cache = M.KVCache(params, len(ids))
    M.forward_decoder(params, ids[:, :3], cache=cache)
    first = list(cache.layers)
    prefill = [(k.copy(), v.copy()) for k, v in first]
    for t in range(4, params.config.max_len + 1):
        M.forward_decoder(params, ids[:, t - 1:t], cache=cache)
        for (k0, v0), (k1, v1), (k, v) in zip(first, prefill, cache.layers):
            assert np.shares_memory(k, k0) and np.shares_memory(v, v0)
            # the columns written before stay where they were
            np.testing.assert_array_equal(k[:, :, :3], k1)
            np.testing.assert_array_equal(v[:, :, :3], v1)
    assert cache.length == params.config.max_len
    assert len({id(a.base) for k, v in cache.layers for a in (k, v)}) == 1  # every layer's K and V
    assert [k.shape for k, _ in cache.layers] == [(4, 3, params.config.max_len, 8)] * 2


def test_extend_returns_views_of_one_buffer():
    """A cache writes every step into the same buffer."""
    rng = Rng(2)
    new = [(rng.normal((2, 3, s, 4)).astype(np.float32), rng.normal((2, 3, s, 4)).astype(np.float32))
           for s in (2, 1, 1)]
    cache = M.KVCache(JointModelParams(ModelConfig(vocab_size=1, max_len=4, embed_dim=12, n_layers=1,
                                                   n_heads=3)), 2)
    outs = [cache.extend(0, k, v) for k, v in new]
    np.testing.assert_array_equal(outs[-1][0], np.concatenate([k for k, _ in new], axis=2))
    np.testing.assert_array_equal(outs[-1][1], np.concatenate([v for _, v in new], axis=2))
    assert all(np.shares_memory(a[j], b[j]) for a, b in zip(outs, outs[1:]) for j in (0, 1))


def test_keep_with_no_rows_left(params):
    ids = _token_ids(params, 3, seed=3)
    cache = M.KVCache(params, len(ids))
    M.forward_decoder(params, ids[:, :4], cache=cache)
    cache.keep(np.zeros(3, dtype=bool))
    assert cache.length == 4
    assert all(k.shape[0] == v.shape[0] == 0 for k, v in cache.layers)


@pytest.mark.parametrize("rows", [3, 5])
def test_step_with_other_rows_than_the_cache_raises(params, rows):
    """Fewer rows would decode against the first rows' keys, more would not fit."""
    ids = _token_ids(params, 5, seed=4)
    cache = M.KVCache(params, 4)
    with pytest.raises(ValueError, match=rf"\b{rows} rows\b.*\b4 live rows\b"):
        M.forward_decoder(params, ids[:rows, :2], cache=cache)
    M.forward_decoder(params, ids[:4, :2], cache=cache)
    cache.keep(np.arange(4) != 1)
    with pytest.raises(ValueError, match=r"\b4 rows\b.*\b3 live rows\b"):
        M.forward_decoder(params, ids[:4, 2:3], cache=cache)
    assert cache.length == 2


@pytest.mark.parametrize("n", [3, 5])
def test_keep_with_a_mask_of_other_length_raises(params, n):
    """A short mask would keep too few rows, a long one would copy the last row (numpy's clip)."""
    ids = _token_ids(params, 4, seed=6)
    cache = M.KVCache(params, len(ids))
    M.forward_decoder(params, ids[:, :2], cache=cache)
    with pytest.raises(ValueError, match=rf"\b{n} rows\b.*\b4 live rows\b"):
        cache.keep(np.ones(n, dtype=bool))
    assert cache.rows == 4


@pytest.mark.parametrize("seed", range(6))
def test_random_prefills_and_dropped_rows_match_full_prefix(params, seed):
    rng = np.random.default_rng(seed)
    max_len = params.config.max_len
    ids = _token_ids(params, 9, seed=10 + seed)
    width = 1 + seed % 4
    cache = M.KVCache(params, len(ids))
    got = M.forward_decoder(params, ids[:, :width], cache=cache).data
    np.testing.assert_allclose(got, M.forward_decoder(params, ids[:, :width]).data, rtol=0, atol=LOGIT_TOL)
    rows = np.arange(len(ids))
    for t in range(width + 1, max_len + 1):
        going = rng.random(len(rows)) > 0.12
        if not going.all():  # rows leave the batch and the cache
            rows = rows[going]
            cache.keep(going)
        if not rows.size:
            break
        got = M.forward_decoder(params, ids[rows, t - 1:t], cache=cache).data[:, 0]
        want = M.forward_decoder(params, ids[rows, :t]).data[:, t - 1]
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGIT_TOL)
        assert cache.length == t and cache.layers[0][0].shape[0] == len(rows)
