"""The tape-free decode step: its checks, the weights it reads and the kernels it shares.

``model._decode_step`` runs the array kernels of ``numerics`` over the live
parameter arrays. It must raise the same ``NonFiniteError`` as the tape ops
would, decode with the weights as they are, refuse a params object other
than the one its cache was made for, and every tape op must return its
kernel's output bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig
from moljoint.numerics import NonFiniteError, Rng, Tape, Tensor
from moljoint.smiles import BOS_ID, MASK_ID


def _params(seed=3):
    cfg = ModelConfig(vocab_size=13, max_len=12, embed_dim=24, n_layers=2, n_heads=3, ff_dim=40,
                      predictor_hidden_dim=8)
    return JointModelParams(cfg, Rng(seed), init_std=0.3)


def _ids(params, rows=5, seed=1):
    ids = Rng(seed).integers(MASK_ID + 1, params.config.vocab_size, (rows, params.config.max_len))
    ids[:, 0] = BOS_ID
    return ids


def _decode(params, ids, cols=4):
    """Logits of a prefill of ``cols`` columns and then one step per column."""
    cache = M.KVCache(params, len(ids))
    out = [M.forward_decoder(params, ids[:, :cols], cache=cache).data]
    for t in range(cols + 1, ids.shape[1] + 1):
        out.append(M.forward_decoder(params, ids[:, t - 1:t], cache=cache).data)
    return np.concatenate(out, axis=1)


@pytest.mark.parametrize("name, at, value, message", [
    ("h1.ff.w1", (3, 7), np.nan, "matmul"),
    ("h0.ln2.b", (5,), np.nan, "layer_norm"),
    ("h1.attn.wv", (0, 2), np.nan, "attention"),
    ("head.w", (4, 6), np.nan, "matmul"),
    ("tok_emb", (BOS_ID, 0), np.inf, "embedding"),
    ("h0.attn.wk", (5, 1), np.inf, "attention scores"),
])
def test_non_finite_weight_raises_from_the_decode_step(name, at, value, message):
    params = _params()
    block = {"wq": 0, "wk": 1, "wv": 2}.get(name.split(".")[-1])
    if block is not None:  # a weight in one block of the fused attn.wqkv
        name, at = name[:-2] + "wqkv", (at[0], block * params.config.embed_dim + at[1])
    params[name].data[at] = value
    with pytest.raises(NonFiniteError, match=message):
        M.forward_decoder(params, _ids(params)[:, :1], cache=M.KVCache(params, 5))


@pytest.mark.parametrize("cols", [1, 3])
def test_score_overflow_raises_from_the_decode_step(cols):
    params = _params()
    # q and k stay finite, q . k overflows
    params["h0.attn.wqkv"].data[:, :2 * params.config.embed_dim] *= 1e19
    with pytest.raises(NonFiniteError, match="attention scores"), np.errstate(over="ignore"):
        M.forward_decoder(params, _ids(params)[:, :cols], cache=M.KVCache(params, 5))


def test_cache_built_after_an_in_place_update_decodes_with_the_new_weights():
    params, ids = _params(), _ids(_params())
    before = _decode(params, ids)
    for name in ("h0.attn.wqkv", "h1.attn.bqkv", "h1.ff.w2", "tok_emb"):
        params[name].data += 0.1  # in place, as the optimizer updates
    after = _decode(params, ids)
    assert not np.allclose(after, before)
    np.testing.assert_allclose(after, M.forward_decoder(params, ids).data, rtol=0, atol=1e-5)


def test_cache_refuses_other_params():
    params, other = _params(), _params()
    ids = _ids(params)
    with pytest.raises(ValueError, match="params"):  # even at the first step
        M.forward_decoder(other, ids[:, :2], cache=M.KVCache(params, len(ids)))
    cache = M.KVCache(params, len(ids))
    M.forward_decoder(params, ids[:, :2], cache=cache)
    with pytest.raises(ValueError, match="params"):
        M.forward_decoder(other, ids[:, 2:3], cache=cache)
    M.forward_decoder(params, ids[:, 2:3], cache=cache)  # its own params still decode
    assert cache.length == 3


def test_keep_gathers_into_buffers_the_first_keep_made():
    """After the first keep, a keep allocates no buffer: it gathers into the one it freed."""
    cfg = ModelConfig(vocab_size=13, max_len=12, embed_dim=96, n_layers=2, n_heads=3, ff_dim=8)
    params = JointModelParams(cfg, Rng(3), init_std=0.3)
    ids = _ids(params, rows=8)
    cache = M.KVCache(params, len(ids))
    M.forward_decoder(params, ids[:, :3], cache=cache)
    buffers = [a for k, v in cache.layers for a in (k, v)]
    cache.keep(np.arange(8) != 2)
    buffers += [a for k, v in cache.layers for a in (k, v)]  # the one buffer it made
    ids = ids[np.arange(8) != 2]
    for t, drop in zip(range(4, 9), (0, 4, 1, 0, 2)):
        rows = len(ids)
        M.forward_decoder(params, ids[:, t - 1:t], cache=cache)
        going = np.arange(rows) != drop
        tracemalloc.start()
        cache.keep(going)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < t * rows * cfg.embed_dim * 4 // 2  # a copy of one buffer's live part is more
        ids = ids[going]
        for k, v in cache.layers:
            assert all(any(np.shares_memory(a, b) for b in buffers) for a in (k, v))
            assert k.shape == (len(ids), 3, t, 32)


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_tape_ops_return_their_kernels_output_bit_for_bit():
    rng = Rng(9)
    x = Tensor(rng.normal((3, 5, 12)))
    gain, bias = Tensor(rng.normal((12,))), Tensor(rng.normal((12,)))
    assert _bits(nm.layer_norm(x, gain, bias).data) == _bits(
        nm.layer_norm_fwd(x.data.reshape(-1, 12), gain.data, bias.data)[0])
    assert _bits(nm.gelu(x).data) == _bits(nm.gelu_fwd(x.data)[0])
    x2 = Tensor(x.data.reshape(-1, 12))
    w1, w2 = Tensor(rng.normal((12, 20))), Tensor(rng.normal((20, 12)))
    want = nm.gelu_fwd(x2.data @ w1.data)[0] @ w2.data
    assert _bits(nm.feed_forward(x2, w1, w2).data) == _bits(want)
    with Tape():
        assert _bits(nm.feed_forward(x2, w1, w2).data) == _bits(want)

    wqkv, bqkv, wo, bo = (Tensor(rng.normal(s)) for s in ((12, 36), (36,), (12, 12), (12,)))
    drop = rng.random((3, 4, 5, 5)) >= 0.2
    keep = nm._multipliers(drop, 0.2, np.float32)
    cells = [np.arange(15).reshape(3, 5)]

    for pos in (None, np.array([[4, 1], [2, 0], [4, 0]])):
        if pos is None:  # one fused GEMM for q, k and v, causal
            want = nm.attention(x2, wqkv, bqkv, wo, bo, cells, True, 4, [drop], None, 0.2).data
            q, k, v = nm.split_heads(nm.linear(x2.data, wqkv.data, bqkv.data), 3, 4, 12)
            bias, kept = nm.causal_mask(5, 5, np.float32), keep
        else:  # the query rows on the q columns, every row on the k|v columns; no cell is empty
            dropped, kept = (np.take_along_axis(m, pos[:, None, :, None], 2) for m in (drop, keep))
            queries = [cells[0][np.arange(3)[:, None], pos]]
            want = nm.attention(x2, wqkv, bqkv, wo, bo, cells, False, 4, [dropped], queries, 0.2).data
            bias = None
            (q,) = nm.split_heads(nm.linear(x2.data[queries[0].ravel()], wqkv.data[:, :12], bqkv.data[:12]),
                                  3, 4, 12)
            k, v = nm.split_heads(nm.linear(x2.data, wqkv.data[:, 12:], bqkv.data[12:]), 3, 4, 12)
        kT = np.ascontiguousarray(k.swapaxes(-1, -2))
        y = nm.attention_fwd(q, kT, v, bias, kept)[2]
        assert _bits(want) == _bits(nm.linear(y, wo.data, bo.data))


def test_decode_step_records_nothing_and_checks_every_output(monkeypatch):
    """One step makes no Tensor but its logits, and checks each op output the tape ops would."""
    params = _params()
    ids = _ids(params)
    cache = M.KVCache(params, len(ids))
    M.forward_decoder(params, ids[:, :2], cache=cache)
    names, made = [], []
    check, record = nm.check_finite, nm._record
    monkeypatch.setattr(nm, "check_finite", lambda a, name: names.append(name) or check(a, name))
    monkeypatch.setattr(nm, "_record", lambda *a: made.append(a) or record(*a))
    logits = M.forward_decoder(params, ids[:, 2:3], cache=cache)
    assert isinstance(logits, Tensor) and logits.shape == (5, 1, 13) and not made
    block = ["layer_norm", "attention", "add", "layer_norm", "matmul", "gelu", "matmul", "add"]
    assert sorted(names) == sorted(["embedding", "embedding", "add"] + block * 2 + ["layer_norm", "matmul"])
