"""The unfused kernels the fused ``numerics`` ops replaced, kept as references.

``attention`` is the trunk's former composition of about twenty recorded
ops (matmul, add, reshape, transpose, mul, softmax_rows), run one length
group at a time on rows it gathers, with the q, k and v projections taken
as column blocks of the fused weights; ``layer_norm``,
``gelu`` and ``embedding`` are the former single ops, with numpy
reductions and a scatter-add backward. ``feed_forward`` is the former
``matmul``, ``gelu``, ``matmul`` chain, and ``dropout`` the former ``mul``
by float multipliers, which the tape then keeps. Each takes the signature
of the fused op it stands for, so ``install`` can swap all six into
``moljoint.numerics`` and every model function then runs the unfused trunk.
"""

import math

import numpy as np

from moljoint import numerics as nm
from moljoint.numerics import Tensor, _record

_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


def _columns(a, lo, hi):
    """a[..., lo:hi] as a tape op: one of the q, k and v blocks of a fused projection."""
    out = Tensor(a.data[..., lo:hi], name="columns")

    def bwd(g):
        grad = np.zeros_like(a.data)
        grad[..., lo:hi] = g
        a.slot.accum_fresh_grad(grad)

    return _record(out, bwd)


def _scale(keep, rate):
    """Float inverted-dropout multipliers of the bool mask ``keep``."""
    return np.where(keep, 1.0 / (1.0 - rate), 0.0)


def attention(x, wqkv, bqkv, wo, bo, cells, causal, n_heads, keeps=None, queries=None, rate=0.0):
    """One length group at a time: its rows gathered into (rows, width, E), the former
    composition under a bias that hides the empty cells' keys (and, when ``causal``, each
    query's later keys), and its output rows gathered back into place and summed over the groups."""
    E = x.shape[1]
    hd = E // n_heads
    wq, wk, wv, bq, bk, bv = (_columns(t, i * E, (i + 1) * E) for t in (wqkv, bqkv) for i in range(3))
    n_out = x.shape[0] if queries is None else sum(q.size for q in queries)
    out, start = None, 0
    for i, c in enumerate(cells):
        B, width = c.shape
        bias = np.where(c < 0, -1e9, 0.0)[:, None, None, :]
        if causal:
            bias = bias + np.triu(np.full((width, width), -1e9), k=1)
        src = nm.gather(x, c)  # (B, width, E), zero rows at empty cells
        xq = src if queries is None else nm.gather(x, queries[i])
        S = xq.shape[1]
        q = nm.add(nm.matmul(xq, wq), bq)
        k = nm.add(nm.matmul(src, wk), bk)
        v = nm.add(nm.matmul(src, wv), bv)
        q = nm.transpose(nm.reshape(q, (B, S, n_heads, hd)), (0, 2, 1, 3))
        k = nm.transpose(nm.reshape(k, (B, -1, n_heads, hd)), (0, 2, 1, 3))
        v = nm.transpose(nm.reshape(v, (B, -1, n_heads, hd)), (0, 2, 1, 3))
        att = nm.mul(nm.matmul(q, nm.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
        att = nm.softmax_rows(nm.add(att, bias))
        if keeps is not None:
            att = nm.mul(att, _scale(keeps[i], rate))
        y = nm.reshape(nm.transpose(nm.matmul(att, v), (0, 2, 1, 3)), (B * S, E))
        o = nm.add(nm.matmul(y, wo), bo)
        back = np.full(n_out, -1)  # each output row's row of o, or -1 outside this group
        if queries is None:
            has = c.ravel() >= 0
            back[c.ravel()[has]] = np.flatnonzero(has)
        else:
            back[start:start + B * S] = np.arange(B * S)
            start += B * S
        part = nm.gather(o, back)
        out = part if out is None else nm.add(out, part)
    return out


def layer_norm(a, gain, bias, eps=1e-5):
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data, name="layer_norm")

    def bwd(g):
        red = tuple(range(g.ndim - 1))
        gain.slot.accum_grad((g * xhat).sum(axis=red))
        bias.slot.accum_grad(g.sum(axis=red))
        dxhat = g * gain.data
        a.slot.accum_grad(inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ))

    return _record(out, bwd)


def gelu(a):
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * x * (1.0 + _GELU_A * x2))
    out = Tensor(0.5 * x * (1.0 + t), name="gelu")

    def bwd(g):
        dt = (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        a.slot.accum_grad(g * (0.5 * (1.0 + t) + 0.5 * x * dt))

    return _record(out, bwd)


def embedding(table, ids):
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], name="embedding")

    def bwd(g):
        grad = np.zeros_like(table.data)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        table.slot.accum_fresh_grad(grad)

    return _record(out, bwd)


def feed_forward(x, w1, w2):
    return nm.matmul(gelu(nm.matmul(x, w1)), w2)


def dropout(a, keep, rate):
    return nm.mul(a, _scale(keep, rate))


def install(monkeypatch) -> None:
    """Replace the fused ops in ``moljoint.numerics`` with these for one test."""
    for name in ("attention", "layer_norm", "gelu", "embedding", "feed_forward", "dropout"):
        monkeypatch.setattr(nm, name, globals()[name])
