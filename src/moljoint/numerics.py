"""Dense float arrays with reverse-mode autodiff, plus a seeded RNG.

Numpy supplies the raw buffer arithmetic; the gradient bookkeeping lives
here. A ``Tape`` records every differentiable op in execution order as an
(output, backward) pair and replays the pairs in exact reverse order.
Storage is float32 by default; gradient tests that need headroom can
switch to float64 with ``using_dtype``.

Backward protocol: the tape calls an op's backward with its output's
gradient, and only when that output received one, so a tensor the loss
never reached keeps ``grad is None``. Every deposit goes through
``Tensor.accum_grad``, or through ``Tensor.accum_fresh_grad`` when the
backward hands over a buffer it just allocated and holds nowhere else: a
first deposit then adopts that buffer instead of copying it. A gradient
passed on unchanged (``add``, ``sub``, ``reshape``) or a view into a
shared buffer always goes through ``accum_grad``. An op output's
gradient is released once its backward has run; leaves keep theirs.

Every op validates its output: NaN or Inf anywhere is a hard error
(``NonFiniteError``), never silently propagated.

The trunk's kernels are fused, with hand-written backward. Their forward
math is array-level (``layer_norm_fwd``, ``gelu_fwd``, ``linear``,
``split_heads``, ``attention_fwd``), shared by the tape ops, which keep
what it returns for backward, and by the model's tape-free decode step
and predictor pass; ``attention`` takes its keys and values from x or a
tensor, never a cache. Inside ``attention_fwd`` q, k, v, the
probabilities and y carry no check of their own; the scores (q k^T plus
the bias) and the output do. That loses nothing: any NaN or Inf in q or
k makes a score non-finite; probabilities of finite scores are finite;
every row of y sums over every key's v, and a non-finite y entry makes
its output row non-finite through the wo GEMM (Inf * 0 and Inf - Inf are
NaN). The scores keep their check because an overflow to -Inf there
would read as a masked key, not as NaN.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

_DTYPE = np.float32
_TAPE: "Tape | None" = None

# tanh-form GELU constant sqrt(2/pi)
_GELU_C = 0.7978845608028654
_GELU_A = 0.044715


class NonFiniteError(FloatingPointError):
    """An op produced NaN or Inf."""


def current_dtype():
    return _DTYPE


@contextmanager
def using_dtype(dtype):
    """Temporarily change the dtype new tensors are created with.

    Used by gradient tests that want float64 headroom; the model itself
    stays float32.
    """
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


class Rng:
    """Deterministic random stream (PCG64).

    The same seed and the same call sequence produce bitwise identical
    output on every platform. State is serializable so training can
    resume exactly.
    """

    __slots__ = ("_gen",)

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(int(seed)))

    def random(self, shape=None, dtype=np.float64):
        """Uniform floats in [0, 1); scalar when shape is None."""
        return self._gen.random() if shape is None else self._gen.random(shape, dtype=dtype)

    def random_at_least(self, shape, threshold: float) -> np.ndarray:
        """``random(shape, float32) >= threshold``, from the same draws and leaving the same state.

        A float32 uniform is the top 24 bits of a 32-bit half of a PCG64 word
        (low half first) times 2^-24, so the raw words are compared against an
        integer threshold, and the buffered half is set as the float path sets
        it. An odd count, or a half still buffered, takes the float path.
        """
        n = math.prod(shape)
        bits = self._gen.bit_generator
        state = bits.state
        if n == 0 or n % 2 or state["has_uint32"] or sys.byteorder != "little":
            return self.random(shape, dtype=np.float32) >= threshold
        words = bits.random_raw(n // 2)
        state = bits.state
        state["uinteger"] = int(words[-1] >> 32)
        bits.state = state
        # u >= t  <=>  (w >> 8) >= ceil(t * 2^24)  <=>  w >= ceil(t * 2^24) << 8, t as a float32
        return (words.view(np.uint32) >= math.ceil(float(np.float32(threshold)) * (1 << 24)) << 8).reshape(shape)

    def normal(self, shape=None, std=1.0, mean=0.0):
        return self._gen.normal(mean, std, shape)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def get_state(self) -> dict:
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self._gen.bit_generator.state = state


class Tensor:
    """A contiguous row-major float array plus its gradient buffer.

    Gradient buffers are allocated lazily: ``grad`` stays None until
    backward deposits into it, so pure inference never pays for them.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str = ""):
        self.data = np.ascontiguousarray(data, dtype=_DTYPE)
        self.grad: np.ndarray | None = None
        self.name = name

    def accum_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad``; a first deposit is copied."""
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def accum_fresh_grad(self, g: np.ndarray) -> None:
        """``accum_grad`` for a buffer the caller just allocated and holds nowhere else.

        A first deposit that is C-contiguous and of this tensor's shape and
        dtype becomes ``grad`` as it is; anything else is copied or added.
        """
        if (self.grad is None and g.shape == self.data.shape and g.dtype == self.data.dtype
                and g.flags.c_contiguous):
            self.grad = g
        else:
            self.accum_grad(g)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Execution-ordered record of differentiable ops as (output, backward) pairs.

    Use as a context manager around the forward pass; ``backward`` then
    replays the recorded ops in exact reverse execution order. Tapes do
    not nest (single-writer).
    """

    def __init__(self):
        self._ops: list = []

    def __enter__(self):
        global _TAPE
        if _TAPE is not None:
            raise RuntimeError("a tape is already recording")
        _TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _TAPE
        _TAPE = None
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor) -> None:
        """Populate d(loss)/d(tensor) for every tensor on the tape.

        ``loss`` must be a scalar produced while this tape was recording.
        Tensors the loss never reached are left as they were: one whose
        ``grad`` was None before the call still has ``grad is None``. Op
        outputs, the loss included, hand their gradient on and release it,
        so only leaves (parameters and inputs) keep a ``grad``.
        """
        if loss.data.size != 1:
            raise ValueError(f"backward root must be scalar, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, bwd in reversed(self._ops):
            if out.grad is not None:
                bwd(out.grad)
                out.grad = None  # every consumer ran before this op: the buffer is dead


def recording() -> bool:
    """Whether a tape is recording ops right now."""
    return _TAPE is not None


def check_finite(a: np.ndarray, name: str) -> np.ndarray:
    """``a`` itself; NonFiniteError if it holds NaN or Inf."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values in op output {name or '<unnamed>'}")
    return a


def _record(out: Tensor, backward_fn) -> Tensor:
    check_finite(out.data, out.name)
    if _TAPE is not None:
        _TAPE._ops.append((out, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient produced under numpy broadcasting back to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_data(x, like: Tensor) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=like.data.dtype)


def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b with numpy broadcasting; b may be a constant."""
    bdata = _as_data(b, a)
    out = Tensor(a.data + bdata, name="add")

    def bwd(g):
        a.accum_grad(_unbroadcast(g, a.shape))
        if isinstance(b, Tensor):
            b.accum_grad(_unbroadcast(g, b.shape))

    return _record(out, bwd)


def sub(a: Tensor, b) -> Tensor:
    bdata = _as_data(b, a)
    out = Tensor(a.data - bdata, name="sub")

    def bwd(g):
        a.accum_grad(_unbroadcast(g, a.shape))
        if isinstance(b, Tensor):
            b.accum_grad(-_unbroadcast(g, b.shape))

    return _record(out, bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b with broadcasting; b may be a constant (no grad)."""
    bdata = _as_data(b, a)
    out = Tensor(a.data * bdata, name="mul")

    def bwd(g):
        a.accum_fresh_grad(_unbroadcast(g * bdata, a.shape))
        if isinstance(b, Tensor):
            b.accum_fresh_grad(_unbroadcast(g * a.data, b.shape))

    return _record(out, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    k = a.shape[-1]
    if a.ndim > 2 and b.ndim == 2:
        # flatten the batch axes into one GEMM (the model's hot path)
        out = Tensor((a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (b.shape[-1],)),
                     name="matmul")

        def bwd(g):
            g2 = g.reshape(-1, b.shape[-1])
            a.accum_fresh_grad((g2 @ b.data.T).reshape(a.shape))
            b.accum_fresh_grad(a.data.reshape(-1, k).T @ g2)

        return _record(out, bwd)

    out = Tensor(a.data @ b.data, name="matmul")

    def bwd(g):
        a.accum_fresh_grad(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        b.accum_fresh_grad(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _record(out, bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` (V, E) at integer `ids` (any shape).

    Backward is one (V, N) one-hot @ (N, E) GEMM, not a scatter-add: the
    vocabularies and position tables here are small.
    """
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], name="embedding")

    def bwd(g):
        flat = ids.reshape(-1)
        onehot = (flat == np.arange(table.shape[0])[:, None]).astype(g.dtype)
        table.accum_fresh_grad(onehot @ g.reshape(flat.size, -1))

    return _record(out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), name="reshape")

    def bwd(g):
        a.accum_grad(g.reshape(a.shape))

    return _record(out, bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes), name="transpose")

    def bwd(g):
        a.accum_grad(np.transpose(g, inv))

    return _record(out, bwd)


def take(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along `axis`, dropping that axis."""
    out = Tensor(np.take(a.data, index, axis=axis), name="take")
    sel = (slice(None),) * (axis % a.ndim) + (index,)

    def bwd(g):
        grad = np.zeros_like(a.data)
        grad[sel] = g
        a.accum_fresh_grad(grad)

    return _record(out, bwd)


def gather(a: Tensor, idx: np.ndarray) -> Tensor:
    """out[b, j] = a[b, idx[b, j]] for a (B, S, ...) and idx (B, Q), distinct within a row."""
    at = (np.arange(a.shape[0])[:, None], idx)
    out = Tensor(a.data[at], name="gather")

    def bwd(g):
        grad = np.zeros_like(a.data)
        grad[at] = g
        a.accum_fresh_grad(grad)

    return _record(out, bwd)


def pad_cols(a: Tensor, total: int) -> Tensor:
    """Zero-extend axis 1 of (B, S, ...) to length `total`."""
    if total == a.shape[1]:
        return a
    if total < a.shape[1]:
        raise ValueError("pad_cols cannot shrink")
    data = np.zeros((a.shape[0], total) + a.shape[2:], dtype=a.data.dtype)
    data[:, : a.shape[1]] = a.data
    out = Tensor(data, name="pad_cols")

    def bwd(g):
        a.accum_grad(g[:, : a.shape[1]])

    return _record(out, bwd)


def scatter_rows(parts: list[Tensor], rows: list[np.ndarray], shape) -> Tensor:
    """Write each part into a zero-filled array of ``shape`` at its rows and leading columns.

    Part i, of shape (len(rows[i]), n1, ...), lands at ``out[rows[i], :n1, ...]``;
    the row sets are disjoint. Backward slices each part's gradient back
    out. A single part that already fills ``shape`` row by row in order is
    returned as it is.
    """
    shape = tuple(shape)
    if len(parts) == 1 and parts[0].shape == shape and np.array_equal(rows[0], np.arange(shape[0])):
        return parts[0]
    data = np.zeros(shape, dtype=parts[0].data.dtype)
    at = [(r,) + tuple(slice(0, n) for n in p.shape[1:]) for p, r in zip(parts, rows)]
    for p, idx in zip(parts, at):
        data[idx] = p.data
    out = Tensor(data, name="scatter_rows")

    def bwd(g):
        for p, idx in zip(parts, at):
            p.accum_fresh_grad(g[idx])  # an index array selects a copy

    return _record(out, bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, name="softmax_rows")

    def bwd(g):
        a.accum_grad((g - (g * out.data).sum(axis=-1, keepdims=True)) * out.data)

    return _record(out, bwd)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, in the GEMM's own output buffer."""
    o = x @ w
    o += b
    return o


def split_heads(o: np.ndarray, B: int, n_heads: int, E: int) -> list[np.ndarray]:
    """The n column blocks of width E of o (B * rows, n E) as n (B, n_heads, rows, E / n_heads) head views."""
    return list(o.reshape(B, -1, o.shape[1] // E, n_heads, E // n_heads).transpose(2, 0, 3, 1, 4))


def project_heads(x: np.ndarray, w: np.ndarray, b: np.ndarray, B: int, n_heads: int) -> list[np.ndarray]:
    """x (B * rows, E) @ w (E, n E) + b, as n (B, n_heads, rows, E / n_heads) head views."""
    return split_heads(linear(x, w, b), B, n_heads, x.shape[1])


def attention_fwd(q: np.ndarray, kT: np.ndarray, v: np.ndarray, bias, wo: np.ndarray, bo: np.ndarray,
                  keep: np.ndarray | None = None):
    """Attention of the query heads q (B, h, S, hd) over kT (B, h, hd, T) and v (B, h, T, hd).

    ``bias`` adds to the (B, h, S, T) scores and may broadcast, or is None
    for none; ``keep`` multiplies the probabilities. Returns q / sqrt(hd),
    the probabilities, the pre-projection y (B S, h hd) with the heads side
    by side, and y @ wo + bo.
    """
    B, n_heads, S, hd = q.shape
    q = q * float(1.0 / np.sqrt(hd))
    p = q @ kT  # scores, (B, h, S, T)
    if bias is not None:
        p += bias
    if not np.isfinite(p).all():
        raise NonFiniteError("non-finite values in attention scores")
    T = p.shape[-1]
    rows = p.reshape(-1, T)
    # exact row max in one pass down a transposed copy (max(axis=-1) runs a loop per row)
    rows -= np.ascontiguousarray(rows.T).max(axis=0)[:, None]
    np.exp(rows, out=rows)
    rows /= (rows @ _filled(T, 1.0, rows.dtype))[:, None]
    y = np.empty((B, S, n_heads, hd), dtype=p.dtype)
    np.matmul(p if keep is None else p * keep, v, out=y.transpose(0, 2, 1, 3))
    y = y.reshape(-1, n_heads * hd)
    o = y @ wo
    o += bo
    return q, p, y, o


def attention(x: Tensor, wqkv: Tensor, bqkv: Tensor, wo: Tensor, bo: Tensor, bias: np.ndarray,
              n_heads: int, keep: np.ndarray | None = None, kv: Tensor | None = None) -> Tensor:
    """Multi-head attention of the normed query rows x (B, S, E), through the output projection.

    ``wqkv`` (E, 3E) and ``bqkv`` (3E) hold q, k and v side by side. Keys and
    values come from x itself, in one GEMM, or from ``kv``, a (B, T, E) Tensor
    such as the rows x was gathered from: x then takes the q columns and kv
    the k|v columns, as views. ``bias`` adds to the (B, h, S, T) scores and
    ``keep`` holds the attention-dropout multipliers (see ``attention_fwd``).
    One tape op: backward writes each GEMM's gradient into its columns.
    """
    B, S, E = x.shape
    hd = E // n_heads
    # (input, its columns of wqkv) per GEMM: one fused GEMM unless kv is a tensor of its own
    gemms = [(x, slice(0, E)), (kv, slice(E, 3 * E))] if kv is not None else [(x, slice(0, 3 * E))]
    heads = []  # q, k and v as (B, h, rows, hd) views
    for a, c in gemms:
        heads += project_heads(a.data.reshape(-1, E), wqkv.data[:, c], bqkv.data[c], B, n_heads)
    k, v = heads[1:]
    kT = np.ascontiguousarray(k.swapaxes(-1, -2))
    q, p, y, o = attention_fwd(heads[0], kT, v, bias, wo.data, bo.data, keep)
    out = Tensor(o.reshape(B, S, E), name="attention")

    def bwd(g):
        g2 = g.reshape(-1, E)
        wo.accum_fresh_grad(y.T @ g2)
        bo.accum_fresh_grad(np.ones(g2.shape[0], dtype=g2.dtype) @ g2)
        dy = (g2 @ wo.data.T).reshape(B, S, n_heads, hd).transpose(0, 2, 1, 3)
        d = [np.empty((B, a.shape[1], (c.stop - c.start) // E, n_heads, hd), g.dtype) for a, c in gemms]
        dq, dk, dv = (t for di in d for t in di.transpose(2, 0, 3, 1, 4))  # (B, h, rows, hd) views
        np.matmul((p if keep is None else p * keep).swapaxes(-1, -2), dy, out=dv)
        ds = dy @ v.swapaxes(-1, -2)
        if keep is not None:
            ds *= keep
        # softmax backward, in place: ds = p * (ds - rowsum(ds * p))
        ds -= np.einsum("...t,...t->...", ds, p)[..., None]
        ds *= p
        np.matmul(ds, kT.swapaxes(-1, -2), out=dq)
        dq *= float(1.0 / np.sqrt(hd))
        np.matmul(ds.swapaxes(-1, -2), q, out=dk)
        dw, db = np.empty_like(wqkv.data), np.empty_like(bqkv.data)
        for (a, c), di in zip(gemms, d):
            d2 = di.reshape(-1, c.stop - c.start)
            np.matmul(a.data.reshape(-1, E).T, d2, out=dw[:, c])
            np.matmul(np.ones(d2.shape[0], dtype=d2.dtype), d2, out=db[c])
            a.accum_fresh_grad((d2 @ wqkv.data[:, c].T).reshape(a.shape))
        wqkv.accum_fresh_grad(dw)
        bqkv.accum_fresh_grad(db)

    return _record(out, bwd)


@lru_cache(maxsize=256)  # a few widths and every key count up to max_len, per dtype
def _filled(n: int, value: float, dtype: np.dtype) -> np.ndarray:
    w = np.full(n, value, dtype=dtype)
    w.flags.writeable = False  # every call shares it
    return w


def _row_means(rows: np.ndarray) -> np.ndarray:
    """Mean over the last axis of a 2-D array, as one GEMV against a 1/E vector.

    numpy's reductions over a short last axis run a loop per row; BLAS
    does the whole array in one pass.
    """
    return rows @ _filled(rows.shape[1], 1.0 / rows.shape[1], rows.dtype)


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5):
    """Layer norm of the rows of x (N, E); returns (output, x-hat, 1 / std).

    The centred input is scaled in place into x-hat; the output buffer first
    holds the squared deviations for the variance GEMV.
    """
    xhat = x - _row_means(x)[:, None]
    y = np.multiply(xhat, xhat)
    rstd = 1.0 / np.sqrt(_row_means(y) + eps)
    xhat *= rstd[:, None]
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, rstd


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine (``layer_norm_fwd``).

    Backward reuses the saved x-hat and 1 / std.
    """
    E = a.shape[-1]
    y, xhat, rstd = layer_norm_fwd(a.data.reshape(-1, E), gain.data, bias.data, eps)
    out = Tensor(y.reshape(a.shape), name="layer_norm")

    def bwd(g):
        g2 = g.reshape(-1, E)
        ones = np.ones(g2.shape[0], dtype=g2.dtype)
        t = g2 * xhat
        gain.accum_fresh_grad(ones @ t)
        bias.accum_fresh_grad(ones @ g2)
        t *= gain.data  # dxhat * xhat
        m2 = _row_means(t)
        d = g2 * gain.data  # dxhat
        m1 = _row_means(d)
        # rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        d -= m1[:, None]
        np.multiply(xhat, m2[:, None], out=t)
        d -= t
        d *= rstd[:, None]
        a.accum_fresh_grad(d.reshape(a.shape))

    return _record(out, bwd)


def gelu_fwd(x: np.ndarray):
    """Gaussian-error linear unit, tanh approximation; returns (output, tanh term).

    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3))); differs from
    the exact erf form by < 1e-3 over the working range. Fills two buffers
    in place.
    """
    t = np.multiply(x, x)
    t *= _GELU_A
    t += 1.0
    y = np.multiply(x, _GELU_C)
    t *= y
    np.tanh(t, out=t)
    np.add(t, 1.0, out=y)
    y *= x
    y *= 0.5
    return y, t


def gelu(a: Tensor) -> Tensor:
    """``gelu_fwd`` as a tape op; backward fills two buffers in place and keeps only the tanh."""
    x = a.data
    y, t = gelu_fwd(x)
    out = Tensor(y, name="gelu")

    def bwd(g):
        # g * (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2))
        d = np.multiply(x, x)
        d *= 3.0 * _GELU_A
        d += 1.0
        s = np.multiply(t, t)
        np.subtract(1.0, s, out=s)
        s *= _GELU_C
        s *= d
        s *= x
        s *= 0.5
        np.add(t, 1.0, out=d)
        d *= 0.5
        s += d
        s *= g
        a.accum_fresh_grad(s)

    return _record(out, bwd)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), name="sum_all")

    def bwd(g):
        a.accum_grad(g)

    return _record(out, bwd)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean(), name="mean_all")

    def bwd(g):
        a.accum_grad(g / a.size)

    return _record(out, bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray, select: np.ndarray) -> Tensor:
    """Mean NLL of `targets` under row softmax, over positions where `select`.

    logits (..., V), targets int (...), select bool (...). At least one
    position must be selected.
    """
    targets = np.asarray(targets)
    select = np.asarray(select, dtype=bool)
    count = int(select.sum())
    if count == 0:
        raise ValueError("cross_entropy: no positions selected")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    # sum over the selected subset only (in float64): the value is then
    # independent of how many masked-out positions surround it
    out = Tensor(-(picked[select].astype(np.float64).sum() / count), name="cross_entropy")
    probs = np.exp(logp)

    def bwd(g):
        d = probs.copy()
        idx = targets[..., None]
        np.put_along_axis(d, idx, np.take_along_axis(d, idx, axis=-1) - 1.0, axis=-1)
        w = (select / count).astype(d.dtype)
        logits.accum_fresh_grad(g * d * w[..., None])

    return _record(out, bwd)
