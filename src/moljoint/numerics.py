"""Dense float arrays with reverse-mode autodiff, plus a seeded RNG.

Numpy supplies the raw buffer arithmetic; the gradient bookkeeping lives
here. A ``Tape`` records every differentiable op in execution order as an
(output slot, backward) pair and replays the pairs in exact reverse order.
Storage is float32 by default; gradient tests that need headroom can
switch to float64 with ``using_dtype``.

Lifetimes: a ``Tensor`` is its values plus a ``Slot`` that holds its
``grad``, shape, dtype and name. A backward closure holds its inputs'
slots and only the arrays its backward reads, in their narrowest form:
``matmul``'s operands, ``mul``'s b and, when b is a Tensor, its a, GELU's
input and tanh term (``feed_forward`` keeps its own input too and
rebuilds the GELU output), ``layer_norm``'s x-hat and 1 / std,
``attention``'s input, pre-projection rows and per-group q, k^T, v and
probabilities, ``cross_entropy``'s probabilities, and bool dropout masks.
Any other op output (an ``add``, a ``dropout``, the logits) is freed as
soon as the forward drops its last reference to it, and ``Tape.backward``
drops each closure once it has run; what the caller holds stays valid.

Backward protocol: the tape calls an op's backward with its output's
gradient, and only when that output received one, so a tensor the loss
never reached keeps ``grad is None``. Every deposit goes through
``Slot.accum_grad``, or through ``Slot.accum_fresh_grad`` when the
backward hands over a buffer it just allocated and holds nowhere else: a
first deposit then adopts that buffer instead of copying it. A gradient
passed on unchanged (``add``, ``sub``, ``reshape``) or a view into a
shared buffer always goes through ``accum_grad``. An op output's
gradient is released once its backward has run; leaves keep theirs.

Broadcasting (``add``, ``sub``, ``mul``, ``matmul``) is over leading axes
only: an operand may lack leading axes of the other, and backward sums
its gradient over them. A Tensor operand whose size-1 axis broadcasts
gets no such sum: backward raises ``ValueError`` when it deposits the
gradient. A constant operand may broadcast either way.

Every op validates its output: NaN or Inf anywhere is a hard error
(``NonFiniteError``), never silently propagated.

The trunk's kernels are fused, with hand-written backward. Their forward
math is array-level (``layer_norm_fwd``, ``gelu_fwd``, ``linear``,
``split_heads``, ``attention_fwd``), shared by the tape ops, which keep
what it returns for backward while a tape records, and by the model's
tape-free decode step. ``attention`` runs over packed rows, one length
group at a time, and never over a cache. It takes ``model._transformer``'s
layout as given (each row's -1 cells follow its tokens; each row of x is
in exactly one cell), so a causal pass adds only the cached, read-only
``causal_mask``. ``gather`` picks rows, a zero row where a cell has none.
Inside ``attention_fwd`` q, k, v, the probabilities and y carry no check
of their own; the scores (q k^T plus the bias) and the output do. That
loses nothing: any NaN or Inf in q or k makes a score non-finite;
probabilities of finite scores are finite; every row of y sums over every
key's v, and a non-finite y entry makes its output row non-finite through
the wo GEMM (Inf * 0 and Inf - Inf are NaN). The scores keep their check
because an overflow to -Inf there would read as a masked key, not as NaN.
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
_GELU_BLOCK = 1 << 15  # values per block of a tape-free feed_forward's GELU
NEG_BIAS = -1e9  # additive attention bias for a key a query may not see


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

    def normal(self, shape=None, std=1.0):
        return self._gen.normal(0.0, std, shape)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def get_state(self) -> dict:
        return self._gen.bit_generator.state

    def set_state(self, state: dict) -> None:
        self._gen.bit_generator.state = state


class Slot:
    """A tensor's gradient slot: its ``grad`` and the shape, dtype and name it was made with.

    The tape records slots and backward closures capture them, so a slot
    keeps no reference to its tensor's values. ``grad`` is allocated
    lazily: it stays None until backward deposits into it, so pure
    inference never pays for it.
    """

    __slots__ = ("grad", "shape", "dtype", "name")

    def __init__(self, shape, dtype, name: str):
        self.grad: np.ndarray | None = None
        self.shape, self.dtype, self.name = shape, dtype, name

    def accum_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad``; a first deposit is copied."""
        if self.grad is None:
            self.grad = np.empty(self.shape, self.dtype)
            np.copyto(self.grad, g)
        else:
            self.grad += g

    def accum_fresh_grad(self, g: np.ndarray) -> None:
        """``accum_grad`` for a buffer the caller just allocated and holds nowhere else.

        A first deposit that is C-contiguous and of this slot's shape and
        dtype becomes ``grad`` as it is; anything else is copied or added.
        """
        if self.grad is None and g.shape == self.shape and g.dtype == self.dtype and g.flags.c_contiguous:
            self.grad = g
        else:
            self.accum_grad(g)


class Tensor:
    """A contiguous row-major float array and its gradient ``Slot``.

    ``grad`` and ``name`` live in the slot. A tape keeps only the slot and
    the arrays that some backward reads, so an op output's values are
    freed as soon as the caller drops its last reference to them.
    """

    __slots__ = ("data", "slot")

    def __init__(self, data, name: str = ""):
        self.data = np.ascontiguousarray(data, dtype=_DTYPE)
        self.slot = Slot(self.data.shape, self.data.dtype, name)

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.slot.grad = g

    @property
    def name(self) -> str:
        return self.slot.name

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
    """Execution-ordered record of differentiable ops as (output slot, backward) pairs.

    Use as a context manager around the forward pass; ``backward`` then
    replays the recorded ops in exact reverse execution order. Tapes do
    not nest (single-writer), and ``backward`` runs once. Each backward
    holds its inputs' slots and only the arrays it reads (a GEMM's
    operands, a layer norm's x-hat and 1 / std, ...), and ``backward``
    drops it once it has run; ``len`` still counts the recorded ops.
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
        if self._ops and self._ops[-1][1] is None:
            raise RuntimeError("backward has already run on this tape")
        loss.grad = np.ones_like(loss.data)
        for i in reversed(range(len(self._ops))):
            out, bwd = self._ops[i]
            self._ops[i] = (out, None)  # the arrays only this backward reads die once it has run
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
        _TAPE._ops.append((out.slot, backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient over the leading axes that broadcasting put in front of `shape`."""
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra))) if extra else grad


def _as_data(x, like: Tensor) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=like.data.dtype)


def _slot_of(x) -> Slot | None:
    """x's gradient slot, or None for a constant."""
    return x.slot if isinstance(x, Tensor) else None


def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b, broadcasting over leading axes; b may be a constant."""
    out = Tensor(a.data + _as_data(b, a), name="add")
    sa, sb = a.slot, _slot_of(b)

    def bwd(g):
        sa.accum_grad(_unbroadcast(g, sa.shape))
        if sb is not None:
            sb.accum_grad(_unbroadcast(g, sb.shape))

    return _record(out, bwd)


def sub(a: Tensor, b) -> Tensor:
    out = Tensor(a.data - _as_data(b, a), name="sub")
    sa, sb = a.slot, _slot_of(b)

    def bwd(g):
        sa.accum_grad(_unbroadcast(g, sa.shape))
        if sb is not None:
            sb.accum_grad(-_unbroadcast(g, sb.shape))

    return _record(out, bwd)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b, broadcasting over leading axes; b may be a constant (no grad).

    Backward keeps b's values, and a's only when b is a Tensor.
    """
    sa, sb, bdata = a.slot, _slot_of(b), _as_data(b, a)
    out = Tensor(a.data * bdata, name="mul")
    adata = None if sb is None else a.data  # only b's gradient reads a

    def bwd(g):
        sa.accum_fresh_grad(_unbroadcast(g * bdata, sa.shape))
        if sb is not None:
            sb.accum_fresh_grad(_unbroadcast(g * adata, sb.shape))

    return _record(out, bwd)


def _multipliers(keep: np.ndarray | None, rate: float, dtype) -> np.ndarray | None:
    """Inverted-dropout multipliers of the bool mask ``keep`` (1 / (1 - rate) where True, else 0), or None."""
    return None if keep is None else np.multiply(keep, dtype(1) / dtype(1.0 - rate), dtype=dtype)


def dropout(a: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """Inverted dropout by a bool mask of a's shape; backward keeps the mask and builds the multipliers again."""
    out, sa = Tensor(a.data * _multipliers(keep, rate, _DTYPE), name="dropout"), a.slot

    def bwd(g):
        sa.accum_fresh_grad(g * _multipliers(keep, rate, g.dtype.type))

    return _record(out, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; one operand may lack the other's leading axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul expects tensors with ndim >= 2")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    A, B, sa, sb = a.data, b.data, a.slot, b.slot
    out = Tensor(A @ B, name="matmul")

    def bwd(g):
        sa.accum_fresh_grad(_unbroadcast(g @ np.swapaxes(B, -1, -2), sa.shape))
        sb.accum_fresh_grad(_unbroadcast(np.swapaxes(A, -1, -2) @ g, sb.shape))

    return _record(out, bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` (V, E) at integer `ids` (any shape).

    Backward is one (V, N) one-hot @ (N, E) GEMM, not a scatter-add: the
    vocabularies and position tables here are small.
    """
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], name="embedding")
    st = table.slot

    def bwd(g):
        flat = ids.reshape(-1)
        onehot = (flat == np.arange(st.shape[0])[:, None]).astype(g.dtype)
        st.accum_fresh_grad(onehot @ g.reshape(flat.size, -1))

    return _record(out, bwd)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), name="reshape")
    sa = a.slot

    def bwd(g):
        sa.accum_grad(g.reshape(sa.shape))

    return _record(out, bwd)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(np.transpose(a.data, axes), name="transpose")
    sa = a.slot

    def bwd(g):
        sa.accum_grad(np.transpose(g, inv))

    return _record(out, bwd)


def take(a: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along `axis`, dropping that axis."""
    out = Tensor(np.take(a.data, index, axis=axis), name="take")
    sel = (slice(None),) * (axis % a.ndim) + (index,)
    sa = a.slot

    def bwd(g):
        grad = np.zeros(sa.shape, sa.dtype)
        grad[sel] = g
        sa.accum_fresh_grad(grad)

    return _record(out, bwd)


def _rows_at(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The rows a[idx] for row numbers idx of any shape, zero rows where idx is -1."""
    out = np.take(a, idx, axis=0, mode="clip")
    out[idx < 0] = 0
    return out


def gather(a: Tensor, idx: np.ndarray) -> Tensor:
    """Rows of a (N, ...) at the row numbers idx, an int array of any shape: out[j] = a[idx[j]],
    and a zero row where idx[j] is -1. The row numbers other than -1 are distinct."""
    out = Tensor(_rows_at(a.data, idx), name="gather")
    sa = a.slot

    def bwd(g):
        grad = np.zeros(sa.shape, sa.dtype)
        has = idx >= 0
        grad[idx[has]] = g[has]  # distinct rows: assigning is accumulating
        sa.accum_fresh_grad(grad)

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
    sa = a.slot

    def bwd(g):
        sa.accum_grad(g[:, : sa.shape[1]])

    return _record(out, bwd)


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = Tensor(e / e.sum(axis=-1, keepdims=True), name="softmax_rows")
    y, sa = out.data, a.slot

    def bwd(g):
        sa.accum_grad((g - (g * y).sum(axis=-1, keepdims=True)) * y)

    return _record(out, bwd)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, in the GEMM's own output buffer."""
    o = x @ w
    o += b
    return o


def split_heads(o: np.ndarray, B: int, n_heads: int, E: int) -> list[np.ndarray]:
    """The n column blocks of width E of o (B * rows, n E) as n (B, n_heads, rows, E / n_heads) head views."""
    return list(o.reshape(B, -1, o.shape[1] // E, n_heads, E // n_heads).transpose(2, 0, 3, 1, 4))


@lru_cache(maxsize=256)  # every query and key count up to max_len, per dtype
def causal_mask(S: int, T: int, dtype) -> np.ndarray:
    """(S, T) additive bias for S queries at the last S of T keys: NEG_BIAS at each query's later keys, else 0."""
    m = np.triu(np.full((S, T), NEG_BIAS, dtype=dtype), k=T - S + 1)
    m.flags.writeable = False  # cached: every group, layer and decode prefill of a shape shares it
    return m


def attention_fwd(q: np.ndarray, kT: np.ndarray, v: np.ndarray, bias, keep: np.ndarray | None = None):
    """Attention of the query heads q (B, h, S, hd) over kT (B, h, hd, T) and v (B, h, T, hd).

    ``bias`` adds to the (B, h, S, T) scores and may broadcast, or is None
    for none; ``keep`` multiplies the probabilities. Returns q / sqrt(hd),
    the probabilities and y (B S, h hd), the heads side by side, before the
    output projection.
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
    return q, p, y.reshape(-1, n_heads * hd)


def attention(x: Tensor, wqkv: Tensor, bqkv: Tensor, wo: Tensor, bo: Tensor, cells: list[np.ndarray],
              causal: bool, n_heads: int, keeps: list | None = None,
              queries: list[np.ndarray] | None = None, rate: float = 0.0) -> Tensor:
    """Multi-head attention of the packed normed rows x (N, E), through the output projection.

    ``wqkv`` (E, 3E) and ``bqkv`` (3E) hold q, k and v side by side. Group i's
    ``cells`` are a (rows, width) int array of x's row numbers, -1 at a cell
    without a token. Precondition, unchecked (``model._transformer``'s layout):
    each row's -1 cells follow its tokens, and each row of x is in exactly one
    cell. One GEMM projects every row. Each group then runs the scores, softmax
    and p.v on a (rows, width) copy of its projections, zero at the empty cells;
    a causal pass adds ``causal_mask`` alone, which hides each token's later
    cells, empty ones too (a query at an empty cell is dropped), and a
    bidirectional one masks the empty keys. ``keeps[i]`` is its bool dropout
    mask at ``rate``. The output projection is one GEMM, into x's rows (N, E).
    With ``queries`` (ValueError if ``causal``), group i's queries are the
    (rows, Q) rows of x it lists (zero at -1), which alone take the q columns,
    and the output is (sum of rows * Q, E), group after group. One tape op.
    """
    if causal and queries is not None:
        raise ValueError("causal attention takes no queries: its triangle follows the cells' own order")
    N, E = x.shape
    hd = E // n_heads
    keeps = keeps or [None] * len(cells)
    kv_cols = slice(0, 3 * E) if queries is None else slice(E, 3 * E)
    kv = linear(x.data, wqkv.data[:, kv_cols], bqkv.data[kv_cols])
    kv_width = kv.shape[1]  # backward needs only this, so kv is freed on return
    if queries is None:  # each group's output rows, one per query cell
        outs = [c.ravel() for c in cells]
    else:
        at = np.concatenate([q.ravel() for q in queries])
        xq = _rows_at(x.data, at)
        qs = linear(xq, wqkv.data[:, :E], bqkv.data[:E])
        outs = np.split(np.arange(len(at)), np.cumsum([q.size for q in queries])[:-1])
    saved, ys = [], []  # what backward needs, kept only while a tape records
    for c, o, keep in zip(cells, outs, keeps):
        heads = split_heads(_rows_at(kv, c.ravel()), len(c), n_heads, E)  # q, k, v; or k, v
        if queries is not None:
            heads = split_heads(qs[o], len(c), n_heads, E) + heads
        kT = np.ascontiguousarray(heads[1].swapaxes(-1, -2))
        w = c.shape[1]  # causal: the triangle alone, as every -1 cell follows its row's tokens
        bias = causal_mask(w, w, _DTYPE) if causal else np.where(c[:, None, None] < 0, NEG_BIAS, _DTYPE(0))
        q, p, yc = attention_fwd(heads[0], kT, heads[2], bias, _multipliers(keep, rate, _DTYPE))
        if _TAPE is not None:  # v copied, so that no view keeps the group's gathered q|k|v rows
            saved.append((q, kT, np.ascontiguousarray(heads[2]), p))
        ys.append(yc)
    y = np.empty((N if queries is None else len(at), E), x.data.dtype)  # each row is some cell's output
    for o, yc in zip(outs, ys):
        y[o[o >= 0]] = yc[o >= 0]
    out = Tensor(linear(y, wo.data, bo.data), name="attention")
    X, W, Wo = x.data, wqkv.data, wo.data
    sx, sw, sb, swo, sbo = x.slot, wqkv.slot, bqkv.slot, wo.slot, bo.slot

    def bwd(g):
        swo.accum_fresh_grad(y.T @ g)
        sbo.accum_fresh_grad(np.ones(len(g), g.dtype) @ g)
        dy = g @ Wo.T
        dkv = np.empty((N, kv_width), g.dtype)
        dqs = None if queries is None else np.empty((len(at), E), g.dtype)
        for c, o, keep, (q, kT, v, p) in zip(cells, outs, keeps, saved):
            rows, width = c.shape
            d = np.empty((rows, width, kv_width // E, n_heads, hd), g.dtype)
            grads = list(d.transpose(2, 0, 3, 1, 4))  # (d q,) d k, d v as (rows, h, width, hd) views
            if queries is not None:
                grads.insert(0, dqs[o[0]:o[-1] + 1].reshape(rows, -1, n_heads, hd).transpose(0, 2, 1, 3))
            dq, dk, dv = grads
            dyc = _rows_at(dy, o).reshape(rows, -1, n_heads, hd).transpose(0, 2, 1, 3)
            m = _multipliers(keep, rate, g.dtype.type)
            np.matmul((p if m is None else p * m).swapaxes(-1, -2), dyc, out=dv)
            ds = dyc @ v.swapaxes(-1, -2)
            if m is not None:
                ds *= m
            # softmax backward, in place: ds = p * (ds - rowsum(ds * p))
            ds -= np.einsum("...t,...t->...", ds, p)[..., None]
            ds *= p
            np.matmul(ds, kT.swapaxes(-1, -2), out=dq)
            dq *= float(1.0 / np.sqrt(hd))
            np.matmul(ds.swapaxes(-1, -2), q, out=dk)
            dkv[c[c >= 0]] = d.reshape(rows, width, -1)[c >= 0]
        dw, db = np.empty_like(W), np.empty(sb.shape, sb.dtype)
        np.matmul(X.T, dkv, out=dw[:, kv_cols])
        np.matmul(np.ones(N, g.dtype), dkv, out=db[kv_cols])
        dx = dkv @ W[:, kv_cols].T
        if queries is not None:
            np.matmul(xq.T, dqs, out=dw[:, :E])
            np.matmul(np.ones(len(xq), g.dtype), dqs, out=db[:E])
            has = at >= 0
            dx[at[has]] += (dqs @ W[:, :E].T)[has]  # distinct rows: no two adds land on one
        sx.accum_fresh_grad(dx)
        sw.accum_fresh_grad(dw)
        sb.accum_fresh_grad(db)

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


LN_EPS = 1e-5  # added to every layer norm's variance


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm of the rows of x (N, E); returns (output, x-hat, 1 / std).

    The centred input is scaled in place into x-hat; the output buffer first
    holds the squared deviations for the variance GEMV.
    """
    xhat = x - _row_means(x)[:, None]
    y = np.multiply(xhat, xhat)
    rstd = 1.0 / np.sqrt(_row_means(y) + LN_EPS)
    xhat *= rstd[:, None]
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, rstd


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine (``layer_norm_fwd``).

    Backward reuses the saved x-hat and 1 / std.
    """
    E = a.shape[-1]
    y, xhat, rstd = layer_norm_fwd(a.data.reshape(-1, E), gain.data, bias.data)
    out = Tensor(y.reshape(a.shape), name="layer_norm")
    sa, w, sw, sb = a.slot, gain.data, gain.slot, bias.slot

    def bwd(g):
        g2 = g.reshape(-1, E)
        ones = np.ones(g2.shape[0], dtype=g2.dtype)
        t = g2 * xhat
        sw.accum_fresh_grad(ones @ t)
        sb.accum_fresh_grad(ones @ g2)
        t *= w  # dxhat * xhat
        m2 = _row_means(t)
        d = g2 * w  # dxhat
        m1 = _row_means(d)
        # rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))
        d -= m1[:, None]
        np.multiply(xhat, m2[:, None], out=t)
        d -= t
        d *= rstd[:, None]
        sa.accum_fresh_grad(d.reshape(sa.shape))

    return _record(out, bwd)


def _gelu_out(x: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GELU's output 0.5 x (1 + t) by its tanh term t, into ``out`` if given, in the one op order of every use."""
    y = np.add(t, 1.0, out=out)
    y *= x
    y *= 0.5
    return y


def gelu_fwd(x: np.ndarray, out: np.ndarray | None = None):
    """Gaussian-error linear unit, tanh approximation; returns (output, tanh term).

    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3))); differs from
    the exact erf form by < 1e-3 over the working range. Fills two buffers
    in place, the output ``out`` if given.
    """
    t = np.multiply(x, x)
    t *= _GELU_A
    t += 1.0
    y = np.multiply(x, _GELU_C, out=out)
    t *= y
    np.tanh(t, out=t)
    return _gelu_out(x, t, y), t


def _gelu_grad(x: np.ndarray, t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g (0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3A x^2)), GELU's backward by ``gelu_fwd``'s tanh term t."""
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
    return s


def gelu(a: Tensor) -> Tensor:
    """``gelu_fwd`` as a tape op; backward keeps the input and the tanh term."""
    x = a.data
    y, t = gelu_fwd(x)
    out, sa = Tensor(y, name="gelu"), a.slot

    def bwd(g):
        sa.accum_fresh_grad(_gelu_grad(x, t, g))

    return _record(out, bwd)


def feed_forward(x: Tensor, w1: Tensor, w2: Tensor) -> Tensor:
    """gelu(x @ w1) @ w2 for x (N, E) as one tape op, checked as those three ops are; backward
    keeps x, the pre-activation h and the tanh term t, and rebuilds the GELU output from h and t."""
    X, W1, W2, sx, s1, s2 = x.data, w1.data, w2.data, x.slot, w1.slot, w2.slot
    h = check_finite(X @ W1, "matmul")
    if _TAPE is None:  # GELU overwrites h one block of values at a time, and no t is kept
        for block in np.split(h.reshape(-1), range(_GELU_BLOCK, h.size, _GELU_BLOCK)):
            block[...] = gelu_fwd(block)[0]
        return _record(Tensor(check_finite(h, "gelu") @ W2, name="matmul"), None)
    f, t = gelu_fwd(h)
    out = Tensor(check_finite(f, "gelu") @ W2, name="matmul")

    def bwd(g):
        s2.accum_fresh_grad(_gelu_out(h, t).T @ g)
        dh = _gelu_grad(h, t, g @ W2.T)
        sx.accum_fresh_grad(dh @ W1.T)
        s1.accum_fresh_grad(X.T @ dh)

    return _record(out, bwd)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), name="sum_all")
    sa = a.slot

    def bwd(g):
        sa.accum_grad(g)

    return _record(out, bwd)


def mean_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.mean(), name="mean_all")
    sa, n = a.slot, a.size

    def bwd(g):
        sa.accum_grad(g / n)

    return _record(out, bwd)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean NLL of the int `targets` (N,) under the row softmax of `logits` (N, V); N >= 1.

    The NLLs are summed in float64, in row order.
    """
    if len(targets) == 0:
        raise ValueError("cross_entropy: no rows to score")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    at = np.arange(len(targets)), targets
    out = Tensor(-(logp[at].astype(np.float64).sum() / len(targets)), name="cross_entropy")
    probs = np.exp(logp)
    sl, w = logits.slot, probs.dtype.type(1.0 / len(targets))

    def bwd(g):
        d = probs.copy()
        d[at] -= 1.0
        sl.accum_fresh_grad(g * d * w)

    return _record(out, bwd)
