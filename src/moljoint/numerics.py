"""Dense float arrays with reverse-mode autodiff, plus a seeded RNG.

Numpy supplies the raw buffer arithmetic; the gradient bookkeeping lives
here. A ``Tape`` records every differentiable op in execution order as an
(output, backward) pair and replays the pairs in exact reverse order.
Storage is float32 by default; gradient tests that need headroom can
switch to float64 with ``using_dtype``.

Backward protocol: the tape calls an op's backward with its output's
gradient, and only when that output received one, so a tensor the loss
never reached keeps ``grad is None``. Every deposit, scatter-adds
included, goes through ``Tensor.accum_grad``. An op output's gradient is
released once its backward has run; leaves keep theirs.

Every op validates its output: NaN or Inf anywhere is a hard error
(``NonFiniteError``), never silently propagated.
"""

from __future__ import annotations

from contextlib import contextmanager

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

    def accum_grad(self, g: np.ndarray, at=None) -> None:
        """Add ``g`` to ``grad``, or scatter-add it into ``grad[at]`` (np.add.at)."""
        if at is not None:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, at, g)
        elif self.grad is None:
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, g)
        else:
            self.grad += g

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


def _record(out: Tensor, backward_fn) -> Tensor:
    if not np.isfinite(out.data).all():
        raise NonFiniteError(f"non-finite values in op output {out.name or '<unnamed>'}")
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
        a.accum_grad(_unbroadcast(g * bdata, a.shape))
        if isinstance(b, Tensor):
            b.accum_grad(_unbroadcast(g * a.data, b.shape))

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
            a.accum_grad((g2 @ b.data.T).reshape(a.shape))
            b.accum_grad(a.data.reshape(-1, k).T @ g2)

        return _record(out, bwd)

    out = Tensor(a.data @ b.data, name="matmul")

    def bwd(g):
        a.accum_grad(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        b.accum_grad(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _record(out, bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of `table` (V, E) at integer `ids` (any shape)."""
    ids = np.asarray(ids)
    out = Tensor(table.data[ids], name="embedding")

    def bwd(g):
        table.accum_grad(g.reshape(-1, table.shape[-1]), at=ids.reshape(-1))

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
        a.accum_grad(g, at=sel)

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


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, name="softmax_rows")

    def bwd(g):
        a.accum_grad((g - (g * out.data).sum(axis=-1, keepdims=True)) * out.data)

    return _record(out, bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data, name="layer_norm")

    def bwd(g):
        red = tuple(range(g.ndim - 1))
        gain.accum_grad((g * xhat).sum(axis=red))
        bias.accum_grad(g.sum(axis=red))
        dxhat = g * gain.data
        a.accum_grad(inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ))

    return _record(out, bwd)


def gelu(a: Tensor) -> Tensor:
    """Gaussian-error linear unit, tanh approximation.

    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3))); differs from
    the exact erf form by < 1e-3 over the working range.
    """
    x = a.data
    x2 = x * x
    t = np.tanh(_GELU_C * x * (1.0 + _GELU_A * x2))
    out = Tensor(0.5 * x * (1.0 + t), name="gelu")

    def bwd(g):
        dt = (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        a.accum_grad(g * (0.5 * (1.0 + t) + 0.5 * x * dt))

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
        logits.accum_grad(g * d * w[..., None])

    return _record(out, bwd)
