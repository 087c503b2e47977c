"""Finite-difference gradient oracle shared by the test modules.

Fourth-order central differences on a scalar-valued closure; independent
of the tape machinery it is used to check.
"""

import numpy as np

from moljoint.numerics import Tape

# the rounding error of one value of f, in ulp of f: a sum of products, not correctly rounded, can be off
# by more than one (an attention case measured 2)
ROUNDING_ULPS = 4


def numeric_grad(f, arr: np.ndarray, h: float = 3e-4) -> tuple[np.ndarray, np.ndarray]:
    """Five-point central-difference gradient of scalar f() w.r.t. arr (in place), and its rounding bound.

    The stencil's truncation error is O(h^4), so h can be large enough
    that rounding in f stays far below the tolerance wherever the true
    derivative is not tiny. The bound, one per entry, is how far rounding
    can move the quotient when each of the four values of f is off by up to
    ``ROUNDING_ULPS`` ulp: (8 + 8 + 1 + 1) / 12 of that, over h, the ulp
    taken at the largest |f|.
    """
    g = np.zeros_like(arr, dtype=np.float64)
    bound = np.zeros_like(g)
    flat = arr.reshape(-1)
    gflat, bflat = g.reshape(-1), bound.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        vals = []
        for step in (2 * h, h, -h, -2 * h):
            flat[i] = old + step
            vals.append(f())
        flat[i] = old
        fp2, fp1, fm1, fm2 = vals
        # differences first: a constant f gives exactly zero
        gflat[i] = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)
        bflat[i] = 1.5 * ROUNDING_ULPS * np.spacing(max(abs(v) for v in vals)) / h
    return g, bound


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative difference; 0 when both are (near) zero."""
    na = float(np.linalg.norm(a.reshape(-1)))
    nb = float(np.linalg.norm(b.reshape(-1)))
    diff = float(np.linalg.norm((a - b).reshape(-1)))
    denom = max(na + nb, 1e-12)
    return diff / denom


def assert_matches_differences(got: np.ndarray, fd: np.ndarray, bound: np.ndarray, tol: float, tag: str) -> None:
    """A tape gradient against ``numeric_grad``'s quotient ``fd`` and rounding ``bound``.

    Where the tape's entry stands above bound / tol, rounding cannot move
    the quotient by tol of it, and the norm-wise relative error over those
    entries must be below ``tol``. Elsewhere the quotient may be mostly
    rounding, and each entry's absolute difference must lie within its bound.
    """
    above = np.abs(got) > bound / tol
    err = rel_error(got[above], fd[above])
    over = float((np.abs(got - fd) / bound)[~above].max(initial=0.0))
    assert err < tol and over <= 1, (
        f"{tag}: rel err {err:.2e} over {int(above.sum())} of {got.size} entries; rounding bound "
        f"{bound.min():.1e}..{bound.max():.1e}, the other entries' differences up to {over:.2f} of it")


def tape_grads(build, tensors):
    """Run build() under a fresh tape, backprop, return grads per tensor.

    Grads start as None, as in training; a tensor the loss never reached
    keeps None, which reads as a zero gradient.
    """
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    return [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]


def assert_grads_match(got: dict, want: dict, tol: float) -> None:
    """Same parameters with gradients, each within ``tol`` norm-wise relative.

    A block's fused ``attn.wqkv`` and ``attn.bqkv`` are compared block by
    block. A key bias shifts a row of scores by a constant, which the
    softmax ignores: the k block of ``attn.bqkv`` has gradient 0, and both
    sides hold only rounding there.
    """
    assert got.keys() == want.keys()
    for name in got:
        fused = name.endswith(("attn.wqkv", "attn.bqkv"))
        parts = zip(*(np.split(g, 3 if fused else 1, axis=-1) for g in (got[name], want[name])))
        for i, (g, w) in enumerate(parts):
            if name.endswith("attn.bqkv") and i == 1:
                assert np.abs(g).max() < 1e-12 and np.abs(w).max() < 1e-12, name
            else:
                assert rel_error(g, w) < tol, f"{name} block {i}"
