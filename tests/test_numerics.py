"""Array-op unit tests: worked examples plus randomized finite-difference checks."""

import inspect
import zlib

import numpy as np
import pytest

from moljoint import numerics as nm
from moljoint.model import JointModelParams, KVCache, ModelConfig
from moljoint.numerics import NonFiniteError, Rng, Tape, Tensor

from gradcheck import numeric_grad, rel_error, tape_grads

N_RANDOM_CASES = 100
FD_TOL = 1e-4  # float64 shadow mode


# ---------------------------------------------------------------- worked examples

def test_matmul_identity():
    m = Tensor(np.arange(9, dtype=np.float64).reshape(3, 3))
    eye = Tensor(np.eye(3))
    np.testing.assert_allclose(nm.matmul(eye, m).data, m.data)


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    np.testing.assert_allclose(nm.matmul(a, b).data, [[2.0], [4.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        nm.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_grad_of_sum_is_ones_times_bT():
    rng = Rng(0)
    with nm.using_dtype(np.float64):
        a = Tensor(rng.normal((5, 7)))
        b = Tensor(rng.normal((7, 3)))
        (ga, gb) = tape_grads(lambda: nm.sum_all(nm.matmul(a, b)), [a, b])
        np.testing.assert_allclose(ga, np.ones((5, 3)) @ b.data.T, rtol=1e-12)
        fd = numeric_grad(lambda: float((a.data @ b.data).sum()), a.data, h=1e-3)
        assert rel_error(ga, fd) < FD_TOL


def test_softmax_symmetry():
    out = nm.softmax_rows(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)


def test_softmax_large_inputs_no_overflow():
    out = nm.softmax_rows(Tensor([1000.0, 0.0]))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)


def test_softmax_rows_sum_to_one_at_magnitude_1e4():
    rng = Rng(3)
    x = Tensor(rng.normal((40, 9), std=1e4))
    sums = nm.softmax_rows(x).data.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-6)


def test_layer_norm_constant_row_is_zero():
    g = Tensor(np.ones(4))
    b = Tensor(np.zeros(4))
    out = nm.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_standardization():
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = nm.layer_norm(Tensor([1.0, 3.0]), g, b)
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-4)


def test_gelu_worked_values():
    x = Tensor([0.0, 1.0, 8.0, -8.0])
    out = nm.gelu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - 0.8412) < 1e-3  # Phi(1) * 1, tanh form
    np.testing.assert_allclose(out[2], 8.0, atol=1e-4)
    np.testing.assert_allclose(out[3], 0.0, atol=1e-4)


def test_backward_sum_gives_ones_and_constant_gives_zeros():
    p = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = nm.sum_all(p)
    tape.backward(loss)
    np.testing.assert_allclose(p.grad, 1.0)

    q = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape() as tape:
        loss = Tensor(3.0)  # constant: q is untouched
    tape.backward(loss)
    assert q.grad is None  # no gradient reached q: it reads as zero


def test_backward_releases_op_output_grads_and_keeps_leaf_grads():
    w = Tensor(np.arange(6.0).reshape(3, 2) / 10)
    x = Tensor(np.ones((4, 3)))
    with Tape() as tape:
        h = nm.gelu(nm.matmul(x, w))
        loss = nm.mean_all(nm.mul(h, h))
    tape.backward(loss)
    assert w.grad is not None and x.grad is not None
    assert [out.grad for out, _ in tape._ops] == [None] * len(tape)
    assert loss.grad is None and h.grad is None


def test_backward_rejects_non_scalar_root():
    p = Tensor(np.ones(3))
    with Tape() as tape:
        out = nm.mul(p, 2.0)
    with pytest.raises(ValueError):
        tape.backward(out)


def test_non_finite_output_is_hard_error():
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            nm.mul(Tensor([1e30]), Tensor([1e30]))  # overflows float32


def test_nested_tapes_rejected():
    with Tape():
        with pytest.raises(RuntimeError):
            Tape().__enter__()


def test_cross_entropy_matches_hand_log_softmax():
    rng = Rng(1)
    logits = rng.normal((4, 7))
    targets = np.array([1, 0, 6, 3])
    select = np.array([True, True, False, True])
    t = Tensor(logits)
    with nm.using_dtype(np.float64):
        out = nm.cross_entropy(Tensor(logits[select]), targets[select])
    # oracle: independent scalar log-softmax
    want = 0.0
    for i in range(4):
        if not select[i]:
            continue
        z = logits[i] - logits[i].max()
        want += -(z[targets[i]] - np.log(np.exp(z).sum()))
    want /= select.sum()
    assert abs(out.item() - want) < 1e-5


def test_cross_entropy_requires_a_row():
    with pytest.raises(ValueError):
        nm.cross_entropy(Tensor(np.zeros((0, 3))), np.zeros(0, dtype=int))


def test_add_gradients_do_not_share_memory():
    """add hands the same g to both inputs: each first deposit must copy it."""
    a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4)))
    with Tape() as tape:
        loss = nm.sum_all(nm.mul(nm.add(a, b), np.arange(12.0).reshape(3, 4)))
    tape.backward(loss)
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0
    np.testing.assert_array_equal(b.grad, np.arange(12.0).reshape(3, 4))


def test_add_sums_gradients_over_leading_axes_only():
    a, b = Tensor(np.ones((3, 4))), Tensor(np.ones(4))
    with Tape() as tape:
        loss = nm.sum_all(nm.add(a, b))
    tape.backward(loss)
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))
    c = Tensor(np.ones((1, 4)))  # its size-1 axis broadcasts, and nothing sums the gradient over it
    with Tape() as tape:
        loss = nm.sum_all(nm.add(a, c))
    with pytest.raises(ValueError):
        tape.backward(loss)


def test_fresh_matmul_input_gradient_is_adopted_not_copied(monkeypatch):
    copied = []
    accum_grad = nm.Slot.accum_grad

    def spy(self, g):
        copied.append(self)
        accum_grad(self, g)

    monkeypatch.setattr(nm.Slot, "accum_grad", spy)
    rng = Rng(1)
    a, b = Tensor(rng.normal((2, 5, 3))), Tensor(rng.normal((3, 4)))
    with Tape() as tape:
        out = nm.matmul(a, b)
        loss = nm.sum_all(out)
    tape.backward(loss)
    assert copied == [out.slot]  # only sum_all's broadcast deposit into the matmul output
    np.testing.assert_allclose(a.grad, np.ones((2, 5, 4)) @ b.data.T, rtol=1e-6)
    np.testing.assert_allclose(b.grad, a.data.reshape(-1, 3).T @ np.ones((10, 4)), rtol=1e-6)


def test_accum_fresh_grad_adopts_only_matching_contiguous_buffers():
    t = Tensor(np.zeros((2, 3)))
    g = np.ones((2, 3), dtype=t.data.dtype)
    t.slot.accum_fresh_grad(g)
    assert t.grad is g
    t.slot.accum_fresh_grad(np.ones((2, 3), dtype=t.data.dtype))  # second deposit adds
    np.testing.assert_array_equal(t.grad, 2.0)
    for other in (np.ones((3, 2), dtype=t.data.dtype).T, np.ones((2, 3), dtype=np.float64), np.ones(3)):
        t.grad = None
        t.slot.accum_fresh_grad(other)
        assert t.grad is not other and not np.shares_memory(t.grad, other)
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))


def test_gather_picks_rows_zero_fills_and_scatters_back():
    a = Tensor(np.arange(8.0).reshape(4, 2))
    idx = np.array([[2, -1], [0, 3]])
    with Tape() as tape:
        out = nm.gather(a, idx)
        loss = nm.sum_all(nm.mul(out, np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]))
    np.testing.assert_array_equal(out.data, [[[4, 5], [0, 0]], [[0, 1], [6, 7]]])
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad[:, 0], [3, 0, 1, 4])


def test_attention_key_value_sources_agree():
    """Every cell, the cells as queries, a query subset, another packing order, an empty
    cell at the end or in mid-row, causal or not, and a KV cache give the same rows."""
    rng = Rng(12)
    E, n_heads = 6, 2
    x = Tensor(rng.normal((10, E)))
    params = [Tensor(rng.normal((E, 3 * E))), Tensor(rng.normal((3 * E,))),
              Tensor(rng.normal((E, E))), Tensor(rng.normal((E,)))]
    cells = [np.arange(10).reshape(2, 5)]
    full = nm.attention(x, *params, cells, False, n_heads).data
    close = lambda got, want: np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)  # noqa: E731
    close(nm.attention(x, *params, cells, False, n_heads, queries=cells).data, full)
    some = [np.array([[4, 1], [5, 8]])]
    close(nm.attention(x, *params, cells, False, n_heads, queries=some).data, full[some[0].ravel()])
    order = rng._gen.permutation(10)  # packed row n holds the cell of row order[n]
    moved = nm.attention(Tensor(x.data[order]), *params, [np.argsort(order)[cells[0]]], False, n_heads).data
    close(moved, full[order])
    # the second row one cell shorter, in a group of its own; its empty cell, last or in mid-row,
    # is no key, so the rows agree with the short row's own group, and x's row 9, in no cell,
    # reads attention zero: the output bias
    for causal in (False, True):
        short = nm.attention(Tensor(x.data[5:9]), *params, [np.arange(4)[None]], causal, n_heads).data
        for row in ([5, 6, 7, 8, -1], [5, 6, -1, 7, 8]):
            split = nm.attention(x, *params, [cells[0][:1], np.array([row])], causal, n_heads).data
            if not causal:
                close(split[:5], full[:5])
            close(split[5:9], short)
            close(split[9], params[3].data)
    # a KV cache filled by columns 0..3 answers the last column's query over all five,
    # through the array kernels the decode step runs
    cache = KVCache(JointModelParams(ModelConfig(vocab_size=1, max_len=5, embed_dim=E, n_layers=1,
                                                 n_heads=n_heads)), 2)
    wqkv, bqkv, wo, bo = (t.data for t in params)
    for cols in (slice(0, 4), slice(4, 5)):
        q, k, v = nm.split_heads(nm.linear(x.data.reshape(2, 5, E)[:, cols].reshape(-1, E), wqkv, bqkv),
                                 2, n_heads, E)
        k, v = cache.extend(0, k, v)
    last = nm.linear(nm.attention_fwd(q, k.swapaxes(-1, -2), v, None)[2], wo, bo)
    close(last, full.reshape(2, 5, E)[:, 4])


def test_causal_attention_refuses_query_rows():
    """The causal triangle follows the cells' order, which query rows may not keep."""
    x = Tensor(Rng(13).normal((4, 4)))
    params = [Tensor(np.ones((4, 12))), Tensor(np.zeros(12)), Tensor(np.eye(4)), Tensor(np.zeros(4))]
    cells = [np.arange(4).reshape(1, 4)]
    with pytest.raises(ValueError, match="causal"):
        nm.attention(x, *params, cells, True, 2, queries=[np.array([[3, 0]])])


def test_rng_determinism_bitwise():
    a, b = Rng(1234), Rng(1234)
    for _ in range(3):
        x, y = a.normal((4, 5)), b.normal((4, 5))
        assert x.tobytes() == y.tobytes()
        assert a.integers(0, 100, 7).tobytes() == b.integers(0, 100, 7).tobytes()


def test_op_sequence_determinism_bitwise():
    def run(seed):
        rng = Rng(seed)
        x = Tensor(rng.normal((6, 6)))
        y = nm.softmax_rows(nm.matmul(x, Tensor(rng.normal((6, 6)))))
        return nm.gelu(y).data.tobytes()

    assert run(7) == run(7)


def test_rng_state_roundtrip():
    rng = Rng(5)
    rng.random(10)
    state = rng.get_state()
    a = rng.random(4)
    rng2 = Rng(0)
    rng2.set_state(state)
    np.testing.assert_array_equal(a, rng2.random(4))


# ---------------------------------------------------------- randomized FD checks

def _random_shape(rng, max_rank=3, max_extent=5):
    rank = int(rng.integers(1, max_rank + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(rank))


def _projected(build_out, proj):
    return lambda: nm.sum_all(nm.mul(build_out(), proj))


def _check(build_out, tensors, proj, case_tag, blocks=None):
    """``blocks`` maps a tensor's position to the last-axis slices checked one by one."""
    grads = tape_grads(_projected(build_out, proj), tensors)
    for i, (t, g) in enumerate(zip(tensors, grads)):
        fd = numeric_grad(lambda: float((build_out().data * proj).sum()), t.data)
        for c in (blocks or {}).get(i, [slice(None)]):
            err = rel_error(g[..., c], fd[..., c])
            assert err < FD_TOL, f"{case_tag}: rel err {err:.2e}"


RANDOM_GRAD_CASES = [
    "add", "sub", "mul", "matmul", "softmax_rows", "layer_norm", "layer_norm_extent2",
    "gelu", "embedding", "reshape", "transpose", "take", "pad_cols", "sum_all", "mean_all",
    "cross_entropy", "attention", "attention_kv", "gather", "feed_forward", "dropout",
]


def test_every_tape_op_has_a_randomized_gradient_case():
    """The tape ops are the public numerics functions that call _record."""
    tape_ops = {
        name for name, fn in vars(nm).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == nm.__name__ and "_record" in fn.__code__.co_names
    }
    assert {"matmul", "cross_entropy"} <= tape_ops
    assert tape_ops <= set(RANDOM_GRAD_CASES), sorted(tape_ops - set(RANDOM_GRAD_CASES))


@pytest.mark.parametrize("op_name", RANDOM_GRAD_CASES)
def test_randomized_gradients(op_name):
    rng = Rng(zlib.crc32(op_name.encode()))
    with nm.using_dtype(np.float64):
        for case in range(N_RANDOM_CASES):
            blocks = None
            if op_name in ("add", "sub", "mul"):
                shape = _random_shape(rng)
                # second operand broadcastable: same shape or trailing slice
                b_shape = shape if rng.random() < 0.5 else shape[-1:]
                a = Tensor(rng.normal(shape))
                b = Tensor(rng.normal(b_shape))
                out = lambda: getattr(nm, op_name)(a, b)
                tensors = [a, b]
            elif op_name == "matmul":
                n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
                batched = rng.random() < 0.5
                a_shape = (2, 3, n, k) if batched else (n, k)
                b_shape = (2, 3, k, m) if batched else (k, m)
                a, b = Tensor(rng.normal(a_shape)), Tensor(rng.normal(b_shape))
                out = lambda: nm.matmul(a, b)
                tensors = [a, b]
            elif op_name == "softmax_rows":
                a = Tensor(rng.normal(_random_shape(rng), std=3.0))
                out = lambda: nm.softmax_rows(a)
                tensors = [a]
            elif op_name in ("layer_norm", "layer_norm_extent2"):
                shape = _random_shape(rng)
                if op_name == "layer_norm_extent2":
                    # the output barely depends on the input here: d/da is ~eps-sized
                    shape = shape[:-1] + (2,)
                a = Tensor(rng.normal(shape))
                g = Tensor(rng.normal((shape[-1],)))
                b = Tensor(rng.normal((shape[-1],)))
                out = lambda: nm.layer_norm(a, g, b)
                tensors = [a, g, b]
            elif op_name == "gelu":
                a = Tensor(rng.normal(_random_shape(rng), std=2.0))
                out = lambda: nm.gelu(a)
                tensors = [a]
            elif op_name == "embedding":
                table = Tensor(rng.normal((6, 4)))
                ids = rng.integers(0, 6, (3, 5))
                out = lambda: nm.embedding(table, ids)
                tensors = [table]
            elif op_name == "reshape":
                a = Tensor(rng.normal((2, 3, 4)))
                out = lambda: nm.reshape(a, (6, 4))
                tensors = [a]
            elif op_name == "transpose":
                a = Tensor(rng.normal((2, 3, 4)))
                out = lambda: nm.transpose(a, (2, 0, 1))
                tensors = [a]
            elif op_name == "take":
                a = Tensor(rng.normal((3, 4, 2)))
                out = lambda: nm.take(a, 1, axis=1)
                tensors = [a]
            elif op_name == "pad_cols":
                shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
                total = shape[1] + int(rng.integers(1, 4))
                a = Tensor(rng.normal(shape))
                out = lambda: nm.pad_cols(a, total)
                tensors = [a]
            elif op_name in ("sum_all", "mean_all"):
                a = Tensor(rng.normal(_random_shape(rng)))
                out = lambda: getattr(nm, op_name)(a)
                tensors = [a]
            elif op_name == "cross_entropy":
                B, V = int(rng.integers(1, 5)), int(rng.integers(2, 7))
                logits = Tensor(rng.normal((B, V)))
                targets = rng.integers(0, V, B)
                select = rng.random(B) < 0.7
                if not select.any():
                    select[0] = True
                logits = Tensor(logits.data[select])
                out = lambda: nm.cross_entropy(logits, targets[select])
                tensors = [logits]
            elif op_name in ("attention", "attention_kv"):
                # 1-2 groups of packed rows in a random order, any of each row's cells but the
                # first possibly empty (so no row is all masked), and one last row of x in no cell
                # (as a row no cell lists is); attention cycles through causal/bidirectional, each with and
                # without dropout; attention_kv queries Q of each row's cells, empty ones included
                n_heads = int(rng.integers(1, 3))
                E = n_heads * int(rng.integers(1, 3))
                shapes = [(int(rng.integers(1, 3)), int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 3)))]
                full = [(rng.random((b, w)) < 0.6) | (np.arange(w) == 0) for b, w in shapes]
                rows = iter(rng._gen.permutation(sum(int(f.sum()) for f in full)))
                cells = [np.array([[next(rows) if c else -1 for c in r] for r in f]) for f in full]
                x = Tensor(rng.normal((sum(int(f.sum()) for f in full) + 1, E)))
                params = [Tensor(rng.normal((E, 3 * E))), Tensor(rng.normal((3 * E,))),
                          Tensor(rng.normal((E, E))), Tensor(rng.normal((E,)))]
                causal = op_name == "attention" and case % 2 == 1
                queries = None
                if op_name == "attention_kv":
                    Q = [int(rng.integers(1, c.shape[1] + 1)) for c in cells]
                    queries = [np.stack([r[rng._gen.permutation(len(r))[:q]] for r in c]) for c, q in zip(cells, Q)]
                keeps = None if case % 4 < 2 else [
                    rng.random((len(c), n_heads, q.shape[1], c.shape[1])) >= 0.3
                    for c, q in zip(cells, queries or cells)]
                out = lambda: nm.attention(x, *params, cells, causal, n_heads, keeps, queries, 0.3)
                tensors = [x, *params]
                # wqkv and bqkv block by block, but not the k block of bqkv: it shifts a row
                # of scores by a constant, which the softmax ignores, so its gradient is 0
                # and differences see only rounding
                q, k, v = (slice(i * E, (i + 1) * E) for i in range(3))
                blocks = {1: [q, k, v], 2: [q, v]}
            elif op_name == "gather":
                # distinct row numbers in any order and shape, some of them -1
                N, E = int(rng.integers(1, 6)), int(rng.integers(1, 4))
                a = Tensor(rng.normal((N, E)))
                shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)))
                idx = np.where(rng.random(shape) < 0.3, -1, np.resize(rng._gen.permutation(max(N, 6)), shape))
                idx[idx >= N] = -1
                out = lambda: nm.gather(a, idx)
                tensors = [a]
            elif op_name == "feed_forward":
                n, e, f = (int(rng.integers(1, 6)) for _ in range(3))
                x, w1, w2 = Tensor(rng.normal((n, e))), Tensor(rng.normal((e, f))), Tensor(rng.normal((f, e)))
                out = lambda: nm.feed_forward(x, w1, w2)
                tensors = [x, w1, w2]
            elif op_name == "dropout":
                shape = _random_shape(rng)
                rate = float(rng.random()) * 0.9
                a, keep = Tensor(rng.normal(shape)), rng.random(shape) >= rate
                out = lambda: nm.dropout(a, keep, rate)
                tensors = [a]
            else:  # pragma: no cover
                raise AssertionError(op_name)

            proj = np.asarray(rng.normal(out().shape)) if op_name != "cross_entropy" else np.asarray(1.0)
            if op_name in ("sum_all", "mean_all"):
                proj = np.asarray(rng.normal())
            _check(out, tensors, proj, f"{op_name}[{case}]", blocks)
