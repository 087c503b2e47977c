"""Fused trunk kernels against the unfused reference in ``unfused.py``.

Forward outputs must agree to 1e-5 in float32 (on a random init and on the
benchmark fixture), gradients to 1e-8 relative in float64, and the cached
decoding path must agree too.
"""

from pathlib import Path

import numpy as np
import pytest

import unfused
from gradcheck import assert_grads_match, rel_error
from moljoint import datagen
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig, Task
from moljoint.numerics import NonFiniteError, Rng, Tape, Tensor
from moljoint.smiles import PAD_ID, build_vocabulary, tokenize
from moljoint.training import Checkpoint

FWD_TOL = 1e-5  # float32, absolute
GRAD_TOL = 1e-8  # float64, norm-wise relative
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"


def _random_model(seed=11, dtype=np.float32):
    lines = datagen.toy_corpus(48, seed=seed, min_atoms=6)
    vocab = build_vocabulary(lines)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=32, embed_dim=32, n_layers=2,
                      n_heads=4, ff_dim=48, predictor_hidden_dim=8)
    with nm.using_dtype(dtype):
        params = JointModelParams(cfg, Rng(seed), init_std=0.2)
    return params, M.pad_batch([tokenize(s, vocab, 32) for s in lines])


def _fixture_model():
    state = Checkpoint.load(FIXTURE)
    lines = datagen.toy_corpus(64, seed=5, min_atoms=6)
    return state.params, M.pad_batch([tokenize(s, state.vocab, 32) for s in lines])


def _outputs(params, ids, predictor):
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    return {
        "decoder": M.forward_decoder(params, ids).data,
        "encoder": M.forward_encoder(params, ids, mask).data,
        "predictor": predictor(params, ids),
    }


@pytest.mark.parametrize("source", [_random_model, _fixture_model], ids=["random", "fixture"])
def test_trunk_forward_matches_unfused(source, monkeypatch):
    """predict_target is the fused tape predictor without recording; its reference is the unfused one."""
    params, ids = source()
    got = _outputs(params, ids, M.predict_target)
    unfused.install(monkeypatch)
    want = _outputs(params, ids, lambda params, ids: M.forward_predictor(params, ids).data[:, 0])
    for name in got:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=FWD_TOL, err_msg=name)


def _loss_and_grads(params, ids, task):
    y = np.linspace(0.1, 0.9, ids.shape[0])
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    for t in params.tensors.values():
        t.grad = None
    with Tape() as tape:
        loss = M.loss_joint(params, ids, y, mask, task, dropout=0.2, rng=Rng(9))
    tape.backward(loss)
    return loss.item(), {n: t.grad.copy() for n, t in params.tensors.items() if t.grad is not None}


@pytest.mark.parametrize("task", list(Task), ids=[t.value for t in Task])
def test_trunk_gradients_match_unfused_in_float64(task, monkeypatch):
    """Same loss and gradients, with every dropout mask drawn in the same place."""
    params, ids = _random_model(dtype=np.float64)
    ids = ids[:8]
    with nm.using_dtype(np.float64):
        loss, got = _loss_and_grads(params, ids, task)
        unfused.install(monkeypatch)
        want_loss, want = _loss_and_grads(params, ids, task)
    assert abs(loss - want_loss) <= GRAD_TOL * abs(want_loss)
    assert_grads_match(got, want, GRAD_TOL)


def test_cached_decoding_matches_unfused(monkeypatch):
    """The decode step runs the array kernels, so its reference is the unfused full prefix."""
    params, ids = _random_model()
    ids = ids[:6, :16]
    cache = M.KVCache(params, len(ids))
    got = [M.forward_decoder(params, ids[:, :4], cache=cache).data]
    got += [M.forward_decoder(params, ids[:, t - 1:t], cache=cache).data for t in range(5, 17)]
    unfused.install(monkeypatch)
    want = M.forward_decoder(params, ids).data
    real = ids != PAD_ID  # PAD trails, and the cache does not hide PAD keys
    np.testing.assert_allclose(np.concatenate(got, axis=1)[real], want[real], rtol=0, atol=FWD_TOL)


@pytest.mark.parametrize("op", ["layer_norm", "gelu", "embedding", "feed_forward", "dropout"])
def test_single_kernels_match_unfused(op):
    rng = Rng(4)

    def run(fn, dtype):
        with nm.using_dtype(dtype):
            a = Tensor(rng.normal((5, 7, 64), std=2.0))
            args = {
                "layer_norm": lambda: (a, Tensor(rng.normal((64,))), Tensor(rng.normal((64,)))),
                "gelu": lambda: (a,),
                "embedding": lambda: (Tensor(rng.normal((12, 64))), rng.integers(0, 12, (5, 7))),
                "feed_forward": lambda: (Tensor(a.data.reshape(35, 64)), Tensor(rng.normal((64, 24), std=0.1)),
                                         Tensor(rng.normal((24, 64), std=0.1))),
                "dropout": lambda: (a, rng.random((5, 7, 64)) >= 0.3, 0.3),
            }[op]()
            proj = rng.normal((5, 7, 64))
            for t in args:
                if isinstance(t, Tensor):
                    t.grad = None
            with Tape() as tape:
                out = fn(*args)
                loss = nm.sum_all(nm.mul(out, proj.reshape(out.shape)))
            tape.backward(loss)
            return out.data, [t.grad for t in args if isinstance(t, Tensor)]

    for dtype, tol in ((np.float32, FWD_TOL), (np.float64, GRAD_TOL)):
        state = rng.get_state()
        out, grads = run(getattr(nm, op), dtype)
        rng.set_state(state)
        want_out, want_grads = run(getattr(unfused, op), dtype)
        np.testing.assert_allclose(out, want_out, rtol=0, atol=FWD_TOL)
        for g, w in zip(grads, want_grads):
            assert rel_error(g, w) < tol


def test_trunk_records_one_attention_op_per_layer():
    params, ids = _random_model()
    with Tape() as tape:
        M.loss_decoder(params, ids, dropout=0.1, rng=Rng(0))
    names = [out.name for out, _ in tape._ops]
    assert len(M._length_groups((ids != PAD_ID).sum(axis=1))) > 1
    assert names.count("attention") == params.config.n_layers
    assert not {"softmax_rows", "transpose", "reshape"} & set(names)


def test_attention_softmax_is_stable_at_large_scores():
    """Scores in the thousands: exp overflows unless each row's max is subtracted."""
    rng = Rng(8)
    x = rng.normal((3, 6, 4))
    x[:, -1] *= 2.0  # the last key holds the largest scores of many rows
    eye = np.eye(4) * 30.0
    args = [np.hstack([eye, eye, np.eye(4)]), np.zeros(12), np.eye(4), np.zeros(4)]
    x, cells = x.reshape(18, 4), [np.arange(18).reshape(3, 6)]
    got = nm.attention(Tensor(x), *map(Tensor, args), cells, False, 1)
    with nm.using_dtype(np.float64):
        want = unfused.attention(Tensor(x), *map(Tensor, args), cells, False, 1)
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-4)


@pytest.mark.parametrize("where", ["wq", "x"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_raises_from_attention(where, value):
    rng = Rng(6)
    E, n_heads = 8, 2
    x = Tensor(rng.normal((10, E)))
    wqkv = Tensor(np.hstack([rng.normal((E, E)) for _ in range(3)]))
    params = [wqkv, Tensor(np.zeros(3 * E)), Tensor(rng.normal((E, E))), Tensor(np.zeros(E))]
    (x if where == "x" else wqkv).data[1, 2] = value  # "wq": a weight in the q block
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(NonFiniteError):
        nm.attention(x, *params, [np.arange(10).reshape(2, 5)], True, n_heads)
