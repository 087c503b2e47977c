"""Model-level tests: masking semantics, loss contracts, weight sharing."""

import numpy as np
import pytest

from moljoint import model as M
from moljoint import numerics as nm
from moljoint import training as T
from moljoint.model import ModelConfig, JointModelParams, Task
from moljoint.numerics import Rng, Tape
from moljoint.smiles import EOS_ID, MASK_ID, PAD_ID, build_vocabulary, tokenize

from gradcheck import rel_error


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary(["CCO", "CN(C)CO", "C1CC1N", "C=CC#N"])


@pytest.fixture(scope="module")
def cfg(vocab):
    return ModelConfig(vocab_size=len(vocab), max_len=24, embed_dim=16,
                       n_layers=2, n_heads=2, ff_dim=32, predictor_hidden_dim=8)


@pytest.fixture(scope="module")
def params(cfg):
    return JointModelParams(cfg, Rng(0))


@pytest.fixture(scope="module")
def batch(vocab):
    seqs = [tokenize(s, vocab, 24) for s in ["CCO", "CN(C)CO", "C1CC1N"]]
    return M.pad_batch(seqs)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embed_dim=10, n_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError, match="n_heads"):
        ModelConfig(vocab_size=10, n_heads=0)  # checked before embed_dim % n_heads


def test_parameter_count_is_pure_function_of_config(cfg):
    a = JointModelParams(cfg, Rng(0))
    b = JointModelParams(cfg, Rng(99))
    assert a.n_params() == b.n_params()
    # analytic count: embeddings + per-layer blocks + final norm + head + predictor
    E, F, V, L, H = cfg.embed_dim, cfg.ff_dim, cfg.vocab_size, cfg.n_layers, cfg.predictor_hidden_dim
    per_layer = 2 * E + 4 * E * E + 4 * E + 2 * E + E * F + F * E
    want = V * E + cfg.max_len * E + L * per_layer + 2 * E + E * V + (E * H + H) + (H * 1 + 1)
    assert a.n_params() == want


def test_single_trunk_shared_between_modes(params, batch):
    """A trunk perturbation moves decoder logits AND predictor output."""
    dec0 = M.forward_decoder(params, batch).data.copy()
    pred0 = M.predict_target(params, batch).copy()
    w = params["h0.attn.wqkv"]
    old = w.data.copy()
    # random, not uniform: layer norm makes each input row sum to zero, so a
    # constant added to every entry of the q block cancels up to float32 rounding
    w.data += Rng(5).normal(w.shape, std=0.05)
    dec1 = M.forward_decoder(params, batch).data
    pred1 = M.predict_target(params, batch)
    w.data[...] = old
    assert np.abs(dec1 - dec0).max() > 1e-7
    assert np.abs(pred1 - pred0).max() > 1e-7


def test_causal_masking_exact(params, vocab, batch):
    """Perturbing token j leaves causal logits at positions i < j unchanged."""
    rng = Rng(42)
    base = M.forward_decoder(params, batch).data
    B, S = batch.shape
    for _ in range(50):
        row = int(rng.integers(0, B))
        j = int(rng.integers(1, S))
        perturbed = batch.copy()
        new_tok = int(rng.integers(4, len(vocab)))
        if perturbed[row, j] == new_tok or perturbed[row, j] == PAD_ID:
            continue
        perturbed[row, j] = new_tok
        out = M.forward_decoder(params, perturbed).data
        assert np.array_equal(out[row, :j], base[row, :j])


def test_encoder_uses_bidirectional_context(params, batch, vocab):
    """A visible-token change shows up in logits at an earlier masked position."""
    mask = np.zeros_like(batch, dtype=bool)
    mask[0, 1] = True  # hide an early position
    base = M.forward_encoder(params, batch, mask).data
    perturbed = batch.copy()
    j = 3  # later, visible position
    perturbed[0, j] = (perturbed[0, j] - 4 + 1) % (len(vocab) - 4) + 4
    out = M.forward_encoder(params, perturbed, mask).data
    assert np.abs(out[0, 1] - base[0, 1]).max() > 0


def test_fresh_model_next_token_nll_near_uniform(cfg, batch):
    params = JointModelParams(cfg, Rng(7))
    loss = M.loss_decoder(params, batch).item()
    assert abs(loss - np.log(cfg.vocab_size)) < 0.1 * np.log(cfg.vocab_size)


def test_zero_model_losses_are_exactly_uniform(cfg, batch):
    """All-zero weights give exactly uniform logits: loss == ln(V)."""
    params = JointModelParams(cfg, rng=None)
    assert M.loss_decoder(params, batch).item() == pytest.approx(np.log(cfg.vocab_size), abs=1e-5)
    mask = np.zeros_like(batch, dtype=bool)
    mask[:, 2] = True
    assert M.loss_encoder(params, batch, mask).item() == pytest.approx(np.log(cfg.vocab_size), abs=1e-5)


def test_pad_transparency(params, vocab):
    seq = tokenize("CCO", vocab, 24)
    ids_short = M.pad_batch([seq])
    ids_padded = np.pad(ids_short, ((0, 0), (0, 5)), constant_values=PAD_ID)
    n = len(seq)
    dec_a = M.forward_decoder(params, ids_short).data
    dec_b = M.forward_decoder(params, ids_padded).data
    np.testing.assert_array_equal(dec_a[0], dec_b[0, :n])
    assert M.loss_decoder(params, ids_short).item() == pytest.approx(
        M.loss_decoder(params, ids_padded).item(), abs=1e-7)
    mask = np.zeros((1, n), dtype=bool)
    mask[0, 1] = True
    mask_padded = np.zeros((1, n + 5), dtype=bool)
    mask_padded[0, 1] = True
    enc_a = M.forward_encoder(params, ids_short, mask).data
    enc_b = M.forward_encoder(params, ids_padded, mask_padded).data
    np.testing.assert_array_equal(enc_a[0], enc_b[0, :n])


@pytest.mark.parametrize("fault", ["all_pad_row", "pad_in_column_0", "pad_inside_a_row"])
def test_malformed_id_rows_are_rejected(params, batch, fault):
    """Each id row must be non-PAD ids and then only PAD: a PAD cell before a token, or a row
    of PAD alone, would be computed as another row."""
    ids = batch.copy()
    if fault == "all_pad_row":
        ids[1] = PAD_ID
    elif fault == "pad_in_column_0":
        ids[:, 0] = PAD_ID
    else:
        ids[0, 2] = PAD_ID
    mask = np.zeros(ids.shape, dtype=bool)
    mask[2, 1] = True
    passes = [
        lambda: M.forward_decoder(params, ids),
        lambda: M.loss_joint(params, ids, None, None, Task.GENERATION),
        lambda: M.loss_joint(params, ids, np.zeros(len(ids)), mask, Task.PREDICTION),
        lambda: M.predict_target(params, ids),
    ]
    for run in passes:
        with pytest.raises(ValueError, match="followed only by PAD"):
            run()


def test_overlength_input_rejected(params, vocab):
    ids = np.full((1, 30), PAD_ID, dtype=np.int64)
    ids[0, 0] = 0
    ids[0, 1] = EOS_ID
    with pytest.raises(ValueError):
        M.forward_decoder(params, ids)
    # cached calls: cached length plus new columns must fit too
    cols = lambda n: np.full((1, n), MASK_ID + 1, dtype=np.int64)  # noqa: E731
    cache = M.KVCache(params, 1)
    M.forward_decoder(params, cols(20), cache=cache)
    with pytest.raises(ValueError, match="sequence length 25 exceeds max_len 24"):
        M.forward_decoder(params, cols(5), cache=cache)
    M.forward_decoder(params, cols(4), cache=cache)
    assert cache.length == 24
    with pytest.raises(ValueError, match="sequence length 25 exceeds max_len 24"):
        M.forward_decoder(params, cols(1), cache=cache)


def test_kv_cache_rejected_while_a_tape_records(params, batch):
    """Cached keys and values are constants: gradients would stop at earlier steps."""
    cache = M.KVCache(params, len(batch))
    M.forward_decoder(params, batch[:, :1], cache=cache)
    with Tape():
        with pytest.raises(RuntimeError, match="inference only"):
            M.forward_decoder(params, batch[:, 1:2], cache=cache)
    assert cache.length == 1


def test_loss_encoder_empty_mask_is_zero(params, batch):
    mask = np.zeros_like(batch, dtype=bool)
    assert M.loss_encoder(params, batch, mask).item() == 0.0


def test_loss_encoder_matches_hand_oracle(params, batch):
    rng = Rng(3)
    mask = M.sample_mask_vector(batch, 0.4, rng)
    assert mask.any()
    loss = M.loss_encoder(params, batch, mask).item()
    logits = M.forward_encoder(params, batch, mask).data.astype(np.float64)
    total = 0.0
    for b, s in zip(*np.nonzero(mask)):
        z = logits[b, s] - logits[b, s].max()
        total += -(z[batch[b, s]] - np.log(np.exp(z).sum()))
    assert abs(loss - total / mask.sum()) < 1e-5


def test_loss_decoder_matches_hand_oracle(params, batch):
    loss = M.loss_decoder(params, batch).item()
    logits = M.forward_decoder(params, batch).data.astype(np.float64)
    total, count = 0.0, 0
    for b in range(batch.shape[0]):
        for s in range(batch.shape[1] - 1):
            tgt = batch[b, s + 1]
            if tgt == PAD_ID:
                continue
            z = logits[b, s] - logits[b, s].max()
            total += -(z[tgt] - np.log(np.exp(z).sum()))
            count += 1
    assert abs(loss - total / count) < 1e-5


def test_loss_prediction_worked_values(cfg, batch):
    params = JointModelParams(cfg, rng=None)  # predictor output exactly 0
    y = np.zeros(batch.shape[0])
    assert M.loss_prediction(params, batch, y).item() == pytest.approx(0.0, abs=1e-12)
    y = np.ones(batch.shape[0])
    assert M.loss_prediction(params, batch, y).item() == pytest.approx(0.5, abs=1e-6)


def test_prediction_head_deterministic_and_finite(params, batch):
    a = M.predict_target(params, batch)
    b = M.predict_target(params, batch)
    np.testing.assert_array_equal(a, b)
    assert np.isfinite(a).all()


def test_joint_loss_branches(params, batch):
    rng = Rng(11)
    mask = M.sample_mask_vector(batch, 0.3, rng)
    y = np.array([0.2, 0.4, 0.9])
    gen = M.loss_joint(params, batch, y, mask, Task.GENERATION).item()
    assert gen == pytest.approx(M.loss_decoder(params, batch).item(), abs=1e-7)
    # unlabeled prediction branch reduces to the encoder term alone
    enc_only = M.loss_joint(params, batch, None, mask, Task.PREDICTION).item()
    assert enc_only == pytest.approx(M.loss_encoder(params, batch, mask).item(), abs=1e-7)
    # supervised prediction branch is the sum of its two parts
    total = M.loss_joint(params, batch, y, mask, Task.PREDICTION).item()
    want = M.loss_encoder(params, batch, mask).item() + M.loss_prediction(params, batch, y).item()
    assert total == pytest.approx(want, rel=1e-6)


def _clear_grads(params):
    for t in params.tensors.values():
        t.grad = None


def test_generation_branch_never_touches_predictor(params, batch):
    _clear_grads(params)
    with Tape() as tape:
        loss = M.loss_joint(params, batch, None, None, Task.GENERATION)
    tape.backward(loss)
    for name in params.predictor_names():
        assert params[name].grad is None
    # trunk received signal
    assert np.abs(params["tok_emb"].grad).max() > 0
    # every trunk parameter keeps its grad; op outputs released theirs
    assert all(params[n].grad is not None for n in params.names() if not n.startswith("pred."))
    assert all(out.grad is None for out, _ in tape._ops)


def test_encoder_loss_has_zero_predictor_gradient(params, batch):
    rng = Rng(2)
    mask = M.sample_mask_vector(batch, 0.3, rng)
    _clear_grads(params)
    with Tape() as tape:
        loss = M.loss_encoder(params, batch, mask)
    tape.backward(loss)
    for name in params.predictor_names():
        assert params[name].grad is None


def test_predictor_pass_skips_the_token_head(params, batch, monkeypatch):
    """The predictor reads position 0 of the hidden states: no token logits."""
    weights = []
    matmul = nm.matmul

    def spy(a, b):
        weights.append(b)
        return matmul(a, b)

    monkeypatch.setattr(nm, "matmul", spy)
    M.forward_predictor(params, batch)
    assert weights and not any(w is params["head.w"] for w in weights)
    M.forward_decoder(params, batch)
    assert weights[-1] is params["head.w"]


def test_all_losses_non_negative(params, batch):
    rng = Rng(4)
    mask = M.sample_mask_vector(batch, 0.3, rng)
    y = np.array([0.1, 0.5, 0.9])
    assert M.loss_decoder(params, batch).item() >= 0
    assert M.loss_encoder(params, batch, mask).item() >= 0
    assert M.loss_prediction(params, batch, y).item() >= 0


def test_mask_vector_never_hits_specials(batch):
    rng = Rng(9)
    for _ in range(20):
        mask = M.sample_mask_vector(batch, 0.9, rng)
        assert not (mask & (batch <= 3)).any()


def test_dropout_only_when_rng_given(params, batch):
    a = M.forward_decoder(params, batch, dropout=0.5, rng=None).data
    b = M.forward_decoder(params, batch).data
    np.testing.assert_array_equal(a, b)
    c = M.forward_decoder(params, batch, dropout=0.5, rng=Rng(0)).data
    assert np.abs(c - b).max() > 0


def test_prediction_loss_gradient_matches_fd(cfg, batch):
    """Gradient w.r.t. predictor weights checked against central differences."""
    y = np.array([0.3, 0.6, 0.1])
    with nm.using_dtype(np.float64):
        params = JointModelParams(cfg, Rng(5))
        with Tape() as tape:
            loss = M.loss_prediction(params, batch, y)
        tape.backward(loss)
        w = params["pred.l0.w"]
        flat = w.data.reshape(-1)
        gflat = w.grad.reshape(-1)
        h = 1e-6
        idxs = np.linspace(0, flat.size - 1, 10).astype(int)
        for i in idxs:
            old = flat[i]
            flat[i] = old + h
            fp = M.loss_prediction(params, batch, y).item()
            flat[i] = old - h
            fm = M.loss_prediction(params, batch, y).item()
            flat[i] = old
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-10) < 1e-3
