"""Dropout masks drawn from raw PCG64 words against the float32-uniform path, bit for bit.

``model._keep_mask`` compares the raw 32-bit halves of the generator's words
against an integer threshold instead of drawing float32 uniforms, and returns
a bool mask; the dropout ops build their multipliers from it with
``numerics._multipliers``. Those multipliers, and the generator state after
the draw (``rng.json`` holds all of it), must equal the float path's:
``(u >= rate) / (1 - rate)`` from ``rng.random(shape, float32)``.
"""

import numpy as np
import pytest

from moljoint import datagen
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig
from moljoint.numerics import Rng, Tape
from moljoint.smiles import PAD_ID, build_vocabulary, tokenize


def _float_path(shape, rate, rng):
    u = rng.random(shape, dtype=np.float32)
    return (u >= rate).astype(nm.current_dtype()) / (1.0 - rate)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pending", [False, True], ids=["aligned", "pending-half"])
@pytest.mark.parametrize("shape", [(64, 32, 64), (4, 3, 7, 7), (3, 5), (1,), (2, 0)],
                         ids=["trunk", "odd-attention", "odd", "one", "empty"])
@pytest.mark.parametrize("rate", [0.1, 0.15, 0.5, 1 - 2.0**-26])
def test_keep_mask_matches_the_float_path(rate, shape, pending, dtype):
    got_rng, want_rng = Rng(17), Rng(17)
    if pending:  # one float32 draw leaves the high half of a word buffered
        got_rng.random(1, dtype=np.float32), want_rng.random(1, dtype=np.float32)
    with nm.using_dtype(dtype):
        keep = M._keep_mask(shape, rate, got_rng)
        got = nm._multipliers(keep, rate, nm.current_dtype())
        want = _float_path(shape, rate, want_rng)
    assert keep.dtype == np.bool_
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert got_rng.get_state() == want_rng.get_state()
    assert got_rng.random(3, dtype=np.float32).tobytes() == want_rng.random(3, dtype=np.float32).tobytes()



def test_the_threshold_splits_two_neighbouring_uniforms():
    """A draw is kept at a threshold equal to its float32 uniform and dropped at one half a step above it."""
    def first_draw(seed):  # the top 24 bits of the first word's low half
        return int(Rng(seed)._gen.bit_generator.random_raw(1).view(np.uint32)[0] >> 8)

    seed = next(s for s in range(100) if first_draw(s) < 1 << 23)  # below 0.5, where half a step is a float32
    m = first_draw(seed)
    for threshold, kept in ((m * 2.0**-24, True), ((m + 0.5) * 2.0**-24, False)):
        assert float(np.float32(threshold)) == threshold
        assert Rng(seed).random_at_least((2,), threshold)[0] == kept
        assert (Rng(seed).random(2, dtype=np.float32)[0] >= threshold) == kept


def test_a_pass_draws_its_masks_at_the_token_cells(monkeypatch):
    """A training pass draws each dropout mask once, at the non-PAD cells only: (tokens, E) for the
    embeddings and each residual dropout, (tokens, n_heads, S) for each layer's attention, S the longest
    row; a causal pass and a bidirectional pass that reads only its masked cells draw the same."""
    lines = datagen.toy_corpus(64, seed=23, min_atoms=4)
    vocab = build_vocabulary(lines)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=40, embed_dim=8, n_layers=2, n_heads=2, ff_dim=12,
                      predictor_hidden_dim=4)
    params = JointModelParams(cfg, Rng(3))
    ids = M.pad_batch([tokenize(s, vocab, 40) for s in lines])
    assert (ids == PAD_ID).any()
    tokens, S, E, H = int((ids != PAD_ID).sum()), ids.shape[1], cfg.embed_dim, cfg.n_heads
    want = [(tokens, E)] + [(tokens, H, S), (tokens, E), (tokens, E)] * cfg.n_layers
    shapes, keep_mask = [], M._keep_mask
    monkeypatch.setattr(M, "_keep_mask", lambda shape, *a: shapes.append(tuple(shape)) or keep_mask(shape, *a))
    with Tape():
        M.loss_decoder(params, ids, dropout=0.1, rng=Rng(0))
    assert shapes == want
    shapes.clear()
    with Tape():
        M.loss_encoder(params, ids, M.sample_mask_vector(ids, 0.3, Rng(2)), dropout=0.1, rng=Rng(0))
    assert shapes == want
