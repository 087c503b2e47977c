"""The fused q|k|v parameter against contiguous copies of its blocks, bit for bit.

A pass whose keys and values come from other rows than its queries (the
last block of the predictor pass) runs its q GEMM and its k|v GEMM on
column views of ``attn.wqkv`` and ``attn.bqkv``. BLAS must give those views
the same bits as contiguous copies, which is what the parameters held when
q, k and v were three tensors each. The GEMM shapes differ with the BLAS
thread count, so these also run under single-threaded BLAS.
"""

from pathlib import Path

import numpy as np
import pytest

from moljoint import datagen
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.smiles import tokenize
from moljoint.training import Checkpoint

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"


@pytest.fixture(scope="module")
def fixture():
    state = Checkpoint.load(FIXTURE)
    lines = datagen.toy_corpus(128, seed=17, min_atoms=6)
    return state.params, M.pad_batch([tokenize(s, state.vocab, 32) for s in lines])


def _views(monkeypatch, copy: bool) -> list[bool]:
    """Route ``linear``, which runs every q|k|v GEMM, through a spy that records whether
    its weights are a view, and with ``copy`` hands it contiguous copies instead."""
    seen, linear = [], nm.linear

    def spy(x, w, b):
        seen.append(not w.flags.c_contiguous)
        if copy:
            w, b = np.ascontiguousarray(w), np.ascontiguousarray(b)
        return linear(x, w, b)

    monkeypatch.setattr(nm, "linear", spy)
    return seen


def test_predictor_pass_equals_contiguous_copies(fixture, monkeypatch):
    params, ids = fixture
    passes = [ids[i:i + 64] for i in (0, 64)] + [ids[:1], ids[:7]]
    with monkeypatch.context() as m:
        views = _views(m, copy=False)
        got = [M.predict_target(params, rows) for rows in passes]
    assert any(views)  # the last block's q and k|v GEMMs ran on views
    _views(monkeypatch, copy=True)
    for g, rows in zip(got, passes):
        assert g.tobytes() == M.predict_target(params, rows).tobytes()


def test_decode_logits_equal_contiguous_copies(fixture, monkeypatch):
    params, ids = fixture
    ids = ids[:64]

    def decode():
        cache = M.KVCache(params, len(ids))
        return [M.forward_decoder(params, ids[:, t:t + 1], cache=cache).data for t in range(ids.shape[1])]

    got = decode()
    _views(monkeypatch, copy=True)
    want = decode()
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
