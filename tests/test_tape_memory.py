"""What a recording tape keeps alive, and the heap one training step holds.

A backward closure holds its inputs' gradient slots and only the arrays
its backward reads, in their narrowest form (a bool dropout mask, not its
float multipliers; GELU's input and tanh term, not its output), so an op
output that no backward reads is freed as soon as the forward drops it,
while every value a backward reads stays valid until that backward has run.
"""

import weakref

import numpy as np
import pytest

import stepmem
from moljoint import datagen
from moljoint import model as M
from moljoint import numerics as nm
from moljoint.model import JointModelParams, ModelConfig, Task
from moljoint.numerics import Rng, Tape, Tensor
from moljoint.smiles import build_vocabulary, tokenize


def _small_model():
    lines = datagen.toy_corpus(48, seed=23, min_atoms=4)
    vocab = build_vocabulary(lines)
    cfg = ModelConfig(vocab_size=len(vocab), max_len=40, embed_dim=16, n_layers=2,
                      n_heads=2, ff_dim=24, predictor_hidden_dim=8)
    return JointModelParams(cfg, Rng(3), init_std=0.2), M.pad_batch([tokenize(s, vocab, 40) for s in lines])


def _watch_outputs(monkeypatch, names):
    """(op name, output shape, weakref to the output's values) for every call of the ops ``names``."""
    seen = []
    for name in names:
        def watched(*args, _op=getattr(nm, name), _name=name, **kwargs):
            out = _op(*args, **kwargs)
            seen.append((_name, out.shape, weakref.ref(out.data)))
            return out
        monkeypatch.setattr(nm, name, watched)
    return seen


def _closure_values(bwd):
    """What a backward closure holds, with lists and tuples opened."""
    return [v for _, v in stepmem.closure_values(bwd)]


def _held(bwd, name):
    """The value a backward closure holds under the free variable ``name``."""
    return bwd.__closure__[bwd.__code__.co_freevars.index(name)].cell_contents


def _op(bwd) -> str:
    """The tape op that made a backward closure: its function's name."""
    return bwd.__qualname__.split(".")[0]


def _generation_forward(monkeypatch, names):
    params, ids = _small_model()
    seen = _watch_outputs(monkeypatch, names)
    with Tape() as tape:
        loss = M.loss_joint(params, ids, None, None, Task.GENERATION, dropout=0.1, rng=Rng(0))
    return params, tape, loss, seen


def test_outputs_no_backward_reads_are_freed_by_the_forward(monkeypatch):
    params, tape, loss, seen = _generation_forward(monkeypatch, ["add", "dropout", "matmul"])
    V = params.config.vocab_size
    kinds = {"add": [], "dropout": [], "logits": []}
    for name, shape, ref in seen:
        if name != "matmul" or shape[-1] == V:
            kinds["logits" if name == "matmul" else name].append(ref() is None)
    assert all(kinds.values()), kinds  # dropout on: every kind was made
    assert {k: all(dead) for k, dead in kinds.items()} == {"add": True, "dropout": True, "logits": True}
    tape.backward(loss)
    assert params["tok_emb"].grad is not None


def test_values_a_backward_reads_stay_alive(monkeypatch):
    """attention's and feed_forward's inputs (every layer norm's output but the final one's, which only
    a gather reads, and that reads none of it), and each feed_forward's pre-activation and tanh term."""
    params, tape, loss, seen = _generation_forward(monkeypatch, ["layer_norm"])
    cfg = params.config
    assert len(seen) == 2 * cfg.n_layers + 1
    assert [ref() is None for _, _, ref in seen[:-1]] == [False] * 2 * cfg.n_layers
    ffs = [bwd for _, bwd in tape._ops if _op(bwd) == "feed_forward"]
    assert len(ffs) == cfg.n_layers
    for bwd in ffs:
        assert _held(bwd, "h").shape == _held(bwd, "t").shape == (seen[0][1][0], cfg.ff_dim)
    tape.backward(loss)
    assert params["h0.ff.w1"].grad is not None


@pytest.mark.parametrize("task", [Task.GENERATION, Task.PREDICTION])
def test_no_backward_holds_a_dropout_multiplier_or_a_gelu_output(task):
    """Dropout masks are kept as bool, and feed_forward's backward builds the GELU output again."""
    params, ids = _small_model()
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    with Tape() as tape:
        M.loss_joint(params, ids, np.linspace(0.0, 1.0, len(ids)), mask, task, dropout=0.1, rng=Rng(0))
    held = [a for _, bwd in tape._ops for a in _closure_values(bwd) if isinstance(a, np.ndarray)]
    scale = np.float32(1) / np.float32(0.9)
    multipliers = [a.shape for a in held if a.dtype.kind == "f" and (a == scale).any() and np.isin(a, [0, scale]).all()]
    assert multipliers == []
    masks = [_held(bwd, "keep") for _, bwd in tape._ops if _op(bwd) == "dropout"]
    masks += [k for _, bwd in tape._ops if _op(bwd) == "attention" for k in _held(bwd, "keeps")]
    assert masks and {k.dtype for k in masks} == {np.dtype(bool)}
    gelu_outputs = [nm.gelu_fwd(_held(bwd, "h"))[0] for _, bwd in tape._ops if _op(bwd) == "feed_forward"]
    assert gelu_outputs and not [a.shape for a in held for f in gelu_outputs if np.array_equal(a, f)]


def test_backward_frees_each_closure_once_it_has_run():
    """When an op's backward runs, the arrays that only a later op's backward read are gone already,
    while the tape still lives."""
    rng = Rng(4)
    x, w = Tensor(rng.normal((4, 3))), Tensor(rng.normal((3, 2)))
    with Tape() as tape:
        h = nm.gelu(x)
        loss = nm.sum_all(nm.matmul(h, w))
    gelu_output = weakref.ref(h.data)  # only matmul's backward reads it
    del h
    assert gelu_output() is not None
    slot, first = tape._ops[0]
    seen = []
    tape._ops[0] = (slot, lambda g: seen.append(gelu_output()) or first(g))
    tape.backward(loss)
    assert seen == [None]
    assert [bwd for _, bwd in tape._ops] == [None] * 3
    np.testing.assert_allclose(w.grad, nm.gelu_fwd(x.data)[0].T @ np.ones((4, 2), np.float32), rtol=1e-6)


def test_backward_keeps_the_op_count_and_runs_once():
    params, ids = _small_model()
    with Tape() as tape:
        loss = M.loss_decoder(params, ids, dropout=0.1, rng=Rng(0))
    n = len(tape)
    tape.backward(loss)
    assert len(tape) == n > 0
    with pytest.raises(RuntimeError, match="already run"):
        tape.backward(loss)


def test_a_value_with_two_consumers_keeps_its_values_for_the_second():
    """The first consumer's backward reads nothing of h; the second's reads all of it."""
    rng = Rng(4)
    x, w = Tensor(rng.normal((4, 3))), Tensor(rng.normal((3, 2)))
    with Tape() as tape:
        h = nm.add(x, 1.0)
        first = nm.mul(h, 2.0)
        loss = nm.add(nm.sum_all(first), nm.sum_all(nm.matmul(h, w)))
    want = x.data + np.float32(1.0)
    ref = weakref.ref(h.data)
    del h, first
    assert ref() is not None
    np.testing.assert_array_equal(ref(), want)
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, want.T @ np.ones((4, 2), np.float32), rtol=1e-6)
    np.testing.assert_allclose(x.grad, 2.0 + np.ones((4, 2)) @ w.data.T, rtol=1e-6)


@pytest.mark.parametrize("task", [Task.GENERATION, Task.PREDICTION])
def test_no_backward_holds_a_tensor(task):
    """Closures hold slots, so a Tensor's values live only as long as the forward's references."""
    params, ids = _small_model()
    mask = M.sample_mask_vector(ids, 0.3, Rng(2))
    y = np.linspace(0.0, 1.0, len(ids))
    with Tape() as tape:
        M.loss_joint(params, ids, y, mask, task, dropout=0.1, rng=Rng(0))
    held = {out.name for out, bwd in tape._ops for v in _closure_values(bwd) if isinstance(v, Tensor)}
    assert held == set()
    assert len(tape) > 0


@pytest.mark.parametrize("dropout", [0.0, 0.2])
def test_attention_saves_arrays_of_its_own(dropout):
    """q, k^T, v and the probabilities of each group own their values: no view keeps the group's
    gathered q|k|v rows, three times as wide as v. So does each group's block of the bool
    attention-dropout mask: none keeps the full (tokens, n_heads, S) mask alive."""
    params, ids = _small_model()
    with Tape() as tape:
        M.loss_decoder(params, ids, dropout=dropout, rng=Rng(0))
    bwds = [bwd for out, bwd in tape._ops if out.name == "attention"]
    saved = [a for bwd in bwds for group in _held(bwd, "saved") for a in group]
    keeps = [k for bwd in bwds for k in _held(bwd, "keeps") if k is not None]
    assert len(saved) >= 4 * params.config.n_layers
    assert len(keeps) == (len(saved) // 4 if dropout else 0)
    assert [a.shape for a in saved + keeps if a.base is not None] == []


# this code peaks at 13.06 and 9.31 MB; float dropout multipliers, a kept GELU output and closures
# that live until the tape dies peaked at 17.16 and 13.15, a tape that kept every op output at 23.75
# and 18.12; each bound leaves about 10% over the first. Tape-free inference peaks at 3.33 MB, where
# feed_forward overwrites h with its GELU one block of values at a time; one unblocked GELU pass over h
# peaks at 3.40, and three unblocked ops (matmul, gelu, matmul) at 3.76; its bound sits below the last
@pytest.mark.parametrize("task, bound_mb", [("generation", 14.4), ("prediction", 10.3), ("inference", 3.55)])
def test_one_readme_size_step_stays_under_its_heap_bound(task, bound_mb):
    peak = stepmem.inference_peak_mb() if task == "inference" else stepmem.step_peak_mb(task)
    assert peak < bound_mb
