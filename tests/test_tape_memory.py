"""What a recording tape keeps alive, and the heap one training step holds.

A backward closure holds its inputs' gradient slots and only the arrays
its backward reads, so an op output that no backward reads is freed as
soon as the forward drops it, while every value a backward reads stays
valid for as long as the tape lives.
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
    """What a backward closure holds: its cells' contents, with lists and tuples opened."""
    todo, found = [], []
    for cell in bwd.__closure__ or ():
        try:
            todo.append(cell.cell_contents)
        except ValueError:  # a name the op binds only on another path
            pass
    while todo:
        v = todo.pop()
        if isinstance(v, (list, tuple)):
            todo.extend(v)
        else:
            found.append(v)
    return found


def _generation_forward(monkeypatch, names):
    params, ids = _small_model()
    seen = _watch_outputs(monkeypatch, names)
    with Tape() as tape:
        loss = M.loss_joint(params, ids, None, None, Task.GENERATION, dropout=0.1, rng=Rng(0))
    return params, tape, loss, seen


def test_outputs_no_backward_reads_are_freed_by_the_forward(monkeypatch):
    params, tape, loss, seen = _generation_forward(monkeypatch, ["add", "mul", "matmul"])
    V = params.config.vocab_size
    kinds = {"add": [], "mul": [], "logits": []}
    for name, shape, ref in seen:
        if name != "matmul" or shape[-1] == V:
            kinds["logits" if name == "matmul" else name].append(ref() is None)
    assert all(kinds.values()), kinds  # dropout on: every kind was made
    assert {k: all(dead) for k, dead in kinds.items()} == {"add": True, "mul": True, "logits": True}
    tape.backward(loss)
    assert params["tok_emb"].grad is not None


def test_values_a_backward_reads_stay_alive(monkeypatch):
    """matmul's operands (the normed rows and the GELU output), GELU's input and attention's input:
    every layer norm's output but the final one's, which only a gather reads, and that reads none of it."""
    params, tape, loss, seen = _generation_forward(monkeypatch, ["layer_norm", "gelu", "matmul"])
    ff = params.config.ff_dim
    final_norm = max(i for i, (name, _, _) in enumerate(seen) if name == "layer_norm")
    read = [(name, ref) for i, (name, shape, ref) in enumerate(seen)
            if (name != "matmul" or shape[-1] == ff) and i != final_norm]
    assert {name for name, _ in read} == {"layer_norm", "gelu", "matmul"}
    assert [name for name, ref in read if ref() is None] == []
    tape.backward(loss)
    assert params["h0.ff.w1"].grad is not None


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
    gathered q|k|v rows, three times as wide as v. So does each group's block of the attention-dropout
    mask: none keeps the full (B, n_heads, S, S) mask alive."""
    params, ids = _small_model()
    with Tape() as tape:
        M.loss_decoder(params, ids, dropout=dropout, rng=Rng(0))
    bwds = [bwd for out, bwd in tape._ops if out.name == "attention"]
    held = lambda bwd, name: bwd.__closure__[bwd.__code__.co_freevars.index(name)].cell_contents  # noqa: E731
    saved = [a for bwd in bwds for group in held(bwd, "saved") for a in group]
    keeps = [k for bwd in bwds for k in held(bwd, "keeps") if k is not None]
    assert len(saved) >= 4 * params.config.n_layers
    assert len(keeps) == (len(saved) // 4 if dropout else 0)
    assert [a.shape for a in saved + keeps if a.base is not None] == []


# this code peaks at 17.15 and 13.15 MB, a tape that kept every op output at 23.75 and 18.12;
# each bound leaves more than 10% over the first
@pytest.mark.parametrize("task, bound_mb", [("generation", 20.0), ("prediction", 15.0)])
def test_one_readme_size_step_stays_under_its_heap_bound(task, bound_mb):
    assert stepmem.step_peak_mb(task) < bound_mb
