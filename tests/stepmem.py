"""The heap one training step holds, measured at the README model size.

``step_memory_mb(task)`` traces one ``train_step`` on the README model
(embed 64, 2 layers, 4 heads, ff 192, max_len 32; keyword arguments
change its sizes) over ``toy_corpus(200, seed=7, min_atoms=6)`` at
dropout 0.15: a generation step at batch 64, or a labeled prediction step
(masked encoder plus predictor, ``toy_mpo`` targets) at batch 32. Tracing
starts just before the step. It returns, in 10^6 B, the ``tracemalloc``
peak (``step_peak_mb``) and the current value when the step's
``Tape.backward`` starts (``tape_held_mb``): the bytes the forward left
live, most of them held by the tape for backward. ``tape_arrays_mb``
breaks the tape's part down by op and array: "attention.saved" is what
``attention``'s backward closure holds as ``saved``. Only arrays the step
allocated count (not the parameters), each buffer once, for the first
closure on the tape that holds it.
``inference_peak_mb()`` is the ``tracemalloc`` peak, in 10^6 B, of one
``predict_target`` (no tape) on the benchmark fixture (README size) over
its 64-draw chunk decoded at sampler seed 1, after one untraced call.
``dropout_draws_per_step(task)`` is the mean number of dropout-mask values
``model._keep_mask`` draws per ``train_step`` of ``task`` over 20 seeded
steps; like the heap figures, it repeats exactly.
``minor_faults_per_step()`` counts the minor page faults per generation
step in this process after warm-up steps, under whatever allocator
settings the process has (none, unless it set them). The fault test in
``test_cli.py`` runs it in a fresh process after ``cli._keep_freed_memory()``.
Without allocator settings the count repeats for one command line, but it
moves with process state that has nothing to do with the step (the same
steps read differently from this script and from ``python -c``), so it
cannot support a claim; the heap figures repeat exactly.

Run as a script in a fresh process to print them all as JSON:

    PYTHONPATH=src python tests/stepmem.py
"""

import json
import resource
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from moljoint import datagen, objectives
from moljoint import generation as G
from moljoint import model as M
from moljoint import training as T
from moljoint.model import ModelConfig, predict_target
from moljoint.numerics import Rng, Tape
from moljoint.smiles import build_vocabulary

BATCH = {"generation": 64, "prediction": 32}
README_MODEL = dict(max_len=32, embed_dim=64, n_layers=2, n_heads=4, ff_dim=192)
FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "checkpoint"


def seeded_step(task: str, **model):
    """A zero-argument callable that runs one ``train_step`` of ``task`` per call.

    ``model`` holds ``ModelConfig`` fields that replace the README sizes.
    """
    lines = datagen.toy_corpus(200, seed=7, min_atoms=6)
    vocab = build_vocabulary(lines)
    dataset = T.encode_corpus(lines, vocab, 32)
    if task == "prediction":
        dataset = objectives.label_dataset(dataset, objectives.make_objective("toy_mpo"), vocab)
    mcfg = ModelConfig(vocab_size=len(vocab), **{**README_MODEL, **model})
    cfg = T.TrainConfig(p_task=1.0 if task == "generation" else 0.0, batch_size=BATCH[task],
                        dropout=0.15, seed=0)
    state = T.Checkpoint.start(vocab, mcfg, cfg)
    rng = Rng(1)  # draws the batches and the steps' dropout

    def step():
        state.iteration += 1
        return T.train_step(state.params, state.opt, T._batch(dataset, rng, cfg), cfg, rng, state.iteration - 1)

    return step


def closure_values(bwd):
    """(free variable, value) for each value a backward closure holds, with lists and tuples opened."""
    for name, cell in zip(bwd.__code__.co_freevars, bwd.__closure__ or ()):
        try:
            todo = [cell.cell_contents]
        except ValueError:  # a name the op binds only on another path
            continue
        while todo:
            v = todo.pop()
            if isinstance(v, (list, tuple)):
                todo.extend(v)
            else:
                yield name, v


def tape_arrays(tape: Tape) -> Counter:
    """Bytes per "op.variable" that the backward closures on ``tape`` hold, in arrays made since tracing
    started; each buffer counts once, for the first closure holding it."""
    held, seen = Counter(), set()
    for _, bwd in tape._ops:
        for name, v in closure_values(bwd):
            if isinstance(v, np.ndarray):
                while isinstance(v.base, np.ndarray):
                    v = v.base
                if id(v) not in seen and tracemalloc.get_object_traceback(v) is not None:
                    seen.add(id(v))
                    held[f"{bwd.__qualname__.split('.')[0]}.{name}"] += v.nbytes
    return held


def step_memory_mb(task: str, **model) -> tuple[float, float, dict[str, float]]:
    """(peak, current at the start of ``Tape.backward``, ``tape_arrays`` then) of one traced step, in 10^6 B."""
    step = seeded_step(task, **model)
    held, backward = [], Tape.backward

    def hooked(tape, loss):
        held.append((tracemalloc.get_traced_memory()[0], tape_arrays(tape)))
        return backward(tape, loss)

    Tape.backward = hooked
    tracemalloc.start()
    try:
        step()
        current, arrays = held[0]
        return (tracemalloc.get_traced_memory()[1] / 1e6, current / 1e6,
                {k: round(n / 1e6, 3) for k, n in arrays.most_common()})
    finally:
        tracemalloc.stop()
        Tape.backward = backward


def step_peak_mb(task: str, **model) -> float:
    return step_memory_mb(task, **model)[0]


def inference_peak_mb() -> float:
    params = T.Checkpoint.load(FIXTURE).params
    ids = G._decode_chunk(params, G.SamplerConfig(seed=1), 64, Rng(1))[0]
    predict_target(params, ids)  # first-call caches out of the trace
    tracemalloc.start()
    try:
        predict_target(params, ids)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def dropout_draws_per_step(task: str, steps: int = 20) -> float:
    step, drawn, keep_mask = seeded_step(task), [], M._keep_mask
    M._keep_mask = lambda shape, *a: drawn.append(int(np.prod(shape))) or keep_mask(shape, *a)
    try:
        for _ in range(steps):
            step()
        return sum(drawn) / steps
    finally:
        M._keep_mask = keep_mask


def minor_faults_per_step(steps: int = 16, warmup: int = 3) -> float:
    step = seeded_step("generation")
    for _ in range(warmup):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        step()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / steps


if __name__ == "__main__":
    faults = minor_faults_per_step()  # first, before tracemalloc has allocated anything
    report = {}
    for task in BATCH:
        peak, held, arrays = step_memory_mb(task)
        report[f"{task}_step_peak_mb"], report[f"{task}_tape_held_mb"] = round(peak, 2), round(held, 2)
        report[f"{task}_tape_arrays_mb"] = arrays
        report[f"{task}_dropout_draws_per_step"] = round(dropout_draws_per_step(task))
    report["inference_peak_mb"] = round(inference_peak_mb(), 2)
    print(json.dumps({**report, "minor_faults_per_generation_step": round(faults)}, indent=1))
