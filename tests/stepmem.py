"""The heap one training step holds, measured at the README model size.

``step_memory_mb(task)`` traces one ``train_step`` on the README model
(embed 64, 2 layers, 4 heads, ff 192, max_len 32; keyword arguments
change its sizes) over ``toy_corpus(200, seed=7, min_atoms=6)`` at
dropout 0.15: a generation step at batch 64, or a labeled prediction step
(masked encoder plus predictor, ``toy_mpo`` targets) at batch 32. Tracing
starts just before the step. It returns, in 10^6 B, the ``tracemalloc``
peak (``step_peak_mb``) and the current value when the step's
``Tape.backward`` starts (``tape_held_mb``): the bytes the forward left
live, most of them held by the tape for backward.
``minor_faults_per_step()`` counts the minor page faults per generation
step in this process after warm-up steps, under whatever allocator
settings the process has (none, unless it set them). The fault test in
``test_cli.py`` runs it in a fresh process after ``cli._keep_freed_memory()``.
Without allocator settings the count repeats for one command line, but it
moves with process state that has nothing to do with the step (the same
steps read differently from this script and from ``python -c``), so it
cannot support a claim; the heap figures repeat exactly.

Run as a script in a fresh process to print all five as JSON:

    PYTHONPATH=src python tests/stepmem.py
"""

import json
import resource
import tracemalloc

from moljoint import datagen, objectives
from moljoint import training as T
from moljoint.model import ModelConfig
from moljoint.numerics import Rng, Tape
from moljoint.smiles import build_vocabulary

BATCH = {"generation": 64, "prediction": 32}
README_MODEL = dict(max_len=32, embed_dim=64, n_layers=2, n_heads=4, ff_dim=192)


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


def step_memory_mb(task: str, **model) -> tuple[float, float]:
    """(peak, current at the start of ``Tape.backward``) of one traced step, in 10^6 B."""
    step = seeded_step(task, **model)
    held, backward = [], Tape.backward

    def hooked(tape, loss):
        held.append(tracemalloc.get_traced_memory()[0])
        return backward(tape, loss)

    Tape.backward = hooked
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1] / 1e6, held[0] / 1e6
    finally:
        tracemalloc.stop()
        Tape.backward = backward


def step_peak_mb(task: str, **model) -> float:
    return step_memory_mb(task, **model)[0]


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
        peak, held = step_memory_mb(task)
        report[f"{task}_step_peak_mb"], report[f"{task}_tape_held_mb"] = round(peak, 2), round(held, 2)
    print(json.dumps({**report, "minor_faults_per_generation_step": round(faults)}))
