"""Instrumentation the benchmark installs around calls into moljoint.

Nothing here edits ``src/``: a function is replaced by a wrapper at every
import site (every ``moljoint`` module attribute bound to it, such as both
``moljoint.smiles.validate`` and ``moljoint.generation.validate``) and put
back when the benchmark is done with it.

* ``Probe`` times every call of one function and records the exception
  class of calls that raise. The benchmark probes ``train_step`` and
  ``sample_batch`` on every run: those calls are its operations.
* ``Tracer`` keeps one span per call (name, start, end, parent, run id and
  one optional number) in memory; ``layer_metrics`` reduces the spans to
  the per-layer metrics. It is installed only on traced runs.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import common  # noqa: F401  (puts moljoint on sys.path)

from moljoint.smiles import BOS_ID, PAD_ID


class Patcher:
    """Swap functions for wrappers at every moljoint import site."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, target: str, make_wrapper) -> None:
        """``target`` is ``"module:function"`` or ``"module:Class.method"``."""
        modname, _, qual = target.partition(":")
        owner = sys.modules[modname]
        *cls_path, attr = qual.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            sites = [(owner, attr)]
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
            sites = [
                (mod, name)
                for modname_, mod in list(sys.modules.items())
                if modname_.split(".")[0] == "moljoint"
                for name, value in vars(mod).items()
                if value is original
            ]
        wrapper = make_wrapper(original)
        for obj, name in sites:
            self._undo.append((obj, name, original))
            setattr(obj, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            obj, name, original = self._undo.pop()
            setattr(obj, name, original)


class Probe:
    """Start, end, failure and operation count of every call of one function.

    ``weight(*args, **kwargs)`` gives the number of operations a call does.
    """

    def __init__(self, weight):
        self.weight = weight
        self.calls: list[tuple[float, float, str | None, int]] = []

    def wrap(self, fn):
        calls, weight = self.calls, self.weight

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                calls.append((t0, perf_counter(), type(e).__name__, weight(*args, **kwargs)))
                raise
            calls.append((t0, perf_counter(), None, weight(*args, **kwargs)))
            return out

        return probed


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extra is not None:
                span[5] = extra(out, *args, **kwargs)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


# numerics ops whose forward time and call count are reported
NUMERIC_OPS = ("matmul", "add", "mul", "layer_norm", "gelu", "softmax_rows",
               "embedding", "transpose", "reshape", "cross_entropy")
# every differentiable op numerics defines; all are traced
ALL_NUMERIC_OPS = NUMERIC_OPS + ("sub", "take", "pad_cols", "sum_all", "mean_all")
EVALUATION_FNS = ("validity", "uniqueness", "novelty", "feature_kl",
                  "feature_histograms", "mae", "mae_sampled")
TRUNK_PASSES = ("model.forward_decoder", "model.forward_encoder", "model.forward_predictor")


def _out_bytes(out, *args, **kwargs):
    return out.data.nbytes


def _rows(out, params, ids, *args, **kwargs):
    return ids.shape[0] * ids.shape[1]


def _draws(out, *args, **kwargs):
    return (len(out), sum(s.truncated for s in out))


def _emitted(out, ids, *args, **kwargs):
    # sampled id rows are lists: BOS, the emitted tokens (EOS included), PAD fill
    if not isinstance(ids, list):
        return None
    return sum(1 for i in ids if i != BOS_ID and i != PAD_ID)


def _accepted(out, *args, **kwargs):
    return (out.accepted_count, out.draws_used)


def _bundle_bytes(out, path, *args, **kwargs):
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _branch(out, *args, **kwargs):
    loss, task = out
    if task.value == "prediction" and loss == 0.0:
        return "noop"  # a real loss is never exactly 0; train_step returns 0.0 for no-ops
    return task.value


def traced_functions():
    """(target, span name, extra) for every function the tracer wraps."""
    out = [(f"moljoint.numerics:{op}", f"numerics.{op}", _out_bytes) for op in ALL_NUMERIC_OPS]
    out += [
        ("moljoint.numerics:Tape.backward", "numerics.Tape.backward", lambda o, tape, *a, **k: len(tape)),
        ("moljoint.model:forward_decoder", "model.forward_decoder", _rows),
        ("moljoint.model:forward_encoder", "model.forward_encoder", None),
        ("moljoint.model:forward_predictor", "model.forward_predictor", None),
        ("moljoint.model:loss_joint", "model.loss_joint", None),
        ("moljoint.model:predict_target", "model.predict_target", None),
        ("moljoint.model:pad_batch", "model.pad_batch", None),
        ("moljoint.training:train_step", "training.train_step", _branch),
        ("moljoint.training:clip_gradients", "training.clip_gradients", None),
        ("moljoint.training:AdamW.step", "training.AdamW.step", None),
        ("moljoint.checkpoint:save_bundle", "checkpoint.save_bundle", _bundle_bytes),
        ("moljoint.checkpoint:load_bundle", "checkpoint.load_bundle", None),
        ("moljoint.generation:sample_batch", "generation.sample_batch", _draws),
        ("moljoint.generation:pbbo_optimize", "generation.pbbo_optimize", _accepted),
        ("moljoint.smiles:validate", "smiles.validate", None),
        ("moljoint.smiles:tokenize", "smiles.tokenize", None),
        ("moljoint.smiles:detokenize", "smiles.detokenize", _emitted),
        ("moljoint.objectives:evaluate", "objectives.evaluate", None),
        ("moljoint.datagen:toy_corpus", "datagen.toy_corpus", None),
    ]
    out += [(f"moljoint.evaluation:{fn}", f"evaluation.{fn}", None) for fn in EVALUATION_FNS]
    return out


def install(patcher: Patcher, tracer: Tracer) -> None:
    for target, name, extra in traced_functions():
        patcher.replace(target, lambda fn, name=name, extra=extra: tracer.wrap(name, fn, extra))


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _pct(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _in_sampling(spans) -> list[bool]:
    flags = []
    for s in spans:
        parent = s[3]
        flags.append(s[0] == "generation.sample_batch" or (parent >= 0 and flags[parent]))
    return flags


def layer_metrics(spans, runs: set[int], units: int) -> dict[str, float]:
    """Per-layer metrics over the spans of the given run ids.

    ``units`` is the number of timed calls in those runs (training steps,
    or 64-draw chunks). Totals are reported per unit unless the metric's
    definition in bench/README.md says otherwise.
    """
    sampling = _in_sampling(spans)
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    dur = defaultdict(float)
    self_ = defaultdict(float)
    calls = defaultdict(int)
    extra = defaultdict(list)
    sdur = defaultdict(float)  # sampling-path inclusive time
    scalls = defaultdict(int)
    sextra = defaultdict(list)
    step_ms = defaultdict(list)
    eval_top = 0.0
    for i, s in enumerate(spans):
        if s[4] not in runs:
            continue
        name, d = s[0], s[2] - s[1]
        dur[name] += d
        self_[name] += d - child[i]
        calls[name] += 1
        if s[5] is not None:
            extra[name].append(s[5])
        if sampling[i]:
            sdur[name] += d
            scalls[name] += 1
            if s[5] is not None:
                sextra[name].append(s[5])
        if name == "training.train_step":
            step_ms[s[5]].append(d * 1e3)
            step_ms["all"].append(d * 1e3)
        if name.startswith("evaluation.") and not (s[3] >= 0 and spans[s[3]][0].startswith("evaluation.")):
            eval_top += d

    n_runs = len(runs)
    per = lambda seconds: _ratio(seconds * 1e3, units)  # noqa: E731  ms per unit
    m: dict[str, float] = {}
    for op in NUMERIC_OPS:
        m[f"numerics.fwd_ms.{op}"] = per(self_[f"numerics.{op}"])
        m[f"numerics.fwd_calls.{op}"] = _ratio(calls[f"numerics.{op}"], units)
    m["numerics.fwd_out_mb"] = _ratio(
        sum(sum(extra[f"numerics.{op}"]) for op in ALL_NUMERIC_OPS) / 1e6, units)
    m["numerics.tape_ops"] = _ratio(sum(extra["numerics.Tape.backward"]), units)
    m["model.trunk_passes"] = _ratio(sum(calls[n] for n in TRUNK_PASSES), units)

    m["training.forward_ms"] = per(dur["model.loss_joint"])
    m["training.backward_ms"] = per(dur["numerics.Tape.backward"])
    m["training.optimizer_ms"] = per(dur["training.clip_gradients"] + dur["training.AdamW.step"])
    m["training.batch_ms"] = per(dur["model.pad_batch"])
    m["training.step_ms_p90"] = _pct(step_ms["all"], 90)
    for branch in ("generation", "prediction"):
        m[f"training.step_ms.{branch}"] = statistics.median(step_ms[branch]) if step_ms[branch] else 0.0
    for branch in ("generation", "prediction", "noop"):
        m[f"training.steps.{branch}"] = _ratio(len(step_ms[branch]), n_runs)

    saves = calls["checkpoint.save_bundle"]
    m["checkpoint.save_ms"] = _ratio(dur["checkpoint.save_bundle"] * 1e3, saves)
    m["checkpoint.saves"] = _ratio(saves, n_runs)
    m["checkpoint.bytes_written"] = _ratio(sum(extra["checkpoint.save_bundle"]), saves)
    m["checkpoint.load_ms"] = _ratio(dur["checkpoint.load_bundle"] * 1e3, calls["checkpoint.load_bundle"])

    draws = sum(d for d, _ in extra["generation.sample_batch"])
    truncated = sum(t for _, t in extra["generation.sample_batch"])
    emitted = sum(sextra["smiles.detokenize"])
    m["generation.decode_calls"] = _ratio(scalls["model.forward_decoder"], units)
    m["generation.trunk_rows_per_token"] = _ratio(sum(sextra["model.forward_decoder"]), emitted)
    m["generation.decode_ms"] = per(sdur["model.forward_decoder"])
    m["generation.predict_ms"] = per(sdur["model.predict_target"])
    m["generation.select_ms"] = per(self_["generation.sample_batch"])
    m["generation.truncated_share"] = _ratio(truncated, draws)
    m["generation.mean_tokens"] = _ratio(emitted, draws)
    m["generation.accept_rate"] = _ratio(sum(a for a, _ in extra["generation.pbbo_optimize"]),
                                         sum(d for _, d in extra["generation.pbbo_optimize"]))

    m["smiles.validate_calls"] = _ratio(calls["smiles.validate"], units)
    m["smiles.validate_ms"] = per(dur["smiles.validate"])
    m["smiles.detokenize_ms"] = per(dur["smiles.detokenize"])
    m["smiles.tokenize_ms"] = _ratio(dur["smiles.tokenize"] * 1e3, n_runs)
    m["objectives.evaluate_calls"] = _ratio(calls["objectives.evaluate"], units)
    m["objectives.evaluate_ms"] = per(dur["objectives.evaluate"])
    m["evaluation.metrics_ms"] = per(eval_top)
    m["cli.overhead_ms"] = per(sum(v for k, v in self_.items() if k.startswith("cli.")))
    m["datagen.corpus_ms"] = _ratio(dur["datagen.toy_corpus"] * 1e3, calls["datagen.toy_corpus"])
    return m
