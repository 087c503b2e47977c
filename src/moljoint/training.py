"""Training with the per-step task switch: one loop for every run.

Each step draws one Bernoulli(p_task) indicator: with probability p_task
the step trains the generation mode (causal next-token loss), otherwise
the prediction mode (masked-token loss, plus the target term when the
batch is labeled). ``train`` runs that loop on whatever dataset it is
given: on an unlabeled corpus the prediction term is absent throughout;
fine-tuning is the same loop on labeled data, conventionally with a
prediction-heavy switch (p_task = 0.1). Ablate the generation branch with
p_task = 0 and the masked-token term with mask_rate = 0.

A run starts from an iteration-0 ``Checkpoint.start`` (fresh weights, or a
copy of a base model's for fine-tuning) or resumes a ``Checkpoint.load``;
either way ``state.train_config`` is the one config the loop, the
optimizer and the saved bundle use.

The optimizer is Adam with decoupled weight decay: decay applies to
matrix weights only, never to biases, gains, or embeddings. Each step
updates only the parameters that backward reached from that step's loss,
so generation steps never move the predictor head, unsupervised
prediction steps never move it either, and labeled prediction steps
without a masked-token term never move the token head.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Callable

import numpy as np

from . import checkpoint as ckpt_io
from . import model as mdl
from .model import JointModelParams, ModelConfig, Task, bounded, check_bounds
from .numerics import LN_EPS, NonFiniteError, Rng, Tape, check_finite
from .smiles import TokenSequence, Vocabulary, tokenize


@dataclass
class TrainConfig:
    p_task: float = bounded(0.95, 0, 1)  # probability of taking the generation branch
    mask_rate: float = bounded(0.15, 0, 1)
    batch_size: int = bounded(64, lo=1)
    max_iters: int = bounded(5000, lo=0)
    weight_decay: float = bounded(0.1, lo=0, open_hi=True)
    beta1: float = bounded(0.9, 0, 1, open_hi=True)
    beta2: float = bounded(0.95, 0, 1, open_hi=True)
    adam_eps: float = bounded(1e-8, lo=0, open_lo=True, open_hi=True)
    lr_max: float = bounded(6e-4, lo=0, open_hi=True)
    lr_min: float = bounded(6e-5, lo=0, open_hi=True)
    decay_lr: bool = True
    warmup_iters: int = bounded(2000, lo=0)
    decay_iters: int | None = bounded(None, lo=0)  # defaults to max_iters
    grad_clip: float = bounded(1.0, lo=0)  # 0 switches clipping off
    dropout: float = bounded(0.1, 0, 1, open_hi=True)
    seed: int = bounded(0, lo=0)
    eval_interval: int = bounded(500, lo=0)  # checkpoint interval in iterations (0 = only at the end)

    def __post_init__(self):
        check_bounds(self)
        if self.lr_min > self.lr_max:
            raise ValueError("lr_min must not exceed lr_max")
        if self.decay_iters is not None and self.warmup_iters > self.decay_iters:
            raise ValueError("warmup_iters must not exceed decay_iters")

    @classmethod
    def finetune_defaults(cls) -> "TrainConfig":
        """Prediction-heavy fine-tuning: constant small LR, p_task 0.1."""
        return cls(p_task=0.1, lr_max=3e-5, lr_min=3e-5, decay_lr=False, max_iters=50_000)


TARGET_RANGE = (0.0, 1.0)  # every supervised target lies in [lo, hi]


@dataclass
class Dataset:
    """Token sequences with optional aligned scalar targets."""

    sequences: list[TokenSequence]
    targets: np.ndarray | None = None

    def __post_init__(self):
        if self.targets is not None:
            self.targets = np.asarray(self.targets, dtype=np.float64)
            if len(self.targets) != len(self.sequences):
                raise ValueError("targets must align 1:1 with sequences")
            lo, hi = TARGET_RANGE
            # nan compares false, so it fails this test as well
            if not ((self.targets >= lo) & (self.targets <= hi)).all():
                raise ValueError(f"targets must be finite and lie in [{lo}, {hi}]")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def supervised(self) -> bool:
        return self.targets is not None


def encode_corpus(
    lines: list[str],
    vocab: Vocabulary,
    max_len: int,
    targets: list[float] | None = None,
) -> Dataset:
    seqs = [tokenize(s, vocab, max_len) for s in lines]
    return Dataset(seqs, None if targets is None else np.asarray(targets))


def read_smiles_lines(path) -> list[str]:
    """Unsupervised data file: UTF-8, one SMILES per line."""
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    return [ln for ln in lines if ln]


def read_labeled_lines(path) -> tuple[list[str], list[float]]:
    """Supervised data file: "SMILES<TAB>float" per line."""
    smiles, ys = [], []
    for lineno, ln in enumerate(Path(path).read_text().splitlines(), start=1):
        ln = ln.rstrip()
        if not ln:
            continue
        parts = ln.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'SMILES<TAB>float', got {ln!r}")
        smiles.append(parts[0])
        try:
            ys.append(float(parts[1]))
        except ValueError:
            raise ValueError(f"line {lineno}: bad target {parts[1]!r}") from None
    return smiles, ys


class AdamW:
    """Adam with decoupled weight decay and per-parameter step counts.

    Decay set: tensors with ndim >= 2 except the embedding tables. Step
    counts are per parameter because a step only updates the parameters
    participating in that step's loss. An update that leaves a parameter
    non-finite raises ``NonFiniteError`` naming it.
    """

    def __init__(self, params: JointModelParams):
        self.m = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.v = {n: np.zeros_like(t.data) for n, t in params.tensors.items()}
        self.steps = {n: 0 for n in params.tensors}
        self.decay_set = {
            n for n, t in params.tensors.items()
            if t.ndim >= 2 and n not in ("tok_emb", "pos_emb")
        }

    def step(self, params: JointModelParams, cfg: TrainConfig, lr: float, names: list[str]) -> None:
        for n in names:
            t = params.tensors[n]
            g = t.grad
            self.steps[n] += 1
            k = self.steps[n]
            m, v = self.m[n], self.v[n]
            m *= cfg.beta1
            m += (1 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1 - cfg.beta2) * g * g
            mhat = m / (1 - cfg.beta1**k)
            vhat = v / (1 - cfg.beta2**k)
            upd = mhat / (np.sqrt(vhat) + cfg.adam_eps)
            if n in self.decay_set:
                upd = upd + cfg.weight_decay * t.data
            t.data -= (lr * upd).astype(t.data.dtype)
            check_finite(t.data, f"{n} (AdamW update)")  # lr * upd can overflow: fail before a save

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {f"{k}:{n}": moments[n] for n in self.m for k, moments in (("m", self.m), ("v", self.v))}

    def load_state(self, arrays: dict[str, np.ndarray], steps: dict[str, int]) -> None:
        for n in self.m:
            self.m[n] = arrays[f"m:{n}"].astype(self.m[n].dtype)
            self.v[n] = arrays[f"v:{n}"].astype(self.v[n].dtype)
        self.steps = {n: steps[n] for n in self.m}


def lr_at(it: int, cfg: TrainConfig) -> float:
    """Linear warmup to lr_max, cosine decay to lr_min, then flat.

    With decay disabled the rate is constant lr_max.
    """
    if not cfg.decay_lr:
        return cfg.lr_max
    decay_iters = cfg.decay_iters if cfg.decay_iters is not None else cfg.max_iters
    if it < cfg.warmup_iters:
        return cfg.lr_max * it / cfg.warmup_iters
    if it >= decay_iters:
        return cfg.lr_min
    frac = (it - cfg.warmup_iters) / (decay_iters - cfg.warmup_iters)
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(math.pi * frac))


def clip_gradients(params: JointModelParams, names: list[str], clip: float) -> float:
    """Scale gradients so their global L2 norm is at most `clip`."""
    total = 0.0
    for n in names:
        g = params.tensors[n].grad
        total += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if not math.isfinite(norm):
        raise NonFiniteError("non-finite gradient norm")
    if clip > 0 and norm > clip:
        scale = clip / (norm + 1e-6)
        for n in names:
            params.tensors[n].grad *= scale
    return norm


def train_step(
    params: JointModelParams,
    opt: AdamW,
    batch: tuple[np.ndarray, np.ndarray | None],
    cfg: TrainConfig,
    rng: Rng,
    it: int,
) -> tuple[float, Task]:
    """One optimization step; returns (loss value, branch taken)."""
    ids, y = batch
    task = Task.GENERATION if rng.random() < cfg.p_task else Task.PREDICTION
    mask = mdl.sample_mask_vector(ids, cfg.mask_rate, rng) if task is Task.PREDICTION else None
    for t in params.tensors.values():
        t.grad = None
    try:
        with Tape() as tape:
            loss = mdl.loss_joint(params, ids, y, mask, task, dropout=cfg.dropout, rng=rng)
        value = loss.item()
        if not math.isfinite(value):
            raise NonFiniteError(f"loss = {value}")
        tape.backward(loss)
        # a tensor the loss never reached keeps grad None and sits this step out; an unlabeled
        # prediction step with an empty mask reaches none, and its loss is 0
        names = [n for n, t in params.tensors.items() if t.grad is not None]
        clip_gradients(params, names, cfg.grad_clip)
        opt.step(params, cfg, lr_at(it, cfg), names)
    except (NonFiniteError, RuntimeWarning) as e:  # numpy's overflow warnings raise under -W error
        raise NonFiniteError(f"training aborted at iter {it} ({task.value} step): {e}") from None
    return value, task


# config keys of older bundles that this code no longer has: each loads only at
# the value this code implements (None: at any value, as nothing ever read it)
_RETIRED_KEYS = {
    "model": {"dropout_rate": None, "ln_eps": LN_EPS, "n_classes": 0},
    "train": {"encoder_term": True, "generation_task": True},
}


# a per-block attention tensor of older bundles, split into q, k and v: group 1 is its stem
_SPLIT_ATTENTION = re.compile(r"(h\d+\.attn\.[wb])[qkv]")


def _join_split_attention(params: dict, moments: dict, steps: dict) -> None:
    """Join an older bundle's attn.wq|wk|wv and attn.bq|bk|bv, their AdamW moments and step counts,
    in place; ValueError for a mix of both layouts or unequal step counts."""
    stems = {m[1] for m in map(_SPLIT_ATTENTION.fullmatch, params) if m}
    if stems and any(n.endswith("qkv") for n in params):
        raise ValueError("checkpoint mixes split attn.wq|wk|wv tensors with fused attn.wqkv ones")
    for stem in stems:
        names = [stem + c for c in "qkv"]
        counts = {steps.pop(n) for n in names}
        if len(counts) != 1:
            raise ValueError(f"checkpoint counts unequal AdamW steps {sorted(counts)} for {'|'.join(names)}")
        steps[stem + "qkv"] = counts.pop()
        for arrays, prefix in ((params, ""), (moments, "m:"), (moments, "v:")):
            arrays[prefix + stem + "qkv"] = np.concatenate([arrays.pop(prefix + n) for n in names], -1)


def _config_from(cls, section: str, doc: dict):
    doc = dict(doc)
    for key, implemented in _RETIRED_KEYS[section].items():
        value = doc.pop(key, implemented)
        if implemented is not None and value != implemented:
            raise ValueError(f"{section} config {key}={value!r} is retired; only {implemented!r} loads")
    try:
        return cls(**doc)
    except TypeError as e:  # an unknown or missing key, or a value of the wrong type
        raise ValueError(f"bad {section} config: {e}") from None


@dataclass
class Checkpoint:
    """Full training state; save/load round-trips bit-exactly."""

    model_config: ModelConfig
    train_config: TrainConfig
    vocab: Vocabulary
    params: JointModelParams
    opt: AdamW
    iteration: int
    rng: Rng

    def save(self, path) -> None:
        ckpt_io.save_bundle(
            path,
            iteration=self.iteration,
            config={"model": asdict(self.model_config), "train": asdict(self.train_config)},
            vocab_lines=self.vocab.to_lines(),
            params={n: t.data for n, t in self.params.tensors.items()},
            optim_arrays=self.opt.state_arrays(),
            optim_extra={"steps": self.opt.steps},
            rng_state=self.rng.get_state(),
        )

    @classmethod
    def start(cls, vocab: Vocabulary, model_config: ModelConfig, cfg: TrainConfig,
              weights: dict[str, np.ndarray] | None = None) -> "Checkpoint":
        """An iteration-0 state with a fresh optimizer and Rng(cfg.seed).

        Without ``weights`` the parameters are drawn from that RNG; with them
        (fine-tuning) they are copies of the given arrays, one per name;
        ValueError for a name the model lacks, or a vocabulary of another size than the model's.
        """
        if len(vocab) != model_config.vocab_size:
            raise ValueError(f"the vocabulary holds {len(vocab)} tokens, the model config's vocab_size is "
                             f"{model_config.vocab_size}")
        rng = Rng(cfg.seed)
        params = JointModelParams(model_config, rng if weights is None else None)
        if weights is not None:
            stray = sorted(set(weights) - set(params.tensors))
            if stray:
                raise ValueError(f"checkpoint tensors {', '.join(stray)} are not in the model")
            for n, t in params.tensors.items():
                if tuple(weights[n].shape) != t.shape:
                    raise ValueError(f"checkpoint tensor {n} has shape {weights[n].shape}, expected {t.shape}")
                t.data[...] = weights[n]
        return cls(model_config, cfg, vocab, params, AdamW(params), 0, rng)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        bundle = ckpt_io.load_bundle(path)
        _join_split_attention(bundle["params"], bundle["optim_arrays"], bundle["optim_extra"]["steps"])
        model_config = _config_from(ModelConfig, "model", bundle["config"]["model"])
        train_config = _config_from(TrainConfig, "train", bundle["config"]["train"])
        vocab = Vocabulary.from_lines(bundle["vocab_lines"])
        state = cls.start(vocab, model_config, train_config, weights=bundle["params"])
        state.opt.load_state(bundle["optim_arrays"], bundle["optim_extra"]["steps"])
        state.rng.set_state(bundle["rng_state"])
        state.iteration = bundle["iteration"]
        return state


def _batch(dataset: Dataset, rng: Rng, cfg: TrainConfig):
    idx = rng.integers(0, len(dataset), cfg.batch_size)
    seqs = [dataset.sequences[i] for i in idx]
    ids = mdl.pad_batch(seqs)
    y = dataset.targets[idx] if dataset.supervised else None
    return ids, y


def train(
    state: Checkpoint,
    dataset: Dataset,
    *,
    log_cb: Callable[[int, float, Task], None] | None = None,
    checkpoint_dir=None,
) -> Checkpoint:
    """Train ``state`` in place up to its train_config.max_iters; returns it.

    Each step trains the terms its batch has: the prediction term only on a
    labeled dataset. Saves to ``checkpoint_dir`` every eval_interval
    iterations and once at the end.
    """
    cfg = state.train_config
    if any(max(seq.ids) >= len(state.vocab) for seq in dataset.sequences):
        raise ValueError("dataset token ids exceed the model's vocabulary")
    while state.iteration < cfg.max_iters:
        it = state.iteration
        batch = _batch(dataset, state.rng, cfg)
        loss, task = train_step(state.params, state.opt, batch, cfg, state.rng, it)
        state.iteration = it + 1
        if log_cb is not None:
            log_cb(it, loss, task)
        periodic = cfg.eval_interval > 0 and state.iteration % cfg.eval_interval == 0
        # the last iteration is saved once, by the final save below
        if checkpoint_dir is not None and periodic and state.iteration < cfg.max_iters:
            state.save(checkpoint_dir)
    if checkpoint_dir is not None:
        state.save(checkpoint_dir)
    return state
