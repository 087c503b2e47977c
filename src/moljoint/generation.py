"""Sampling and budgeted optimization on top of a trained model.

A draw is two-step: ancestral token-by-token decoding of a string, each
token a Gumbel-max pick, then a target value from the predictor head (the
predictive mean by default; optionally a unit-variance Gaussian draw). The
optimization loop draws until either the sampling budget is spent or enough
samples have been accepted, accepting on predicted target >= threshold;
accepted samples can be re-scored with the true objective afterwards.

Decoding is incremental: each step runs only the newest column through
the trunk's tape-free decode step, over a ``model.KVCache`` made once per
chunk for its rows: one buffer of every layer's keys and values. Rows
that emit EOS leave the step input, and the cache in one gather (batch
shrinking), so a step costs one trunk row per molecule still being
decoded. The predictor then runs ``forward_predictor``'s all-visible
pass over the finished strings' packed cells, with no tape recording.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .model import JointModelParams, bounded, check_bounds
from .numerics import Rng
from .smiles import BOS_ID, EOS_ID, MASK_ID, PAD_ID, Vocabulary, detokenize, validate

DRAW_CHUNK = 64  # rows decoded together by sample_batch, and draws per optimization round


@dataclass
class SamplerConfig:
    """Ancestral decoding knobs.

    temperature 0 means argmax decoding, as does one so small that the
    scaled logits overflow; top_k 0 disables top-k filtering. Special
    tokens other than EOS are never sampled. With ``sample_y`` the target
    is drawn from the unit-variance Gaussian around the predicted mean
    instead of returning the mean itself.
    """

    temperature: float = bounded(1.0, lo=0, open_hi=True)
    top_k: int = bounded(0, lo=0)
    max_new_tokens: int | None = bounded(None, lo=1)  # default: model max_len - 1
    seed: int = bounded(0, lo=0)
    sample_y: bool = False

    def __post_init__(self):
        check_bounds(self)

    def new_tokens(self, max_len: int) -> int:
        """Decoding steps per draw from a model with this ``max_len``."""
        n = max_len - 1 if self.max_new_tokens is None else self.max_new_tokens
        if n + 1 > max_len:
            raise ValueError(f"max_new_tokens {n} needs max_len >= {n + 1}; the model's is {max_len}")
        return n


@dataclass(frozen=True)
class Sample:
    """One drawn molecule with its predicted target."""

    smiles: str
    y: float
    truncated: bool = False  # hit max_new_tokens without emitting EOS


def _next_token_ids(logits: np.ndarray, cfg: SamplerConfig, rng: Rng) -> np.ndarray:
    """Sample one token id per row from last-position logits (B, V) by Gumbel-max.

    argmax(z / T + G), with Gumbel noise G = -log(-log u) from one uniform u per
    (row, id), draws from softmax(z / T). Rows peak at 0 before the division, so a
    tiny T overflows only to -inf, and u = 0 is raised to the smallest normal
    float, so G is finite: the argmax runs over finite entries only, with no clamp.
    """
    z = logits.astype(np.float64)
    z[:, [BOS_ID, PAD_ID, MASK_ID]] = -np.inf  # the specials other than EOS are never sampled
    if cfg.temperature == 0.0:
        return z.argmax(axis=-1)
    if 0 < cfg.top_k < z.shape[-1]:  # ties at the k-th largest are kept
        z[z < np.sort(z, axis=-1)[:, -cfg.top_k, None]] = -np.inf
    z -= z.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        z /= cfg.temperature
    u = np.maximum(rng.random(z.shape), np.finfo(np.float64).tiny)
    return (z - np.log(-np.log(u))).argmax(axis=-1)


def _decode_chunk(
    params: JointModelParams, cfg: SamplerConfig, n: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Ancestrally decode n sequences; returns (ids (n, S), truncated (n,))."""
    max_new = cfg.new_tokens(params.config.max_len)
    ids = np.full((n, max_new + 1), PAD_ID, dtype=np.int64)
    ids[:, 0] = BOS_ID
    live = np.arange(n)  # rows still decoding, in cache order
    cache = mdl.KVCache(params, n)
    length = 1
    while length <= max_new and live.size:
        logits = mdl.forward_decoder(params, ids[live, length - 1 : length], cache=cache).data[:, -1, :]
        nxt = _next_token_ids(logits, cfg, rng)
        ids[live, length] = nxt
        going = nxt != EOS_ID
        if not going.all():
            live = live[going]
            cache.keep(going)
        length += 1
    truncated = np.zeros(n, dtype=bool)
    truncated[live] = True
    return ids[:, :length], truncated


def sample_batch(
    params: JointModelParams,
    vocab: Vocabulary,
    cfg: SamplerConfig,
    n: int,
    rng: Rng | None = None,
) -> list[Sample]:
    """Draw n independent (string, predicted target) samples."""
    if rng is None:
        rng = Rng(cfg.seed)
    out: list[Sample] = []
    for start in range(0, n, DRAW_CHUNK):
        m = min(DRAW_CHUNK, n - start)
        ids, truncated = _decode_chunk(params, cfg, m, rng)
        ys = mdl.predict_target(params, ids)
        if cfg.sample_y:
            ys = ys + rng.normal(m)
        out += [Sample(detokenize(row, vocab), y, t)
                for row, y, t in zip(ids.tolist(), ys.tolist(), truncated.tolist())]
    return out


@dataclass
class PbboConfig:
    """Budgets for the optimization loop.

    y_c: acceptance threshold on the predicted target.
    eval_budget: maximum number of accepted samples (I).
    sample_budget: maximum number of draws (B).
    """

    y_c: float = bounded(open_hi=True)  # -inf accepts every valid draw
    eval_budget: int = bounded(lo=1)
    sample_budget: int = bounded(lo=1)

    def __post_init__(self):
        check_bounds(self)


@dataclass
class DrawRecord:
    index: int  # 1-based draw counter
    smiles: str
    y_pred: float
    accepted: bool
    oracle: float | None = None


@dataclass
class OptimizationResult:
    accepted: list[DrawRecord]
    draws_used: int
    trace: list[DrawRecord] = field(repr=False)

    @property
    def accepted_count(self) -> int:
        return len(self.accepted)

    def top1(self) -> float | None:
        """Best oracle value among accepted samples (predicted if unscored)."""
        if not self.accepted:
            return None
        return max(r.oracle if r.oracle is not None else r.y_pred for r in self.accepted)


def pbbo_optimize(
    params: JointModelParams,
    vocab: Vocabulary,
    cfg: PbboConfig,
    sampler: SamplerConfig,
    objective=None,
) -> OptimizationResult:
    """Draw-and-filter optimization loop.

    Each draw costs one unit of the sampling budget whether or not it is
    accepted; invalid strings are never accepted regardless of their
    predicted target. Acceptance requires predicted y >= y_c. When an
    objective callable is supplied, accepted samples are re-scored with
    it after the loop (reporting only; acceptance never consults it).
    """
    rng = Rng(sampler.seed)
    trace: list[DrawRecord] = []
    accepted: list[DrawRecord] = []
    while len(trace) < cfg.sample_budget and len(accepted) < cfg.eval_budget:
        chunk = min(DRAW_CHUNK, cfg.sample_budget - len(trace))
        for s in sample_batch(params, vocab, sampler, chunk, rng):
            if len(accepted) >= cfg.eval_budget:
                break
            ok = s.y >= cfg.y_c and bool(validate(s.smiles))
            trace.append(DrawRecord(len(trace) + 1, s.smiles, s.y, ok))
            if ok:
                accepted.append(trace[-1])
    if objective is not None:
        for rec in accepted:
            rec.oracle = float(objective(rec.smiles))
    return OptimizationResult(accepted, len(trace), trace)
