"""Sampling and budgeted optimization on top of a trained model.

Unconditional sampling is two-step: ancestral token-by-token decoding of
a string, then a target value from the predictor head (the predictive
mean by default; optionally a unit-variance Gaussian draw). Conditional
generation draws a batch and filters by the predicted target. The
optimization loop draws until either the sampling budget is spent or
enough samples have been accepted, accepting on predicted target >=
threshold; accepted samples can be re-scored with the true objective
afterwards.

Decoding is incremental: a ``model.KVCache`` holds every layer's keys
and values, so each step runs only the newest column through the trunk.
Rows that emit EOS leave both the step input and the cache (batch
shrinking), so a step costs one trunk row per molecule still being
decoded. The predictor then makes one all-visible pass over the
finished strings.

The toy-distribution harnesses at the bottom check the two guarantees the
filtering scheme relies on against exact enumeration: (i) accept/reject
on the joint reproduces the conditional distribution, and (ii) the trial
count until acceptance is geometric with mean 1/p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .model import JointModelParams
from .numerics import Rng
from .smiles import BOS_ID, EOS_ID, MASK_ID, PAD_ID, Vocabulary, detokenize, validate

DRAW_CHUNK = 64  # rows decoded together by sample_batch, and draws per optimization round


@dataclass
class SamplerConfig:
    """Ancestral decoding knobs.

    temperature 0 means argmax decoding; top_k 0 disables top-k
    filtering. Special tokens other than EOS are never sampled. With
    ``sample_y`` the target is drawn from the unit-variance Gaussian
    around the predicted mean instead of returning the mean itself.
    """

    temperature: float = 1.0
    top_k: int = 0
    max_new_tokens: int | None = None  # default: model max_len - 1
    seed: int = 0
    sample_y: bool = False

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")


@dataclass(frozen=True)
class Sample:
    """One drawn molecule with its predicted target."""

    smiles: str
    y: float
    truncated: bool = False  # hit max_new_tokens without emitting EOS


def _next_token_ids(logits: np.ndarray, cfg: SamplerConfig, rng: Rng) -> np.ndarray:
    """Sample one token id per row from last-position logits (B, V)."""
    z = logits.astype(np.float64).copy()
    z[:, BOS_ID] = -np.inf
    z[:, PAD_ID] = -np.inf
    z[:, MASK_ID] = -np.inf
    if cfg.temperature == 0.0:
        return z.argmax(axis=-1)
    z /= cfg.temperature
    if cfg.top_k > 0 and cfg.top_k < z.shape[-1]:
        kth = np.sort(z, axis=-1)[:, -cfg.top_k][:, None]
        z = np.where(z >= kth, z, -np.inf)
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    u = rng.random(z.shape[0])
    ids = (p.cumsum(axis=-1) < u[:, None]).sum(axis=-1)
    # rounding can leave the summed mass below u (id V or a zero-mass tail
    # id) and u = 0 picks id 0; clamp each row to its nonzero-mass span
    nonzero = p > 0
    first = nonzero.argmax(axis=-1)
    last = p.shape[-1] - 1 - nonzero[:, ::-1].argmax(axis=-1)
    return np.clip(ids, first, last)


def _decode_chunk(
    params: JointModelParams, cfg: SamplerConfig, n: int, rng: Rng
) -> tuple[np.ndarray, np.ndarray]:
    """Ancestrally decode n sequences; returns (ids (n, S), truncated (n,))."""
    max_new = cfg.max_new_tokens
    if max_new is None:
        max_new = params.config.max_len - 1
    if max_new + 1 > params.config.max_len:
        raise ValueError("max_new_tokens exceeds the model's max_len")
    ids = np.full((n, max_new + 1), PAD_ID, dtype=np.int64)
    ids[:, 0] = BOS_ID
    live = np.arange(n)  # rows still decoding, in cache order
    cache = mdl.KVCache()
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
        if params.config.n_classes > 0:
            ys = ys.argmax(axis=-1).astype(np.float64)
        if cfg.sample_y:
            ys = ys + rng.normal(m)
        for i in range(m):
            out.append(Sample(detokenize(list(ids[i]), vocab), float(ys[i]), bool(truncated[i])))
    return out


def sample_unconditional(
    params: JointModelParams,
    vocab: Vocabulary,
    cfg: SamplerConfig,
    rng: Rng | None = None,
) -> Sample:
    """Two-step draw: a string from the decoder, then its target value."""
    return sample_batch(params, vocab, cfg, 1, rng)[0]


@dataclass(frozen=True)
class Condition:
    """A target set: the interval [lo, hi] (hi may be +inf)."""

    lo: float
    hi: float = math.inf

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty condition interval")

    @classmethod
    def at_least(cls, y_c: float) -> "Condition":
        return cls(y_c, math.inf)

    @classmethod
    def interval(cls, lo: float, hi: float) -> "Condition":
        return cls(lo, hi)

    def contains(self, y) -> bool | np.ndarray:
        return (y >= self.lo) & (y <= self.hi)

    def distance(self, y: float) -> float:
        if y < self.lo:
            return self.lo - y
        if y > self.hi:
            return y - self.hi
        return 0.0


def sample_conditional(
    params: JointModelParams,
    vocab: Vocabulary,
    cond: Condition,
    batch: int,
    cfg: SamplerConfig,
    rng: Rng | None = None,
) -> Sample:
    """Best of `batch` unconditional draws under the condition.

    Returns a satisfying sample when one exists (largest y on ties),
    otherwise the sample closest to the condition set.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    draws = sample_batch(params, vocab, cfg, batch, rng)
    satisfying = [s for s in draws if cond.contains(s.y)]
    if satisfying:
        return max(satisfying, key=lambda s: s.y)
    return min(draws, key=lambda s: (cond.distance(s.y), -s.y))


@dataclass
class PbboConfig:
    """Budgets for the optimization loop.

    y_c: acceptance threshold on the predicted target.
    eval_budget: maximum number of accepted samples (I).
    sample_budget: maximum number of draws (B).
    """

    y_c: float
    eval_budget: int
    sample_budget: int

    def __post_init__(self):
        if self.eval_budget < 1 or self.sample_budget < 1:
            raise ValueError("budgets must be >= 1")


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
    rng: Rng | None = None,
) -> OptimizationResult:
    """Draw-and-filter optimization loop.

    Each draw costs one unit of the sampling budget whether or not it is
    accepted; invalid strings are never accepted regardless of their
    predicted target. Acceptance requires predicted y >= y_c. When an
    objective callable is supplied, accepted samples are re-scored with
    it after the loop (reporting only; acceptance never consults it).
    """
    if rng is None:
        rng = Rng(sampler.seed)
    trace: list[DrawRecord] = []
    accepted: list[DrawRecord] = []
    draws = 0
    while draws < cfg.sample_budget and len(accepted) < cfg.eval_budget:
        chunk = min(DRAW_CHUNK, cfg.sample_budget - draws)
        for s in sample_batch(params, vocab, sampler, chunk, rng):
            if len(accepted) >= cfg.eval_budget:
                break
            draws += 1
            ok = s.y >= cfg.y_c and bool(validate(s.smiles))
            rec = DrawRecord(draws, s.smiles, s.y, ok)
            trace.append(rec)
            if ok:
                accepted.append(rec)
    if objective is not None:
        for rec in accepted:
            rec.oracle = float(objective(rec.smiles))
    return OptimizationResult(accepted, draws, trace)


def rank_by_prediction(samples, k: int) -> list:
    """Top-k by predicted target, descending, stable on ties."""
    if k > len(samples):
        raise ValueError(f"k={k} exceeds {len(samples)} samples")
    key = (lambda s: s.y) if samples and isinstance(samples[0], Sample) else (lambda s: s[1])
    return sorted(samples, key=key, reverse=True)[:k]


class ZeroProbabilityCondition(ValueError):
    """The condition set has zero mass under the distribution."""


@dataclass
class ToyJointDistribution:
    """Explicit probability table over a finite X x Y grid."""

    xs: tuple
    ys: np.ndarray
    probs: np.ndarray  # (|X|, |Y|)

    def __post_init__(self):
        self.ys = np.asarray(self.ys, dtype=np.float64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (len(self.xs), len(self.ys)):
            raise ValueError("probability table shape mismatch")
        if (self.probs < 0).any():
            raise ValueError("negative probabilities")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    def conditional_x(self, cond: Condition) -> np.ndarray:
        """Exact p(x | y in condition set), by enumeration."""
        col = np.asarray(cond.contains(self.ys), dtype=bool)
        mass = self.probs[:, col].sum()
        if mass <= 0.0:
            raise ZeroProbabilityCondition(f"condition {cond} has zero probability")
        return self.probs[:, col].sum(axis=1) / mass

    def sample(self, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
        """n joint draws; returns (x indices, y values)."""
        flat = self.probs.reshape(-1)
        cdf = flat.cumsum()
        cdf[-1] = 1.0
        u = rng.random(n)
        idx = np.searchsorted(cdf, u, side="right")
        xi, yi = np.unravel_index(idx, self.probs.shape)
        return xi, self.ys[yi]


def filtering_tv_distance(
    toy: ToyJointDistribution,
    cond: Condition,
    n_samples: int,
    rng: Rng,
) -> float:
    """Run accept/reject on the toy joint; total-variation distance of the
    accepted empirical x-distribution from the exact conditional."""
    exact = toy.conditional_x(cond)
    xi, yv = toy.sample(n_samples, rng)
    keep = np.asarray(cond.contains(yv), dtype=bool)
    n_acc = int(keep.sum())
    if n_acc == 0:
        raise RuntimeError(f"no samples accepted out of {n_samples}; condition too rare for this n")
    emp = np.bincount(xi[keep], minlength=len(toy.xs)) / n_acc
    return 0.5 * float(np.abs(emp - exact).sum())


@dataclass(frozen=True)
class TrialStats:
    """Trials-until-acceptance statistics vs the analytic mean 1/p."""

    empirical_mean: float
    analytic_mean: float
    counts: np.ndarray


def trials_to_acceptance(
    ys: np.ndarray,
    probs: np.ndarray,
    y_c: float,
    n_trials: int,
    rng: Rng,
    trial_cap: int = 1_000_000,
) -> TrialStats:
    """Repeatedly sample y from the marginal until y > y_c, per trial.

    Returns the empirical mean trial count, the analytic value 1/p with
    p = P(y > y_c), and the raw per-trial counts.
    """
    ys = np.asarray(ys, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    p = float(probs[ys > y_c].sum())
    if p <= 0.0:
        raise ZeroProbabilityCondition(f"P(y > {y_c}) = 0")
    cdf = probs.cumsum()
    cdf[-1] = 1.0
    counts = np.zeros(n_trials, dtype=np.int64)
    pending = np.arange(n_trials)
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > trial_cap:
            raise RuntimeError(f"trial cap {trial_cap} exceeded")
        u = rng.random(pending.size)
        y = ys[np.searchsorted(cdf, u, side="right")]
        counts[pending] += 1
        pending = pending[~(y > y_c)]
    return TrialStats(float(counts.mean()), 1.0 / p, counts)


def geometric_chisquare_pvalue(counts: np.ndarray, p: float) -> float:
    """Chi-square goodness-of-fit p-value of trial counts vs Geometric(p).

    Bins k = 1..K with the tail lumped so every expected count is >= 5.
    """
    from scipy import stats

    counts = np.asarray(counts)
    n = counts.size
    k_max = 1
    while n * p * (1 - p) ** k_max >= 5 and k_max < 10_000:
        k_max += 1
    expected = [n * p * (1 - p) ** (k - 1) for k in range(1, k_max + 1)]
    expected.append(n * (1 - p) ** k_max)  # tail: k > k_max
    observed = [int((counts == k).sum()) for k in range(1, k_max + 1)]
    observed.append(int((counts > k_max).sum()))
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(expected) - 1
    return float(stats.chi2.sf(stat, dof))
