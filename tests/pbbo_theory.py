"""Exact toy-distribution checks of the draw-and-filter scheme.

Conditional generation draws (x, y) pairs from the joint and keeps those
whose y lies in the condition set; the optimization loop does the same
with the set y >= y_c. These harnesses check the two guarantees that
filtering relies on against exact enumeration over a finite X x Y grid:
(i) accept/reject on the joint reproduces the conditional distribution
p(x | y in set) (Proposition 1), and (ii) the trial count until
acceptance is geometric with mean 1/p (Proposition 2). They check the
maths, not library code, so they live with the tests that use them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from moljoint.numerics import Rng


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

    def contains(self, y) -> bool | np.ndarray:
        return (y >= self.lo) & (y <= self.hi)


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
