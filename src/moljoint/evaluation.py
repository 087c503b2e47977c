"""Generation and prediction metrics.

Generation metrics over sampled strings: validity (fraction passing the
syntactic validator), uniqueness (distinct / total, exact string
identity), novelty (fraction absent from the training corpus), and a
feature-distribution similarity score: per structural feature, the
histogram KL divergence of reference vs samples with Laplace smoothing,
aggregated as the mean of exp(-KL).

Prediction metrics: MAE of the predictor on labeled held-out data, and
MAE of sampled molecules' predicted targets against the true objective.

Uniqueness and novelty use exact string identity (no canonicalization),
which is stricter than an identity on molecules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import model as mdl
from .model import JointModelParams
from .objectives import ObjectiveSpec, evaluate as evaluate_objective
from .smiles import validate
from .training import Dataset

_FEATURES = ("length", "rings", "hetero_fraction", "branch_depth")


def validity(samples: list[str]) -> float:
    if not samples:
        raise ValueError("empty sample list")
    return sum(bool(validate(s)) for s in samples) / len(samples)


def uniqueness(samples: list[str]) -> float:
    if not samples:
        raise ValueError("empty sample list")
    return len(set(samples)) / len(samples)


def novelty(samples: list[str], train_corpus) -> float:
    if not samples:
        raise ValueError("empty sample list")
    known = set(train_corpus)
    return sum(s not in known for s in samples) / len(samples)


def _feature_matrix(strings: list[str]) -> np.ndarray:
    """(n, 4) feature rows for the syntactically valid strings."""
    feats = [validate(s).features for s in strings]
    rows = [(f.n_tokens, f.ring_pairs, f.hetero_fraction, f.branch_depth) for f in feats if f is not None]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def _shared_bins(ref: np.ndarray, gen: np.ndarray, col: int) -> np.ndarray:
    if col == 2:  # hetero fraction lives in [0, 1]
        return np.linspace(0.0, 1.0, 11)
    lo = min(ref[:, col].min(), gen[:, col].min())
    hi = max(ref[:, col].max(), gen[:, col].max())
    return np.arange(lo - 0.5, hi + 1.5)  # integer-valued features

def _smoothed_hist(values: np.ndarray, bins: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(values, bins=bins)
    counts = counts.astype(np.float64) + 1.0  # Laplace smoothing
    return counts / counts.sum()


def feature_kl(samples: list[str], reference: list[str]) -> float:
    """Similarity of sample and reference feature distributions in [0, 1].

    Mean over features of exp(-KL(reference || samples)) on smoothed
    shared-bin histograms; 1.0 means indistinguishable. Only valid
    strings from each set enter the histograms.
    """
    if not samples or not reference:
        raise ValueError("empty sample or reference set")
    gen = _feature_matrix(samples)
    ref = _feature_matrix(reference)
    if gen.shape[0] == 0 or ref.shape[0] == 0:
        raise ValueError("no valid strings to compare")
    scores = []
    for col in range(len(_FEATURES)):
        bins = _shared_bins(ref, gen, col)
        p = _smoothed_hist(ref[:, col], bins)
        q = _smoothed_hist(gen[:, col], bins)
        kl = float((p * np.log(p / q)).sum())
        scores.append(np.exp(-kl))
    return float(np.mean(scores))


def feature_histograms(samples: list[str], reference: list[str]) -> list[dict]:
    """Shared-bin histogram rows per feature, for CSV export."""
    gen = _feature_matrix(samples)
    ref = _feature_matrix(reference)
    rows = []
    for col, name in enumerate(_FEATURES):
        bins = _shared_bins(ref, gen, col)
        p, _ = np.histogram(ref[:, col], bins=bins)
        q, _ = np.histogram(gen[:, col], bins=bins)
        for i in range(len(bins) - 1):
            rows.append({
                "feature": name,
                "bin_lo": float(bins[i]),
                "bin_hi": float(bins[i + 1]),
                "reference_frac": float(p[i] / max(p.sum(), 1)),
                "sample_frac": float(q[i] / max(q.sum(), 1)),
            })
    return rows


def mae(params: JointModelParams, dataset: Dataset, batch_size: int = 64) -> float:
    """Mean absolute prediction error on labeled data."""
    if not dataset.supervised or len(dataset) == 0:
        raise ValueError("mae needs a non-empty labeled dataset")
    errs = []
    for start in range(0, len(dataset), batch_size):
        seqs = dataset.sequences[start:start + batch_size]
        ids = mdl.pad_batch(seqs)
        preds = mdl.predict_target(params, ids)
        errs.append(np.abs(preds - dataset.targets[start:start + len(seqs)]))
    return float(np.concatenate(errs).mean())


def mae_sampled(draws: list, objective: ObjectiveSpec) -> tuple[float, int]:
    """MAE of sampled (SMILES, predicted y) draws against the true objective.

    Invalid draws are dropped; returns (mae, retained count). Raises if
    every draw was invalid.
    """
    kept = [s for s in draws if validate(s.smiles)]
    if not kept:
        raise ValueError(f"all {len(draws)} samples invalid; nothing to score")
    errs = [abs(s.y - evaluate_objective(objective, s.smiles)) for s in kept]
    return float(np.mean(errs)), len(kept)


@dataclass
class MetricsReport:
    """One evaluation run's numbers plus enough metadata to rerun it."""

    validity: float | None = None
    uniqueness: float | None = None
    novelty: float | None = None
    feature_kl: float | None = None
    mae: float | None = None
    mae_sampled: float | None = None
    mae_sampled_retained: int | None = None
    sample_count: int = 0
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        doc = {k: v for k, v in self.__dict__.items()}
        return json.dumps(doc, indent=1, sort_keys=True)
