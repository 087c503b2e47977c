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
from .objectives import ObjectiveSpec, score
from .smiles import ValidityReport, validate
from .training import Dataset

_FEATURES = ("length", "rings", "hetero_fraction", "branch_depth")


def _reports(items: list) -> list[ValidityReport]:
    """Each item's ValidityReport: a string is validated here, a report passes through."""
    return [s if isinstance(s, ValidityReport) else validate(s) for s in items]


def validity(samples: list) -> float:
    """Valid share of the samples: strings, or their ``validate`` reports."""
    if not samples:
        raise ValueError("empty sample list")
    return sum(bool(r) for r in _reports(samples)) / len(samples)


def uniqueness(samples: list[str]) -> float:
    if not samples:
        raise ValueError("empty sample list")
    return len(set(samples)) / len(samples)


def novelty(samples: list[str], train_corpus) -> float:
    if not samples:
        raise ValueError("empty sample list")
    known = set(train_corpus)
    return sum(s not in known for s in samples) / len(samples)


def _feature_matrix(items: list) -> np.ndarray:
    """(n, 4) feature rows for the syntactically valid strings (or reports)."""
    feats = [r.features for r in _reports(items)]
    rows = [(f.n_tokens, f.ring_pairs, f.hetero_fraction, f.branch_depth) for f in feats if f is not None]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 4)


def _histograms(samples: list, reference: list):
    """Per feature: its name, the shared bins, and the reference and sample counts in them."""
    gen, ref = _feature_matrix(samples), _feature_matrix(reference)
    if gen.shape[0] == 0 or ref.shape[0] == 0:
        raise ValueError("no valid strings to compare")
    for col, name in enumerate(_FEATURES):
        if col == 2:  # hetero fraction lives in [0, 1]
            bins = np.linspace(0.0, 1.0, 11)
        else:  # integer-valued features
            lo = min(ref[:, col].min(), gen[:, col].min())
            bins = np.arange(lo - 0.5, max(ref[:, col].max(), gen[:, col].max()) + 1.5)
        yield name, bins, np.histogram(ref[:, col], bins=bins)[0], np.histogram(gen[:, col], bins=bins)[0]


def feature_kl(samples: list, reference: list) -> float:
    """Similarity of sample and reference feature distributions in [0, 1].

    Mean over features of exp(-KL(reference || samples)) on Laplace-smoothed
    shared-bin histograms; 1.0 means indistinguishable. Only valid strings
    from each set enter the histograms; either set may be given as reports.
    """
    if not samples or not reference:
        raise ValueError("empty sample or reference set")
    scores = []
    for _, _, p, q in _histograms(samples, reference):
        p, q = ((c + 1.0) / (c + 1.0).sum() for c in (p, q))
        kl = float((p * np.log(p / q)).sum())
        scores.append(np.exp(-kl))
    return float(np.mean(scores))


def feature_histograms(samples: list, reference: list) -> list[dict]:
    """Shared-bin histogram rows per feature, for CSV export."""
    rows = []
    for name, bins, p, q in _histograms(samples, reference):
        for i in range(len(bins) - 1):
            rows.append({
                "feature": name,
                "bin_lo": float(bins[i]),
                "bin_hi": float(bins[i + 1]),
                "reference_frac": float(p[i] / max(p.sum(), 1)),
                "sample_frac": float(q[i] / max(q.sum(), 1)),
            })
    return rows


def mae(params: JointModelParams, dataset: Dataset) -> float:
    """Mean absolute prediction error on labeled data, predicted 64 rows at a time."""
    if not dataset.supervised or len(dataset) == 0:
        raise ValueError("mae needs a non-empty labeled dataset")
    errs = []
    for start in range(0, len(dataset), 64):
        seqs = dataset.sequences[start:start + 64]
        ids = mdl.pad_batch(seqs)
        preds = mdl.predict_target(params, ids)
        errs.append(np.abs(preds - dataset.targets[start:start + len(seqs)]))
    return float(np.concatenate(errs).mean())


def mae_sampled(draws: list, reports: list[ValidityReport], objective: ObjectiveSpec) -> tuple[float | None, int]:
    """MAE of sampled (SMILES, predicted y) draws against the true objective.

    ``reports`` are the draws' ``validate`` reports, in order. Invalid draws
    are dropped; returns (mae, retained count), or (None, 0) when every
    draw is invalid.
    """
    errs = [abs(s.y - score(objective, r.features)) for s, r in zip(draws, reports, strict=True) if r]
    return (float(np.mean(errs)) if errs else None), len(errs)


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
