"""Deterministic surrogate objectives f: SMILES -> [0, 1].

The default "toy_mpo" scores a molecule by how closely three cheap
structural features (token length, ring count, heteroatom fraction) match
configured targets, one Gaussian kernel per feature, combined as their
geometric mean. Syntactically invalid strings score 0 by
convention. Pure functions of the input string, so they double as
dataset labelers and as the oracle for re-scoring optimization output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import bounded, check_bounds
from .smiles import SyntaxFeatures, Vocabulary, detokenize, validate
from .training import Dataset


@dataclass(frozen=True)
class ObjectiveSpec:
    """Closed form: geometric mean of per-feature Gaussian kernels.

    score = (prod_i exp(-(f_i - target_i)^2 / (2 sigma_i^2)))^(1/3)
    over features (token length, ring pairs, heteroatom fraction).
    """

    name: str = "toy_mpo"
    target_length: float = bounded(19.0, open_lo=True, open_hi=True)
    target_rings: float = bounded(2.0, open_lo=True, open_hi=True)
    target_hetero: float = bounded(0.5, open_lo=True, open_hi=True)
    sigma_length: float = bounded(4.0, lo=0, open_lo=True, open_hi=True)
    sigma_rings: float = bounded(0.8, lo=0, open_lo=True, open_hi=True)
    sigma_hetero: float = bounded(0.1, lo=0, open_lo=True, open_hi=True)

    def __post_init__(self):
        check_bounds(self)


def _kernel(value: float, target: float, sigma: float) -> float:
    return math.exp(-((value - target) ** 2) / (2.0 * sigma * sigma))


def evaluate(obj: ObjectiveSpec, s: str) -> float:
    """Score a SMILES string in [0, 1]; invalid strings score 0."""
    return score(obj, validate(s).features)


def score(obj: ObjectiveSpec, feats: SyntaxFeatures | None) -> float:
    """``evaluate`` from a string's ``validate(s).features``: None (invalid) scores 0."""
    if feats is None:
        return 0.0
    scores = [
        _kernel(feats.n_tokens, obj.target_length, obj.sigma_length),
        _kernel(feats.ring_pairs, obj.target_rings, obj.sigma_rings),
        _kernel(feats.hetero_fraction, obj.target_hetero, obj.sigma_hetero),
    ]
    log_score = sum(math.log(max(s_, 1e-300)) for s_ in scores)
    return math.exp(log_score / len(scores))


def label_dataset(dataset: Dataset, obj: ObjectiveSpec, vocab: Vocabulary) -> Dataset:
    """Attach objective values as targets to an unsupervised dataset."""
    if dataset.supervised:
        raise ValueError("dataset already has targets")
    ys = np.array([evaluate(obj, detokenize(seq, vocab)) for seq in dataset.sequences])
    return Dataset(dataset.sequences, ys)


def make_objective(name: str, params: str = "") -> ObjectiveSpec:
    """Objective from a CLI-style spec: name plus "key=value,key=value"."""
    if name != "toy_mpo":
        raise ValueError(f"unknown objective {name!r} (available: toy_mpo)")
    allowed = [f.name for f in fields(ObjectiveSpec) if isinstance(f.default, float)]
    kwargs = {}
    if params:
        for part in params.split(","):
            key, sep, value = part.partition("=")
            if not sep or key.strip() not in allowed:
                raise ValueError(f"bad objective parameter {part!r} (want key=value, key in {allowed})")
            kwargs[key.strip()] = float(value)
    return ObjectiveSpec(name=name, **kwargs)
