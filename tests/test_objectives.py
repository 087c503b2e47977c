"""Surrogate-objective tests with independently computed expected values."""

import math

import numpy as np
import pytest

from moljoint import datagen
from moljoint.objectives import ObjectiveSpec, evaluate, label_dataset, make_objective
from moljoint.smiles import build_vocabulary, detokenize
from moljoint.training import encode_corpus


def test_peak_score_is_one():
    # "CCO" hits all three targets exactly: 3 tokens, 0 rings, hetero 1/3
    obj = ObjectiveSpec(target_length=3, target_rings=0, target_hetero=1 / 3)
    assert evaluate(obj, "CCO") == pytest.approx(1.0, abs=1e-12)


def test_invalid_string_scores_zero():
    assert evaluate(ObjectiveSpec(), "C1CC") == 0.0
    assert evaluate(ObjectiveSpec(), "C((") == 0.0


def test_evaluate_parses_each_string_once(parse_calls):
    for s in ("CCO", "C1CC1N", "C1CC"):
        evaluate(ObjectiveSpec(), s)
    assert len(parse_calls) == 3


def test_cco_value_matches_hand_evaluation():
    # independent closed-form arithmetic, worked by hand before coding:
    # features of "CCO": 3 tokens, 0 ring pairs, hetero 1/3
    obj = ObjectiveSpec(target_length=5, target_rings=0, target_hetero=1 / 3,
                        sigma_length=2.0, sigma_rings=0.75, sigma_hetero=0.2)
    k_len = math.exp(-((3 - 5) ** 2) / (2 * 2.0**2))     # exp(-0.5)
    k_ring = 1.0
    k_het = 1.0
    want = (k_len * k_ring * k_het) ** (1 / 3)
    assert evaluate(obj, "CCO") == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(math.exp(-0.5 / 3), rel=1e-12)


def test_score_bounded_and_pure():
    obj = ObjectiveSpec()
    corpus = datagen.toy_corpus(200, seed=2)
    scores = [evaluate(obj, s) for s in corpus]
    assert all(0.0 <= v <= 1.0 for v in scores)
    assert scores == [evaluate(obj, s) for s in corpus]


def test_monotone_in_feature_match():
    """Moving a feature toward its target never lowers the score."""
    obj = ObjectiveSpec(target_length=10, target_rings=0, target_hetero=0.0,
                        sigma_length=3.0)
    # chains of pure carbon: only the length kernel varies
    scores = [evaluate(obj, "C" * n) for n in range(2, 11)]
    assert all(a <= b for a, b in zip(scores, scores[1:]))


def test_label_dataset_pure_and_bounded():
    corpus = datagen.toy_corpus(80, seed=4)
    vocab = build_vocabulary(corpus)
    ds = encode_corpus(corpus, vocab, 32)
    obj = ObjectiveSpec()
    labeled1 = label_dataset(ds, obj, vocab)
    labeled2 = label_dataset(ds, obj, vocab)
    np.testing.assert_array_equal(labeled1.targets, labeled2.targets)
    assert labeled1.targets.min() >= 0.0 and labeled1.targets.max() <= 1.0
    # labels correspond to the decoded strings
    for seq, y in zip(labeled1.sequences, labeled1.targets):
        assert y == pytest.approx(evaluate(obj, detokenize(seq, vocab)))
    with pytest.raises(ValueError):
        label_dataset(labeled1, obj, vocab)


def test_dataset_best_stays_below_ceiling():
    """With default parameters the corpus rarely scores high: the dataset
    best stays at or below 0.8, leaving improvement headroom."""
    corpus = datagen.toy_corpus(1000, seed=11)
    obj = ObjectiveSpec()
    scores = np.array([evaluate(obj, s) for s in corpus])
    assert scores.max() <= 0.8
    assert (scores > 0.8).mean() < 0.02


def test_make_objective_parses_params():
    obj = make_objective("toy_mpo", "target_length=8,sigma_length=2.5")
    assert obj.target_length == 8.0
    assert obj.sigma_length == 2.5
    with pytest.raises(ValueError):
        make_objective("docking")
    with pytest.raises(ValueError):
        make_objective("toy_mpo", "bogus")
    # only ObjectiveSpec's float fields are parameters, and the error names them
    for params in ("foo=1", "name=2", "weights=1"):
        with pytest.raises(ValueError, match="sigma_hetero"):
            make_objective("toy_mpo", params)
    for params in ("sigma_rings=0", "sigma_length=-1", "sigma_hetero=nan"):
        with pytest.raises(ValueError, match="> 0"):
            make_objective("toy_mpo", params)
    for params in ("target_length=nan", "target_rings=inf", "target_hetero=-inf", "sigma_length=inf"):
        with pytest.raises(ValueError, match="finite"):
            make_objective("toy_mpo", params)
