"""Metric tests: hand-counted sets, KL similarity, MAE paths."""

import math

import numpy as np
import pytest

from moljoint import evaluation as E
from moljoint import model as M
from moljoint.generation import SamplerConfig, sample_batch
from moljoint.numerics import Rng
from moljoint.objectives import ObjectiveSpec
from moljoint.smiles import validate
from moljoint.training import Dataset


HAND_SET = ["CCO", "C1CC1", "C(("]  # 2 valid of 3


def test_validity_hand_counts():
    assert E.validity(HAND_SET) == pytest.approx(2 / 3)
    assert E.validity(["CCO", "CC"]) == 1.0
    assert E.validity(["C((", "C1C"]) == 0.0


def test_uniqueness_hand_counts():
    assert E.uniqueness(["CCO", "CCO", "CO"]) == pytest.approx(2 / 3)
    assert E.uniqueness(["C"] * 5) == pytest.approx(1 / 5)
    assert E.uniqueness(["C", "N", "O"]) == 1.0


def test_novelty_hand_counts():
    assert E.novelty(["CCO", "CO"], ["CCO"]) == pytest.approx(0.5)
    assert E.novelty(["CCO"], ["CCO", "CO"]) == 0.0
    assert E.novelty(["CN"], ["CCO"]) == 1.0


def test_empty_sets_are_errors():
    for fn in (E.validity, E.uniqueness):
        with pytest.raises(ValueError):
            fn([])
    with pytest.raises(ValueError):
        E.novelty([], ["CCO"])
    with pytest.raises(ValueError):
        E.feature_kl([], ["CCO"])


def test_metrics_permutation_invariant():
    rng = Rng(0)
    samples = ["CCO", "CCN", "C1CC1", "CCO", "CCCC"]
    ref = ["CCO", "CCC", "C1CC1O"]
    for _ in range(5):
        perm = [samples[i] for i in rng._gen.permutation(len(samples))]
        assert E.validity(perm) == E.validity(samples)
        assert E.uniqueness(perm) == E.uniqueness(samples)
        assert E.novelty(perm, ref) == E.novelty(samples, ref)
        assert E.feature_kl(perm, ref) == pytest.approx(E.feature_kl(samples, ref))


def test_feature_kl_identical_sets_is_one():
    xs = ["CCO", "C1CC1N", "CC(C)O", "CCCCC"]
    assert E.feature_kl(xs, xs) == pytest.approx(1.0, abs=1e-3)


def test_feature_kl_disjoint_degenerate_sets_hand_computed():
    """Two length-degenerate sets: the KL reduces to a 2-bin hand formula."""
    a = ["CC"] * 10        # every string: 2 tokens
    b = ["CCCCCCCC"] * 10  # every string: 8 tokens
    got = E.feature_kl(a, b)
    # length histogram bins {2, ..., 8}: ref mass all in bin 2, samples all in bin 8,
    # Laplace-smoothed over 7 bins with 10 observations each
    p = np.ones(7); p[0] += 10; p /= p.sum()
    q = np.ones(7); q[-1] += 10; q /= q.sum()
    kl_len = float((p * np.log(p / q)).sum())
    # rings/hetero/depth histograms are identical (all zeros) -> KL 0, score 1
    want = (math.exp(-kl_len) + 3.0) / 4.0
    assert got == pytest.approx(want, rel=1e-9)
    assert got < 0.95  # clearly below self-similarity


def test_feature_kl_self_beats_disjoint():
    xs = ["CCO"] * 8
    ys = ["C1CCCC1NNO"] * 8
    assert E.feature_kl(xs, xs) > E.feature_kl(xs, ys)


def test_feature_kl_ignores_invalid_strings():
    assert E.feature_kl(["CCO", "C(("], ["CCO"]) == pytest.approx(1.0, abs=1e-3)
    with pytest.raises(ValueError):
        E.feature_kl(["C(("], ["CCO"])


def test_feature_matrix_parses_each_string_once(parse_calls):
    assert E._feature_matrix(["CCO", "C1CC1N", "C1CC"]).shape == (2, 4)
    assert len(parse_calls) == 3


def test_histogram_rows_cover_all_features():
    rows = E.feature_histograms(["CCO", "CCN"], ["CCO", "C1CC1"])
    feats = {r["feature"] for r in rows}
    assert feats == {"length", "rings", "hetero_fraction", "branch_depth"}
    for r in rows:
        assert 0.0 <= r["reference_frac"] <= 1.0
        assert r["bin_lo"] < r["bin_hi"]


def test_mae_worked_cases(memorized):
    params, vocab, dataset, _, target = memorized
    # memorized pair: near-perfect prediction
    assert E.mae(params, dataset) < 0.01
    # constant-0.5 oracle check: against targets {0, 1} a 0.5-predictor has MAE 0.5
    shifted = Dataset(dataset.sequences * 2, np.array([0.0, 1.0]))
    preds = M.predict_target(params, M.pad_batch(shifted.sequences))
    want = float(np.abs(preds - shifted.targets).mean())
    assert E.mae(params, shifted) == pytest.approx(want, abs=1e-7)
    with pytest.raises(ValueError):
        E.mae(params, Dataset(dataset.sequences))  # unlabeled


def test_mae_sampled_near_zero_when_predictor_matches_objective(memorized):
    """The memorized model emits one string whose target it knows; an
    objective pinned to that value gives mae_sampled ~ 0."""
    params, vocab, _, string, target = memorized
    from moljoint.objectives import evaluate as eval_obj
    obj = ObjectiveSpec(target_length=13, target_rings=1, target_hetero=3 / 8,
                        sigma_length=4.0, sigma_rings=0.8, sigma_hetero=0.15)
    true_val = eval_obj(obj, string)
    draws = sample_batch(params, vocab, SamplerConfig(temperature=0.0, seed=0), 16)
    m, kept = E.mae_sampled(draws, [validate(d.smiles) for d in draws], obj)
    assert kept == 16
    assert m == pytest.approx(abs(target - true_val), abs=0.05)


def test_mae_sampled_positive_for_untrained_predictor(memorized):
    params, vocab, _, _, _ = memorized
    obj = ObjectiveSpec(target_length=30, target_rings=0, target_hetero=0.0,
                        sigma_length=1.0)
    draws = sample_batch(params, vocab, SamplerConfig(temperature=0.0, seed=0), 8)
    m, kept = E.mae_sampled(draws, [validate(d.smiles) for d in draws], obj)
    assert m > 0.1  # objective disagrees with the memorized target


def test_metrics_report_serialization():
    rep = E.MetricsReport(validity=0.9, uniqueness=0.5, sample_count=10,
                          metadata={"seed": 3, "config_hash": "abc"})
    doc = rep.to_json()
    assert '"validity": 0.9' in doc
    assert '"config_hash": "abc"' in doc
