"""Sampling, filtering, optimization-loop, and toy-distribution oracle tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from moljoint import generation as G
from moljoint.generation import PbboConfig, SamplerConfig, pbbo_optimize, sample_batch
from moljoint.numerics import Rng
from moljoint.smiles import BOS_ID, MASK_ID, PAD_ID, validate
from pbbo_theory import (
    Condition, ToyJointDistribution, ZeroProbabilityCondition, filtering_tv_distance,
    geometric_chisquare_pvalue, trials_to_acceptance,
)


# ----------------------------------------------------------------- conditions

def test_condition_contains_and_distance():
    c = Condition.at_least(0.5)
    assert c.contains(0.5) and c.contains(0.9) and not c.contains(0.49)
    iv = Condition(0.2, 0.4)
    assert iv.contains(0.3) and not iv.contains(0.5)
    with pytest.raises(ValueError):
        Condition(0.4, 0.2)


# --------------------------------------------------- toy joint + proposition 1

def _table_4x2():
    # x in {a,b,c,d}, y in {0,1}
    probs = np.array([
        [0.05, 0.20],
        [0.10, 0.05],
        [0.25, 0.05],
        [0.10, 0.20],
    ])
    return ToyJointDistribution(("a", "b", "c", "d"), np.array([0.0, 1.0]), probs)


def test_toy_distribution_validation():
    with pytest.raises(ValueError):
        ToyJointDistribution(("a",), np.array([0.0]), np.array([[0.5]]))
    with pytest.raises(ValueError):
        ToyJointDistribution(("a", "b"), np.array([0.0]), np.array([[0.7], [-0.3]]))


def test_exact_conditional_enumeration():
    toy = _table_4x2()
    cond = Condition(1.0, 1.0)
    want = np.array([0.20, 0.05, 0.05, 0.20]) / 0.5
    np.testing.assert_allclose(toy.conditional_x(cond), want)


def test_filtering_matches_conditional_point_mass():
    # each x has a unique y: conditioning pins x exactly
    probs = np.diag([0.25, 0.25, 0.5]).astype(float)
    toy = ToyJointDistribution(("a", "b", "c"), np.array([0.0, 1.0, 2.0]), probs)
    tv = filtering_tv_distance(toy, Condition(1.0, 1.0), 20_000, Rng(0))
    assert tv == 0.0


def test_filtering_tv_small_at_1e5():
    toy = _table_4x2()
    tv = filtering_tv_distance(toy, Condition(1.0, 1.0), 100_000, Rng(7))
    assert tv < 0.02


def test_filtering_tv_shrinks_with_n():
    toy = _table_4x2()
    cond = Condition(1.0, 1.0)
    tvs = {n: np.mean([filtering_tv_distance(toy, cond, n, Rng(s)) for s in range(5)])
           for n in (1_000, 10_000, 100_000)}
    assert tvs[10_000] < tvs[1_000]
    assert tvs[100_000] < tvs[10_000]


def test_filtering_supports_at_least_form():
    toy = _table_4x2()
    tv = filtering_tv_distance(toy, Condition.at_least(0.5), 50_000, Rng(3))
    assert tv < 0.03


def test_zero_probability_condition_is_error():
    toy = _table_4x2()
    with pytest.raises(ZeroProbabilityCondition):
        filtering_tv_distance(toy, Condition(5.0, 5.0), 100, Rng(0))


# ------------------------------------------------------------- proposition 2

def test_trials_to_acceptance_analytic_values():
    ys = np.array([0.0, 1.0])
    stats = trials_to_acceptance(ys, np.array([0.5, 0.5]), 0.5, 2_000, Rng(0))
    assert stats.analytic_mean == pytest.approx(2.0)
    stats = trials_to_acceptance(ys, np.array([0.9, 0.1]), 0.5, 2_000, Rng(0))
    assert stats.analytic_mean == pytest.approx(10.0)


def test_trials_to_acceptance_monte_carlo():
    ys = np.array([0.0, 1.0])
    stats = trials_to_acceptance(ys, np.array([0.75, 0.25]), 0.5, 10_000, Rng(11))
    assert abs(stats.empirical_mean - 4.0) / 4.0 < 0.05


def test_trials_fit_geometric_distribution():
    ys = np.array([0.0, 1.0])
    stats = trials_to_acceptance(ys, np.array([0.75, 0.25]), 0.5, 10_000, Rng(5))
    assert geometric_chisquare_pvalue(stats.counts, 0.25) > 0.01


def test_unreachable_threshold_guarded():
    ys = np.array([0.0, 1.0])
    with pytest.raises(ZeroProbabilityCondition):
        trials_to_acceptance(ys, np.array([0.5, 0.5]), 2.0, 10, Rng(0))


# --------------------------------------------------------- model-based sampling

def test_argmax_decoding_deterministic_and_memorized(memorized):
    params, vocab, _, string, target = memorized
    cfg = SamplerConfig(temperature=0.0, seed=9)
    a = sample_batch(params, vocab, cfg, 1)[0]
    b = sample_batch(params, vocab, cfg, 1)[0]
    assert a == b
    assert a.smiles == string
    assert abs(a.y - target) < 0.05


def test_fixed_seed_reproduces_sample_sequence(memorized):
    params, vocab, _, _, _ = memorized
    cfg = SamplerConfig(temperature=1.0, seed=123)
    a = sample_batch(params, vocab, cfg, 40)
    b = sample_batch(params, vocab, cfg, 40)
    assert a == b


def test_sample_y_gaussian_draw_flag(memorized):
    params, vocab, _, _, _ = memorized
    mean = sample_batch(params, vocab, SamplerConfig(temperature=0.0, seed=1), 1)[0].y
    drawn = sample_batch(params, vocab, SamplerConfig(temperature=0.0, seed=1, sample_y=True), 1)[0].y
    assert drawn != mean  # unit-variance noise applied


def test_truncation_flagged(memorized):
    params, vocab, _, string, _ = memorized
    cfg = SamplerConfig(temperature=0.0, max_new_tokens=4, seed=0)
    s = sample_batch(params, vocab, cfg, 1)[0]
    assert s.truncated
    assert s.smiles == string[:4]


class _ConstantRng:
    """Stands in for Rng: every uniform draw returns the same value."""

    def __init__(self, u):
        self.u = u

    def random(self, shape, dtype=np.float64):
        return np.full(shape, self.u, dtype=dtype)


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
@pytest.mark.parametrize("top_k", [0, 3])
def test_extreme_uniform_draws_pick_an_in_vocabulary_id_with_mass(u, top_k):
    # equal logits over V = 10 leave 7 sampleable ids whose summed mass
    # rounds to 1 - 2**-52, below the largest uniform draw
    rows = np.vstack([np.zeros(10), Rng(5).normal((7, 10), std=3.0)])
    ids = G._next_token_ids(rows, SamplerConfig(top_k=top_k), _ConstantRng(u))
    for row, i in zip(rows, ids):
        assert 0 <= i < 10
        allowed = row.copy()
        allowed[[BOS_ID, PAD_ID, MASK_ID]] = -np.inf
        assert np.isfinite(allowed[i])
        if top_k:
            assert allowed[i] >= np.sort(allowed)[-top_k]


@pytest.mark.parametrize("top_k", [0, 3])
@pytest.mark.parametrize("temperature", [1e-310, 5e-324])
def test_tiny_temperature_takes_the_argmax(temperature, top_k):
    """Logits / temperature overflow; the limit as the temperature goes to 0 is the argmax."""
    rows = Rng(3).normal((4, 20), std=2.0)
    rows[1] = -np.abs(rows[1]) - 1.0  # every logit negative: all overflow to -inf
    rows[2, [0, 7]] = 50.0  # BOS holds the largest logit, which is never sampled
    allowed = rows.copy()
    allowed[:, [BOS_ID, PAD_ID, MASK_ID]] = -np.inf
    for u in (0.0, 0.5, 1.0 - 2.0**-53):
        ids = G._next_token_ids(rows, SamplerConfig(temperature=temperature, top_k=top_k),
                                _ConstantRng(u))
        np.testing.assert_array_equal(ids, allowed.argmax(axis=1))


@pytest.mark.parametrize("top_k", [0, 3])
def test_draws_are_the_gumbel_max_of_the_scaled_logits(top_k):
    """argmax(z / T + G) on the unshifted logits, with G = -log(-log u) and u from Rng(s).random((B, V))."""
    rows = Rng(4).normal((16, 12), std=3.0).astype(np.float32)
    z = rows.astype(np.float64)
    z[:, [BOS_ID, PAD_ID, MASK_ID]] = -np.inf
    if top_k:
        z = np.where(z >= np.sort(z, axis=1)[:, -top_k][:, None], z, -np.inf)
    for seed, temperature in enumerate((1e-3, 0.7, 1.0, 1.3)):
        rng, want_rng = Rng(seed), Rng(seed)
        got = G._next_token_ids(rows, SamplerConfig(temperature=temperature, top_k=top_k), rng)
        gumbel = -np.log(-np.log(want_rng.random(z.shape)))
        np.testing.assert_array_equal(got, (z / temperature + gumbel).argmax(axis=1))
        assert rng.get_state() == want_rng.get_state()  # exactly B * V uniforms
    rng = Rng(9)
    G._next_token_ids(rows, SamplerConfig(temperature=0.0, top_k=top_k), rng)
    assert rng.get_state() == Rng(9).get_state()  # argmax decoding draws nothing


@pytest.mark.parametrize("temperature, top_k", [(1.0, 0), (0.7, 5), (2.5, 0)])
def test_draw_frequencies_follow_the_softmax(temperature, top_k):
    from scipy.stats import chi2

    row = Rng(11).normal(12, std=1.0)
    allowed = row.copy()
    allowed[[BOS_ID, PAD_ID, MASK_ID]] = -np.inf
    if top_k:
        allowed[allowed < np.sort(allowed)[-top_k]] = -np.inf
    p = np.exp((allowed - allowed.max()) / temperature)
    p /= p.sum()
    rng, cfg, counts = Rng(12), SamplerConfig(temperature=temperature, top_k=top_k), np.zeros(12)
    for _ in range(10):  # 200,000 draws in chunks of 20,000 rows
        counts += np.bincount(G._next_token_ids(np.tile(row, (20_000, 1)), cfg, rng), minlength=12)
    kept = p > 0
    assert counts[~kept].sum() == 0
    expected = p[kept] * counts.sum()
    stat = ((counts[kept] - expected) ** 2 / expected).sum()
    assert stat < chi2.ppf(0.999, kept.sum() - 1)


_TEMPERATURES = [0.0, 5e-324, 1e-310, 1e-3, 1.0, 7.5, 1e300]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data(), B=st.integers(1, 9), V=st.integers(5, 14), temperature=st.sampled_from(_TEMPERATURES),
       top_k=st.integers(0, 16), seed=st.integers(0, 2 ** 32 - 1))
def test_every_draw_is_an_allowed_id_within_its_top_k(data, B, V, temperature, top_k, seed):
    rows = data.draw(hnp.arrays(np.float32, (B, V), elements=st.floats(width=32, allow_nan=False,
                                                                        allow_infinity=False)))
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        ids = G._next_token_ids(rows, SamplerConfig(temperature=temperature, top_k=top_k), Rng(seed))
    allowed = rows.astype(np.float64)
    allowed[:, [BOS_ID, PAD_ID, MASK_ID]] = -np.inf
    assert ids.shape == (B,) and ((0 <= ids) & (ids < V)).all()
    assert not np.isin(ids, [BOS_ID, PAD_ID, MASK_ID]).any()
    picked = allowed[np.arange(B), ids]
    if 0 < top_k < V:
        assert (picked >= np.sort(allowed, axis=1)[:, -top_k]).all()
    if temperature == 0.0:
        np.testing.assert_array_equal(ids, allowed.argmax(axis=1))


def test_pbbo_impossible_threshold_empties(memorized):
    params, vocab, _, _, _ = memorized
    cfg = PbboConfig(y_c=99.0, eval_budget=5, sample_budget=30)
    res = pbbo_optimize(params, vocab, cfg, SamplerConfig(seed=2))
    assert res.accepted_count == 0
    assert res.draws_used == 30
    assert res.top1() is None


def test_pbbo_trivial_threshold_fills_eval_budget(memorized):
    params, vocab, _, _, _ = memorized
    cfg = PbboConfig(y_c=-np.inf, eval_budget=7, sample_budget=30)
    res = pbbo_optimize(params, vocab, cfg, SamplerConfig(seed=2))
    assert res.accepted_count == min(7, 30)
    assert res.draws_used >= 7
    assert all(r.accepted for r in res.accepted)


def test_pbbo_accepted_satisfy_threshold_and_validity(memorized):
    params, vocab, _, _, target = memorized
    cfg = PbboConfig(y_c=target - 0.2, eval_budget=50, sample_budget=60)
    res = pbbo_optimize(params, vocab, cfg, SamplerConfig(seed=3),
                        objective=lambda s: 0.5)
    for rec in res.accepted:
        assert rec.y_pred >= cfg.y_c
        assert validate(rec.smiles).valid
        assert rec.oracle == 0.5
    # trace covers every draw, indices strictly increasing from 1
    assert [r.index for r in res.trace] == list(range(1, res.draws_used + 1))


def test_pbbo_seeded_determinism(memorized):
    params, vocab, _, _, _ = memorized
    cfg = PbboConfig(y_c=0.0, eval_budget=10, sample_budget=20)
    a = pbbo_optimize(params, vocab, cfg, SamplerConfig(seed=4))
    b = pbbo_optimize(params, vocab, cfg, SamplerConfig(seed=4))
    assert [(r.smiles, r.y_pred) for r in a.trace] == [(r.smiles, r.y_pred) for r in b.trace]


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(temperature=-1.0)
    with pytest.raises(ValueError):
        PbboConfig(y_c=0.0, eval_budget=0, sample_budget=5)
