"""Correlation statistics and the logistic WER mapping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ageval import stats
from ageval.errors import (
    DegenerateFitError,
    NumericError,
    ShapeMismatchError,
    TooFewPointsError,
    UndefinedCorrelationError,
    ValidationError,
)


# pearson and spearman ----------------------------------------------------

def test_pearson_hand_case():
    assert stats.pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_pearson_is_exactly_one_for_affine_relations():
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, 30)
    assert abs(stats.pearson(x, 3.0 * x - 2.0) - 1.0) < 1e-12
    assert abs(stats.pearson(x, -0.5 * x + 4.0) + 1.0) < 1e-12


@given(
    a=st.floats(min_value=0.01, max_value=100.0),
    b=st.floats(min_value=-50.0, max_value=50.0),
    flip=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_pearson_is_invariant_under_affine_maps(a, b, flip):
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, 25)
    y = rng.normal(0, 1, 25)
    base = stats.pearson(x, y)
    scale = -a if flip else a
    transformed = stats.pearson(scale * x + b, y)
    expected = -base if flip else base
    assert abs(transformed - expected) < 1e-9


def test_pearson_degenerate_inputs():
    with pytest.raises(TooFewPointsError):
        stats.pearson([1.0], [2.0])
    with pytest.raises(ShapeMismatchError):
        stats.pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        stats.pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_spearman_hand_case():
    assert stats.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_sees_only_the_ordering():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.1, 5.0, 40)
    y = np.exp(x)  # strictly increasing, wildly nonlinear
    assert stats.spearman(x, y) == pytest.approx(1.0)
    assert stats.spearman(x, -np.sqrt(x)) == pytest.approx(-1.0)
    assert stats.spearman(x**3, y) == stats.spearman(x, y)


def test_spearman_averages_tied_ranks():
    assert stats.spearman([1.0, 1.0, 2.0], [3.0, 3.0, 5.0]) == pytest.approx(1.0)


# logistic mapping --------------------------------------------------------

def test_map_logistic_midpoint():
    params = stats.LogisticParams(1.0, -5.0)
    assert stats.map_logistic(params, 5.0) == pytest.approx(50.0)


def test_map_logistic_accepts_arrays():
    params = stats.LogisticParams(2.0, 0.0)
    out = stats.map_logistic(params, np.array([-1.0, 0.0, 1.0]))
    assert out.shape == (3,)
    assert out[1] == pytest.approx(50.0)
    assert out[0] > out[1] > out[2]


@given(
    a=st.floats(allow_nan=False, allow_infinity=False),
    b=st.floats(allow_nan=False, allow_infinity=False),
    m=st.floats(allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_map_logistic_stays_strictly_inside_the_percent_range(a, b, m):
    value = stats.map_logistic(stats.LogisticParams(a, b), m)
    assert 0.0 < value < 100.0


@given(
    a=st.floats(min_value=0.05, max_value=2.0),
    b=st.floats(min_value=-5.0, max_value=5.0),
    m1=st.floats(min_value=-10.0, max_value=10.0),
    gap=st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=100, deadline=None)
def test_map_logistic_is_decreasing_for_positive_slope(a, b, m1, gap):
    params = stats.LogisticParams(a, b)
    assert stats.map_logistic(params, m1) > stats.map_logistic(params, m1 + gap)


def test_logistic_params_must_be_finite():
    with pytest.raises(ValidationError):
        stats.LogisticParams(np.inf, 0.0)
    with pytest.raises(ValidationError):
        stats.LogisticParams(1.0, np.nan)


# fitting ------------------------------------------------------------------

def ols_init(m, wer):
    """The closed-form starting point: least squares on the logit of WER."""
    w = np.clip(np.asarray(wer, dtype=np.float64), 0.1, 99.9)
    z = np.log(100.0 / w - 1.0)
    design = np.column_stack([np.asarray(m, dtype=np.float64), np.ones(len(w))])
    coef, *_ = np.linalg.lstsq(design, z, rcond=None)
    return stats.LogisticParams(float(coef[0]), float(coef[1]))


def fit_loss(params, m, wer):
    mapped = np.asarray(stats.map_logistic(params, np.asarray(m, dtype=np.float64)))
    target = np.clip(np.asarray(wer, dtype=np.float64), 0.0, 100.0)
    return float(np.sum((mapped - target) ** 2))


def test_fit_recovers_exact_parameters():
    true = stats.LogisticParams(1.7, -4.2)
    m = np.linspace(0.5, 6.0, 40)
    wer = np.asarray(stats.map_logistic(true, m))
    fit = stats.fit_logistic(m, wer)
    assert abs(fit.a - true.a) < 1e-6
    assert abs(fit.b - true.b) < 1e-6


def test_fit_recovers_slope_under_noise():
    true = stats.LogisticParams(1.7, -4.2)
    rng = np.random.default_rng(0)
    m = rng.uniform(0.0, 8.0, 50)
    wer = np.clip(
        np.asarray(stats.map_logistic(true, m)) + rng.normal(0.0, 1.0, 50),
        0.0,
        100.0,
    )
    fit = stats.fit_logistic(m, wer)
    assert abs(fit.a - true.a) / abs(true.a) < 0.05


def test_fit_never_loses_to_its_own_starting_point():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(5, 40))
        m = rng.uniform(-3.0, 9.0, n)
        wer = rng.uniform(0.0, 100.0, n)
        fitted = stats.fit_logistic(m, wer)
        assert fit_loss(fitted, m, wer) <= fit_loss(ols_init(m, wer), m, wer) + 1e-9


def test_fit_handles_constant_wer():
    m = np.linspace(0.0, 5.0, 12)
    fit = stats.fit_logistic(m, np.full(12, 50.0))
    assert abs(fit.a) < 1e-6
    assert abs(fit.b) < 1e-6


def test_fit_clamps_out_of_range_wer_instead_of_failing():
    m = np.array([0.0, 1.0, 2.0, 3.0])
    fit = stats.fit_logistic(m, np.array([-5.0, 20.0, 80.0, 140.0]))
    assert np.isfinite(fit.a) and np.isfinite(fit.b)


def test_fit_degenerate_inputs():
    with pytest.raises(TooFewPointsError):
        stats.fit_logistic([1.0, 2.0], [10.0, 20.0])
    with pytest.raises(DegenerateFitError):
        stats.fit_logistic([1.0, 1.0, 1.0, 1.0], [10.0, 20.0, 30.0, 40.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_on_measure_values_near_the_float_limit_is_a_numeric_error():
    # The Gauss-Newton Jacobian overflows; least squares on it would raise LinAlgError.
    with pytest.raises(NumericError):
        stats.fit_logistic([2.1746152585921605e307, 0.7481367297569897, 0.0], [0.0, 1.0, 99.0])


@pytest.mark.parametrize(
    "m",
    [
        [2.17e307, 0.75, 0.0],  # the sum of squares overflows: slope ~0 before
        [1.5e308, 1.5e308, 0.0],  # the mean overflows
        [0.0, 1e-200, 2e-200],  # the sum of squares underflows to 0
    ],
)
def test_a_logistic_start_out_of_float_range_is_a_numeric_error(m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="start"):
            stats.fit_logistic(m, [0.0, 1.0, 99.0])


# evaluation reports --------------------------------------------------------

def logistic_pairs(n=60, noise=0.0, seed=3):
    true = stats.LogisticParams(1.3, -3.5)
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 6.0, n)
    wer = np.clip(
        np.asarray(stats.map_logistic(true, m)) + rng.normal(0.0, noise, n),
        0.0,
        100.0,
    )
    return list(zip(m.tolist(), wer.tolist()))


def test_evaluate_measure_on_perfect_logistic_data():
    report = stats.evaluate_measure(logistic_pairs(), "age")
    assert report.measure_name == "age"
    assert report.n_points == 60
    assert report.rho_magnitude == pytest.approx(1.0, abs=1e-9)
    assert report.rmse_mapped == pytest.approx(0.0, abs=1e-6)
    # positive slope means WER falls as the measure grows
    assert report.spearman == pytest.approx(-1.0)


def test_evaluate_measure_magnitude_matches_signed_value():
    report = stats.evaluate_measure(logistic_pairs(noise=4.0), "stoi")
    assert report.rho_magnitude == abs(report.rho_signed)
    assert 0.9 < report.rho_magnitude <= 1.0


def test_evaluate_measure_is_invariant_to_affine_rescaling():
    pairs = logistic_pairs(noise=3.0)
    base = stats.evaluate_measure(pairs, "age")
    for alpha, beta in ((2.5, -3.0), (-1.25, 10.0), (0.1, 100.0)):
        moved = [(alpha * m + beta, w) for m, w in pairs]
        report = stats.evaluate_measure(moved, "age")
        assert abs(report.rho_magnitude - base.rho_magnitude) < 1e-9
        assert abs(report.rmse_mapped - base.rmse_mapped) < 1e-6


def test_evaluate_measure_degenerate_inputs():
    with pytest.raises(TooFewPointsError):
        stats.evaluate_measure([(1.0, 10.0), (2.0, 20.0)], "age")
    with pytest.raises(UndefinedCorrelationError):
        stats.evaluate_measure([(1.0, 30.0), (2.0, 30.0), (3.0, 30.0)], "age")
