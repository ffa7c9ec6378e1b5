"""Posterior cross-entropy measure and its entropy special case."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ageval import am, measures
from ageval.errors import ShapeMismatchError, ValidationError


def random_posteriors(rng, n_frames, n_classes):
    return am.PosteriorMatrix(rng.dirichlet(np.ones(n_classes), size=n_frames))


def brute_force(p_ref, p_other):
    """The defining double sum, computed with scalar python arithmetic."""
    n, k = p_ref.values.shape
    total = 0.0
    for t in range(n):
        for i in range(k):
            total += float(p_ref.values[t, i]) * math.log(
                max(float(p_other.values[t, i]), 1e-10)
            )
    return -total / n


def test_matches_brute_force_double_sum():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        k = int(rng.integers(2, 30))
        p = random_posteriors(rng, n, k)
        q = random_posteriors(rng, n, k)
        score = measures.age(p, q)
        assert score.measure_name == "age"
        assert score.n_frames_used == n
        assert abs(score.value - brute_force(p, q)) < 1e-12


def test_against_uniform_equals_log_class_count():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 15))
        k = int(rng.integers(2, 40))
        p = random_posteriors(rng, n, k)
        uniform = am.PosteriorMatrix(np.full((n, k), 1.0 / k))
        assert abs(measures.age(p, uniform).value - math.log(k)) < 1e-12


def test_self_score_equals_entropy_confidence():
    rng = np.random.default_rng(2)
    p = random_posteriors(rng, 12, 8)
    self_score = measures.age(p, p)
    entropy = measures.entropy_confidence(p)
    assert entropy.measure_name == "entropy"
    assert entropy.value == self_score.value
    assert entropy.n_frames_used == 12


def test_entropy_of_one_hot_posteriors_is_zero():
    rows = np.zeros((6, 5))
    rows[np.arange(6), [0, 2, 4, 1, 3, 0]] = 1.0
    value = measures.entropy_confidence(am.PosteriorMatrix(rows)).value
    assert abs(value) <= 1e-8


def test_never_below_entropy_of_the_reference():
    # cross-entropy dominates entropy for any pair of distributions
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        k = int(rng.integers(2, 25))
        p = random_posteriors(rng, n, k)
        q = random_posteriors(rng, n, k)
        assert (
            measures.age(p, q).value
            >= measures.entropy_confidence(p).value - 1e-9
        )


def test_is_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = random_posteriors(rng, 5, 6)
        q = random_posteriors(rng, 5, 6)
        assert measures.age(p, q).value >= 0.0


def test_floors_zeros_only_inside_the_log():
    p = am.PosteriorMatrix(np.array([[1.0, 0.0]]))
    q = am.PosteriorMatrix(np.array([[0.0, 1.0]]))
    assert_allclose(measures.age(p, q).value, -math.log(1e-10), rtol=1e-12)
    # mass on the floored cell contributes nothing when the reference is zero
    assert_allclose(measures.age(q, q).value, 0.0, atol=1e-12)


def test_shape_mismatch_rejected():
    p = am.PosteriorMatrix(np.full((2, 4), 0.25))
    q = am.PosteriorMatrix(np.full((3, 4), 0.25))
    with pytest.raises(ShapeMismatchError):
        measures.age(p, q)


def test_empty_posteriors_rejected():
    with pytest.raises(ValidationError, match=r"^posterior matrix must not be empty, got shape \(0, 4\)$"):
        am.PosteriorMatrix(np.empty((0, 4)))


def test_posterior_matrix_validation():
    with pytest.raises(ValidationError):
        am.PosteriorMatrix(np.full((2, 4), 0.3))
    with pytest.raises(ValidationError):
        am.PosteriorMatrix(np.array([[1.2, -0.2]]))


@pytest.mark.parametrize("n_clean, n_degraded", [(0, 0), (5, 0), (-3, 2)])
def test_aligned_length_rejects_a_count_below_one(n_clean, n_degraded):
    with pytest.raises(ValidationError) as info:
        measures.aligned_length(n_clean, n_degraded, 0.02, "frame")
    assert type(info.value) is ValidationError
    assert str(info.value) == f"frame counts must be at least 1, got {n_clean} vs {n_degraded}"


def test_measure_score_rejects_unknown_name():
    with pytest.raises(ValidationError):
        measures.MeasureScore("wer", 1.0, 3)
