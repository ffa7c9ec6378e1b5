"""Correlation statistics and the logistic mapping used to score measures against WER.

The evaluation procedure: fit f(m) = 100 / (1 + exp(a*m + b)) to the
(measure, WER) points by least squares, then report the magnitude of the
Pearson correlation between f(m) and WER, plus a rank correlation on the raw
points and the RMSE of the mapped values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateFitError,
    NumericError,
    ShapeMismatchError,
    TooFewPointsError,
    UndefinedCorrelationError,
    ValidationError,
)

# |a*m + b| is clamped here before exponentiation so the mapping stays strictly
# inside (0, 100) in float64; beyond this point exp() saturates the ratio anyway.
_EXP_CLAMP = 36.0

_FIT_MAX_ITERATIONS = 200
_FIT_REL_TOL = 1e-12
_FIT_MAX_HALVINGS = 60
_WER_LOGIT_CLAMP = (0.1, 99.9)


@dataclass(frozen=True)
class LogisticParams:
    """Slope and offset of the logistic WER mapping."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValidationError("logistic parameters must be finite")


@dataclass(frozen=True)
class CorrelationReport:
    """Per-group, per-measure correlation summary against WER."""

    measure_name: str
    n_points: int
    params: LogisticParams
    rho_magnitude: float
    rho_signed: float
    spearman: float
    rmse_mapped: float

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValidationError("a correlation report needs at least 3 points")
        if abs(self.rho_magnitude - abs(self.rho_signed)) > 1e-12:
            raise ValidationError("rho_magnitude must equal |rho_signed|")


def _as_float_vector(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Values whose centered sums of squares or products leave the float64 range
    (overflow, or underflow to 0) raise NumericError.
    """
    xv = _as_float_vector(x, "x")
    yv = _as_float_vector(y, "y")
    if xv.shape[0] != yv.shape[0]:
        raise ShapeMismatchError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] < 2:
        raise TooFewPointsError("correlation needs at least 2 points")
    if xv.min() == xv.max() or yv.min() == yv.max():
        raise UndefinedCorrelationError("correlation is undefined for a constant sequence")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xv - xv.mean()
        yc = yv - yv.mean()
        sxx, syy, sxy = np.sum(xc**2), np.sum(yc**2), np.sum(xc * yc)
    if not (np.isfinite(sxy) and 0.0 < sxx < np.inf and 0.0 < syy < np.inf):
        raise NumericError("values too large or too close together for a correlation")
    return float(sxy / (np.sqrt(sxx) * np.sqrt(syy)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n in ascending order, tied values sharing the mean of their ranks.

    Equals scipy.stats.rankdata(values, method="average") exactly: a tie group
    occupying ranks i+1..j gets (i + 1 + j) / 2, an exact half-integer. Any
    NaN makes every rank NaN, as rankdata does.
    """
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def spearman(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation: Pearson on fractional ranks, ties averaged."""
    xv = _as_float_vector(x, "x")
    yv = _as_float_vector(y, "y")
    if xv.shape[0] != yv.shape[0]:
        raise ShapeMismatchError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return pearson(_average_ranks(xv), _average_ranks(yv))


def _logistic(a: float, b: float, m: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        # the exponent is clamped, so overflow in a*m is harmless
        t = np.clip(a * m + b, -_EXP_CLAMP, _EXP_CLAMP)
    return 100.0 / (1.0 + np.exp(t))


def map_logistic(params: LogisticParams, m: float | np.ndarray) -> float | np.ndarray:
    """Evaluate f(m) = 100 / (1 + exp(a*m + b)), elementwise on arrays."""
    out = _logistic(params.a, params.b, np.asarray(m, dtype=np.float64))
    if np.ndim(m) == 0:
        return float(out)
    return out


def fit_logistic(
    m: Sequence[float] | np.ndarray, wer: Sequence[float] | np.ndarray
) -> LogisticParams:
    """Least-squares fit of the logistic WER mapping.

    Initialization comes from ordinary least squares in the logit domain
    (WER clamped into [0.1, 99.9] first), followed by damped Gauss-Newton
    refinement of the squared loss on the original scale. Steps that increase
    the loss are halved, so the returned fit is never worse than the
    initialization. WER values above 100 are clamped to 100 before fitting.
    Measure values whose start or Jacobian overflows float64 raise
    NumericError, without a numpy warning, and a step to non-finite
    parameters raises ValidationError.
    """
    mv = _as_float_vector(m, "m")
    wv = _as_float_vector(wer, "wer")
    if mv.shape[0] != wv.shape[0]:
        raise ShapeMismatchError(f"length mismatch: {mv.shape[0]} vs {wv.shape[0]}")
    if mv.shape[0] < 3:
        raise TooFewPointsError("logistic fit needs at least 3 points")
    if mv.min() == mv.max():
        raise DegenerateFitError("measure values are all identical")
    wv = np.clip(wv, 0.0, 100.0)

    clamped = np.clip(wv, *_WER_LOGIT_CLAMP)
    z = np.log(100.0 / clamped - 1.0)
    with np.errstate(all="ignore"):
        # Overflow here leaves a sum, slope or offset non-finite: checked below.
        m_center = mv - mv.mean()
        covariance = np.sum(m_center * (z - z.mean()))
        variance = np.sum(m_center**2)
        a = float(covariance / variance)
        b = float(z.mean() - a * mv.mean())
    if not np.all(np.isfinite([covariance, variance, a, b])):
        raise NumericError("measure values out of range for the logistic fit's start")
    # f and loss always belong to the current (a, b): an accepted step keeps
    # the candidate's, so each (a, b) is mapped once.
    f = _logistic(a, b, mv)
    loss = float(np.sum((wv - f) ** 2))

    for _ in range(_FIT_MAX_ITERATIONS):
        residual = wv - f
        dfdt = -f * (1.0 - f / 100.0)
        jac = np.column_stack((dfdt * mv, dfdt))
        if not np.all(np.isfinite(jac)):
            raise NumericError("measure values too large for the logistic fit")
        delta, *_ = np.linalg.lstsq(jac, residual, rcond=None)
        step = delta
        for _ in range(_FIT_MAX_HALVINGS):
            new_a, new_b = a + float(step[0]), b + float(step[1])
            if not (math.isfinite(new_a) and math.isfinite(new_b)):
                raise ValidationError("logistic parameters must be finite")
            new_f = _logistic(new_a, new_b, mv)
            new_loss = float(np.sum((wv - new_f) ** 2))
            if new_loss <= loss:
                break
            step = step / 2.0
        else:
            break  # no halving lowered the loss
        relative_drop = (loss - new_loss) / max(loss, 1e-300)
        a, b, f, loss = new_a, new_b, new_f, new_loss
        if relative_drop < _FIT_REL_TOL:
            break
    return LogisticParams(a, b)


def evaluate_measure(
    scores: Iterable[tuple[float, float]] | np.ndarray, measure_name: str
) -> CorrelationReport:
    """Fit the logistic mapping to (measure, WER) pairs and summarize agreement.

    scores is a sequence of pairs or an (n, 2) array; anything else raises
    ShapeMismatchError, and fewer than 3 pairs TooFewPointsError.
    rho_signed is the Pearson correlation between the mapped values f(m) and
    WER; rho_magnitude is its absolute value. Spearman is computed on the raw
    pairs. Degenerate inputs (constant m or constant WER) raise the same
    errors as the underlying fit and correlation, and WER values so large
    that a sum leaves the float64 range raise NumericError.
    """
    try:
        pts = np.asarray(scores if isinstance(scores, np.ndarray) else list(scores), np.float64)
    except ValueError as exc:  # ragged pairs, or a cell that is not a number
        raise ShapeMismatchError(f"scores must be (measure, wer) pairs ({exc})") from exc
    if pts.shape == (0,):  # an empty sequence
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeMismatchError(f"scores must be an (n, 2) array, got shape {pts.shape}")
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 scored points, got {len(pts)}")
    # One contiguous array per column, the layout a list of pairs gave, so
    # every sum runs over the same memory layout as before.
    m, wer = np.ascontiguousarray(pts.T)
    params = fit_logistic(m, wer)
    mapped = np.asarray(map_logistic(params, m))
    rho_signed = pearson(mapped, wer)
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((wer - mapped) ** 2)))
    if not np.isfinite(rmse):
        raise NumericError("wer values too large for the mapped RMSE")
    return CorrelationReport(
        measure_name=measure_name,
        n_points=len(pts),
        params=params,
        rho_magnitude=abs(rho_signed),
        rho_signed=rho_signed,
        spearman=spearman(m, wer),
        rmse_mapped=rmse,
    )
