"""Correlation statistics and the logistic mapping used to score measures against WER.

The evaluation procedure: fit f(m) = 100 / (1 + exp(a*m + b)) to the
(measure, WER) points by least squares, then report the magnitude of the
Pearson correlation between f(m) and WER, plus a rank correlation on the raw
points and the RMSE of the mapped values.

fit_logistic and evaluate_measure also take a stack of equal-length items
and return one outcome per item: its result, or the error it raises on its
own. One item is a stack of one, so both forms share one implementation,
and every item of a stack gets the bits of its one-item call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .errors import (
    AgevalError,
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

_T = TypeVar("_T")


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
    rho_signed: float
    spearman: float
    rmse_mapped: float

    def __post_init__(self) -> None:
        if self.n_points < 3:
            raise ValidationError("a correlation report needs at least 3 points")

    @property
    def rho_magnitude(self) -> float:
        """|rho_signed|, by which the measures are ranked."""
        return abs(self.rho_signed)


def _vector_pair(
    x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray, names: tuple[str, str]
) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 vectors of one length; else ShapeMismatchError naming them by names."""
    xv, yv = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    for name, v in zip(names, (xv, yv)):
        if v.ndim != 1:
            raise ShapeMismatchError(f"{name} must be 1-D, got shape {v.shape}")
    if xv.shape[0] != yv.shape[0]:
        raise ShapeMismatchError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return xv, yv


def _one(outcomes: list[_T | AgevalError]) -> _T:
    """The outcome of a stack of one item: its result, or its error raised."""
    (outcome,) = outcomes
    if isinstance(outcome, AgevalError):
        raise outcome
    return outcome


def _keep(mask: np.ndarray, *arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The items (leading-axis entries) of each array where mask holds."""
    if mask.all():
        return arrays
    return tuple(x[mask] for x in arrays)


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, list[AgevalError | None]]:
    """Pearson correlation of each row of two (k, n) stacks, n >= 2.

    Returns the coefficients and, per row, None or the error pearson raises
    on that row alone (where the row's coefficient is meaningless).
    """
    errors: list[AgevalError | None] = [None] * len(x)
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean(axis=-1, keepdims=True)
        yc = y - y.mean(axis=-1, keepdims=True)
        sxx, syy, sxy = np.sum(xc**2, axis=-1), np.sum(yc**2, axis=-1), np.sum(xc * yc, axis=-1)
    constant = (x.min(axis=-1) == x.max(axis=-1)) | (y.min(axis=-1) == y.max(axis=-1))
    in_range = np.isfinite(sxy) & (0.0 < sxx) & (sxx < np.inf) & (0.0 < syy) & (syy < np.inf)
    for i in np.flatnonzero(constant):
        errors[i] = UndefinedCorrelationError("correlation is undefined for a constant sequence")
    for i in np.flatnonzero(~constant & ~in_range):
        errors[i] = NumericError("values too large or too close together for a correlation")
    valid = ~constant & in_range
    r = np.zeros(len(x))
    r[valid] = sxy[valid] / (np.sqrt(sxx[valid]) * np.sqrt(syy[valid]))
    return r, errors


def pearson(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Values whose centered sums of squares or products leave the float64 range
    (overflow, or underflow to 0) raise NumericError.
    """
    xv, yv = _vector_pair(x, y, ("x", "y"))
    if xv.shape[0] < 2:
        raise TooFewPointsError("correlation needs at least 2 points")
    r, (error,) = _pearson_rows(xv[None], yv[None])
    if error is not None:
        raise error
    return float(r[0])


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n in ascending order along the last axis, tied values sharing the mean of their ranks.

    Equals scipy.stats.rankdata(values, method="average") on each row
    exactly: a tie group occupying ranks i+1..j gets (i + 1 + j) / 2, an
    exact half-integer. Any NaN makes every rank of its row NaN, as rankdata
    does.
    """
    n = values.shape[-1]
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    first = np.ones(values.shape, dtype=bool)  # the first sorted position of each tie group
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=first[..., 1:])
    last = np.ones(values.shape, dtype=bool)  # ... and the last
    last[..., :-1] = first[..., 1:]
    positions = np.arange(n)
    starts = np.maximum.accumulate(np.where(first, positions, 0), axis=-1)
    ends = np.flip(np.minimum.accumulate(np.flip(np.where(last, positions + 1, n), -1), axis=-1), -1)
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (starts + 1 + ends) / 2.0, axis=-1)
    ranks[np.isnan(values).any(axis=-1)] = np.nan
    return ranks


def spearman(x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray) -> float:
    """Spearman rank correlation: Pearson on fractional ranks, ties averaged."""
    xv, yv = _vector_pair(x, y, ("x", "y"))
    return pearson(_average_ranks(xv), _average_ranks(yv))


def _logistic(a: float | np.ndarray, b: float | np.ndarray, m: np.ndarray) -> np.ndarray:
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


def _fit_rows(m: np.ndarray, w: np.ndarray) -> list[LogisticParams | AgevalError]:
    """fit_logistic on each row of two C-contiguous (g, n) stacks.

    Each step and sum runs over the last axis, which gives every item the
    bits of its fit alone; each item leaves the stack where its own fit
    ends, so a later step never sees it.
    """
    g, n = m.shape
    if n < 3:
        return [TooFewPointsError("logistic fit needs at least 3 points") for _ in range(g)]
    outcomes: list[LogisticParams | AgevalError] = [None] * g  # type: ignore[list-item]
    w = np.clip(w, 0.0, 100.0)
    z = np.log(100.0 / np.clip(w, *_WER_LOGIT_CLAMP) - 1.0)
    with np.errstate(all="ignore"):
        # Overflow here leaves a sum, slope or offset non-finite: checked below.
        m_mean = m.mean(axis=1)
        m_center = m - m_mean[:, None]
        z_mean = z.mean(axis=1)
        covariance = np.sum(m_center * (z - z_mean[:, None]), axis=1)
        variance = np.sum(m_center**2, axis=1)
        a = covariance / variance
        b = z_mean - a * m_mean
    constant = m.min(axis=1) == m.max(axis=1)
    start = np.isfinite(covariance) & np.isfinite(variance) & np.isfinite(a) & np.isfinite(b)
    for i in np.flatnonzero(constant):
        outcomes[i] = DegenerateFitError("measure values are all identical")
    for i in np.flatnonzero(~constant & ~start):
        outcomes[i] = NumericError("measure values out of range for the logistic fit's start")
    live = np.arange(g)
    live, m, w, a, b = _keep(~constant & start, live, m, w, a, b)
    # f and loss always belong to the current (a, b): an accepted step keeps
    # the candidate's, so each (a, b) is mapped once.
    f = _logistic(a[:, None], b[:, None], m)
    loss = np.sum((w - f) ** 2, axis=1)

    def settle(done: np.ndarray, make) -> None:
        for k in done.nonzero()[0]:
            outcomes[live[k]] = make(k)

    for _ in range(_FIT_MAX_ITERATIONS):
        if not live.size:
            break
        residual = w - f
        dfdt = -f * (1.0 - f / 100.0)
        jac = np.empty(m.shape + (2,))
        np.multiply(dfdt, m, out=jac[..., 0])
        jac[..., 1] = dfdt
        finite = np.isfinite(jac).all(axis=(1, 2))
        settle(~finite, lambda k: NumericError("measure values too large for the logistic fit"))
        live, m, w, a, b, f, loss, jac, residual = _keep(finite, live, m, w, a, b, f, loss, jac, residual)
        step = np.array([np.linalg.lstsq(j, r, rcond=None)[0] for j, r in zip(jac, residual)])
        step = step.reshape(len(live), 2)
        del jac, residual
        # An item whose step is accepted takes the candidate's a, b, f and
        # loss in place: the halvings read only the items still halving.
        start_loss = loss.copy()
        accepted = np.zeros(len(live), dtype=bool)
        invalid = np.zeros(len(live), dtype=bool)
        todo = np.arange(len(live))
        for _ in range(_FIT_MAX_HALVINGS):
            with np.errstate(all="ignore"):  # as on Python floats
                try_a = a[todo] + step[todo, 0]
                try_b = b[todo] + step[todo, 1]
            finite = np.isfinite(try_a) & np.isfinite(try_b)
            invalid[todo[~finite]] = True
            todo, try_a, try_b = _keep(finite, todo, try_a, try_b)
            rows = todo if len(todo) < len(live) else slice(None)
            try_f = _logistic(try_a[:, None], try_b[:, None], m[rows])
            try_loss = np.sum((w[rows] - try_f) ** 2, axis=1)
            better = try_loss <= loss[todo]
            done = todo[better]
            a[done], b[done], f[done], loss[done] = _keep(better, try_a, try_b, try_f, try_loss)
            accepted[done] = True
            todo = todo[~better]
            if not todo.size:
                break
            step[todo] = step[todo] / 2.0
        settle(invalid, lambda k: ValidationError("logistic parameters must be finite"))
        # no halving lowered the loss: the fit ends where it is
        settle(~accepted & ~invalid, lambda k: LogisticParams(float(a[k]), float(b[k])))
        with np.errstate(all="ignore"):  # as on Python floats
            relative_drop = (start_loss - loss) / np.maximum(start_loss, 1e-300)
        converged = accepted & (relative_drop < _FIT_REL_TOL)
        settle(converged, lambda k: LogisticParams(float(a[k]), float(b[k])))
        live, m, w, a, b, f, loss = _keep(accepted & ~converged, live, m, w, a, b, f, loss)
    settle(np.ones(len(live), dtype=bool), lambda k: LogisticParams(float(a[k]), float(b[k])))
    return outcomes


def fit_logistic(
    m: Sequence[float] | np.ndarray, wer: Sequence[float] | np.ndarray
) -> LogisticParams | list[LogisticParams | AgevalError]:
    """Least-squares fit of the logistic WER mapping.

    Initialization comes from ordinary least squares in the logit domain
    (WER clamped into [0.1, 99.9] first), followed by damped Gauss-Newton
    refinement of the squared loss on the original scale. Steps that increase
    the loss are halved, so the returned fit is never worse than the
    initialization. WER values above 100 are clamped to 100 before fitting.
    Measure values whose start or Jacobian overflows float64 raise
    NumericError, without a numpy warning, and a step to non-finite
    parameters raises ValidationError.

    m and wer of shape (g, n) are a stack of g items, each fitted as above:
    the result is a list of g outcomes, an item's LogisticParams or the
    AgevalError its fit alone raises, with the bits of that fit.
    """
    mv = np.asarray(m, dtype=np.float64)
    if mv.ndim == 2:
        wv = np.asarray(wer, dtype=np.float64)
        if wv.shape != mv.shape:
            raise ShapeMismatchError(f"shape mismatch: m {mv.shape} vs wer {wv.shape}")
        return _fit_rows(np.ascontiguousarray(mv), np.ascontiguousarray(wv))
    mv, wv = _vector_pair(mv, wer, ("m", "wer"))
    return _one(_fit_rows(mv[None], wv[None]))


def _evaluate_rows(pts: np.ndarray, names: Sequence[str]) -> list[CorrelationReport | AgevalError]:
    """evaluate_measure on each item of a (g, n, 2) stack of pairs."""
    g, n = pts.shape[:2]
    if n < 3:
        return [TooFewPointsError(f"need at least 3 scored points, got {n}") for _ in range(g)]
    # One contiguous array per column: contiguous rows give each item the
    # bits of its one-item call.
    m, wer = np.ascontiguousarray(pts[..., 0]), np.ascontiguousarray(pts[..., 1])
    fits = fit_logistic(m, wer)
    outcomes: list[CorrelationReport | AgevalError] = list(fits)  # type: ignore[arg-type]
    fitted = np.array([isinstance(fit, LogisticParams) for fit in fits], dtype=bool)
    live, m, wer = _keep(fitted, np.arange(g), m, wer)
    params = [fits[i] for i in live]
    a = np.array([p.a for p in params])
    b = np.array([p.b for p in params])
    mapped = _logistic(a[:, None], b[:, None], m)
    rho_signed, rho_errors = _pearson_rows(mapped, wer)
    with np.errstate(over="ignore"):
        rmse = np.sqrt(np.mean((wer - mapped) ** 2, axis=1)).tolist()
    rmse_errors = [None if math.isfinite(r) else NumericError("wer values too large for the mapped RMSE")
                   for r in rmse]
    # No rank error can decide an outcome: a fitted m is finite and not
    # constant, and a constant wer fails the correlation above first.
    rho_rank, _ = _pearson_rows(_average_ranks(m), _average_ranks(wer))
    items = zip(live, rho_signed.tolist(), rmse, rho_rank.tolist(), rho_errors, rmse_errors)
    # An item's outcome is its first error, in the order of a one-item call.
    for i, rho, rms, rank, rho_error, rmse_error in items:
        outcomes[i] = rho_error or rmse_error or CorrelationReport(
            measure_name=names[i],
            n_points=n,
            params=fits[i],  # type: ignore[arg-type]
            rho_signed=rho,
            spearman=rank,
            rmse_mapped=rms,
        )
    return outcomes


def evaluate_measure(
    scores: Iterable[tuple[float, float]] | np.ndarray, measure_name: str | Sequence[str]
) -> CorrelationReport | list[CorrelationReport | AgevalError]:
    """Fit the logistic mapping to (measure, WER) pairs and summarize agreement.

    scores is a sequence of pairs or an (n, 2) array; anything else raises
    ShapeMismatchError, and fewer than 3 pairs TooFewPointsError.
    rho_signed is the Pearson correlation between the mapped values f(m) and
    WER; rho_magnitude is its absolute value. Spearman is computed on the raw
    pairs. Degenerate inputs (constant m or constant WER) raise the same
    errors as the underlying fit and correlation, and WER values so large
    that a sum leaves the float64 range raise NumericError.

    With measure_name a sequence of g names, scores is a stack of g items
    of n pairs, shape (g, n, 2), and the result is a list of g outcomes:
    an item's CorrelationReport, or the AgevalError it raises on its own.
    The stack makes one fit_logistic call, for all of its items.
    """
    stacked = not isinstance(measure_name, str)
    try:
        pts = np.asarray(scores if isinstance(scores, np.ndarray) else list(scores), np.float64)
    except ValueError as exc:  # ragged pairs, or a cell that is not a number
        raise ShapeMismatchError(f"scores must be (measure, wer) pairs ({exc})") from exc
    if pts.shape == (0,):  # an empty sequence
        pts = pts.reshape((0, 0, 2) if stacked else (0, 2))
    if stacked:
        names = list(measure_name)
        if pts.ndim != 3 or pts.shape[2] != 2 or pts.shape[0] != len(names):
            raise ShapeMismatchError(
                f"scores must be a ({len(names)}, n, 2) stack for {len(names)} names, got shape {pts.shape}"
            )
        return _evaluate_rows(pts, names)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeMismatchError(f"scores must be an (n, 2) array, got shape {pts.shape}")
    return _one(_evaluate_rows(pts[None], [measure_name]))
