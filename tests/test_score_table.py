"""The columnar ScoreTable path of correlate against its row-at-a-time formulation."""

import csv
import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ageval import harness, stats
from ageval.cli import main
from ageval.errors import (
    AgevalError,
    ConfigError,
    DegenerateFitError,
    EmptyReportError,
    NumericError,
    ShapeMismatchError,
    TooFewPointsError,
    UndefinedCorrelationError,
    ValidationError,
)

# the row-at-a-time oracles ---------------------------------------------------


def loop_map_logistic(params, m):
    with np.errstate(over="ignore"):
        t = np.clip(params.a * np.asarray(m, dtype=np.float64) + params.b, -36.0, 36.0)
    return 100.0 / (1.0 + np.exp(t))


def loop_fit_logistic(m, wer):
    """fit_logistic with one LogisticParams per candidate and the curve mapped again each step."""
    mv = np.asarray(m, dtype=np.float64)
    wv = np.asarray(wer, dtype=np.float64)
    if mv.ndim != 1 or wv.ndim != 1:
        raise ShapeMismatchError("m and wer must be 1-D")
    if mv.shape[0] != wv.shape[0]:
        raise ShapeMismatchError(f"length mismatch: {mv.shape[0]} vs {wv.shape[0]}")
    if mv.shape[0] < 3:
        raise TooFewPointsError("logistic fit needs at least 3 points")
    if mv.min() == mv.max():
        raise DegenerateFitError("measure values are all identical")
    wv = np.clip(wv, 0.0, 100.0)
    z = np.log(100.0 / np.clip(wv, 0.1, 99.9) - 1.0)
    with np.errstate(all="ignore"):
        m_center = mv - mv.mean()
        covariance = np.sum(m_center * (z - z.mean()))
        variance = np.sum(m_center**2)
        a = float(covariance / variance)
        b = float(z.mean() - a * mv.mean())
    if not np.all(np.isfinite([covariance, variance, a, b])):
        raise NumericError("measure values out of range for the logistic fit's start")

    def squared_loss(params):
        return float(np.sum((wv - loop_map_logistic(params, mv)) ** 2))

    params = stats.LogisticParams(a, b)
    loss = squared_loss(params)
    for _ in range(200):
        f = loop_map_logistic(params, mv)
        residual = wv - f
        dfdt = -f * (1.0 - f / 100.0)
        jac = np.column_stack((dfdt * mv, dfdt))
        if not np.all(np.isfinite(jac)):
            raise NumericError("measure values too large for the logistic fit")
        delta, *_ = np.linalg.lstsq(jac, residual, rcond=None)
        accepted = None
        step = delta
        for _ in range(60):
            candidate = stats.LogisticParams(params.a + step[0], params.b + step[1])
            candidate_loss = squared_loss(candidate)
            if candidate_loss <= loss:
                accepted = (candidate, candidate_loss)
                break
            step = step / 2.0
        if accepted is None:
            break
        new_params, new_loss = accepted
        relative_drop = (loss - new_loss) / max(loss, 1e-300)
        params, loss = new_params, new_loss
        if relative_drop < 1e-12:
            break
    return params


def loop_pearson(x, y):
    """pearson on one pair of sequences, as a 1-D computation."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.ndim != 1 or yv.ndim != 1:
        raise ShapeMismatchError("x and y must be 1-D")
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


def loop_average_ranks(values):
    """Average ranks of one 1-D array, tie groups found on its stable sort."""
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def loop_spearman(x, y):
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape[0] != yv.shape[0]:
        raise ShapeMismatchError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    return loop_pearson(loop_average_ranks(xv), loop_average_ranks(yv))


def loop_evaluate_measure(scores, measure_name):
    """evaluate_measure on one item, through the oracles above."""
    try:
        pts = np.asarray(scores if isinstance(scores, np.ndarray) else list(scores), np.float64)
    except ValueError as exc:
        raise ShapeMismatchError(f"scores must be (measure, wer) pairs ({exc})") from exc
    if pts.shape == (0,):
        pts = pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeMismatchError(f"scores must be an (n, 2) array, got shape {pts.shape}")
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 scored points, got {len(pts)}")
    m, wer = np.ascontiguousarray(pts.T)
    params = loop_fit_logistic(m, wer)
    mapped = loop_map_logistic(params, m)
    rho_signed = loop_pearson(mapped, wer)
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean((wer - mapped) ** 2)))
    if not np.isfinite(rmse):
        raise NumericError("wer values too large for the mapped RMSE")
    return stats.CorrelationReport(
        measure_name=measure_name,
        n_points=len(pts),
        params=params,
        rho_signed=rho_signed,
        spearman=loop_spearman(m, wer),
        rmse_mapped=rmse,
    )

def loop_correlate_by_group(rows, group_key=None):
    """correlate_by_group over ScoreRow objects, one list per group and column."""
    if group_key is not None and not any(group_key in row.tags for row in rows):
        raise ConfigError(f"no row carries the tag {group_key!r}")
    groups = {}
    for row in rows:
        name = "all" if group_key is None else row.tags.get(group_key, "_missing")
        groups.setdefault(name, []).append(row)
    reports, skipped = {}, {}
    for name, members in groups.items():
        with_wer = [r for r in members if r.wer_percent is not None]
        if len(with_wer) < 3:
            skipped[name] = f"only {len(with_wer)} rows with wer, need 3"
            continue
        columns = {
            measure: [r.values[measure] for r in members if measure in r.values]
            for measure in sorted({m for r in members for m in r.values})
        }
        columns["wer"] = [r.wer_percent for r in with_wer]
        means = {}
        for column, values in columns.items():
            try:
                means[column] = harness._finite_mean(values, column)
            except NumericError as exc:
                skipped[f"{name}/{column}"] = harness._reason(exc)
        correlations = {}
        for measure in sorted(means.keys() - {"wer"}):
            carriers = [r for r in with_wer if measure in r.values]
            if len(carriers) < len(with_wer):
                skipped[f"{name}/{measure}"] = f"carried by {len(carriers)} of {len(with_wer)} rows with wer"
                continue
            pairs = [(r.values[measure], r.wer_percent) for r in with_wer]
            try:
                correlations[measure] = loop_evaluate_measure(pairs, measure)
            except AgevalError as exc:
                skipped[f"{name}/{measure}"] = harness._reason(exc)
        if not correlations:
            skipped.setdefault(name, "no measure produced a report")
            continue
        reports[name] = harness.GroupReport(len(members), len(with_wer), means, correlations)
    if not reports:
        raise EmptyReportError("no group had enough usable data")
    return reports, skipped


def loop_write_scores_csv(rows, path):
    def cell(value):
        return "" if value is None else repr(float(value))

    measure_cols = sorted({m for row in rows for m in row.values})
    tag_cols = sorted({t for row in rows for t in row.tags})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "wer", *measure_cols, *tag_cols])
        for row in rows:
            writer.writerow([row.utt_id, cell(row.wer_percent),
                             *[cell(row.values.get(m)) for m in measure_cols],
                             *[row.tags.get(t, "") for t in tag_cols]])


def loop_emit_report(rows, reports, out, skipped=None, group_key=None):
    """emit_report over ScoreRow objects: every file walks the rows again."""
    out.mkdir(parents=True, exist_ok=True)
    loop_write_scores_csv(rows, out / "scores.csv")
    payload = {
        "group_key": group_key,
        "groups": {
            name: {
                "n_rows": group.n_rows,
                "n_with_wer": group.n_with_wer,
                "means": group.means,
                "correlations": {m: harness._report_to_dict(r) for m, r in group.correlations.items()},
            }
            for name, group in reports.items()
        },
        "skipped": dict(skipped or {}),
    }
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    with_wer = [r for r in rows if r.wer_percent is not None]
    for measure in sorted({m for r in with_wer for m in r.values}):
        carriers = [r for r in with_wer if measure in r.values]
        m_values = np.asarray([r.values[measure] for r in carriers], dtype=np.float64)
        wer_values = np.asarray([r.wer_percent for r in carriers], dtype=np.float64)
        try:
            params = loop_fit_logistic(m_values, wer_values)
        except AgevalError:
            continue
        mapped = loop_map_logistic(params, m_values)
        with open(out / f"scatter_{measure}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "wer", "f(m)"])
            for mv, wv, fv in zip(m_values, wer_values, mapped):
                writer.writerow([repr(float(mv)), repr(float(wv)), repr(float(fv))])


def outcome(correlate_and_emit, data, group_key, out):
    """The skipped map and every output file's bytes, or the error's type."""
    try:
        skipped = correlate_and_emit(data, group_key, out)
    except (AgevalError, ValueError) as exc:
        return type(exc)
    return skipped, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def columnar_correlate_and_emit(table, group_key, out):
    correlation = harness.correlate_by_group(table, group_key)
    harness.emit_report(correlation, out)
    return correlation.skipped


def loop_correlate_and_emit(rows, group_key, out):
    reports, skipped = loop_correlate_by_group(rows, group_key)
    loop_emit_report(rows, reports, out, skipped=skipped, group_key=group_key)
    return skipped


def columnar_outcome(table, group_key, out):
    return outcome(columnar_correlate_and_emit, table, group_key, out)


def loop_outcome(rows, group_key, out):
    return outcome(loop_correlate_and_emit, rows, group_key, out)


# the columnar path against the oracles ---------------------------------------

extreme_values = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.5e308, -1.5e308, 1.7e308])
# Text that csv.writer quotes (a comma, a quote, CR, LF) or that a parser
# might strip or trip on: outer spaces, NUL and non-ASCII characters.
odd_text = st.text(st.sampled_from(',"\r\n \x00éa語'), max_size=4)


@st.composite
def score_rows(draw):
    """Rows with any subset of measures, missing WER, absent or odd tags, sometimes a constant
    measure, and a few values near the float64 limits that overflow a mean or a fit; utt_ids,
    the tag's name and its values hold odd text. Returns the rows and the tag's name."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constant = draw(st.sampled_from([None, None, "age", "stoi"]))
    partial, no_wer = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3])), draw(st.sampled_from([0.0, 0.1, 0.5]))
    tag_name = draw(st.one_of(st.just("g"), odd_text.filter(str.strip)))
    # "" is no tag value: from_rows drops it as absent
    tag_values = [None, "a", "a", "b", "b", " ", "c,d", *draw(st.lists(odd_text.filter(bool), max_size=2))]
    rows = []
    for i in range(draw(st.integers(0, 40))):
        names = ("age", "entropy", "stoi") if rng.random() >= partial else (("age",), ("entropy", "stoi"))[i % 2]
        values = {m: 0.25 if m == constant else rng.uniform(-5.0, 5.0) for m in names}
        wer = None if rng.random() < no_wer else rng.uniform(0.0, 120.0)
        tag = draw(st.sampled_from(tag_values))
        utt_id = f"{draw(odd_text)}u{i}{draw(odd_text)}"
        rows.append(harness.ScoreRow(utt_id, values, wer, {} if tag is None else {tag_name: tag}))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 3])) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[i].values[draw(st.sampled_from(sorted(rows[i].values)))] = draw(extreme_values)
        else:
            rows[i] = dataclasses.replace(rows[i], wer_percent=draw(st.sampled_from([1e300, 1.5e308])))
    return rows, tag_name


# write_scores_csv's chunk sizes to test, each with a size of the stacks
# correlate_by_group fits: 2 makes NaN cells, rows without a WER and scatter
# carriers straddle chunks, and 1 value fits one item per stack, 40 values
# a few short items per stack.
CHUNK_SIZES = ((2, 1), (3, 40), (harness._WRITE_CHUNK_ROWS, harness._FIT_CHUNK_VALUES))


def assert_columnar_outcome_in_every_chunk_size(table, group_key, out, want):
    for chunk_rows, fit_values in CHUNK_SIZES:
        with mock.patch.object(harness, "_WRITE_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(harness, "_FIT_CHUNK_VALUES", fit_values):
            assert columnar_outcome(table, group_key, out / f"chunks{chunk_rows}") == want


@given(rows_and_tag=score_rows(), grouped=st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_columnar_path_writes_the_bytes_of_the_row_path(rows_and_tag, grouped):
    rows, tag_name = rows_and_tag
    group_key = tag_name if grouped else None
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        table = harness.ScoreTable.from_rows(rows)
        want = loop_outcome(rows, group_key, tmp / "loop")
        assert_columnar_outcome_in_every_chunk_size(table, group_key, tmp / "columns", want)
        if not rows:
            return
        # through a scores file: absent tags come back as blank cells
        harness.write_scores_csv(table, tmp / "scores.csv")
        loaded = harness.load_scores_csv(tmp / "scores.csv")
        want = loop_outcome(list(loaded.rows()), group_key, tmp / "loaded_loop")
        assert_columnar_outcome_in_every_chunk_size(loaded, group_key, tmp / "loaded_columns", want)


@given(
    m=st.lists(st.one_of(st.floats(-5.0, 5.0), extreme_values), min_size=3, max_size=12),
    wer=st.lists(st.floats(0.0, 150.0), min_size=12, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_fit_logistic_is_bit_identical_to_the_loop(m, wer):
    def fit(fn):
        try:
            params = fn(m, wer[: len(m)])
        except AgevalError as exc:
            return type(exc)
        return float(params.a).hex(), float(params.b).hex()

    assert fit(stats.fit_logistic) == fit(loop_fit_logistic)



# stacks of items against the row-at-a-time oracles ---------------------------


def item_points(rng, n, kind):
    """n (measure, wer) pairs of one kind of item: a fit that converges (fast or slow), ties,
    signed zeros, or one that fails at a given step (the start, the correlation, the RMSE)."""
    severity = rng.uniform(0.0, 1.0, n)
    m = rng.uniform(0.2, 4.0) * severity + rng.normal(0.0, rng.uniform(0.0, 0.6), n)
    wer = 100.0 / (1.0 + np.exp(-rng.uniform(2.0, 20.0) * (severity - 0.5))) + rng.normal(0.0, 6.0, n)
    if kind == "ties":
        m, wer = np.round(m, 1), np.round(wer, -1)
    elif kind == "signed zeros":
        m = rng.choice([-0.0, 0.0, 1.0, -1.0], n)
        wer = rng.choice([-0.0, 0.0, 50.0, 100.0], n)
    elif kind == "constant measure":
        m[:] = 0.25
    elif kind == "constant wer":
        wer[:] = 30.0
    elif kind == "wer out of range":
        wer = rng.uniform(-60.0, 180.0, n)
    elif kind == "infinite wer":
        wer[rng.integers(0, n)] = rng.choice([math.inf, -math.inf])
    elif kind == "huge wer":
        wer[rng.integers(0, n)] = 1e300
    elif kind == "rmse overflow":  # its square overflows, its centred square does not
        wer[rng.integers(0, n)] = 1.35e154
    elif kind == "near 1e307":
        m[rng.integers(0, n)] = 1e307
    elif kind == "all near 1e307":
        m = 1e307 * (1.0 + m / 8.0)
    elif kind == "near 1e-200":
        m = 1e-200 * m
    elif kind == "near 1e-150":
        m = 1e-150 * m
    elif kind == "two values":
        m = rng.integers(0, 2, n).astype(float)
        m[:2] = (0.0, 1.0)
    return np.column_stack((m, wer))


ITEM_KINDS = ("logistic", "logistic", "logistic", "ties", "signed zeros", "constant measure",
              "constant wer", "wer out of range", "infinite wer", "huge wer", "rmse overflow", "near 1e307",
              "all near 1e307", "near 1e-200", "near 1e-150", "two values")


@st.composite
def item_stacks(draw):
    """A (g, n, 2) stack of g = 1..40 items of n = 3..400 pairs, each of its own kind, and g names."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(3, 12), st.integers(3, 400)))
    kinds = draw(st.lists(st.sampled_from(ITEM_KINDS), min_size=1, max_size=40))
    return np.stack([item_points(rng, n, kind) for kind in kinds]), [f"m{k}" for k in range(len(kinds))]


def bits(outcome):
    """A result's every float by float.hex, or an error's type and message."""
    if isinstance(outcome, AgevalError):
        return type(outcome), str(outcome)
    if isinstance(outcome, stats.LogisticParams):
        return float(outcome.a).hex(), float(outcome.b).hex()
    return (outcome.measure_name, outcome.n_points, bits(outcome.params),
            *(float(v).hex() for v in (outcome.rho_magnitude, outcome.rho_signed,
                                       outcome.spearman, outcome.rmse_mapped)))


def oracle(fn, *args):
    try:
        return fn(*args)
    except AgevalError as exc:
        return exc


@given(stack=item_stacks())
@settings(max_examples=150, deadline=None)
def test_each_item_of_a_stack_gets_the_report_it_gets_alone(stack):
    points, names = stack
    got = stats.evaluate_measure(points, names)
    assert len(got) == len(names)
    for item, name, outcome in zip(points, names, got):
        assert bits(outcome) == bits(oracle(loop_evaluate_measure, item, name))
    # the one-item form is the stack of one
    assert bits(oracle(stats.evaluate_measure, points[0], names[0])) == bits(got[0])


@given(stack=item_stacks())
@settings(max_examples=100, deadline=None)
def test_each_item_of_a_stack_gets_the_fit_it_gets_alone(stack):
    points, _ = stack
    got = stats.fit_logistic(points[..., 0], points[..., 1])
    for item, outcome in zip(points, got):
        assert bits(outcome) == bits(oracle(loop_fit_logistic, item[:, 0], item[:, 1]))


def test_one_stack_holds_items_that_fail_at_every_step():
    rng = np.random.default_rng(3)
    kinds = ("logistic", "constant measure", "near 1e307", "near 1e-200", "constant wer", "huge wer",
             "rmse overflow", "ties")
    points = np.stack([item_points(rng, 25, kind) for kind in kinds])
    got = stats.evaluate_measure(points, list(kinds))
    assert [bits(outcome) for outcome in got] == [
        bits(oracle(loop_evaluate_measure, item, kind)) for item, kind in zip(points, kinds)]
    assert [bits(outcome) if isinstance(outcome, AgevalError) else "report" for outcome in got] == [
        "report",
        (DegenerateFitError, "measure values are all identical"),
        (NumericError, "measure values out of range for the logistic fit's start"),
        (NumericError, "measure values out of range for the logistic fit's start"),
        (UndefinedCorrelationError, "correlation is undefined for a constant sequence"),
        (NumericError, "values too large or too close together for a correlation"),
        (NumericError, "wer values too large for the mapped RMSE"),
        "report",
    ]


def test_a_step_to_non_finite_parameters_fails_its_item_alone():
    """lstsq patched to step two items of a stack to infinity, one at its first and one at
    its third Gauss-Newton step: each fails as it does alone, the others fit as they do alone."""
    rng = np.random.default_rng(11)
    points = np.stack([item_points(rng, 30, "logistic") for _ in range(5)])
    markers = {points[1, 0, 0]: 1, points[3, 0, 0]: 3}  # the first measure value marks an item
    lstsq = np.linalg.lstsq
    steps = {}

    def lstsq_to_infinity(jac, residual, rcond):
        m0 = jac[0, 0] / jac[0, 1]
        marker = next((v for v in markers if abs(m0 - v) <= 1e-12 * abs(v)), None)
        steps[marker] = steps.get(marker, 0) + 1
        if marker is not None and steps[marker] == markers[marker]:
            return np.array([math.inf, 0.0]), None, None, None
        return lstsq(jac, residual, rcond=rcond)

    with mock.patch.object(np.linalg, "lstsq", lstsq_to_infinity):
        got = stats.evaluate_measure(points, list("abcde"))
        steps.clear()
        want = [oracle(loop_evaluate_measure, item, name) for item, name in zip(points, "abcde")]
    assert [type(outcome) for outcome in got] == [stats.CorrelationReport, ValidationError] * 2 + [
        stats.CorrelationReport]
    assert [bits(outcome) for outcome in got] == [bits(outcome) for outcome in want]


rank_values = st.sampled_from([0.0, -0.0, 1.0, 1.0, -1.0, math.inf, -math.inf, 1e300, 1e-300, 5e-324])


@given(rows=st.lists(st.lists(rank_values, min_size=6, max_size=6), min_size=1, max_size=12),
       nan_row=st.integers(-1, 11))
@settings(max_examples=200, deadline=None)
def test_ranks_of_a_stack_are_the_ranks_of_each_row(rows, nan_row):
    values = np.array(rows)
    if 0 <= nan_row < len(rows):
        values[nan_row, nan_row % 6] = math.nan
    ranks = stats._average_ranks(values)
    for row, row_ranks in zip(values, ranks):
        assert [v.hex() for v in row_ranks.tolist()] == [v.hex() for v in loop_average_ranks(row).tolist()]


@given(x=st.lists(st.one_of(st.floats(-5.0, 5.0), rank_values), min_size=2, max_size=20),
       y=st.lists(st.one_of(st.floats(-5.0, 5.0), rank_values), min_size=20, max_size=20))
@settings(max_examples=200, deadline=None)
def test_pearson_and_spearman_equal_their_oracles(x, y):
    y = y[: len(x)]
    for fn, loop_fn in ((stats.pearson, loop_pearson), (stats.spearman, loop_spearman)):
        got, want = oracle(fn, x, y), oracle(loop_fn, x, y)
        assert (bits(got) if isinstance(got, AgevalError) else got.hex()) == (
            bits(want) if isinstance(want, AgevalError) else want.hex())


# the table itself -------------------------------------------------------------


def test_rows_come_back_from_the_table_in_order():
    rows = [
        harness.ScoreRow("u1", {"stoi": 0.5, "age": 1.0}, 10.0, {"snr": "0"}),
        harness.ScoreRow("u2", {"age": np.float64(2.0)}, None, {"algo": "x", "snr": " "}),
    ]
    table = harness.ScoreTable.from_rows(rows)
    assert list(table.measures) == ["age", "stoi"] and list(table.tags) == ["algo", "snr"]
    assert np.isnan(table.measures["stoi"][1]) and np.isnan(table.wer[1])
    assert table.tags["algo"] == ["", "x"]
    assert list(table.rows()) == rows and len(table) == 2


def test_an_empty_tag_is_absent_and_a_blank_only_column_is_dropped():
    rows = [harness.ScoreRow("u1", {"age": 1.0}, 1.0, {"note": "", "algo": "x"}),
            harness.ScoreRow("u2", {"age": 2.0}, 2.0, {"note": ""})]
    table = harness.ScoreTable.from_rows(rows)
    assert table.tags == {"algo": ["x", ""]}
    assert [r.tags for r in table.rows()] == [{"algo": "x"}, {}]


@pytest.mark.parametrize("row", [
    harness.ScoreRow("u1", {"age": math.inf}, 1.0),
    harness.ScoreRow("u1", {"age": 1.0, "stoi": np.float64(np.nan)}, 1.0),
    harness.ScoreRow("u1", {"age": 1.0}, math.nan),
], ids=["infinite measure", "nan measure", "nan wer"])
def test_a_non_finite_row_value_is_a_numeric_error(row):
    with pytest.raises(NumericError, match="u1: .* is not finite"):
        harness.ScoreTable.from_rows([harness.ScoreRow("u0", {"age": 0.5}, 2.0), row])


def test_columns_of_another_length_are_a_config_error():
    with pytest.raises(ConfigError, match="1 rows"):
        harness.ScoreTable(["u1"], np.array([1.0, 2.0]), {}, {})


def test_a_built_table_drops_its_empty_columns(tmp_path):
    wer = np.array([10.0, 20.0])
    full = {"age": np.array([0.5, 1.5])}
    table = harness.ScoreTable(
        ["u1", "u2"], wer, {**full, "stoi": np.full(2, np.nan)}, {"algo": ["x", ""], "note": ["", ""]}
    )
    assert list(table.measures) == ["age"] and list(table.tags) == ["algo"]
    bare = harness.ScoreTable(["u1", "u2"], wer, full, {"algo": ["x", ""]})
    harness.write_scores_csv(table, tmp_path / "table.csv")
    harness.write_scores_csv(bare, tmp_path / "bare.csv")
    written = (tmp_path / "table.csv").read_bytes()
    assert written == (tmp_path / "bare.csv").read_bytes()
    assert written == b"utt_id,wer,age,algo\r\nu1,10.0,0.5,x\r\nu2,20.0,1.5,\r\n"


def test_an_empty_table_writes_the_header_alone(tmp_path):
    harness.write_scores_csv(harness.ScoreTable.from_rows([]), tmp_path / "scores.csv")
    assert (tmp_path / "scores.csv").read_bytes() == b"utt_id,wer\r\n"


def test_correlate_rewrites_a_scores_file_in_canonical_form(tmp_path):
    source = tmp_path / "hand.csv"
    source.write_bytes(
        b"utt_id,stoi,wer,age,note,algo\n\n"
        b"u1,0.9,10,1.50,,x\n"
        b"u2,0.8,+2,2.0, ,x\n\n\n"
        b"u3,0.7, 3,2.5,,\n"
        b"u4,,40.0,+4,,y\n"
    )
    assert main(["correlate", "--scores", str(source), "--out", str(tmp_path / "out")]) == 0
    rewritten = tmp_path / "out" / "scores.csv"
    assert rewritten.read_bytes() == (
        b"utt_id,wer,age,stoi,algo\r\n"
        b"u1,10.0,1.5,0.9,x\r\n"
        b"u2,2.0,2.0,0.8,x\r\n"
        b"u3,3.0,2.5,0.7,\r\n"
        b"u4,40.0,4.0,,y\r\n"
    )
    assert harness.load_scores_csv(rewritten) == harness.load_scores_csv(source)
    # a canonical file, as score writes them, comes back byte for byte
    assert main(["correlate", "--scores", str(rewritten), "--out", str(tmp_path / "again")]) == 0
    assert (tmp_path / "again" / "scores.csv").read_bytes() == rewritten.read_bytes()


def write_20k_scores(path):
    """20k rows, three measures and one tag of 20 groups."""
    values = np.random.default_rng(5).uniform(0.0, 1.0, (20_000, 4))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "wer", "age", "entropy", "stoi", "cond"])
        writer.writerows([f"u{i:05d}", repr(100.0 * v[0]), repr(v[1]), repr(v[2]), repr(v[3]), f"c{i % 20:02d}"]
                         for i, v in enumerate(values.tolist()))
    return path


def test_load_and_correlate_stay_within_half_the_memory_of_one_object_per_row(tmp_path):
    """20k rows, three measures and one tag peaked at 14.3 MB as ScoreRow objects."""
    path = write_20k_scores(tmp_path / "scores.csv")
    tracemalloc.start()
    try:
        reports = harness.correlate_by_group(harness.load_scores_csv(path), "cond").groups
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 20
    assert peak < 7.0e6


def test_emit_report_holds_one_chunk_of_cell_strings_at_a_time(tmp_path):
    """The cell strings of all 20k rows would take more than the bound at once."""
    correlation = harness.correlate_by_group(
        harness.load_scores_csv(write_20k_scores(tmp_path / "in.csv")), "cond"
    )
    assert sorted(correlation.curves) == ["age", "entropy", "stoi"]
    tracemalloc.start()
    try:
        harness.emit_report(correlation, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6
