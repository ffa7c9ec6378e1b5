"""Batch evaluation harness: manifests, per-utterance scoring, grouping, reports.

A manifest lists utterance pairs (clean and degraded paths) with optional WER
and free-form tag columns. Scoring a manifest produces a ScoreTable, the
scored pairs held as columns, plus the pairs that could not be scored, each
skipped with a reason rather than aborting the run; a ScoreRow is the result
for one pair. Loading, grouping and writing scores work on a ScoreTable.
Reports are written deterministically so identical inputs give byte-identical
output files.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import csv
import itertools
import json
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .am import AcousticModel, PosteriorMatrix, _one_blas_thread, _set_blas_threads, forward
from .dsp import FeatureMatrix, MelSpec, Waveform, fbank, load_wav, mvn
from .errors import (
    AgevalError,
    ConfigError,
    EmptyInputError,
    EmptyReportError,
    FormatError,
    ManifestError,
    NumericError,
    SampleRateMismatchError,
    ShapeMismatchError,
    _as_int,
)
from .measures import (
    DEFAULT_ALIGNMENT_TOLERANCE,
    MEASURE_NAMES,
    POSTERIOR_MEASURES,
    StoiReference,
    age,
    aligned_length,
    entropy_confidence,
    stoi,
)
from .stats import CorrelationReport, LogisticParams, evaluate_measure, fit_logistic, map_logistic

_MANIFEST_REQUIRED = ("utt_id", "clean_path", "degraded_path")


@dataclass(frozen=True)
class ManifestEntry:
    """One utterance pair from a manifest."""

    utt_id: str
    clean_path: str
    degraded_path: str
    wer_percent: float | None = None
    tags: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ScoreRow:
    """Measure values for one scored utterance pair."""

    utt_id: str
    values: dict[str, float]
    wer_percent: float | None = None
    tags: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError("a score row must carry at least one measure value")


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Score rows as columns: the form correlate reads, groups and writes.

    wer and each measure are float64 arrays with NaN where a row has no
    value, and a tag is "" where a row lacks it. NaN cannot stand for a
    value: the parsers and from_rows reject non-finite ones. Only columns
    holding at least one value are kept: a measure column of NaN alone and
    a tag column of "" alone are dropped on construction. Tables are equal
    when their rows() are.
    """

    utt_ids: list[str]
    wer: np.ndarray
    measures: dict[str, np.ndarray]
    tags: dict[str, list[str]]

    def __post_init__(self) -> None:
        n = len(self.utt_ids)
        if any(len(c) != n for c in (self.wer, *self.measures.values(), *self.tags.values())):
            raise ConfigError(f"every score column must hold {n} rows")
        measures = {m: c for m, c in self.measures.items() if not np.isnan(c).all()}
        tags = {t: c for t, c in self.tags.items() if any(c)}
        object.__setattr__(self, "measures", measures)
        object.__setattr__(self, "tags", tags)

    def __len__(self) -> int:
        return len(self.utt_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return list(self.rows()) == list(other.rows())

    @classmethod
    def from_rows(cls, rows: Sequence[ScoreRow]) -> ScoreTable:
        """Stack rows into columns, measures and tags in sorted name order.

        A non-finite value or WER raises NumericError, and a tag of "" counts
        as absent.
        """
        for row in rows:
            for name, value in (*row.values.items(), ("wer", row.wer_percent)):
                if value is not None and not math.isfinite(value):
                    raise NumericError(f"{row.utt_id}: {name} value {value} is not finite")
        nan = math.nan
        wer = np.array([nan if r.wer_percent is None else r.wer_percent for r in rows], np.float64)
        measures = {
            m: np.array([r.values.get(m, nan) for r in rows], np.float64)
            for m in sorted({m for r in rows for m in r.values})
        }
        tags = {t: [r.tags.get(t, "") for r in rows] for t in sorted({t for r in rows for t in r.tags})}
        return cls([r.utt_id for r in rows], wer, measures, tags)

    def rows(self) -> Iterator[ScoreRow]:
        """One ScoreRow per row, in table order; dict keys follow column order."""
        wer = self.wer.tolist()
        measures = {m: c.tolist() for m, c in self.measures.items()}
        for i, utt_id in enumerate(self.utt_ids):
            yield ScoreRow(
                utt_id=utt_id,
                values={m: c[i] for m, c in measures.items() if not math.isnan(c[i])},
                wer_percent=None if math.isnan(wer[i]) else wer[i],
                tags={t: c[i] for t, c in self.tags.items() if c[i]},
            )


@dataclass(frozen=True)
class RunConfig:
    """Settings for one scoring run, whose features are always dsp.fbank's defaults."""

    measures: tuple[str, ...] = MEASURE_NAMES
    alignment_tolerance: float = DEFAULT_ALIGNMENT_TOLERANCE
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.measures:
            raise ConfigError("select at least one measure")
        unknown = [m for m in self.measures if m not in MEASURE_NAMES]
        if unknown:
            raise ConfigError(f"unknown measures: {unknown}; valid: {list(MEASURE_NAMES)}")
        if not 0.0 <= self.alignment_tolerance < 1.0:
            raise ConfigError("alignment_tolerance must lie in [0, 1)")
        if _as_int(self.workers, "workers", ConfigError) < 1:
            raise ConfigError("workers must be at least 1")

    @property
    def needs_model(self) -> bool:
        return any(m in POSTERIOR_MEASURES for m in self.measures)


def _parse_wer(raw: str, where: str, error: type[FormatError] = ManifestError) -> float | None:
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise error(f"{where}: wer {text!r} is not a number") from exc
    if not math.isfinite(value) or value < 0.0:
        raise error(f"{where}: wer must be a finite nonnegative number, got {value}")
    return value


def _csv_records(
    lines: Iterable[str], path: Path, error: type[FormatError], fault: str
) -> Iterator[tuple[int, list[str] | None]]:
    """Yield (N, header), then (N, record) for each non-blank record after it.

    The header is the first record, or None for a text with no record; N is
    the physical line the record ends on, which a caller's error names as
    "path:N". A header that repeats a non-blank name, extra fields, a
    non-blank cell under a blank header name, undecodable text and csv.Error
    raise error naming "path:N". Blank header names, such as a spreadsheet's
    trailing empty cells, may repeat; their columns hold no data.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader, None)
        seen: set[str] = set()
        for name in header or ():
            if name in seen and name.strip():
                raise error(f"{path}:{reader.line_num}: header repeats column {name!r}")
            seen.add(name)
        unnamed = [i for i, name in enumerate(header or ()) if not name.strip()]
        yield reader.line_num, header
        width = len(header)
        for record in reader:
            if not record:
                continue
            if len(record) > width:
                raise error(f"{path}:{reader.line_num}: more fields than header columns")
            for i in unnamed:
                if i < len(record) and record[i].strip():
                    raise error(
                        f"{path}:{reader.line_num}: value {record[i]!r} "
                        f"in column {i + 1}, which the header leaves unnamed"
                    )
            yield reader.line_num, record
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"{path}:{reader.line_num}: {fault} ({exc})") from exc


def _csv_quotes(text: str) -> bool:
    """Whether csv.writer's default dialect quotes a cell holding text."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_cell(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _csv_quotes(cell) else cell


def _csv_text(columns: Sequence[Sequence[str]]) -> str:
    """The CSV text of the records that columns' cells form, one record per row.

    These are the bytes csv.writer's default dialect writes: a cell holding
    ',', '"', CR or LF is quoted, each '"' in it doubled, and every record
    ends in \\r\\n. Each column is searched once, as one joined text, and its
    cells are quoted one by one only when that text holds such a character;
    repr float cells never do. A record has two fields at least: csv.writer
    quotes a record of one empty field, which this join would leave blank.
    """
    assert len(columns) >= 2, "records need two fields or more"
    columns = [
        list(map(_csv_cell, column)) if _csv_quotes("".join(column)) else column
        for column in columns
    ]
    return "\r\n".join([*map(",".join, zip(*columns)), ""])


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a CSV manifest: utt_id, clean_path, degraded_path, optional wer, tags.

    The header decides the columns once: a required one missing, one named
    after a measure (age, entropy, stoi), which scores.csv would hold as a
    second column of that measure, or a repeated non-blank name raises
    ManifestError. So do a bad row, a duplicate utt_id, a value under a
    header column with no name, undecodable text and CSV-level faults, each
    naming "path:N". A row shorter than the header lacks its last columns;
    an unnamed column is no tag. Relative audio paths resolve against the
    manifest's directory. A blank file or one with no row is EmptyInputError.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            # Up to the first line that is not blank, to tell a blank file from
            # a blank first record; csv then reads these lines again.
            head = [fh.readline()]
            while head[-1].isspace():
                head.append(fh.readline())
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: undecodable text ({exc})") from exc
        if not head[-1]:
            raise EmptyInputError(f"{path}: manifest is empty")
        records = _csv_records(itertools.chain(head, fh), path, ManifestError, "malformed CSV")
        header_line, header = next(records)
        missing = [c for c in _MANIFEST_REQUIRED if c not in header]
        if missing:
            raise ManifestError(f"{path}: header lacks required columns {missing}")
        reserved = [name for name in MEASURE_NAMES if name in header]
        if reserved:
            raise ManifestError(
                f"{path}:{header_line}: column {reserved[0]!r} is reserved for a measure"
            )
        # Less the pops below; an unnamed column is no tag.
        tags = {name: i for i, name in enumerate(header) if name.strip()}
        wer_col = tags.pop("wer", None)
        required = [tags.pop(name) for name in _MANIFEST_REQUIRED]
        entries: list[ManifestEntry] = []
        seen: set[str] = set()
        for line, record in records:
            where = f"{path}:{line}"
            record += [""] * (len(header) - len(record))  # a short row lacks its last columns
            utt_id, clean_path, degraded_path = cells = [record[i] for i in required]
            for name, cell in zip(_MANIFEST_REQUIRED, cells):
                if not cell.strip():
                    raise ManifestError(f"{where}: missing required field {name!r}")
            if utt_id in seen:
                raise ManifestError(f"{where}: duplicate utt_id {utt_id!r}")
            seen.add(utt_id)
            entries.append(
                ManifestEntry(
                    utt_id=utt_id,
                    clean_path=str(path.parent / clean_path),
                    degraded_path=str(path.parent / degraded_path),
                    wer_percent=None if wer_col is None else _parse_wer(record[wer_col], where),
                    tags={name: record[i] for name, i in tags.items() if record[i].strip()},
                )
            )
    if not entries:
        raise EmptyInputError(f"{path}: manifest has no rows")
    return entries


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check_model(model: AcousticModel | None, cfg: RunConfig) -> None:
    """The run-level checks: fatal, and made before any row is read."""
    if not cfg.needs_model:
        return
    if model is None:
        raise ConfigError("posterior measures requested but no model given")
    if model.input_dim != MelSpec.n_filters:
        raise ShapeMismatchError(
            f"model expects {model.input_dim}-dim features, fbank gives {MelSpec.n_filters}"
        )


def _first_frames(features: FeatureMatrix, n: int) -> FeatureMatrix:
    return features if features.n_frames == n else replace(features, values=features.values[:n])


class CleanReference:
    """The clean side of scoring, shared by the rows that name one clean file.

    score_manifest builds one per clean_path and hands it to score_utterance
    for each entry that names that file, wherever it sits in the manifest.
    The waveform and its features are computed on first use, the posteriors
    once per aligned frame count and STOI's clean side once per aligned
    sample count. A step that raises keeps nothing, so every row of the file
    meets the same error. The state lives as long as the object.
    """

    def __init__(self, path: str, model: AcousticModel | None) -> None:
        self.path = path
        self.model = model
        self._posteriors: dict[int, PosteriorMatrix] = {}

    @cached_property
    def waveform(self) -> Waveform:
        return load_wav(self.path)

    @cached_property
    def features(self) -> FeatureMatrix:
        return fbank(self.waveform)

    @cached_property
    def stoi_reference(self) -> StoiReference:
        return StoiReference(self.waveform)

    def posteriors(self, n_frames: int) -> PosteriorMatrix:
        """Posteriors of the first n_frames feature frames, normalized over those frames."""
        if n_frames not in self._posteriors:
            features = mvn(_first_frames(self.features, n_frames))
            self._posteriors[n_frames] = forward(self.model, features)
        return self._posteriors[n_frames]


def score_utterance(
    entry: ManifestEntry,
    model: AcousticModel | None,
    cfg: RunConfig,
    clean: CleanReference | None = None,
) -> ScoreRow:
    """Compute every configured measure for one manifest entry.

    clean is the entry's clean side when it is shared with other rows (see
    score_manifest); by default one is built for this row alone. It must be
    built for entry.clean_path with the same model.
    """
    _check_model(model, cfg)
    if clean is None:
        clean = CleanReference(entry.clean_path, model)
    elif clean.path != entry.clean_path or clean.model is not model:
        raise ConfigError(f"{entry.utt_id}: clean reference built for another file or model")
    waveform = clean.waveform
    degraded = load_wav(entry.degraded_path)
    if waveform.sample_rate_hz != degraded.sample_rate_hz:
        raise SampleRateMismatchError(
            f"{entry.utt_id}: clean is {waveform.sample_rate_hz} Hz "
            f"but degraded is {degraded.sample_rate_hz} Hz"
        )
    values: dict[str, float] = {}
    if cfg.needs_model:
        assert model is not None
        n_clean = clean.features.n_frames  # first, so the clean side's errors come first
        features = fbank(degraded)
        n = aligned_length(n_clean, features.n_frames, cfg.alignment_tolerance, "frame")
        p_clean = clean.posteriors(n)
        p_degraded = forward(model, mvn(_first_frames(features, n)))
        if "age" in cfg.measures:
            values["age"] = age(p_clean, p_degraded).value
        if "entropy" in cfg.measures:
            values["entropy"] = entropy_confidence(p_degraded).value
    if "stoi" in cfg.measures:
        reference = clean.stoi_reference
        values["stoi"] = stoi(reference, degraded, tolerance=cfg.alignment_tolerance).value
    return ScoreRow(
        utt_id=entry.utt_id,
        values=values,
        wer_percent=entry.wer_percent,
        tags=dict(entry.tags),
    )


def _score_group(
    group: Sequence[ManifestEntry], model: AcousticModel | None, cfg: RunConfig
) -> list[ScoreRow | tuple[str, str]]:
    clean = CleanReference(group[0].clean_path, model)
    outcomes: list[ScoreRow | tuple[str, str]] = []
    for entry in group:
        try:
            outcomes.append(score_utterance(entry, model, cfg, clean))
        except (AgevalError, OSError) as exc:
            outcomes.append((entry.utt_id, _reason(exc)))
    return outcomes


def score_manifest(
    entries: Sequence[ManifestEntry], model: AcousticModel | None, cfg: RunConfig
) -> tuple[ScoreTable, list[tuple[str, str]]]:
    """Score every manifest entry, in manifest order.

    The run-level checks come first and are fatal. After them, any AgevalError
    or OSError while scoring one row skips that row only. Returns (table,
    skipped): the scored rows as one ScoreTable, and the (utt_id, reason)
    pairs of the skipped ones, the reason starting with the error type.
    The entries that share a clean_path form a group, wherever they sit in
    the manifest, which loads the clean file and computes its clean side
    once. Worker count above one fans whole groups out to a pool of at most
    one process per group, each on one BLAS thread, so workers x BLAS
    threads do not oversubscribe the cores; results are identical to the
    single-process path. The single-process path sets the process's
    OpenBLAS thread count to 1 while it scores and then restores it, so it
    holds other BLAS work in the process to one thread meanwhile, and it is
    not safe to call from two threads at once.
    """
    _check_model(model, cfg)
    # Entry indices by clean_path, in the order each path first appears.
    positions: dict[str, list[int]] = {}
    for i, entry in enumerate(entries):
        positions.setdefault(entry.clean_path, []).append(i)
    groups = [[entries[i] for i in group] for group in positions.values()]
    if cfg.workers == 1 or len(groups) <= 1:
        # One BLAS thread, as in the pool's workers: a second one only spins.
        with _one_blas_thread():
            scored = [_score_group(group, model, cfg) for group in groups]
    else:
        scorer = partial(_score_group, model=model, cfg=cfg)
        # About 16 tasks per worker, so that the last tasks even out the
        # workers' loads. For 64 long one-row groups on 2 workers, the rows/s
        # of repeated runs spread 9% (IQR/median) with 8 groups per task and
        # 3.5% with 2.
        chunksize = max(1, len(groups) // (16 * cfg.workers))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(cfg.workers, len(groups)), initializer=_set_blas_threads, initargs=(1,)
        ) as pool:
            scored = list(pool.map(scorer, groups, chunksize=chunksize))
    order = itertools.chain.from_iterable(positions.values())
    by_index = dict(zip(order, itertools.chain.from_iterable(scored)))
    outcomes = [by_index[i] for i in range(len(entries))]
    rows = [o for o in outcomes if isinstance(o, ScoreRow)]
    skipped = [o for o in outcomes if not isinstance(o, ScoreRow)]
    return ScoreTable.from_rows(rows), skipped


@dataclass(frozen=True)
class GroupReport:
    """One group's row counts, unweighted means (each measure and "wer") and fits."""

    n_rows: int
    n_with_wer: int
    means: dict[str, float]
    correlations: dict[str, CorrelationReport]


def _finite_mean(values: np.ndarray, column: str) -> float:
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    if not math.isfinite(mean):
        raise NumericError(f"the mean of {column} leaves the float64 range")
    return mean


def _groups(table: ScoreTable, group_key: str | None) -> dict[str, np.ndarray]:
    """Row indices per group name, groups and rows in first-seen order."""
    if group_key is None:
        return {"all": np.arange(len(table))}
    if group_key not in table.tags:
        raise ConfigError(f"no row carries the tag {group_key!r}; tags: {sorted(table.tags)}")
    members: dict[str, list[int]] = {}
    for i, tag in enumerate(table.tags[group_key]):
        members.setdefault(tag or "_missing", []).append(i)
    return {name: np.array(rows) for name, rows in members.items()}


@dataclass(frozen=True)
class Correlation:
    """What correlate_by_group computes from one table, and all emit_report writes.

    groups holds one GroupReport per reportable group, and skipped the reason
    for each group, group/column or group/measure left out. curves holds each
    measure's logistic fit over every WER-bearing row that carries it, the
    curve of its scatter file; a measure whose fit raises has none, and
    lost_curves holds the reason instead.
    """

    table: ScoreTable
    group_key: str | None
    groups: dict[str, GroupReport]
    skipped: dict[str, str]
    curves: dict[str, LogisticParams]
    lost_curves: dict[str, str]


# Values per (items, points) array that correlate_by_group and _curves fit
# at a time: items of one length are stacked, at most this many values (and
# at least one item) per stack.
_FIT_CHUNK_VALUES = 16384


def _in_stacks(
    table: ScoreTable,
    items: Sequence[tuple[str, np.ndarray]],
    fit: Callable[[np.ndarray, np.ndarray, list[str]], list],
) -> list:
    """fit's outcome for each (measure, rows) item, items of one length fitted as one stack.

    rows are the table rows of an item's points, in order. fit gets the
    (g, n) stacks of measure values and of WER, gathered from the table one
    chunk of items at a time, and the g measure names, and returns one
    outcome per item.
    """
    outcomes: list = [None] * len(items)
    lengths: dict[int, list[int]] = {}
    for i, (_, rows) in enumerate(items):
        lengths.setdefault(len(rows), []).append(i)
    for n, members in lengths.items():
        per_stack = max(1, _FIT_CHUNK_VALUES // max(n, 1))
        for start in range(0, len(members), per_stack):
            chunk = members[start : start + per_stack]
            m, wer = np.empty((len(chunk), n)), np.empty((len(chunk), n))
            for row, i in enumerate(chunk):
                measure, rows = items[i]
                np.take(table.measures[measure], rows, out=m[row])
                np.take(table.wer, rows, out=wer[row])
            for i, outcome in zip(chunk, fit(m, wer, [items[i][0] for i in chunk])):
                outcomes[i] = outcome
    return outcomes


def _curves(
    table: ScoreTable, whole: GroupReport | None
) -> tuple[dict[str, LogisticParams], dict[str, str]]:
    """Each measure's fit over every WER-bearing row that carries it, and the
    reason of each fit that raises.

    whole is the "all" group of an ungrouped run. It reports a measure only
    when every WER-bearing row carries it, so its fit is over these very rows
    in this order, and its params are the curve. A measure the group lacks
    is fitted here even when the group's fit of it raised: evaluate_measure
    can fail after its fit succeeded, at the correlation or the RMSE, while
    the curve needs only the fit, so the group's error does not tell
    whether a curve exists.
    """
    with_wer = np.flatnonzero(~np.isnan(table.wer))
    curves: dict[str, LogisticParams] = {}
    items = []
    for measure, values in table.measures.items():
        if whole is not None and measure in whole.correlations:
            curves[measure] = whole.correlations[measure].params
            continue
        carried = ~np.isnan(values[with_wer])
        items.append((measure, with_wer if carried.all() else with_wer[carried]))
    fits = _in_stacks(table, items, lambda m, wer, _: fit_logistic(m, wer))
    lost: dict[str, str] = {}
    for (measure, _), fit in zip(items, fits):
        if isinstance(fit, LogisticParams):
            curves[measure] = fit
        else:
            lost[measure] = _reason(fit)
    return {measure: curves[measure] for measure in sorted(curves)}, lost


def _group_reports(
    table: ScoreTable, group_key: str | None
) -> tuple[dict[str, GroupReport], dict[str, str]]:
    """correlate_by_group's GroupReports and skipped map: every group's means, then
    its fits, made in stacks across groups."""
    skipped: dict[str, str] = {}
    # (name, n_rows, n_with_wer, means, {measure: item}) of each group to report
    groups: list[tuple[str, int, int, dict[str, float], dict[str, int]]] = []
    items: list[tuple[str, np.ndarray]] = []  # (measure, WER-bearing rows) to evaluate
    for name, members in _groups(table, group_key).items():
        wer = table.wer[members]
        has_wer = ~np.isnan(wer)
        n_with_wer = int(np.count_nonzero(has_wer))
        if n_with_wer < 3:
            skipped[name] = f"only {n_with_wer} rows with wer, need 3"
            continue
        rows = members[has_wer]
        means: dict[str, float] = {}
        fits: dict[str, int] = {}
        for measure in sorted(table.measures):
            values = table.measures[measure][members]
            carried = ~np.isnan(values)
            if not carried.any():
                continue
            try:
                means[measure] = _finite_mean(values[carried], measure)
            except NumericError as exc:
                skipped[f"{name}/{measure}"] = _reason(exc)
                continue
            n_carried = int(np.count_nonzero(carried[has_wer]))
            if n_carried < n_with_wer:
                skipped[f"{name}/{measure}"] = f"carried by {n_carried} of {n_with_wer} rows with wer"
            else:
                fits[measure] = len(items)
                items.append((measure, rows))
        try:
            means["wer"] = _finite_mean(wer[has_wer], "wer")
        except NumericError as exc:
            skipped[f"{name}/wer"] = _reason(exc)
        groups.append((name, len(members), n_with_wer, means, fits))
    outcomes = _in_stacks(table, items, lambda m, wer, names: evaluate_measure(np.stack((m, wer), -1), names))
    reports: dict[str, GroupReport] = {}
    for name, n_rows, n_with_wer, means, fits in groups:
        correlations: dict[str, CorrelationReport] = {}
        for measure, item in fits.items():
            outcome = outcomes[item]
            if isinstance(outcome, AgevalError):
                skipped[f"{name}/{measure}"] = _reason(outcome)
            else:
                correlations[measure] = outcome
        if not correlations:
            skipped.setdefault(name, "no measure produced a report")
            continue
        reports[name] = GroupReport(n_rows, n_with_wer, means, correlations)
    return reports, skipped


def correlate_by_group(table: ScoreTable, group_key: str | None = None) -> Correlation:
    """Fit and correlate each measure against WER within each tag group.

    With group_key=None all rows form one group named "all"; otherwise rows
    lacking the tag form the group "_missing", and a tag that no row carries
    raises ConfigError. Groups with fewer than 3
    WER-bearing rows, group/measure fits that raise any AgevalError, and
    group/column means that leave the float64 range (the measure then gets
    no fit) are reported in the skipped map. A measure is fitted in a group
    when every WER-bearing row of the group carries it; a measure that only
    some of them carry is skipped with the count that does. The fits of all
    groups are made in stacks of equal-length items (see evaluate_measure).
    Each measure's scatter curve is fitted here too, once: an ungrouped run
    takes it from the "all" group's fit, and a curve fit that raises leaves
    the measure no scatter file and its reason in lost_curves. If nothing
    is reportable, EmptyReportError is raised.
    """
    reports, skipped = _group_reports(table, group_key)
    if not reports:
        raise EmptyReportError("no group had enough usable data")
    whole = reports.get("all") if group_key is None else None
    return Correlation(table, group_key, reports, skipped, *_curves(table, whole))


def _repr_cells(values: np.ndarray) -> list[str]:
    """repr of each value, "" for NaN (no value)."""
    cells = list(map(repr, values.tolist()))
    if np.isnan(values).any():
        cells = ["" if cell == "nan" else cell for cell in cells]
    return cells


# Rows whose cells and text write_scores_csv and write_skip_log build at a
# time. Formatting every row at once kept all the cell strings alive
# together: for 30k rows, about 7 MB more peak resident memory in correlate.
# A chunk's text is held once, while it is written: emit_report on 20k rows
# of three measures peaks at 3.0 MB under tracemalloc.
_WRITE_CHUNK_ROWS = 4096


def write_scores_csv(
    table: ScoreTable, path: str | Path, curves: Mapping[str, LogisticParams] | None = None
) -> None:
    """Write a score table with stable column order: utt_id, wer, measures, tags.

    Floats are written as their repr, a missing value or tag as an empty
    cell, and every record ends in \\r\\n; a table of no rows writes the
    header "utt_id,wer" alone. A cell holding a comma, a double quote, CR or
    LF (an utt_id, a tag name or a tag value) is quoted, with each quote
    doubled: the bytes csv.writer writes, from the one writer of every CSV
    file ageval writes. Each measure of curves also gets
    scatter_<measure>.csv beside path: one (m, wer, f(m)) row, f the curve,
    per WER-bearing row that carries the measure, in table order. One pass
    writes every file, a chunk of rows at a time, and a scatter file's m and
    wer cells are the very strings of the scores rows.
    """
    path = Path(path)
    measure_cols = sorted(table.measures)
    tag_cols = sorted(table.tags)
    has_wer = ~np.isnan(table.wer)
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(open(path, "w", newline="", encoding="utf-8"))
        fh.write(_csv_text([[name] for name in ("utt_id", "wer", *measure_cols, *tag_cols)]))
        scatters = []
        for measure, params in (curves or {}).items():
            values = table.measures[measure]
            carriers = has_wer & ~np.isnan(values)
            # f(m) over the whole carrier array at once, as the curve was
            # fitted, placed in table rows so that a chunk of rows slices it
            mapped = np.full(len(table), np.nan)
            mapped[carriers] = map_logistic(params, values[carriers])
            scatter_path = path.parent / f"scatter_{measure}.csv"
            scatter = stack.enter_context(open(scatter_path, "w", newline="", encoding="utf-8"))
            scatter.write(_csv_text([["m"], ["wer"], ["f(m)"]]))
            scatters.append((scatter, measure, carriers, mapped))
        for start in range(0, len(table), _WRITE_CHUNK_ROWS):
            rows = slice(start, start + _WRITE_CHUNK_ROWS)
            wer_cells = _repr_cells(table.wer[rows])
            measure_cells = {m: _repr_cells(table.measures[m][rows]) for m in measure_cols}
            tag_cells = [table.tags[t][rows] for t in tag_cols]
            cells = [table.utt_ids[rows], wer_cells, *measure_cells.values(), *tag_cells]
            fh.write(_csv_text(cells))
            for scatter, measure, carriers, mapped in scatters:
                keep = carriers[rows]
                selected = keep.tolist()
                m_cells = list(itertools.compress(measure_cells[measure], selected))
                w_cells = list(itertools.compress(wer_cells, selected))
                f_cells = list(map(repr, mapped[rows][keep].tolist()))
                scatter.write(_csv_text([m_cells, w_cells, f_cells]))


def load_scores_csv(path: str | Path) -> ScoreTable:
    """Read a scores file, as write_scores_csv writes it, into a ScoreTable.

    Blank records are skipped. A header that repeats a non-blank name, a
    malformed cell, a value under a header column with no name, a row
    shorter or longer than the header, a row with no measure value,
    undecodable text and CSV-level faults such as an
    overlong field raise FormatError naming the path and the line;
    within a row the measure cells are checked first, in header order, then
    whether any is present, then the WER. A blank cell is no value. Each
    cell is parsed by one float() call; only a failing cell leads further.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        records = _csv_records(fh, path, FormatError, "unreadable CSV")
        _, header = next(records)
        if header is None or "utt_id" not in header:
            raise FormatError(f"{path}: not a scores file (missing utt_id column)")
        column = {name: i for i, name in enumerate(header)}
        measures = {c: array("d") for c in header if c in MEASURE_NAMES}
        tags: dict[str, list[str]] = {
            c: [] for c in header if c.strip() and c not in (*MEASURE_NAMES, "utt_id", "wer")
        }
        measure_slots = [(m, column[m], values.append) for m, values in measures.items()]
        tag_slots = [(column[t], cells.append) for t, cells in tags.items()]
        utt_col, wer_col = column["utt_id"], column.get("wer")
        width = len(header)
        utt_ids: list[str] = []
        wer = array("d")
        for line, record in records:
            if len(record) < width:
                raise FormatError(f"{path}:{line}: fewer fields than header columns")
            blank = True
            for m, i, append in measure_slots:
                cell = record[i]
                try:
                    value = float(cell)
                except ValueError:
                    if not cell.strip():
                        append(math.nan)
                        continue
                    value = math.nan
                if not math.isfinite(value):
                    raise FormatError(f"{path}:{line}: {m} value {cell!r} is not a finite number")
                append(value)
                blank = False
            if blank:
                raise FormatError(f"{path}:{line}: row has no measure values")
            cell = "" if wer_col is None else record[wer_col]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not 0.0 <= value < math.inf:
                # a blank cell is no value; _parse_wer raises for any other
                value = _parse_wer(cell, f"{path}:{line}", FormatError)
                value = math.nan if value is None else value
            wer.append(value)
            utt_ids.append(record[utt_col])
            for i, append in tag_slots:
                append(record[i] if record[i].strip() else "")
    if not utt_ids:
        raise EmptyInputError(f"{path}: no score rows")
    columns = {m: np.frombuffer(values) for m, values in measures.items()}
    return ScoreTable(utt_ids, np.frombuffer(wer), columns, tags)


def _report_to_dict(report: CorrelationReport) -> dict[str, object]:
    return {
        "measure": report.measure_name,
        "n_points": report.n_points,
        "a": report.params.a,
        "b": report.params.b,
        "rho_magnitude": report.rho_magnitude,
        "rho_signed": report.rho_signed,
        "spearman": report.spearman,
        "rmse_mapped": report.rmse_mapped,
    }


def emit_report(
    correlation: Correlation, out_dir: str | Path, report_name: str = "report.json"
) -> Path:
    """Write scores.csv, report.json and one scatter CSV per measure curve.

    scores.csv is the table rewritten by write_scores_csv, so it is
    canonical whatever file the table came from: repr floats ("1.50" becomes
    1.5), \\r\\n line endings, no blank records and blank-only columns
    dropped; reading it back gives an equal table. The same write_scores_csv
    pass writes the scatter files, (m, wer, f(m)) triples over the rows each
    curve was fitted to. The report serializes the group reports and the
    skipped map; its text is made before any file is opened, so a report
    that is not JSON-compliant raises ValueError and writes nothing. Nothing
    is fitted here. Output is deterministic: identical inputs give
    byte-identical files.
    """
    payload = {
        "group_key": correlation.group_key,
        "groups": {
            name: {
                "n_rows": group.n_rows,
                "n_with_wer": group.n_with_wer,
                "means": group.means,
                "correlations": {m: _report_to_dict(rep) for m, rep in group.correlations.items()},
            }
            for name, group in correlation.groups.items()
        },
        "skipped": correlation.skipped,
    }
    report = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_scores_csv(correlation.table, out / "scores.csv", correlation.curves)
    report_path = out / report_name
    report_path.write_text(report, encoding="utf-8")
    return report_path


def write_skip_log(skipped: Sequence[tuple[str, str]], path: str | Path) -> None:
    """Write the (utt_id, reason) pairs for rows that could not be scored.

    The file is CSV with the header "utt_id,reason", written by the one
    writer of every file ageval writes (see write_scores_csv): a cell holding
    a comma, a double quote, CR or LF is quoted, each quote doubled, and
    every record ends in \\r\\n.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_text([["utt_id"], ["reason"]]))
        for start in range(0, len(skipped), _WRITE_CHUNK_ROWS):
            utt_ids, reasons = zip(*skipped[start : start + _WRITE_CHUNK_ROWS])
            fh.write(_csv_text([utt_ids, reasons]))
