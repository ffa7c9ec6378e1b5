"""Batch evaluation harness: manifests, per-utterance scoring, grouping, reports.

A manifest lists utterance pairs (clean and degraded paths) with optional WER
and free-form tag columns. Scoring produces one ScoreRow per usable pair;
rows that cannot be scored are skipped with a reason rather than aborting the
run. Reports are written deterministically so identical inputs give
byte-identical output files.
"""

from __future__ import annotations

import concurrent.futures
import csv
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .am import AcousticModel, PosteriorMatrix, forward
from .dsp import FeatureMatrix, FrameSpec, MelSpec, Waveform, fbank, load_wav, mfcc, mvn
from .errors import (
    AgevalError,
    ConfigError,
    EmptyInputError,
    EmptyReportError,
    FormatError,
    ManifestError,
    SampleRateMismatchError,
    ShapeMismatchError,
)
from .measures import (
    DEFAULT_ALIGNMENT_TOLERANCE,
    MEASURE_NAMES,
    StoiReference,
    age,
    aligned_length,
    entropy_confidence,
    stoi,
)
from .stats import CorrelationReport, evaluate_measure, fit_logistic, map_logistic

_MANIFEST_REQUIRED = ("utt_id", "clean_path", "degraded_path")
_POSTERIOR_MEASURES = ("age", "entropy")


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


@dataclass(frozen=True)
class RunConfig:
    """Settings for one scoring run."""

    measures: tuple[str, ...] = ("age", "entropy", "stoi")
    feature_kind: str = "fbank"
    frame_spec: FrameSpec = field(default_factory=FrameSpec)
    mel_spec: MelSpec = field(default_factory=MelSpec)
    alignment_tolerance: float = DEFAULT_ALIGNMENT_TOLERANCE
    channel: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if not self.measures:
            raise ConfigError("select at least one measure")
        unknown = [m for m in self.measures if m not in MEASURE_NAMES]
        if unknown:
            raise ConfigError(f"unknown measures: {unknown}; valid: {list(MEASURE_NAMES)}")
        if self.feature_kind not in ("fbank", "mfcc"):
            raise ConfigError(f"feature_kind must be fbank or mfcc, got {self.feature_kind!r}")
        if not 0.0 <= self.alignment_tolerance < 1.0:
            raise ConfigError("alignment_tolerance must lie in [0, 1)")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")

    @property
    def needs_model(self) -> bool:
        return any(m in _POSTERIOR_MEASURES for m in self.measures)


def _parse_wer(
    raw: object, where: str, error: type[FormatError] = ManifestError
) -> float | None:
    if raw is None:
        return None
    text = str(raw).strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise error(f"{where}: wer {text!r} is not a number") from exc
    if not np.isfinite(value) or value < 0.0:
        raise error(f"{where}: wer must be a finite nonnegative number, got {value}")
    return value


def _entry_from_record(
    record: dict[str, object], where: str, base_dir: Path
) -> ManifestEntry:
    for key in _MANIFEST_REQUIRED:
        value = record.get(key)
        if value is None or not str(value).strip():
            raise ManifestError(f"{where}: missing required field {key!r}")
    tags = {
        str(k): str(v)
        for k, v in record.items()
        if k not in _MANIFEST_REQUIRED and k != "wer" and v is not None and str(v).strip()
    }

    def resolve(p: object) -> str:
        path = Path(str(p))
        return str(path if path.is_absolute() else base_dir / path)

    return ManifestEntry(
        utt_id=str(record["utt_id"]),
        clean_path=resolve(record["clean_path"]),
        degraded_path=resolve(record["degraded_path"]),
        wer_percent=_parse_wer(record.get("wer"), where),
        tags=tags,
    )


def load_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a manifest: CSV with a header row, or JSON-lines with the same keys.

    Relative audio paths are resolved against the manifest's directory.
    Duplicate utt_ids and malformed rows raise ManifestError with the line
    number; so do undecodable text and CSV-level faults such as an overlong
    field.
    """
    path = Path(path)
    base_dir = path.parent
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: undecodable text ({exc})") from exc
    stripped = text.lstrip()
    if not stripped:
        raise EmptyInputError(f"{path}: manifest is empty")
    entries: list[ManifestEntry] = []
    if path.suffix.lower() in (".jsonl", ".ndjson", ".json") or stripped.startswith("{"):
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ManifestError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ManifestError(f"{path}:{lineno}: expected a JSON object per line")
            entries.append(_entry_from_record(record, f"{path}:{lineno}", base_dir))
    else:
        reader = csv.DictReader(text.splitlines())
        try:
            if reader.fieldnames is None:
                raise ManifestError(f"{path}: missing CSV header")
            missing = [c for c in _MANIFEST_REQUIRED if c not in reader.fieldnames]
            if missing:
                raise ManifestError(f"{path}: header lacks required columns {missing}")
            for lineno, record in enumerate(reader, start=2):
                if record.get(None) is not None:
                    raise ManifestError(f"{path}:{lineno}: more fields than header columns")
                entries.append(_entry_from_record(record, f"{path}:{lineno}", base_dir))
        except csv.Error as exc:
            raise ManifestError(f"{path}:{reader.line_num}: malformed CSV ({exc})") from exc
    if not entries:
        raise EmptyInputError(f"{path}: manifest has no rows")
    seen: set[str] = set()
    for entry in entries:
        if entry.utt_id in seen:
            raise ManifestError(f"{path}: duplicate utt_id {entry.utt_id!r}")
        seen.add(entry.utt_id)
    return entries


def _reason(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _check_model(model: AcousticModel | None, cfg: RunConfig) -> None:
    """The run-level checks: fatal, and made before any row is read."""
    if not cfg.needs_model:
        return
    if model is None:
        raise ConfigError("posterior measures requested but no model given")
    width = cfg.mel_spec.n_filters if cfg.feature_kind == "fbank" else cfg.mel_spec.n_cepstra
    if model.input_dim != width:
        raise ShapeMismatchError(
            f"model expects {model.input_dim}-dim features, {cfg.feature_kind} gives {width}"
        )


def _features(waveform: Waveform, cfg: RunConfig) -> FeatureMatrix:
    extract = fbank if cfg.feature_kind == "fbank" else mfcc
    return extract(waveform, cfg.frame_spec, cfg.mel_spec)


def _first_frames(features: FeatureMatrix, n: int) -> FeatureMatrix:
    return features if features.n_frames == n else replace(features, values=features.values[:n])


class CleanReference:
    """The clean side of scoring, shared by the rows that name one clean file.

    score_manifest builds one per run of consecutive entries with the same
    clean_path and hands it to score_utterance for each entry of the run.
    The waveform and its features are computed on first use, the posteriors
    once per aligned frame count and STOI's clean side once per aligned
    sample count. A step that raises keeps nothing, so every row of the run
    meets the same error. The state lives as long as the object.
    """

    def __init__(self, path: str, model: AcousticModel | None, cfg: RunConfig) -> None:
        self.path = path
        self.model = model
        self.cfg = cfg
        self._posteriors: dict[int, PosteriorMatrix] = {}

    @cached_property
    def waveform(self) -> Waveform:
        return load_wav(self.path, self.cfg.channel)

    @cached_property
    def features(self) -> FeatureMatrix:
        return _features(self.waveform, self.cfg)

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
    built for entry.clean_path with the same model and cfg.
    """
    _check_model(model, cfg)
    if clean is None:
        clean = CleanReference(entry.clean_path, model, cfg)
    elif (clean.path, clean.cfg) != (entry.clean_path, cfg) or clean.model is not model:
        raise ConfigError(
            f"{entry.utt_id}: clean reference built for another file, model or config"
        )
    waveform = clean.waveform
    degraded = load_wav(entry.degraded_path, cfg.channel)
    if waveform.sample_rate_hz != degraded.sample_rate_hz:
        raise SampleRateMismatchError(
            f"{entry.utt_id}: clean is {waveform.sample_rate_hz} Hz "
            f"but degraded is {degraded.sample_rate_hz} Hz"
        )
    values: dict[str, float] = {}
    if cfg.needs_model:
        assert model is not None
        n_clean = clean.features.n_frames  # first, so the clean side's errors come first
        features = _features(degraded, cfg)
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


def _score_run(
    run: Sequence[ManifestEntry], model: AcousticModel | None, cfg: RunConfig
) -> list[ScoreRow | tuple[str, str]]:
    clean = CleanReference(run[0].clean_path, model, cfg)
    outcomes: list[ScoreRow | tuple[str, str]] = []
    for entry in run:
        try:
            outcomes.append(score_utterance(entry, model, cfg, clean))
        except (AgevalError, OSError) as exc:
            outcomes.append((entry.utt_id, _reason(exc)))
    return outcomes


def score_manifest(
    entries: Sequence[ManifestEntry], model: AcousticModel | None, cfg: RunConfig
) -> tuple[list[ScoreRow], list[tuple[str, str]]]:
    """Score every manifest entry, in manifest order.

    The run-level checks come first and are fatal. After them, any AgevalError
    or OSError while scoring one row skips that row only. Returns (rows,
    skipped) where skipped holds (utt_id, reason) pairs, the reason starting
    with the error type. Consecutive entries with the same clean_path form a
    run that loads the clean file and computes its clean side once, so a
    manifest sorted by clean_path scores fastest. Worker count above one fans
    whole runs out to a process pool; results are identical to the
    single-process path.
    """
    _check_model(model, cfg)
    runs = [list(run) for _, run in itertools.groupby(entries, key=attrgetter("clean_path"))]
    if cfg.workers == 1 or len(runs) <= 1:
        outcomes = [o for run in runs for o in _score_run(run, model, cfg)]
    else:
        scorer = partial(_score_run, model=model, cfg=cfg)
        # About 8 rows per task; 8 runs when every run is one row.
        chunksize = max(1, 8 * len(runs) // len(entries))
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = [o for run in pool.map(scorer, runs, chunksize=chunksize) for o in run]
    rows = [o for o in outcomes if isinstance(o, ScoreRow)]
    skipped = [o for o in outcomes if not isinstance(o, ScoreRow)]
    return rows, skipped


@dataclass(frozen=True)
class GroupReport:
    """One group's row counts, unweighted means (each measure and "wer") and fits."""

    n_rows: int
    n_with_wer: int
    means: dict[str, float]
    correlations: dict[str, CorrelationReport]


def correlate_by_group(
    rows: Sequence[ScoreRow], group_key: str | None = None
) -> tuple[dict[str, GroupReport], dict[str, str]]:
    """Fit and correlate each measure against WER within each tag group.

    With group_key=None all rows form one group named "all"; otherwise rows
    lacking the tag form the group "_missing". Groups with fewer than 3
    WER-bearing rows, and group/measure fits that raise any AgevalError,
    are reported in the skipped map. If nothing is reportable,
    EmptyReportError is raised.
    """
    groups: dict[str, list[ScoreRow]] = {}
    for row in rows:
        name = "all" if group_key is None else row.tags.get(group_key, "_missing")
        groups.setdefault(name, []).append(row)
    reports: dict[str, GroupReport] = {}
    skipped: dict[str, str] = {}
    for name, members in groups.items():
        with_wer = [r for r in members if r.wer_percent is not None]
        if len(with_wer) < 3:
            skipped[name] = f"only {len(with_wer)} rows with wer, need 3"
            continue
        measure_names = sorted(set.intersection(*(set(r.values) for r in with_wer)))
        correlations: dict[str, CorrelationReport] = {}
        for measure in measure_names:
            pairs = [(r.values[measure], r.wer_percent) for r in with_wer]
            try:
                correlations[measure] = evaluate_measure(pairs, measure)
            except AgevalError as exc:
                skipped[f"{name}/{measure}"] = _reason(exc)
        if not correlations:
            skipped.setdefault(name, "no measure produced a report")
            continue
        means = {
            measure: float(np.mean([r.values[measure] for r in members if measure in r.values]))
            for measure in sorted({m for r in members for m in r.values})
        }
        means["wer"] = float(np.mean([r.wer_percent for r in with_wer]))
        reports[name] = GroupReport(len(members), len(with_wer), means, correlations)
    if not reports:
        raise EmptyReportError("no group had enough usable data")
    return reports, skipped


def _format_float(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_scores_csv(rows: Sequence[ScoreRow], path: str | Path) -> None:
    """Write score rows with stable column order: utt_id, wer, measures, tags."""
    measure_cols = sorted({m for row in rows for m in row.values})
    tag_cols = sorted({t for row in rows for t in row.tags})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "wer", *measure_cols, *tag_cols])
        for row in rows:
            writer.writerow(
                [
                    row.utt_id,
                    _format_float(row.wer_percent),
                    *[_format_float(row.values.get(m)) for m in measure_cols],
                    *[row.tags.get(t, "") for t in tag_cols],
                ]
            )


def _parse_measure(text: str, column: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise FormatError(f"{where}: {column} value {text!r} is not a finite number")
    return value


def load_scores_csv(path: str | Path) -> list[ScoreRow]:
    """Read rows written by write_scores_csv.

    A malformed cell or row, undecodable text and CSV-level faults such as an
    overlong field raise FormatError naming the path.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or "utt_id" not in reader.fieldnames:
                raise FormatError(f"{path}: not a scores file (missing utt_id column)")
            measure_cols = [c for c in reader.fieldnames if c in MEASURE_NAMES]
            tag_cols = [c for c in reader.fieldnames if c not in (*MEASURE_NAMES, "utt_id", "wer")]
            rows = []
            for lineno, record in enumerate(reader, start=2):
                where = f"{path}:{lineno}"
                if None in record.values():
                    raise FormatError(f"{where}: fewer fields than header columns")
                values = {
                    m: _parse_measure(record[m], m, where)
                    for m in measure_cols if record[m].strip()
                }
                if not values:
                    raise FormatError(f"{where}: row has no measure values")
                rows.append(
                    ScoreRow(
                        utt_id=record["utt_id"],
                        values=values,
                        wer_percent=_parse_wer(record.get("wer"), where, FormatError),
                        tags={t: record[t] for t in tag_cols if record.get(t, "").strip()},
                    )
                )
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}:{reader.line_num}: unreadable CSV ({exc})") from exc
    if not rows:
        raise EmptyInputError(f"{path}: no score rows")
    return rows


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
    rows: Sequence[ScoreRow],
    reports: dict[str, GroupReport],
    out_dir: str | Path,
    skipped: dict[str, str] | None = None,
    group_key: str | None = None,
    report_name: str = "report.json",
) -> Path:
    """Write scores.csv, report.json and one scatter CSV per measure.

    The report serializes the group reports from correlate_by_group. Scatter
    files hold (m, wer, f(m)) triples using a logistic fit over all
    WER-bearing rows; a measure whose fit raises an AgevalError gets none.
    Output is deterministic: identical inputs give byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_scores_csv(rows, out / "scores.csv")

    payload = {
        "group_key": group_key,
        "groups": {
            name: {
                "n_rows": group.n_rows,
                "n_with_wer": group.n_with_wer,
                "means": group.means,
                "correlations": {m: _report_to_dict(rep) for m, rep in group.correlations.items()},
            }
            for name, group in reports.items()
        },
        "skipped": dict(skipped or {}),
    }
    report_path = out / report_name
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    with_wer = [r for r in rows if r.wer_percent is not None]
    for measure in sorted({m for r in with_wer for m in r.values}):
        pairs = [(r.values[measure], r.wer_percent) for r in with_wer if measure in r.values]
        m_values = np.asarray([p[0] for p in pairs])
        wer_values = np.asarray([p[1] for p in pairs])
        try:
            params = fit_logistic(m_values, wer_values)
        except AgevalError:
            continue
        mapped = np.asarray(map_logistic(params, m_values))
        with open(out / f"scatter_{measure}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "wer", "f(m)"])
            for mv, wv, fv in zip(m_values, wer_values, mapped):
                writer.writerow([repr(float(mv)), repr(float(wv)), repr(float(fv))])
    return report_path


def write_skip_log(skipped: Sequence[tuple[str, str]], path: str | Path) -> None:
    """Write the (utt_id, reason) pairs for rows that could not be scored."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "reason"])
        for utt_id, reason in skipped:
            writer.writerow([utt_id, reason])
