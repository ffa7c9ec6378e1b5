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
import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .am import AcousticModel, PosteriorMatrix, forward
from .dsp import FeatureMatrix, FrameSpec, MelSpec, Waveform, fbank, load_wav, mfcc, mvn
from .errors import (
    AlignmentError,
    ConfigError,
    DegenerateSignalError,
    EmptyInputError,
    EmptyReportError,
    FormatError,
    ManifestError,
    SampleRateMismatchError,
    TooFewPointsError,
    TooShortError,
    UndefinedCorrelationError,
    DegenerateFitError,
)
from .measures import (
    DEFAULT_ALIGNMENT_TOLERANCE, MEASURE_NAMES, age, aligned_length, entropy_confidence, stoi
)
from .stats import CorrelationReport, evaluate_measure, fit_logistic, map_logistic

_MANIFEST_REQUIRED = ("utt_id", "clean_path", "degraded_path")
_POSTERIOR_MEASURES = ("age", "entropy")

# Per-row failures of these kinds are logged and skipped; anything else aborts.
_SKIPPABLE_ERRORS = (
    AlignmentError,
    DegenerateSignalError,
    EmptyInputError,
    FormatError,
    SampleRateMismatchError,
    TooShortError,
    OSError,
)


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


def _parse_wer(raw: object, where: str) -> float | None:
    if raw is None:
        return None
    text = str(raw).strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise ManifestError(f"{where}: wer {text!r} is not a number") from exc
    if not np.isfinite(value) or value < 0.0:
        raise ManifestError(f"{where}: wer must be a finite nonnegative number, got {value}")
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
    number.
    """
    path = Path(path)
    base_dir = path.parent
    text = path.read_text()
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
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ManifestError(f"{path}:{lineno}: expected a JSON object per line")
            entries.append(_entry_from_record(record, f"{path}:{lineno}", base_dir))
    else:
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None:
            raise ManifestError(f"{path}: missing CSV header")
        missing = [c for c in _MANIFEST_REQUIRED if c not in reader.fieldnames]
        if missing:
            raise ManifestError(f"{path}: header lacks required columns {missing}")
        for lineno, record in enumerate(reader, start=2):
            if record.get(None) is not None:
                raise ManifestError(f"{path}:{lineno}: more fields than header columns")
            entries.append(_entry_from_record(record, f"{path}:{lineno}", base_dir))
    if not entries:
        raise EmptyInputError(f"{path}: manifest has no rows")
    seen: set[str] = set()
    for entry in entries:
        if entry.utt_id in seen:
            raise ManifestError(f"{path}: duplicate utt_id {entry.utt_id!r}")
        seen.add(entry.utt_id)
    return entries


def _features(waveform: Waveform, cfg: RunConfig) -> FeatureMatrix:
    extract = fbank if cfg.feature_kind == "fbank" else mfcc
    return extract(waveform, cfg.frame_spec, cfg.mel_spec)


def _aligned_posteriors(
    clean: Waveform, degraded: Waveform, model: AcousticModel, cfg: RunConfig
) -> tuple[PosteriorMatrix, PosteriorMatrix]:
    """Features for both sides, frame counts reconciled, normalized, then forward."""
    feats = (_features(clean, cfg), _features(degraded, cfg))
    n = aligned_length(feats[0].n_frames, feats[1].n_frames, cfg.alignment_tolerance, "frame")
    feats = tuple(f if f.n_frames == n else replace(f, values=f.values[:n]) for f in feats)
    return forward(model, mvn(feats[0])), forward(model, mvn(feats[1]))


def score_utterance(
    entry: ManifestEntry, model: AcousticModel | None, cfg: RunConfig
) -> ScoreRow:
    """Compute every configured measure for one manifest entry."""
    if cfg.needs_model and model is None:
        raise ConfigError("posterior measures requested but no model given")
    clean = load_wav(entry.clean_path, cfg.channel)
    degraded = load_wav(entry.degraded_path, cfg.channel)
    if clean.sample_rate_hz != degraded.sample_rate_hz:
        raise SampleRateMismatchError(
            f"{entry.utt_id}: clean is {clean.sample_rate_hz} Hz "
            f"but degraded is {degraded.sample_rate_hz} Hz"
        )
    values: dict[str, float] = {}
    if cfg.needs_model:
        assert model is not None
        p_clean, p_degraded = _aligned_posteriors(clean, degraded, model, cfg)
        if "age" in cfg.measures:
            values["age"] = age(p_clean, p_degraded).value
        if "entropy" in cfg.measures:
            values["entropy"] = entropy_confidence(p_degraded).value
    if "stoi" in cfg.measures:
        values["stoi"] = stoi(clean, degraded, tolerance=cfg.alignment_tolerance).value
    return ScoreRow(
        utt_id=entry.utt_id,
        values=values,
        wer_percent=entry.wer_percent,
        tags=dict(entry.tags),
    )


def _score_one(
    entry: ManifestEntry, model: AcousticModel | None, cfg: RunConfig
) -> tuple[str, object]:
    try:
        return ("row", score_utterance(entry, model, cfg))
    except _SKIPPABLE_ERRORS as exc:
        return ("skip", (entry.utt_id, f"{type(exc).__name__}: {exc}"))


def score_manifest(
    entries: Sequence[ManifestEntry], model: AcousticModel | None, cfg: RunConfig
) -> tuple[list[ScoreRow], list[tuple[str, str]]]:
    """Score every manifest entry, in manifest order.

    Returns (rows, skipped) where skipped holds (utt_id, reason) pairs for
    rows that could not be scored. Worker count above one fans the rows out
    to a process pool; results are identical to the single-process path.
    """
    if cfg.needs_model and model is None:
        raise ConfigError("posterior measures requested but no model given")
    if cfg.workers == 1 or len(entries) <= 1:
        outcomes = [_score_one(entry, model, cfg) for entry in entries]
    else:
        scorer = partial(_score_one, model=model, cfg=cfg)
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(scorer, entries, chunksize=8))
    rows: list[ScoreRow] = []
    skipped: list[tuple[str, str]] = []
    for kind, payload in outcomes:
        if kind == "row":
            rows.append(payload)  # type: ignore[arg-type]
        else:
            skipped.append(payload)  # type: ignore[arg-type]
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
    WER-bearing rows, and group/measure combinations with degenerate data,
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
            except (DegenerateFitError, UndefinedCorrelationError, TooFewPointsError) as exc:
                skipped[f"{name}/{measure}"] = f"{type(exc).__name__}: {exc}"
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
    """Read rows written by write_scores_csv."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "utt_id" not in reader.fieldnames:
            raise FormatError(f"{path}: not a scores file (missing utt_id column)")
        measure_cols = [c for c in reader.fieldnames if c in MEASURE_NAMES]
        tag_cols = [
            c for c in reader.fieldnames if c not in MEASURE_NAMES and c not in ("utt_id", "wer")
        ]
        rows = []
        for lineno, record in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            if None in record.values():
                raise FormatError(f"{where}: fewer fields than header columns")
            values = {
                m: _parse_measure(record[m], m, where) for m in measure_cols if record[m].strip()
            }
            if not values:
                raise FormatError(f"{where}: row has no measure values")
            rows.append(
                ScoreRow(
                    utt_id=record["utt_id"],
                    values=values,
                    wer_percent=_parse_wer(record.get("wer"), where),
                    tags={t: record[t] for t in tag_cols if record.get(t, "").strip()},
                )
            )
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
    WER-bearing rows. Output is deterministic: identical inputs give
    byte-identical files.
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
        if len(pairs) < 3:
            continue
        m_values = np.asarray([p[0] for p in pairs])
        wer_values = np.asarray([p[1] for p in pairs])
        try:
            params = fit_logistic(m_values, wer_values)
        except (DegenerateFitError, TooFewPointsError):
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
