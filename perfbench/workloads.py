"""The three workloads: how each generates its inputs, what it runs, and how it is checked.

Inputs are made from the workload seed alone and handed to the program only
as files. The measured phases call ``ageval.cli.main`` with the argv a user
would type. The checks recompute what the program wrote by calling the
library's public functions directly.
"""

from __future__ import annotations

import csv
import json
import re
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import ageval.cli
from ageval import am, dsp, measures, stats
from ageval.errors import AgevalError

from metrics import clean_reuse_share

MEASURES = ("age", "entropy", "stoi")
GRID_SNRS = tuple(range(-5, 25))  # 30 SNRs, -5..24 dB
LONG_GOOD_ROWS = 60
LONG_UTTS_PER_REF = 8
LONG_FIXTURE_UTTS = 10
WIDE_ROWS = 30000
WIDE_GROUPS = 100
WIDE_TAG = "cond"
TYPED_REASON = re.compile(r"[A-Za-z_]\w*: .+")


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a wrong program output)."""


@dataclass(frozen=True)
class Phase:
    name: str  # "score" or "correlate"
    argv: list[str]
    expected_rc: int


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is in BENCHMARK.json and README.md
    setup: Callable[[Path, int], dict]
    phases: Callable[[dict, Path, int], list[Phase]]
    workers: Callable[[int], int]
    primary: str  # the phase whose rows/s is the end-to-end throughput
    required_measured: tuple[str, ...]
    required_setup: tuple[str, ...]


def _fixture(out: Path, seed: int, snrs: str, utts: int) -> None:
    rc = ageval.cli.main(["fixture", "--out", str(out), "--seed", str(seed), f"--snrs={snrs}", "--utts", str(utts)])
    if rc != 0:
        raise BenchError(f"fixture exited with {rc}")


# ---------------------------------------------------------------- set-up


def setup_grid(out: Path, seed: int) -> dict:
    _fixture(out, seed, ",".join(str(s) for s in GRID_SNRS), 20)
    return {
        "manifest": str(out / "manifest.csv"),
        "model": str(out / "model.json"),
        "planted": {},
        "fixed_files": ["manifest.csv", "model.json"],
    }


def setup_long(out: Path, seed: int) -> dict:
    """60 distinct ~10 s references plus 4 planted bad rows, each with its own clean file."""
    _fixture(out / "base", seed, "0", LONG_FIXTURE_UTTS)
    (out / "clean").mkdir()
    (out / "degraded").mkdir()
    rng = np.random.default_rng([seed, 1])
    sources = [dsp.load_wav(out / "base" / "clean" / f"utt{u:03d}.wav") for u in range(LONG_FIXTURE_UTTS)]
    rate = sources[0].sample_rate_hz
    noise = dsp.Waveform(rng.normal(0.0, 1.0, size=3 * rate), rate)
    planted = {
        "planted_rate": "8 kHz degraded file",
        "planted_trunc": "degraded file truncated by 10%",
        "planted_silent": "silent degraded file",
        "planted_missing": "missing degraded file",
    }
    ids = [f"long{i:03d}" for i in range(LONG_GOOD_ROWS)] + list(planted)
    rows = []
    for utt_id in ids:
        picks = rng.integers(0, LONG_FIXTURE_UTTS, size=LONG_UTTS_PER_REF)
        clean_rel = f"clean/{utt_id}.wav"
        dsp.save_wav(dsp.Waveform(np.concatenate([sources[p].samples for p in picks]), rate), out / clean_rel)
        clean = dsp.load_wav(out / clean_rel)
        snr_db = float(rng.uniform(-5.0, 20.0))
        mixed = dsp.mix_at_snr(clean, noise, snr_db, int(rng.integers(0, noise.samples.size)))
        if utt_id == "planted_rate":
            mixed = dsp.Waveform(mixed.samples[::2], rate // 2)
        elif utt_id == "planted_trunc":
            mixed = dsp.Waveform(mixed.samples[: int(0.9 * mixed.samples.size)], rate)
        elif utt_id == "planted_silent":
            mixed = dsp.Waveform(np.zeros_like(mixed.samples), rate)
        degraded_rel = f"degraded/{utt_id}.wav"
        if utt_id != "planted_missing":
            dsp.save_wav(mixed, out / degraded_rel)
        rows.append({"utt_id": utt_id, "clean_path": clean_rel, "degraded_path": degraded_rel, "snr_db": repr(snr_db)})
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows[i] for i in rng.permutation(len(rows)))
    return {
        "manifest": str(out / "manifest.csv"),
        "model": str(out / "base" / "model.json"),
        "planted": planted,
        "fixed_files": ["manifest.csv", "base/model.json", "clean/long000.wav", "degraded/long000.wav"],
    }


def setup_wide(out: Path, seed: int) -> dict:
    """A scores.csv of 30k rows: three measures that track a latent severity, WER, one tag."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    severity = rng.uniform(0.0, 1.0, WIDE_ROWS)
    values = {
        "age": 0.3 + 2.5 * severity + rng.normal(0.0, 0.25, WIDE_ROWS),
        "entropy": 0.2 + 1.5 * severity + rng.normal(0.0, 0.3, WIDE_ROWS),
        "stoi": np.clip(0.95 - 0.6 * severity + rng.normal(0.0, 0.08, WIDE_ROWS), -1.0, 1.0),
    }
    wer = np.clip(100.0 / (1.0 + np.exp(-8.0 * (severity - 0.5))) + rng.normal(0.0, 6.0, WIDE_ROWS), 0.0, 100.0)
    groups = rng.permutation(np.arange(WIDE_ROWS) % WIDE_GROUPS)
    path = out / "scores.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "wer", *MEASURES, WIDE_TAG])
        for i in range(WIDE_ROWS):
            writer.writerow(
                [f"r{i:05d}", repr(float(wer[i])), *(repr(float(values[m][i])) for m in MEASURES), f"c{groups[i]:03d}"]
            )
    return {"scores": str(path), "planted": {}, "fixed_files": ["scores.csv"]}


# ---------------------------------------------------------------- phases


def _score(inputs: dict, out: Path, workers: int, expected_rc: int) -> Phase:
    argv = ["score", "--manifest", inputs["manifest"], "--model", inputs["model"],
            "--workers", str(workers), "--out", str(out / "score")]
    return Phase("score", argv, expected_rc)


def phases_grid(inputs: dict, out: Path, workers: int) -> list[Phase]:
    return [
        _score(inputs, out, workers, 0),
        Phase("correlate", ["correlate", "--scores", str(out / "score" / "scores.csv"),
                            "--group-by", "snr_db", "--out", str(out / "correlate")], 0),
    ]


def phases_long(inputs: dict, out: Path, workers: int) -> list[Phase]:
    return [_score(inputs, out, workers, 2)]


def phases_wide(inputs: dict, out: Path, workers: int) -> list[Phase]:
    return [Phase("correlate", ["correlate", "--scores", inputs["scores"],
                                "--group-by", WIDE_TAG, "--out", str(out / "correlate")], 0)]


_SCORE_LAYERS = (
    "cli.main", "harness.load_manifest", "harness.score_manifest", "harness.score_utterance",
    "harness.write_scores_csv", "dsp.load_wav", "dsp.fbank", "dsp.mvn", "dsp.resample",
    "am.forward", "measures.age", "measures.entropy_confidence", "measures.stoi",
)
_CORRELATE_LAYERS = (
    "cli.main", "harness.load_scores_csv", "harness.correlate_by_group", "harness.emit_report",
    "harness.write_scores_csv", "stats.fit_logistic", "stats.evaluate_measure",
)
_FIXTURE_LAYERS = (
    "fixture.make_fixture_corpus", "am.train_toy", "am.frame_error_rate", "dsp.mix_at_snr", "dsp.save_wav",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-serial",
            setup=setup_grid,
            phases=phases_grid,
            workers=lambda nproc: 1,
            primary="score",
            required_measured=tuple(dict.fromkeys(_SCORE_LAYERS + _CORRELATE_LAYERS)),
            required_setup=_FIXTURE_LAYERS,
        ),
        Workload(
            name="long-pool",
            setup=setup_long,
            phases=phases_long,
            workers=lambda nproc: nproc,
            primary="score",
            required_measured=_SCORE_LAYERS,
            required_setup=_FIXTURE_LAYERS,
        ),
        Workload(
            name="correlate-wide",
            setup=setup_wide,
            phases=phases_wide,
            workers=lambda nproc: 1,
            primary="correlate",
            required_measured=_CORRELATE_LAYERS,
            required_setup=(),
        ),
    )
}


# ---------------------------------------------------------------- input properties


def read_csv(path: str | Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _duration_s(path: Path) -> float:
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes() / fh.getframerate()


def input_properties(inputs: dict, workers: int) -> dict[str, float]:
    """rows, clean-reuse share, mean clean utterance seconds, planted-bad count, workers."""
    if "manifest" not in inputs:
        rows = read_csv(inputs["scores"])
        return {"rows": len(rows), "clean_reuse_share": 0.0, "mean_utt_s": 0.0,
                "planted_bad": 0, "workers": workers}
    base = Path(inputs["manifest"]).parent
    rows = read_csv(inputs["manifest"])
    clean = [r["clean_path"] for r in rows]
    return {
        "rows": len(rows),
        "clean_reuse_share": clean_reuse_share(clean),
        "mean_utt_s": float(np.mean([_duration_s(base / c) for c in clean])),
        "planted_bad": len(inputs["planted"]),
        "workers": workers,
    }


# ---------------------------------------------------------------- checks


def chain_values(clean_path: Path, degraded_path: Path, model: am.AcousticModel) -> dict[str, float]:
    """The scoring chain called directly: load_wav -> fbank -> mvn -> forward -> age/entropy, plus stoi."""
    clean = dsp.load_wav(clean_path)
    degraded = dsp.load_wav(degraded_path)
    feat_c = dsp.fbank(clean)
    feat_d = dsp.fbank(degraded)
    n = min(feat_c.n_frames, feat_d.n_frames)
    feat_c = dsp.FeatureMatrix(feat_c.values[:n], feat_c.feature_kind, feat_c.frame_shift_ms)
    feat_d = dsp.FeatureMatrix(feat_d.values[:n], feat_d.feature_kind, feat_d.frame_shift_ms)
    p_clean = am.forward(model, dsp.mvn(feat_c))
    p_degraded = am.forward(model, dsp.mvn(feat_d))
    return {
        "age": measures.age(p_clean, p_degraded).value,
        "entropy": measures.entropy_confidence(p_degraded).value,
        "stoi": measures.stoi(clean, degraded).value,
    }


def check_scores(inputs: dict, score_dir: Path, verify_ids: set[str] | None) -> tuple[list[str], set[str], list[str]]:
    """Check one score run against the manifest.

    Returns (row ids attempted, ids with a wrong outcome, notes). Good rows
    must be scored and planted rows skipped with a typed reason; rows in
    verify_ids (all scored rows when None) must equal the direct chain bit
    for bit.
    """
    base = Path(inputs["manifest"]).parent
    manifest = read_csv(inputs["manifest"])
    ids = [r["utt_id"] for r in manifest]
    scored = {r["utt_id"]: r for r in read_csv(score_dir / "scores.csv")}
    skipped = {r["utt_id"]: r["reason"] for r in read_csv(score_dir / "skipped.csv")}
    planted = inputs["planted"]
    wrong: set[str] = set()
    notes: list[str] = []
    for utt_id in set(scored) | set(skipped):
        if utt_id not in ids:
            wrong.add(utt_id)
            notes.append(f"{utt_id}: not in the manifest")
    if set(skipped) != set(planted):
        notes.append(f"skipped ids {sorted(skipped)} differ from planted {sorted(planted)}")
    model = am.load_model(inputs["model"])
    for row in manifest:
        utt_id = row["utt_id"]
        if utt_id in planted:
            if utt_id in scored or utt_id not in skipped or not TYPED_REASON.fullmatch(skipped[utt_id]):
                wrong.add(utt_id)
                notes.append(f"{utt_id}: planted bad row ({planted[utt_id]}) was not a typed skip")
            continue
        if utt_id in skipped or utt_id not in scored:
            wrong.add(utt_id)
            notes.append(f"{utt_id}: good row not scored ({skipped.get(utt_id, 'absent')})")
            continue
        if verify_ids is not None and utt_id not in verify_ids:
            continue
        expected = chain_values(base / row["clean_path"], base / row["degraded_path"], model)
        got = scored[utt_id]
        bad = [m for m in MEASURES if not got.get(m) or float(got[m]).hex() != expected[m].hex()]
        if bad:
            wrong.add(utt_id)
            notes.append(f"{utt_id}: {bad} differ from the direct chain")
    return ids, wrong, notes


def _report_dict(report: stats.CorrelationReport) -> dict[str, object]:
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


def check_report(scores_path: Path, report_path: Path, group_key: str) -> tuple[dict[str, list[str]], set[str], list[str]]:
    """Check every group of a report against stats.evaluate_measure on that group's pairs.

    Returns (row ids per group, groups with a wrong entry, notes).
    """
    groups: dict[str, list[dict[str, str]]] = {}
    for row in read_csv(scores_path):
        groups.setdefault(row.get(group_key, "").strip() or "_missing", []).append(row)
    report = json.loads(report_path.read_text())["groups"]
    wrong: set[str] = set()
    notes: list[str] = []
    for name, members in groups.items():
        values = [{m: float(r[m]) for m in MEASURES if r.get(m, "").strip()} for r in members]
        wers = [float(r["wer"]) if r.get("wer", "").strip() else None for r in members]
        with_wer = [(v, w) for v, w in zip(values, wers) if w is not None]
        common = sorted(set.intersection(*(set(v) for v, _ in with_wer))) if with_wer else []
        expected_corr = {}
        for m in common:
            try:
                expected_corr[m] = _report_dict(stats.evaluate_measure([(v[m], w) for v, w in with_wer], m))
            except AgevalError:
                pass  # the report lists this group/measure as skipped instead
        means: dict[str, float | None] = {}
        for m in sorted({m for v in values for m in v}):
            means[m] = float(np.mean([v[m] for v in values if m in v]))
        means["wer"] = float(np.mean([w for _, w in with_wer])) if with_wer else None
        expected = {"n_rows": len(members), "n_with_wer": len(with_wer), "means": means,
                    "correlations": expected_corr}
        got = report.get(name)
        if got != expected:
            wrong.add(name)
            notes.append(f"group {name}: report entry differs from stats.evaluate_measure")
    for name in set(report) - set(groups):
        wrong.add(name)
        notes.append(f"group {name}: not in the scores file")
    return {name: [r["utt_id"] for r in members] for name, members in groups.items()}, wrong, notes


def sample_ids(ids: list[str], planted: dict, k: int, seed: int) -> set[str]:
    """A seeded sample of k good row ids for the direct-chain check."""
    good = [i for i in ids if i not in planted]
    rng = np.random.default_rng([seed, 3])
    return {good[i] for i in rng.choice(len(good), size=min(k, len(good)), replace=False)}
