"""Pure arithmetic behind the benchmark's numbers.

Everything here works on plain numbers and dicts so it can be tested without
running the program: the tail-percentile rule, ratios with explicit bases,
the per-layer metrics built from trace records, and name validity. Names,
units and directions are declared in BENCHMARK.json.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Mapping, Sequence

# Metric and workload names: a letter or digit first, then at most 63 more of
# letters, digits, "_", "." and "-".
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Percentiles tried for a tail latency, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def nearest_rank(sorted_values: Sequence[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values and how many samples lie beyond it."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = min(n, max(1, math.ceil(pct / 100.0 * n)))
    return sorted_values[rank - 1], n - rank


def tail_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest ladder percentile with >= 10 samples beyond it.

    None when even the median has fewer than ten samples beyond it (n < 20).
    """
    ordered = sorted(samples)
    best = None
    for pct in TAIL_LADDER:
        if not ordered:
            break
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, value)
    return best


def ratio(numerator: float, base: float) -> float:
    """numerator / base, or 0.0 when the base is zero (the layer did not run)."""
    return numerator / base if base else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def clean_reuse_share(clean_paths: Sequence[str]) -> float:
    """Share of rows whose clean reference already appeared on an earlier row."""
    seen: set[str] = set()
    reused = 0
    for path in clean_paths:
        if path in seen:
            reused += 1
        seen.add(path)
    return ratio(reused, len(clean_paths))


# Layer functions timed in the measured phase and in set-up, by trace name.
MEASURED_TIMES = (
    "harness.load_manifest",
    "harness.score_manifest",
    "harness.write_scores_csv",
    "harness.load_scores_csv",
    "harness.correlate_by_group",
    "harness.emit_report",
    "dsp.load_wav",
    "dsp.fbank",
    "dsp.mvn",
    "dsp.resample",
    "am.forward",
    "measures.age",
    "measures.entropy_confidence",
    "measures.stoi",
    "stats.fit_logistic",
    "stats.evaluate_measure",
)
SETUP_TIMES = (
    "dsp.mix_at_snr",
    "dsp.save_wav",
    "am.train_toy",
    "am.frame_error_rate",
    "fixture.make_fixture_corpus",
)


def _rec(trace: Mapping[str, Mapping], name: str) -> Mapping:
    return trace.get(name) or {"calls": 0, "total": 0.0, "self": 0.0, "units": 0, "samples": []}


def layer_metrics(
    measured: Mapping[str, Mapping],
    setup: Mapping[str, Mapping],
    *,
    skip_count: int,
    reuse_share: float,
    pool_speedup: float,
    trace_overhead_s: float,
    score_rows_per_s: float,
    correlate_rows_per_s: float,
) -> dict[str, float]:
    """Per-layer metrics from one traced measured pass and one traced set-up.

    Each trace maps "<module>.<function>" to {"calls", "total", "self",
    "units", "samples"} as recorded by tracer.Tracer. Ratios per row use
    the number of harness.score_utterance calls (rows attempted) as their
    base; calls_per_report uses the number of stats.evaluate_measure calls.
    """
    out: dict[str, float] = {}
    for name in MEASURED_TIMES:
        out[f"{name}.s"] = float(_rec(measured, name)["total"])
    for name in SETUP_TIMES:
        out[f"{name}.s"] = float(_rec(setup, name)["total"])

    rows = _rec(measured, "harness.score_utterance")
    n_rows = int(rows["calls"])
    samples_ms = [1000.0 * s for s in rows["samples"]]
    out["harness.score_utterance.p50_ms"] = median(samples_ms) if samples_ms else 0.0
    tail = tail_percentile(samples_ms)
    out["harness.score_utterance.tail_ms"] = tail[1] if tail else 0.0
    out["harness.score_utterance.n"] = float(n_rows)
    out["harness.skip.count"] = float(skip_count)
    out["harness.clean_reuse_share"] = float(reuse_share)
    out["harness.pool.speedup"] = float(pool_speedup)

    out["dsp.fbank.calls_per_row"] = ratio(_rec(measured, "dsp.fbank")["calls"], n_rows)
    out["dsp.resample.calls_per_row"] = ratio(_rec(measured, "dsp.resample")["calls"], n_rows)
    fwd = _rec(measured, "am.forward")
    out["am.forward.frames"] = float(fwd["units"])
    out["am.forward.calls_per_row"] = ratio(fwd["calls"], n_rows)
    stoi = _rec(measured, "measures.stoi")
    out["measures.stoi.frames_per_s"] = ratio(stoi["units"], stoi["total"])
    fits = _rec(measured, "stats.fit_logistic")
    out["stats.fit_logistic.calls"] = float(fits["calls"])
    out["stats.fit_logistic.calls_per_report"] = ratio(
        fits["calls"], _rec(measured, "stats.evaluate_measure")["calls"]
    )
    out["cli.main.self_s"] = float(_rec(measured, "cli.main")["self"])
    out["trace_overhead_s"] = float(trace_overhead_s)
    out["score.rows_per_s"] = float(score_rows_per_s)
    out["correlate.rows_per_s"] = float(correlate_rows_per_s)
    return out
