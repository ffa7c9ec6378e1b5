"""Tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench/test_perfbench.py

Kept beside the benchmark; the repository's test suite collects only tests/.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the program under test is this checkout's src/

import metrics  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------- tail percentile


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0), (600, 95.0), (1000, 99.0)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, pct):
    result = metrics.tail_percentile([float(i) for i in range(n)])
    assert (result[0] if result else None) == pct
    if result:
        beyond = sum(1 for i in range(n) if i > result[1])
        assert beyond >= metrics.TAIL_MIN_BEYOND


def test_tail_percentile_value_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]  # 1..100, shuffled order must not matter
    assert metrics.tail_percentile(samples[::-1]) == (90.0, 90.0)
    assert metrics.nearest_rank(samples, 50.0) == (50.0, 50)
    assert metrics.nearest_rank([3.0], 99.9) == (3.0, 0)


# ---------------------------------------------------------------- ratios and their bases


def _rec(calls, total=0.0, self_time=0.0, units=0, samples=()):
    return {"calls": calls, "total": total, "self": self_time, "units": units, "samples": list(samples)}


def _layers(measured, setup=None, **extra):
    kwargs = dict(skip_count=0, reuse_share=0.0, pool_speedup=0.0, trace_overhead_s=0.0,
                  score_rows_per_s=0.0, correlate_rows_per_s=0.0)
    kwargs.update(extra)
    return metrics.layer_metrics(measured, setup or {}, **kwargs)


def test_per_row_ratios_use_rows_attempted_as_base():
    out = _layers({
        "harness.score_utterance": _rec(4, samples=[0.01] * 4),
        "dsp.fbank": _rec(8),
        "dsp.resample": _rec(6),
        "am.forward": _rec(8, units=1234),
    })
    assert out["dsp.fbank.calls_per_row"] == 2.0
    assert out["dsp.resample.calls_per_row"] == 1.5
    assert out["am.forward.calls_per_row"] == 2.0
    assert out["am.forward.frames"] == 1234.0
    assert out["harness.score_utterance.n"] == 4.0
    assert out["harness.score_utterance.p50_ms"] == pytest.approx(10.0)
    assert out["harness.score_utterance.tail_ms"] == 0.0  # fewer than 20 samples


def test_fit_calls_per_report_uses_reports_as_base():
    groups, measures = 30, 3
    out = _layers({
        "stats.fit_logistic": _rec(groups * measures + measures),
        "stats.evaluate_measure": _rec(groups * measures),
    })
    assert out["stats.fit_logistic.calls_per_report"] == pytest.approx(93 / 90)
    assert out["stats.fit_logistic.calls"] == 93.0


def test_ratios_are_zero_when_the_layer_did_not_run():
    out = _layers({})
    assert out["dsp.fbank.calls_per_row"] == 0.0
    assert out["measures.stoi.frames_per_s"] == 0.0
    assert out["stats.fit_logistic.calls_per_report"] == 0.0
    assert metrics.ratio(5, 0) == 0.0


def test_stoi_frames_per_second_and_setup_times():
    out = _layers(
        {"measures.stoi": _rec(2, total=0.5, units=1000)},
        {"am.train_toy": _rec(1, total=4.0), "dsp.load_wav": _rec(9, total=1.0)},
    )
    assert out["measures.stoi.frames_per_s"] == 2000.0
    assert out["am.train_toy.s"] == 4.0
    assert out["dsp.load_wav.s"] == 0.0  # set-up loads are not scoring loads


def test_clean_reuse_share_counts_rows_after_the_first_use():
    assert metrics.clean_reuse_share(["a", "a", "b", "a"]) == 0.5
    assert metrics.clean_reuse_share(["a", "b"]) == 0.0
    assert metrics.clean_reuse_share([]) == 0.0


# ---------------------------------------------------------------- self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_children_only():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def inner():
        clock.now += 2.0

    wrapped_inner = t.wrap("m.inner", inner)

    def outer():
        clock.now += 1.0  # own work
        wrapped_inner()
        wrapped_inner()
        clock.now += 0.5  # own work

    t.wrap("m.outer", outer)()
    snap = t.snapshot()
    assert snap["m.outer"]["total"] == 5.5
    assert snap["m.outer"]["self"] == 1.5
    assert snap["m.inner"] == {"calls": 2, "total": 4.0, "self": 4.0, "units": 0, "samples": []}


def test_failed_calls_are_still_timed():
    clock = FakeClock()
    t = tracer.Tracer(clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("m.boom", boom)()
    assert t.snapshot()["m.boom"]["calls"] == 1
    assert t.snapshot()["m.boom"]["total"] == 1.0


def test_install_patches_every_binding_and_restores_them():
    from ageval import dsp, harness, measures

    original = dsp.fbank
    with tracer.Tracer() as t:
        assert dsp.fbank is harness.fbank
        assert dsp.fbank is not original
        assert measures.resample is dsp.resample
    assert dsp.fbank is original and harness.fbank is original
    assert not t.snapshot()


def test_missing_reports_layers_with_zero_calls():
    trace = {"a.f": _rec(3), "a.g": _rec(0)}
    assert tracer.missing(trace, ["a.f", "a.g", "a.h"]) == ["a.g", "a.h"]


# ---------------------------------------------------------------- names and units


def test_every_declared_layer_metric_is_computed():
    declared = [m["name"] for m in BENCHMARK["per_layer"]]
    assert sorted(_layers({})) == sorted(declared)


def test_every_name_and_unit_is_valid():
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.valid_name(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metrics.valid_unit(metric["unit"]), metric
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert not metrics.valid_name("-starts-with-dash")
    assert not metrics.valid_name("has space")
    assert not metrics.valid_name("x" * 65)
