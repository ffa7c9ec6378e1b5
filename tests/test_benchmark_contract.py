"""The benchmark's contract with the program, checked on a small fixture.

perfbench times each layer by wrapping the public functions of the ageval
modules at every binding (perfbench/tracer.py), and each workload names the
layers its run must reach (perfbench/workloads.py). A layer called some
other way records no calls, and the benchmark run then fails; its checks
also recompute scores through the library's public chain. This test runs
the commands of the three workloads once under the tracer, on a fixture of
three utterances at two SNRs, and imports the perfbench modules from their
files without changing them.
"""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

import ageval.cli
from ageval import am

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's metrics, tracer and workloads modules, imported for this test alone."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    modules = {}
    for name in ("metrics", "tracer", "workloads"):  # workloads imports metrics
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules["tracer"], modules["workloads"]


def test_the_workload_commands_reach_every_required_layer(tmp_path, perfbench):
    tracer, workloads = perfbench
    corpus, scored, correlated = tmp_path / "corpus", tmp_path / "score", tmp_path / "correlate"
    with tracer.Tracer() as t:
        assert ageval.cli.main(["fixture", "--out", str(corpus), "--utts", "3", "--snrs", "0,10"]) == 0
        assert ageval.cli.main([
            "score", "--manifest", str(corpus / "manifest.csv"), "--model", str(corpus / "model.json"),
            "--workers", "1", "--out", str(scored),
        ]) == 0
        assert ageval.cli.main([
            "correlate", "--scores", str(scored / "scores.csv"), "--group-by", "snr_db",
            "--out", str(correlated),
        ]) == 0
    trace = t.snapshot()
    for workload in workloads.WORKLOADS.values():
        assert tracer.missing(trace, workload.required_setup) == [], workload.name
        assert tracer.missing(trace, workload.required_measured) == [], workload.name

    with open(corpus / "manifest.csv", newline="", encoding="utf-8") as fh:
        row = next(csv.DictReader(fh))
    with open(scored / "scores.csv", newline="", encoding="utf-8") as fh:
        got = next(r for r in csv.DictReader(fh) if r["utt_id"] == row["utt_id"])
    model = am.load_model(corpus / "model.json")
    expected = workloads.chain_values(corpus / row["clean_path"], corpus / row["degraded_path"], model)
    assert {m: float(got[m]).hex() for m in expected} == {m: v.hex() for m, v in expected.items()}
