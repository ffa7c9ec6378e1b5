"""Manifest parsing, batch scoring, grouping and report emission."""

import dataclasses
import json

import numpy as np
import pytest

from ageval import am, dsp, harness, measures, stats
from ageval.errors import (
    ConfigError,
    EmptyReportError,
    FormatError,
    ManifestError,
    NumericError,
    ShapeMismatchError,
    ValidationError,
)

CSV_TEXT = """utt_id,clean_path,degraded_path,wer,snr_db
u1,clean/u1.wav,deg/u1.wav,12.5,0
u2,clean/u2.wav,deg/u2.wav,,5
u3,clean/u3.wav,deg/u3.wav,40.0,10
"""


def jsonl_text():
    records = [
        {"utt_id": "u1", "clean_path": "clean/u1.wav",
         "degraded_path": "deg/u1.wav", "wer": 12.5, "snr_db": "0"},
        {"utt_id": "u2", "clean_path": "clean/u2.wav",
         "degraded_path": "deg/u2.wav", "snr_db": "5"},
        {"utt_id": "u3", "clean_path": "clean/u3.wav",
         "degraded_path": "deg/u3.wav", "wer": 40.0, "snr_db": "10"},
    ]
    return "".join(json.dumps(r) + "\n" for r in records)


# manifests ---------------------------------------------------------------

def test_csv_and_jsonl_manifests_parse_identically(tmp_path):
    (tmp_path / "m.csv").write_text(CSV_TEXT)
    (tmp_path / "m.jsonl").write_text(jsonl_text())
    from_csv = harness.load_manifest(tmp_path / "m.csv")
    from_jsonl = harness.load_manifest(tmp_path / "m.jsonl")
    assert from_csv == from_jsonl
    assert [e.utt_id for e in from_csv] == ["u1", "u2", "u3"]
    assert from_csv[1].wer_percent is None
    assert from_csv[2].wer_percent == 40.0
    assert from_csv[0].tags == {"snr_db": "0"}


def test_manifest_paths_resolve_against_the_manifest_directory(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "m.csv").write_text(CSV_TEXT)
    entries = harness.load_manifest(sub / "m.csv")
    assert entries[0].clean_path == str(sub / "clean" / "u1.wav")
    assert entries[0].degraded_path == str(sub / "deg" / "u1.wav")


def test_manifest_rejects_duplicate_ids(tmp_path):
    text = CSV_TEXT + "u1,clean/x.wav,deg/x.wav,1.0,20\n"
    (tmp_path / "m.csv").write_text(text)
    with pytest.raises(ManifestError, match="u1"):
        harness.load_manifest(tmp_path / "m.csv")


def test_manifest_rejects_missing_columns(tmp_path):
    (tmp_path / "m.csv").write_text("utt_id,clean_path\nu1,a.wav\n")
    with pytest.raises(ManifestError):
        harness.load_manifest(tmp_path / "m.csv")


def test_manifest_reports_the_offending_line(tmp_path):
    bad = CSV_TEXT.replace("40.0", "forty")
    (tmp_path / "m.csv").write_text(bad)
    with pytest.raises(ManifestError, match=r"m\.csv:4"):
        harness.load_manifest(tmp_path / "m.csv")
    (tmp_path / "m.jsonl").write_text('{"utt_id": "u1"\n')
    with pytest.raises(ManifestError, match=r"m\.jsonl:1"):
        harness.load_manifest(tmp_path / "m.jsonl")


def test_run_config_validation():
    with pytest.raises(ConfigError):
        harness.RunConfig(measures=())
    with pytest.raises(ConfigError):
        harness.RunConfig(measures=("age", "pesq"))
    with pytest.raises(ConfigError):
        harness.RunConfig(alignment_tolerance=-0.1)
    with pytest.raises(ConfigError):
        harness.RunConfig(workers=0)
    assert harness.RunConfig(measures=("stoi",)).needs_model is False
    assert harness.RunConfig().needs_model is True


# scoring -----------------------------------------------------------------

def test_scoring_a_pair_against_itself(mini_corpus):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    entry = harness.ManifestEntry(
        utt_id="self",
        clean_path=entries[0].clean_path,
        degraded_path=entries[0].clean_path,
        wer_percent=0.0,
    )
    row = harness.score_utterance(entry, model, harness.RunConfig())
    assert row.values["stoi"] == pytest.approx(1.0, abs=1e-9)
    assert row.values["age"] == row.values["entropy"]


def test_scoring_without_a_model_needs_posterior_free_measures(mini_corpus):
    entries = harness.load_manifest(mini_corpus)
    cfg = harness.RunConfig(measures=("stoi",))
    row = harness.score_utterance(entries[0], None, cfg)
    assert set(row.values) == {"stoi"}
    with pytest.raises(ConfigError):
        harness.score_manifest(entries[:1], None, harness.RunConfig())


def test_small_frame_count_mismatch_is_truncated(mini_corpus, tmp_path):
    from ageval import dsp

    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    clean = dsp.load_wav(entries[0].clean_path)
    shorter = dsp.Waveform(
        clean.samples[: int(clean.samples.size * 0.99)], clean.sample_rate_hz
    )
    dsp.save_wav(shorter, tmp_path / "short.wav")
    entry = harness.ManifestEntry(
        utt_id="short",
        clean_path=entries[0].clean_path,
        degraded_path=str(tmp_path / "short.wav"),
    )
    cfg = harness.RunConfig(measures=("age", "entropy"))
    row = harness.score_utterance(entry, model, cfg)
    assert set(row.values) == {"age", "entropy"}


def test_unscorable_rows_are_skipped_with_reasons(mini_corpus, tmp_path):
    from ageval import dsp

    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    clean = dsp.load_wav(entries[0].clean_path)
    half = dsp.Waveform(
        clean.samples[: clean.samples.size // 2], clean.sample_rate_hz
    )
    dsp.save_wav(half, tmp_path / "half.wav")
    batch = [
        entries[0],
        harness.ManifestEntry("gone", entries[0].clean_path, str(tmp_path / "no.wav")),
        harness.ManifestEntry("half", entries[0].clean_path, str(tmp_path / "half.wav")),
    ]
    rows, skipped = harness.score_manifest(batch, model, harness.RunConfig())
    assert [r.utt_id for r in rows] == [entries[0].utt_id]
    reasons = dict(skipped)
    assert "FileNotFoundError" in reasons["gone"]
    assert "AlignmentError" in reasons["half"]


def test_model_feature_mismatch_is_fatal(mini_corpus, tmp_path):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    cfg = harness.RunConfig(measures=("age",), feature_kind="mfcc")
    with pytest.raises(ShapeMismatchError):
        harness.score_manifest(entries[:1], model, cfg)
    # a run-level check: it fails before any audio file is opened
    gone = harness.ManifestEntry("gone", str(tmp_path / "a.wav"), str(tmp_path / "b.wav"))
    with pytest.raises(ShapeMismatchError):
        harness.score_manifest([gone], model, harness.RunConfig(feature_kind="mfcc"))


@pytest.mark.parametrize("error", [NumericError, ValidationError])
def test_an_error_inside_one_row_skips_only_that_row(mini_corpus, monkeypatch, error):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    bad = dataclasses.replace(entries[1], utt_id="bad")
    real_load_wav = harness.load_wav

    def load_wav(path, channel=0):
        if path == bad.degraded_path:
            raise error("injected")
        return real_load_wav(path, channel)

    monkeypatch.setattr(harness, "load_wav", load_wav)
    rows, skipped = harness.score_manifest([entries[0], bad], model, harness.RunConfig())
    assert [r.utt_id for r in rows] == [entries[0].utt_id]
    assert skipped == [("bad", f"{error.__name__}: injected")]




# runs of rows sharing a clean file -------------------------------------------

@pytest.fixture
def shuffled_entries(mini_corpus, tmp_path):
    """Manifest rows out of clean-file order, plus one degraded file 1% short.

    Runs by clean file: [0, cut] [2] [1] [4] [3] [6, 7] [5]; the first run
    holds two aligned lengths, and utt000, utt001 and utt002 each come back
    in a later run.
    """
    entries = harness.load_manifest(mini_corpus)
    degraded = dsp.load_wav(entries[0].degraded_path)
    cut = dsp.Waveform(degraded.samples[: int(0.99 * degraded.samples.size)], 16000)
    dsp.save_wav(cut, tmp_path / "cut.wav")
    cut_entry = dataclasses.replace(
        entries[0], utt_id="cut", degraded_path=str(tmp_path / "cut.wav")
    )
    order = [0, None, 2, 1, 4, 3, 6, 7, 5]
    return [cut_entry if i is None else entries[i] for i in order]


def value_bits(rows):
    return [(r.utt_id, {m: v.hex() for m, v in r.values.items()}) for r in rows]


def test_runs_score_each_row_as_score_utterance_does(mini_corpus, shuffled_entries):
    model = am.load_model(mini_corpus.parent / "model.json")
    cfg = harness.RunConfig()
    rows, skipped = harness.score_manifest(shuffled_entries, model, cfg)
    assert skipped == []
    single = [harness.score_utterance(e, model, cfg) for e in shuffled_entries]
    assert value_bits(rows) == value_bits(single)
    assert rows == single


def test_the_clean_side_is_computed_once_per_run(mini_corpus, shuffled_entries, monkeypatch):
    model = am.load_model(mini_corpus.parent / "model.json")
    calls = {"fbank": 0, "forward": 0, "resample": 0, "load_wav": 0, "score_utterance": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((harness, "fbank"), (harness, "forward"), (measures, "resample"),
                         (harness, "load_wav"), (harness, "score_utterance")):
        counted(module, name)
    rows, _ = harness.score_manifest(shuffled_entries, model, harness.RunConfig())
    n_rows, n_runs = len(rows), 7
    assert n_rows == 9
    # the clean side once per run; posteriors and the STOI clean side once
    # more for the run's second aligned length
    assert calls == {
        "fbank": n_rows + n_runs,
        "forward": n_rows + n_runs + 1,
        "resample": n_rows + n_runs + 1,
        "load_wav": n_rows + n_runs,
        "score_utterance": n_rows,
    }


def test_a_clean_reference_serves_only_its_own_file_model_and_config(mini_corpus):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    cfg = harness.RunConfig()
    clean = harness.CleanReference(entries[0].clean_path, model, cfg)
    assert harness.score_utterance(entries[1], model, cfg, clean) == harness.score_utterance(
        entries[1], model, cfg
    )
    other_model = am.load_model(mini_corpus.parent / "model.json")
    for entry, row_model, row_cfg in (
        (entries[2], model, cfg),
        (entries[0], other_model, cfg),
        (entries[0], model, harness.RunConfig(measures=("age",))),
    ):
        with pytest.raises(ConfigError, match="clean reference"):
            harness.score_utterance(entry, row_model, row_cfg, clean)


@pytest.mark.parametrize("fault", ["missing", "garbage"])
def test_an_unreadable_clean_file_skips_its_run_only(mini_corpus, tmp_path, fault):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    cfg = harness.RunConfig()
    clean = tmp_path / "clean.wav"
    if fault == "garbage":
        clean.write_bytes(b"RIFF not really a wave file")
    bad_run = [
        dataclasses.replace(e, utt_id=f"bad{i}", clean_path=str(clean))
        for i, e in enumerate(entries[:2])
    ]
    rows, skipped = harness.score_manifest([*bad_run, *entries[2:4]], model, cfg)
    assert [r.utt_id for r in rows] == [e.utt_id for e in entries[2:4]]
    reasons = []
    for entry in bad_run:
        with pytest.raises((FormatError, FileNotFoundError)) as info:
            harness.score_utterance(entry, model, cfg)
        reasons.append((entry.utt_id, harness._reason(info.value)))
    assert skipped == reasons
    assert reasons[0][1].startswith("FormatError" if fault == "garbage" else "FileNotFoundError")


def test_a_clean_file_rewritten_between_calls_is_read_again(mini_corpus, tmp_path):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    cfg = harness.RunConfig()
    clean = tmp_path / "clean.wav"
    clean.write_bytes(open(entries[0].clean_path, "rb").read())
    run = [dataclasses.replace(e, clean_path=str(clean)) for e in entries[:2]]
    before, _ = harness.score_manifest(run, model, cfg)
    # the other SNR's degraded file: same length, different content
    clean.write_bytes(open(entries[1].degraded_path, "rb").read())
    after, _ = harness.score_manifest(run, model, cfg)
    assert after == [harness.score_utterance(e, model, cfg) for e in run]
    assert all(a.values["age"] != b.values["age"] for a, b in zip(after, before))


def test_worker_pool_reproduces_the_serial_result(mini_corpus, shuffled_entries, tmp_path):
    model = am.load_model(mini_corpus.parent / "model.json")
    gone = dataclasses.replace(shuffled_entries[2], utt_id="gone",
                               clean_path=str(tmp_path / "gone.wav"))
    entries = [*shuffled_entries, gone]
    serial = harness.score_manifest(entries, model, harness.RunConfig())
    pooled = harness.score_manifest(entries, model, harness.RunConfig(workers=2))
    assert value_bits(pooled[0]) == value_bits(serial[0])
    assert pooled == serial
    assert [utt_id for utt_id, _ in serial[1]] == ["gone"]


# grouping and reports ------------------------------------------------------

def synthetic_rows():
    params = stats.LogisticParams(1.1, -3.0)
    rows = []
    for g, offset in (("x", 0.0), ("y", 0.4), ("z", 0.8)):
        for i in range(5):
            m = 0.5 + i + offset
            wer = float(np.asarray(stats.map_logistic(params, m)))
            rows.append(
                harness.ScoreRow(
                    utt_id=f"{g}{i}",
                    values={"age": m, "stoi": 1.0 / (1.0 + m)},
                    wer_percent=wer,
                    tags={"algo": g},
                )
            )
    return rows


def test_grouping_by_tag_builds_one_report_per_group():
    reports, skipped = harness.correlate_by_group(synthetic_rows(), "algo")
    assert sorted(reports) == ["x", "y", "z"]
    assert skipped == {}
    assert sorted(reports["x"].correlations) == ["age", "stoi"]
    assert reports["x"].correlations["age"].n_points == 5
    assert reports["x"].correlations["age"].rho_magnitude == pytest.approx(1.0, abs=1e-6)


def test_rows_without_the_tag_fall_into_a_missing_group():
    rows = synthetic_rows()
    rows.append(harness.ScoreRow("odd", {"age": 1.0}, 10.0, {}))
    reports, skipped = harness.correlate_by_group(rows, "algo")
    assert "_missing" in skipped
    assert "_missing" not in reports


def test_all_rows_form_one_group_without_a_key():
    reports, skipped = harness.correlate_by_group(synthetic_rows())
    assert list(reports) == ["all"]
    assert reports["all"].correlations["age"].n_points == 15


def test_only_shared_measures_are_reported():
    rows = synthetic_rows()
    rows[0].values.pop("stoi")
    reports, _ = harness.correlate_by_group(rows)
    assert sorted(reports["all"].correlations) == ["age"]


def test_groups_without_enough_wer_rows_are_skipped():
    rows = synthetic_rows()
    rows[:3] = [
        dataclasses.replace(
            row,
            tags={"algo": "w"},
            wer_percent=row.wer_percent if i == 0 else None,
        )
        for i, row in enumerate(rows[:3])
    ]
    reports, skipped = harness.correlate_by_group(rows, "algo")
    assert "w" in skipped and "need 3" in skipped["w"]


def test_nothing_reportable_raises():
    rows = synthetic_rows()[:2]
    with pytest.raises(EmptyReportError):
        harness.correlate_by_group(rows, "algo")


def test_report_groups_equal_a_brute_force_recomputation(tmp_path):
    rows = synthetic_rows()
    rows[1] = dataclasses.replace(rows[1], wer_percent=None)
    rows[7].values["entropy"] = 2.5
    for i, (m, wer) in enumerate(((0.3, 5.0), (1.9, 30.0), (2.6, None), (3.1, 70.0))):
        rows.append(harness.ScoreRow(f"odd{i}", {"age": m, "stoi": 0.9 - 0.1 * m}, wer, {}))
    reports, skipped = harness.correlate_by_group(rows, "algo")
    path = harness.emit_report(rows, reports, tmp_path, skipped=skipped, group_key="algo")
    doc = json.loads(path.read_text())
    assert sorted(doc["groups"]) == ["_missing", "x", "y", "z"]
    for name, entry in doc["groups"].items():
        members = [r for r in rows if r.tags.get("algo", "_missing") == name]
        with_wer = [r for r in members if r.wer_percent is not None]
        names = sorted({m for r in members for m in r.values})
        means = {m: float(np.mean([r.values[m] for r in members if m in r.values])) for m in names}
        means["wer"] = float(np.mean([r.wer_percent for r in with_wer]))
        shared = set.intersection(*(set(r.values) for r in with_wer))
        correlations = {}
        for m in sorted(shared):
            rep = stats.evaluate_measure([(r.values[m], r.wer_percent) for r in with_wer], m)
            correlations[m] = {
                "measure": m, "n_points": rep.n_points, "a": rep.params.a, "b": rep.params.b,
                "rho_magnitude": rep.rho_magnitude, "rho_signed": rep.rho_signed,
                "spearman": rep.spearman, "rmse_mapped": rep.rmse_mapped,
            }
        assert entry == {
            "n_rows": len(members),
            "n_with_wer": len(with_wer),
            "means": means,
            "correlations": correlations,
        }
    assert doc["groups"]["_missing"]["n_rows"] == 4
    assert doc["groups"]["y"]["means"]["entropy"] == 2.5
    # one WER-bearing entropy value is too few for a fit, so no scatter file
    assert not (tmp_path / "scatter_entropy.csv").exists()


def test_scores_csv_round_trip(tmp_path):
    rows = synthetic_rows()
    rows[2] = dataclasses.replace(rows[2], wer_percent=None)
    path = tmp_path / "scores.csv"
    harness.write_scores_csv(rows, path)
    assert harness.load_scores_csv(path) == rows


def test_a_bad_wer_cell_in_a_scores_file_is_a_format_error(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("utt_id,wer,age\nu1,10.0,0.5\nu2,ten,0.7\n")
    with pytest.raises(FormatError, match=r"scores\.csv:3: wer") as info:
        harness.load_scores_csv(path)
    assert not isinstance(info.value, ManifestError)


def test_emit_report_is_byte_deterministic(tmp_path):
    rows = synthetic_rows()
    reports, skipped = harness.correlate_by_group(rows, "algo")
    dirs = (tmp_path / "one", tmp_path / "two")
    for out in dirs:
        harness.emit_report(rows, reports, out, skipped=skipped, group_key="algo")
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "scores.csv" in names and "report.json" in names
    assert "scatter_age.csv" in names and "scatter_stoi.csv" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_report_json_contents(tmp_path):
    rows = synthetic_rows()
    reports, skipped = harness.correlate_by_group(rows)
    path = harness.emit_report(rows, reports, tmp_path)
    doc = json.loads(path.read_text())
    group = doc["groups"]["all"]
    assert group["n_rows"] == 15
    assert group["n_with_wer"] == 15
    assert set(group["means"]) == {"age", "stoi", "wer"}
    entry = group["correlations"]["age"]
    assert set(entry) >= {"a", "b", "rho_magnitude", "spearman", "rmse_mapped"}
    assert entry["rho_magnitude"] == pytest.approx(1.0, abs=1e-6)
