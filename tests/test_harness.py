"""Manifest parsing, batch scoring, grouping and report emission."""

import csv
import dataclasses
import io
import json
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ageval import am, dsp, errors, harness, measures, stats
from ageval.cli import main
from ageval.errors import (
    AgevalError,
    ConfigError,
    EmptyInputError,
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


# manifests ---------------------------------------------------------------

def test_a_csv_manifest_gives_ids_wer_and_tags(tmp_path):
    (tmp_path / "m.csv").write_text(CSV_TEXT)
    from_csv = harness.load_manifest(tmp_path / "m.csv")
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


@pytest.mark.parametrize("measure", ["age", "entropy", "stoi"])
def test_a_manifest_column_named_after_a_measure_is_rejected(tmp_path, measure):
    # e.g. a speaker-age tag, which scores.csv would hold as a second age column;
    # the header's line is named, with or without rows after it
    (tmp_path / "m.csv").write_text(CSV_TEXT.replace("snr_db", measure))
    with pytest.raises(ManifestError, match=rf"m\.csv:1: column '{measure}' is reserved"):
        harness.load_manifest(tmp_path / "m.csv")
    (tmp_path / "m.csv").write_text(CSV_TEXT.replace("snr_db", measure).splitlines()[0])
    with pytest.raises(ManifestError, match=rf"m\.csv:1: column '{measure}' is reserved"):
        harness.load_manifest(tmp_path / "m.csv")


@pytest.mark.parametrize("name", ["m.jsonl", "m.json"])
def test_a_json_lines_manifest_is_a_manifest_error(tmp_path, capsys, name):
    record = {"utt_id": "u1", "clean_path": "c.wav", "degraded_path": "d.wav", "wer": 10.0}
    (tmp_path / name).write_text(json.dumps(record) + "\n")
    with pytest.raises(ManifestError, match=re.escape(f"{tmp_path / name}: header lacks required")):
        harness.load_manifest(tmp_path / name)
    assert main(["score", "--manifest", str(tmp_path / name), "--measures", "stoi",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: header lacks") and "Traceback" not in err


@pytest.mark.parametrize("text", ["", " ", "\n\n", " \t\r\n\r\f\n\u2028"],
                         ids=["empty", "space", "blank lines", "whitespace"])
def test_a_manifest_without_a_visible_character_is_empty(tmp_path, text):
    (tmp_path / "m.csv").write_text(text, newline="")
    with pytest.raises(EmptyInputError, match="manifest is empty"):
        harness.load_manifest(tmp_path / "m.csv")


def test_a_text_with_no_record_gives_no_header_and_ends():
    assert list(harness._csv_records([], Path("x"), FormatError, "bad")) == [(0, None)]


def test_a_blank_first_record_is_a_header_without_the_required_columns(tmp_path):
    (tmp_path / "m.csv").write_text("\n" + CSV_TEXT)
    with pytest.raises(ManifestError, match=r"m\.csv: header lacks required columns"):
        harness.load_manifest(tmp_path / "m.csv")


def test_a_short_row_lacks_its_last_columns(tmp_path):
    (tmp_path / "m.csv").write_text("utt_id,clean_path,degraded_path,wer,snr_db\nu1,c.wav,d.wav\n")
    [entry] = harness.load_manifest(tmp_path / "m.csv")
    assert (entry.wer_percent, entry.tags) == (None, {})
    (tmp_path / "m.csv").write_text("utt_id,clean_path,degraded_path,wer\nu1,c.wav\n")
    with pytest.raises(ManifestError, match=r"m\.csv:2: missing required field 'degraded_path'"):
        harness.load_manifest(tmp_path / "m.csv")


@pytest.mark.parametrize("header", [
    "utt_id,clean_path,degraded_path,utt_id", "utt_id,clean_path,degraded_path,snr,snr",
])
def test_a_manifest_header_may_not_repeat_a_name(tmp_path, capsys, header):
    (tmp_path / "m.csv").write_text(f"{header}\nu0,a.wav,b.wav,zz,yy\n")
    name = header.rsplit(",", 1)[1]
    with pytest.raises(ManifestError, match=rf"m\.csv:1: header repeats column '{name}'"):
        harness.load_manifest(tmp_path / "m.csv")
    assert main(["score", "--manifest", str(tmp_path / "m.csv"), "--measures", "stoi",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "header repeats" in err and "Traceback" not in err


def test_blank_header_names_may_repeat(tmp_path):
    # a spreadsheet's trailing empty header cells
    (tmp_path / "m.csv").write_text("utt_id,clean_path,degraded_path,wer,,\nu1,c.wav,d.wav,5,,\n")
    [entry] = harness.load_manifest(tmp_path / "m.csv")
    assert (entry.utt_id, entry.wer_percent, entry.tags) == ("u1", 5.0, {})


def test_a_value_under_an_unnamed_manifest_column_is_an_error(tmp_path, capsys):
    # Loaded as a tag, 'y' would go to a scores.csv column with an empty name, and 'x' be lost.
    path = tmp_path / "m.csv"
    path.write_text("utt_id,clean_path,degraded_path,wer,, \nu1,c.wav,d.wav,10, ,\t\nu2,c.wav,d.wav,10,x,y\n")
    with pytest.raises(ManifestError, match=r"m\.csv:3: value 'x' in column 5, which the header leaves unnamed"):
        harness.load_manifest(path)
    assert main(["score", "--manifest", str(path), "--measures", "stoi", "--out", str(tmp_path / "out")]) == 1
    assert "leaves unnamed" in capsys.readouterr().err
    path.write_text("utt_id,clean_path,degraded_path,wer,, \nu1,c.wav,d.wav,10, ,\t\n")
    assert [e.tags for e in harness.load_manifest(path)] == [{}]


ODD_TAGS = {"sep": "a\u2028b", "feed": "a\fb", "crlf": "a\r\nb", "comma": "a,b"}


def test_manifest_tags_survive_scoring_and_the_scores_file(mini_corpus, tmp_path):
    first = harness.load_manifest(mini_corpus)[0]
    with open(tmp_path / "m.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "clean_path", "degraded_path", "wer", *ODD_TAGS])
        writer.writerow(["u1", first.clean_path, first.degraded_path, "10.0", *ODD_TAGS.values()])
    assert [e.tags for e in harness.load_manifest(tmp_path / "m.csv")] == [ODD_TAGS]
    assert main(["score", "--manifest", str(tmp_path / "m.csv"), "--measures", "stoi",
                 "--out", str(tmp_path / "out")]) == 0
    assert [r.tags for r in harness.load_scores_csv(tmp_path / "out" / "scores.csv").rows()] == [ODD_TAGS]


OVERLONG = b"9" * (csv.field_size_limit() + 1)  # csv.Error: field larger than field limit
MANIFEST_HEADER = b"utt_id,clean_path,degraded_path,wer,note\n"


@pytest.mark.parametrize("data, where", [
    (MANIFEST_HEADER + b"\nu1,c,d,1,\n\n\nu2,c,d,x,\n", r"m\.csv:6: wer 'x'"),
    (MANIFEST_HEADER + b'u1,c,d,1,"one\ntwo"\nu2,c,d,x,\n', r"m\.csv:4: wer 'x'"),
    (MANIFEST_HEADER + b"u1,c,d,1,\n\nu2,c,d," + OVERLONG + b"\n", r"m\.csv:4: malformed CSV"),
    (b"utt_id," + OVERLONG + b"\nu1,c\n", r"m\.csv:1: malformed CSV"),
    (MANIFEST_HEADER + b"\nu1,c,d,1,x,extra\n", r"m\.csv:3: more fields than header columns"),
], ids=["bad cell after blank lines", "bad cell after a multi-line record", "overlong field",
        "overlong header", "long row"])
def test_manifest_errors_name_the_physical_line(tmp_path, data, where):
    (tmp_path / "m.csv").write_bytes(data)
    with pytest.raises(ManifestError, match=where):
        harness.load_manifest(tmp_path / "m.csv")


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
    table, skipped = harness.score_manifest(batch, model, harness.RunConfig())
    assert table.utt_ids == [entries[0].utt_id]
    reasons = dict(skipped)
    assert "FileNotFoundError" in reasons["gone"]
    assert "AlignmentError" in reasons["half"]


def test_model_feature_mismatch_is_fatal(mini_corpus, tmp_path, capsys):
    entries = harness.load_manifest(mini_corpus)
    narrow = dsp.FeatureMatrix(np.zeros((4, 13)), "fbank", 10.0)
    model = am.train_toy([narrow], [[0, 1, 0, 1]], epochs=0)
    assert model.input_dim == 13 != dsp.MelSpec.n_filters
    cfg = harness.RunConfig(measures=("age",))
    with pytest.raises(ShapeMismatchError, match="13-dim features, fbank gives 40"):
        harness.score_manifest(entries[:1], model, cfg)
    # a run-level check: it fails before any audio file is opened
    gone = harness.ManifestEntry("gone", str(tmp_path / "a.wav"), str(tmp_path / "b.wav"))
    with pytest.raises(ShapeMismatchError):
        harness.score_manifest([gone], model, harness.RunConfig())
    am.save_model(model, tmp_path / "model.json")
    (tmp_path / "m.csv").write_text(f"utt_id,clean_path,degraded_path\ngone,{gone.clean_path},b\n")
    assert main(["score", "--manifest", str(tmp_path / "m.csv"), "--model",
                 str(tmp_path / "model.json"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: model expects 13-dim features, fbank gives 40\n"


@pytest.mark.parametrize("error", [NumericError, ValidationError])
def test_an_error_inside_one_row_skips_only_that_row(mini_corpus, monkeypatch, error):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    bad = dataclasses.replace(entries[1], utt_id="bad")
    real_load_wav = harness.load_wav

    def load_wav(path):
        if path == bad.degraded_path:
            raise error("injected")
        return real_load_wav(path)

    monkeypatch.setattr(harness, "load_wav", load_wav)
    table, skipped = harness.score_manifest([entries[0], bad], model, harness.RunConfig())
    assert table.utt_ids == [entries[0].utt_id]
    assert skipped == [("bad", f"{error.__name__}: injected")]




# mutated WAV files ---------------------------------------------------------

# (offset, width) of the little-endian header fields of a WAV file save_wav
# writes: a 16-byte fmt chunk, then the data chunk.
WAV_FIELDS = {"riff size": (4, 4), "format tag": (20, 2), "channels": (22, 2), "data size": (40, 4)}
TYPED_ERRORS = {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, AgevalError)
}
# A chunk inserted before the fmt chunk, between it and the data chunk, or at
# the end; the RIFF size grows by its length.
CHUNK_BOUNDARIES = (12, 36, None)

wav_mutations = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(
        st.just("insert"),
        st.tuples(
            st.sampled_from(CHUNK_BOUNDARIES),
            st.sampled_from([b"LIST", b"bext", b"JUNK", b"fact", b"fmt ", b"data"])
            | st.binary(min_size=4, max_size=4),
            st.binary(max_size=9),
        ),
    ),
    st.tuples(
        st.sampled_from(list(WAV_FIELDS)),
        st.one_of(
            st.sampled_from([0, 1, 2, 3, 0xFFFE, 0x7FFFFFFF, 0xFFFFFFFF]),
            st.integers(0, 2**32 - 1),
            st.integers(-9, 9).map(lambda delta: ("near", delta)),  # near the true value
        ),
    ),
)


def mutate_wav(data, mutation):
    kind, value = mutation
    if kind == "truncate":
        return data[: value % (len(data) + 1)]
    if kind == "insert":
        at, chunk_id, body = value
        at = len(data) if at is None else min(at, len(data))
        chunk = chunk_id + len(body).to_bytes(4, "little") + body + b"\0" * (len(body) % 2)
        data[at:at] = chunk
        if len(data) >= 8:
            riff_size = int.from_bytes(data[4:8], "little") + len(chunk)
            data[4:8] = (riff_size % 2**32).to_bytes(4, "little")
        return data
    at, width = WAV_FIELDS[kind]
    if at + width > len(data):
        return data
    if isinstance(value, tuple):
        value = int.from_bytes(data[at : at + width], "little") + value[1]
    data[at : at + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
    return data


@given(mutations=st.lists(wav_mutations, min_size=1, max_size=3))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_mutated_degraded_wav_is_scored_or_skipped_with_a_typed_reason(
    mini_corpus, tmp_path, mutations
):
    entry = harness.load_manifest(mini_corpus)[0]
    data = bytearray(Path(entry.degraded_path).read_bytes())
    assert data[36:40] == b"data"
    for mutation in mutations:
        data = mutate_wav(data, mutation)
    (tmp_path / "mutated.wav").write_bytes(data)
    row = dataclasses.replace(entry, degraded_path=str(tmp_path / "mutated.wav"))
    model = am.load_model(mini_corpus.parent / "model.json")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table, skipped = harness.score_manifest([row], model, harness.RunConfig())
    assert [str(w.message) for w in caught] == []
    if skipped:
        [(utt_id, reason)] = skipped
        assert utt_id == entry.utt_id and reason.split(":", 1)[0] in TYPED_ERRORS
    else:
        assert table.utt_ids == [entry.utt_id]


# groups of rows sharing a clean file -----------------------------------------

@pytest.fixture
def shuffled_entries(mini_corpus, tmp_path):
    """Manifest rows out of clean-file order, plus one degraded file 1% short.

    Consecutive rows of one clean file: [0, cut] [2] [1] [4] [3] [6, 7] [5],
    so utt000, utt001 and utt002 each come back after another file's rows.
    Groups by clean file: [0, cut, 1] [2, 3] [4, 5] [6, 7]; the first holds
    two aligned lengths.
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


def table_bits(table):
    """Every cell of a ScoreTable, floats as their bytes."""
    measures = {m: c.tobytes() for m, c in table.measures.items()}
    return table.utt_ids, table.wer.tobytes(), measures, table.tags


def test_runs_score_each_row_as_score_utterance_does(mini_corpus, shuffled_entries):
    model = am.load_model(mini_corpus.parent / "model.json")
    cfg = harness.RunConfig()
    table, skipped = harness.score_manifest(shuffled_entries, model, cfg)
    assert skipped == []
    single = [harness.score_utterance(e, model, cfg) for e in shuffled_entries]
    assert value_bits(table.rows()) == value_bits(single)
    assert list(table.rows()) == single
    assert table_bits(table) == table_bits(harness.ScoreTable.from_rows(single))


def test_rows_and_skips_keep_manifest_order_across_interleaved_clean_files(mini_corpus, tmp_path):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    missing = str(tmp_path / "gone.wav")
    gone = [dataclasses.replace(entries[i], utt_id=f"gone{i}", clean_path=missing) for i in (0, 1)]
    # groups by clean file: [gone0, gone1] [0, 1] [2, 3]
    manifest = [gone[0], entries[0], entries[2], gone[1], entries[1], entries[3]]
    for workers in (1, 2):
        table, skipped = harness.score_manifest(manifest, model, harness.RunConfig(workers=workers))
        assert table.utt_ids == [entries[i].utt_id for i in (0, 2, 1, 3)]
        assert [utt_id for utt_id, _ in skipped] == ["gone0", "gone1"]


def test_the_clean_side_is_computed_once_per_run(mini_corpus, shuffled_entries, monkeypatch):
    """Once per clean file, in any row order."""
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
    table, _ = harness.score_manifest(shuffled_entries, model, harness.RunConfig())
    n_rows, n_clean_files = len(table), 4
    assert n_rows == 9
    # the clean side once per clean file; posteriors and the STOI clean side
    # once more for utt000's second aligned length
    assert calls == {
        "fbank": n_rows + n_clean_files,
        "forward": n_rows + n_clean_files + 1,
        "resample": n_rows + n_clean_files + 1,
        "load_wav": n_rows + n_clean_files,
        "score_utterance": n_rows,
    }


def test_a_clean_reference_serves_only_its_own_file_and_model(mini_corpus):
    entries = harness.load_manifest(mini_corpus)
    model = am.load_model(mini_corpus.parent / "model.json")
    clean = harness.CleanReference(entries[0].clean_path, model)
    # the clean side does not depend on the run's measures or tolerance
    for cfg in (harness.RunConfig(), harness.RunConfig(measures=("age",), alignment_tolerance=0.5)):
        assert harness.score_utterance(entries[1], model, cfg, clean) == harness.score_utterance(
            entries[1], model, cfg
        )
    other_model = am.load_model(mini_corpus.parent / "model.json")
    for entry, row_model in ((entries[2], model), (entries[0], other_model)):
        with pytest.raises(ConfigError, match="clean reference built for another file or model"):
            harness.score_utterance(entry, row_model, harness.RunConfig(), clean)


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
    table, skipped = harness.score_manifest([*bad_run, *entries[2:4]], model, cfg)
    assert table.utt_ids == [e.utt_id for e in entries[2:4]]
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
    clean.write_bytes(Path(entries[0].clean_path).read_bytes())
    run = [dataclasses.replace(e, clean_path=str(clean)) for e in entries[:2]]
    before, _ = harness.score_manifest(run, model, cfg)
    # the other SNR's degraded file: same length, different content
    clean.write_bytes(Path(entries[1].degraded_path).read_bytes())
    after, _ = harness.score_manifest(run, model, cfg)
    assert list(after.rows()) == [harness.score_utterance(e, model, cfg) for e in run]
    assert all(a.values["age"] != b.values["age"] for a, b in zip(after.rows(), before.rows()))


def test_worker_pool_reproduces_the_serial_result(mini_corpus, shuffled_entries, tmp_path):
    model = am.load_model(mini_corpus.parent / "model.json")
    gone = dataclasses.replace(shuffled_entries[2], utt_id="gone",
                               clean_path=str(tmp_path / "gone.wav"))
    entries = [*shuffled_entries, gone]
    serial = harness.score_manifest(entries, model, harness.RunConfig())
    pooled = harness.score_manifest(entries, model, harness.RunConfig(workers=2))
    assert value_bits(pooled[0].rows()) == value_bits(serial[0].rows())
    assert pooled == serial
    assert [utt_id for utt_id, _ in serial[1]] == ["gone"]


def test_the_pool_starts_no_more_workers_than_runs(monkeypatch):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable, chunksize):
            return map(fn, iterable)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    entries = [harness.ManifestEntry(f"u{i}", f"c{i // 2}.wav", f"d{i}.wav") for i in range(4)]
    table, skipped = harness.score_manifest(
        entries, None, harness.RunConfig(measures=("stoi",), workers=4)
    )
    assert started == [2]
    assert len(table) == 0
    assert [utt_id for utt_id, _ in skipped] == ["u0", "u1", "u2", "u3"]


def blas_threads_of_each_row(group, model, cfg):
    """Stands in for harness._score_group: the pool worker's BLAS thread counts per row."""
    counts = [getter() for _, getter in am._openblas_thread_controls()]
    return [(entry.utt_id, counts) for entry in group]


def test_pool_workers_use_one_blas_thread(monkeypatch):
    entries = [harness.ManifestEntry(f"u{i}", f"c{i}.wav", f"d{i}.wav") for i in range(4)]
    monkeypatch.setattr(harness, "_score_group", blas_threads_of_each_row)
    original = am._set_blas_threads(2)  # what a forked worker would inherit
    try:
        table, skipped = harness.score_manifest(
            entries, None, harness.RunConfig(measures=("stoi",), workers=2)
        )
        found = len(am._openblas_thread_controls())
        assert len(table) == 0
        assert skipped == [(e.utt_id, [1] * found) for e in entries]
        assert [getter() for _, getter in am._openblas_thread_controls()] == [2] * found
    finally:
        if original is not None:
            am._set_blas_threads(original)


def test_serial_scoring_uses_one_blas_thread_and_restores_the_callers_count(monkeypatch):
    cfg = harness.RunConfig(measures=("stoi",))
    several_runs = [harness.ManifestEntry(f"u{i}", f"c{i}.wav", f"d{i}.wav") for i in range(3)]
    one_run = [harness.ManifestEntry(f"v{i}", "c.wav", f"d{i}.wav") for i in range(3)]
    monkeypatch.setattr(harness, "_score_group", blas_threads_of_each_row)
    original = am._set_blas_threads(2)  # the caller's count
    try:
        found = len(am._openblas_thread_controls())
        for entries, workers in ((several_runs, 1), (one_run, 2)):
            table, skipped = harness.score_manifest(entries, None, dataclasses.replace(cfg, workers=workers))
            assert len(table) == 0
            assert skipped == [(e.utt_id, [1] * found) for e in entries]
            assert [getter() for _, getter in am._openblas_thread_controls()] == [2] * found

        def fail(group, model, cfg):
            raise RuntimeError("stop")

        monkeypatch.setattr(harness, "_score_group", fail)
        with pytest.raises(RuntimeError):
            harness.score_manifest(several_runs, None, cfg)
        assert [getter() for _, getter in am._openblas_thread_controls()] == [2] * found
    finally:
        if original is not None:
            am._set_blas_threads(original)


# grouping and reports ------------------------------------------------------

as_table = harness.ScoreTable.from_rows


def group_reports(table, group_key=None):
    """correlate_by_group's (groups, skipped)."""
    correlation = harness.correlate_by_group(table, group_key)
    return correlation.groups, correlation.skipped


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
    reports, skipped = group_reports(as_table(synthetic_rows()), "algo")
    assert sorted(reports) == ["x", "y", "z"]
    assert skipped == {}
    assert sorted(reports["x"].correlations) == ["age", "stoi"]
    assert reports["x"].correlations["age"].n_points == 5
    assert reports["x"].correlations["age"].rho_magnitude == pytest.approx(1.0, abs=1e-6)


def test_rows_without_the_tag_fall_into_a_missing_group():
    rows = synthetic_rows()
    rows.append(harness.ScoreRow("odd", {"age": 1.0}, 10.0, {}))
    reports, skipped = group_reports(as_table(rows), "algo")
    assert "_missing" in skipped
    assert "_missing" not in reports


def test_all_rows_form_one_group_without_a_key():
    reports, skipped = group_reports(as_table(synthetic_rows()))
    assert list(reports) == ["all"]
    assert reports["all"].correlations["age"].n_points == 15


def test_only_shared_measures_are_reported():
    rows = synthetic_rows()
    rows[0].values.pop("stoi")
    reports, _ = group_reports(as_table(rows))
    assert sorted(reports["all"].correlations) == ["age"]


def test_a_measure_that_only_some_rows_with_wer_carry_is_skipped_with_their_count():
    rows = synthetic_rows()
    rows[2].values.pop("stoi")  # group x: 4 of its 5 rows with wer carry stoi
    rows[5] = dataclasses.replace(rows[5], wer_percent=None)
    rows[5].values.pop("stoi")  # group y: only a row without wer lacks stoi
    reports, skipped = group_reports(as_table(rows), "algo")
    assert skipped == {"x/stoi": "carried by 4 of 5 rows with wer"}
    assert sorted(reports["x"].means) == ["age", "stoi", "wer"]
    assert sorted(reports["x"].correlations) == ["age"]
    assert sorted(reports["y"].correlations) == ["age", "stoi"]
    assert reports["y"].correlations["stoi"].n_points == 4
    # a measure no row with wer carries is counted too
    for i in (0, 1, 3, 4):
        rows[i].values.pop("stoi")
    rows[0] = dataclasses.replace(rows[0], wer_percent=None, values={"age": 0.5, "stoi": 0.25})
    assert group_reports(as_table(rows), "algo")[1] == {"x/stoi": "carried by 0 of 4 rows with wer"}


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
    reports, skipped = group_reports(as_table(rows), "algo")
    assert "w" in skipped and "need 3" in skipped["w"]


def test_a_group_mean_out_of_float_range_skips_its_item():
    rows = synthetic_rows()
    for i in (0, 1):  # group x: the sum of age overflows
        rows[i].values["age"] = 1.5e308
    for i in (5, 6):  # group y: the sum of wer overflows, and with it every fit's correlation
        rows[i] = dataclasses.replace(rows[i], wer_percent=1.5e308)
    with np.errstate(all="raise"):
        reports, skipped = group_reports(as_table(rows), "algo")
    assert skipped["x/age"] == "NumericError: the mean of age leaves the float64 range"
    assert skipped["y/wer"] == "NumericError: the mean of wer leaves the float64 range"
    assert skipped["y/age"].startswith("NumericError:")
    assert skipped["y/stoi"].startswith("NumericError:")
    assert sorted(skipped) == ["x/age", "y", "y/age", "y/stoi", "y/wer"]
    assert sorted(reports) == ["x", "z"]
    assert sorted(reports["x"].means) == ["stoi", "wer"]
    assert sorted(reports["x"].correlations) == ["stoi"]
    assert reports["z"] == group_reports(as_table(synthetic_rows()), "algo")[0]["z"]


def test_a_report_with_a_non_finite_value_is_not_written(tmp_path):
    rows = synthetic_rows()
    correlation = harness.correlate_by_group(as_table(rows))
    correlation.groups["all"].means["age"] = float("inf")
    with pytest.raises(ValueError, match="JSON compliant"):
        harness.emit_report(correlation, tmp_path)
    assert list(tmp_path.iterdir()) == []  # not even scores.csv


def test_a_scatter_file_that_cannot_be_opened_is_an_os_error(tmp_path):
    (tmp_path / "scatter_stoi.csv").mkdir()
    with pytest.raises(OSError):
        harness.emit_report(harness.correlate_by_group(as_table(synthetic_rows())), tmp_path)


def test_nothing_reportable_raises():
    rows = synthetic_rows()[:2]
    with pytest.raises(EmptyReportError):
        harness.correlate_by_group(as_table(rows), "algo")


def test_report_groups_equal_a_brute_force_recomputation(tmp_path):
    rows = synthetic_rows()
    rows[1] = dataclasses.replace(rows[1], wer_percent=None)
    rows[7].values["entropy"] = 2.5
    for i, (m, wer) in enumerate(((0.3, 5.0), (1.9, 30.0), (2.6, None), (3.1, 70.0))):
        rows.append(harness.ScoreRow(f"odd{i}", {"age": m, "stoi": 0.9 - 0.1 * m}, wer, {}))
    path = harness.emit_report(harness.correlate_by_group(as_table(rows), "algo"), tmp_path)
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
    harness.write_scores_csv(as_table(rows), path)
    assert list(harness.load_scores_csv(path).rows()) == rows


def test_a_bad_wer_cell_in_a_scores_file_is_a_format_error(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("utt_id,wer,age\nu1,10.0,0.5\nu2,ten,0.7\n")
    with pytest.raises(FormatError, match=r"scores\.csv:3: wer") as info:
        harness.load_scores_csv(path)
    assert not isinstance(info.value, ManifestError)


def test_emit_report_is_byte_deterministic(tmp_path):
    rows = synthetic_rows()
    correlation = harness.correlate_by_group(as_table(rows), "algo")
    dirs = (tmp_path / "one", tmp_path / "two")
    for out in dirs:
        harness.emit_report(correlation, out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert "scores.csv" in names and "report.json" in names
    assert "scatter_age.csv" in names and "scatter_stoi.csv" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_report_json_contents(tmp_path):
    rows = synthetic_rows()
    path = harness.emit_report(harness.correlate_by_group(as_table(rows)), tmp_path)
    doc = json.loads(path.read_text())
    group = doc["groups"]["all"]
    assert group["n_rows"] == 15
    assert group["n_with_wer"] == 15
    assert set(group["means"]) == {"age", "stoi", "wer"}
    entry = group["correlations"]["age"]
    assert set(entry) >= {"a", "b", "rho_magnitude", "spearman", "rmse_mapped"}
    assert entry["rho_magnitude"] == pytest.approx(1.0, abs=1e-6)


# scatter files against csv.writer ----------------------------------------

# write_scores_csv's chunk sizes to test: 2 makes NaN cells, rows without a
# WER and scatter carriers straddle chunks.
CHUNK_ROWS = (2, harness._WRITE_CHUNK_ROWS)


def csv_writer_scatter(rows, measure):
    """A scatter file as emit_report wrote it through csv.writer: the reference bytes, or None."""
    pairs = [(r.values[measure], r.wer_percent) for r in rows
             if r.wer_percent is not None and measure in r.values]
    m_values = np.asarray([p[0] for p in pairs])
    wer_values = np.asarray([p[1] for p in pairs])
    try:
        params = stats.fit_logistic(m_values, wer_values)
    except AgevalError:
        return None
    mapped = np.asarray(stats.map_logistic(params, m_values))
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(["m", "wer", "f(m)"])
    for mv, wv, fv in zip(m_values, wer_values, mapped):
        writer.writerow([repr(float(mv)), repr(float(wv)), repr(float(fv))])
    return fh.getvalue().encode()


def assert_scatter_files_match_csv_writer(rows, out):
    for measure in ("age", "entropy", "stoi"):
        path = out / f"scatter_{measure}.csv"
        expected = csv_writer_scatter(rows, measure)
        assert (path.read_bytes() if path.exists() else None) == expected
        assert expected is None or b"np." not in expected


def test_scatter_files_equal_the_csv_writer_bytes(tmp_path):
    rows = synthetic_rows()
    odd = [  # awkward floats, and numpy scalars as a library caller may pass them
        (-0.0, 1e300, np.float64(0.25)),
        (1e-300, 0.0, 1.0),
        (np.float64(2.0), np.float64(37.5), -0.0),
        (3.0, 100.0, np.float64(5e-324)),
        (np.float64(-7.125), 1e-300, 2.0),
    ]
    for i, (age, wer, stoi) in enumerate(odd):
        rows.append(harness.ScoreRow(f"odd{i}", {"age": age, "stoi": stoi}, wer, {"algo": "odd"}))
    rows.append(harness.ScoreRow("nower", {"age": 4.0, "entropy": 1.5}, None, {"algo": "odd"}))
    correlation = harness.correlate_by_group(as_table(rows), "algo")
    assert "odd" in correlation.skipped  # the 1e300 WER leaves no correlation in its group
    for chunk_rows in CHUNK_ROWS:
        out = tmp_path / f"chunks{chunk_rows}"
        with mock.patch.object(harness, "_WRITE_CHUNK_ROWS", chunk_rows):
            harness.emit_report(correlation, out)
        assert (out / "scatter_age.csv").exists() and (out / "scatter_stoi.csv").exists()
        assert_scatter_files_match_csv_writer(rows, out)
        text = (out / "scatter_age.csv").read_text()
        assert "\n-0.0,1e+300," in text and "\n1e-300,0.0," in text and "\n2.0,37.5," in text


def rows_with_one_stoi_missing():
    rows = synthetic_rows()
    rows[3] = dataclasses.replace(rows[3], wer_percent=None)
    rows[8] = dataclasses.replace(rows[8], values={"age": rows[8].values["age"]})
    return rows


@pytest.mark.parametrize("rows", [synthetic_rows(), rows_with_one_stoi_missing()],
                         ids=["all rows", "one stoi missing"])
def test_ungrouped_scatter_files_equal_the_csv_writer_bytes(tmp_path, rows):
    correlation = harness.correlate_by_group(as_table(rows))
    for chunk_rows in CHUNK_ROWS:
        out = tmp_path / f"chunks{chunk_rows}"
        with mock.patch.object(harness, "_WRITE_CHUNK_ROWS", chunk_rows):
            harness.emit_report(correlation, out)
        assert_scatter_files_match_csv_writer(rows, out)


# the one CSV writer against csv.writer ----------------------------------


def csv_writer_text(records):
    fh = io.StringIO(newline="")
    csv.writer(fh).writerows(records)
    return fh.getvalue()


@st.composite
def csv_records(draw):
    """A width of 2 or more and records of that many cells, some of them text csv.writer quotes."""
    width = draw(st.integers(2, 5))
    cell = st.one_of(st.text(), st.text(st.sampled_from(',"\r\n \x00a')))
    return width, draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))


@given(width_and_records=csv_records())
@settings(max_examples=300, deadline=None)
def test_csv_text_is_the_text_csv_writer_writes(width_and_records):
    width, records = width_and_records
    columns = [[record[j] for record in records] for j in range(width)]
    assert harness._csv_text(columns) == csv_writer_text(records)


def test_the_skip_log_writes_the_bytes_of_csv_writer(tmp_path):
    with pytest.raises(errors.AlignmentError) as alignment:
        measures.aligned_length(100, 90, 0.02, "frame")
    skipped = [
        ("u1", harness._reason(alignment.value)),  # the message holds a comma
        ("u,2", 'FormatError: d.wav: not a readable RIFF/WAVE file ("x")'),
        ("u3", "OSError: a lone\rcarriage return"),
        ("u4", "OSError: one\nline feed"),
        ("u5", "NumericError: plain"),
    ]
    expected = csv_writer_text([("utt_id", "reason"), *skipped]).encode()
    assert "," in skipped[0][1] and b'"' in expected
    for chunk_rows in CHUNK_ROWS:
        with mock.patch.object(harness, "_WRITE_CHUNK_ROWS", chunk_rows):
            harness.write_skip_log(skipped, tmp_path / "skipped.csv")
        assert (tmp_path / "skipped.csv").read_bytes() == expected
    harness.write_skip_log([], tmp_path / "none.csv")
    assert (tmp_path / "none.csv").read_bytes() == b"utt_id,reason\r\n"


def fit_over_carriers(rows, measure):
    carriers = [r for r in rows if r.wer_percent is not None and measure in r.values]
    m_values = [r.values[measure] for r in carriers]
    return stats.fit_logistic(m_values, [r.wer_percent for r in carriers])


@pytest.mark.parametrize("rows", [synthetic_rows(), rows_with_one_stoi_missing()],
                         ids=["all rows", "one stoi missing"])
def test_an_ungrouped_curve_is_the_all_groups_fit(rows):
    correlation = harness.correlate_by_group(as_table(rows))
    whole = correlation.groups["all"].correlations
    assert sorted(correlation.curves) == ["age", "stoi"]
    for measure, curve in correlation.curves.items():
        assert curve == fit_over_carriers(rows, measure)
        if measure in whole:
            assert curve is whole[measure].params
    assert (correlation.table, correlation.group_key) == (as_table(rows), None)


def test_a_group_named_all_does_not_lend_its_fit_to_the_curve():
    # noisy WERs, so that a subset's fit differs from the fit over every row
    rows = [dataclasses.replace(r, wer_percent=r.wer_percent + 3.0 * (k % 3),
                                tags={"algo": "all" if r.tags["algo"] == "x" else "rest"})
            for k, r in enumerate(synthetic_rows())]
    correlation = harness.correlate_by_group(as_table(rows), "algo")
    assert sorted(correlation.groups) == ["all", "rest"]
    for measure, curve in correlation.curves.items():
        assert curve == fit_over_carriers(rows, measure)
        assert curve != correlation.groups["all"].correlations[measure].params


# the scores.csv parser against csv.DictReader -----------------------------

def parse_measure(text, column, where):
    """A non-blank measure cell as the reference parser reads it."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise FormatError(f"{where}: {column} value {text!r} is not a finite number")
    return value


def dictreader_load_scores_csv(path):
    """load_scores_csv through csv.DictReader, naming physical lines: the reference parser."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            names = reader.fieldnames or []
            repeated = [n for i, n in enumerate(names) if n.strip() and n in names[:i]]
            if repeated:
                raise FormatError(
                    f"{path}:{reader.reader.line_num}: header repeats column {repeated[0]!r}"
                )
            if reader.fieldnames is None or "utt_id" not in reader.fieldnames:
                raise FormatError(f"{path}: not a scores file (missing utt_id column)")
            # a key of its own for each column with a blank name
            unnamed = {i: f"\0column {i + 1}" for i, n in enumerate(names) if not n.strip()}
            reader.fieldnames = [unnamed.get(i, n) for i, n in enumerate(names)]
            measure_cols = [c for c in reader.fieldnames if c in measures.MEASURE_NAMES]
            tag_cols = [c for c in reader.fieldnames if c not in (*measures.MEASURE_NAMES, "utt_id", "wer")
                        and c not in unnamed.values()]
            rows = []
            for record in reader:
                where = f"{path}:{reader.reader.line_num}"
                if None in record:
                    raise FormatError(f"{where}: more fields than header columns")
                for i, key in unnamed.items():
                    if (record[key] or "").strip():
                        raise FormatError(
                            f"{where}: value {record[key]!r} in column {i + 1}, which the header leaves unnamed"
                        )
                if None in record.values():
                    raise FormatError(f"{where}: fewer fields than header columns")
                values = {
                    m: parse_measure(record[m], m, where)
                    for m in measure_cols if record[m].strip()
                }
                if not values:
                    raise FormatError(f"{where}: row has no measure values")
                rows.append(
                    harness.ScoreRow(
                        utt_id=record["utt_id"],
                        values=values,
                        wer_percent=harness._parse_wer(record.get("wer", ""), where, FormatError),
                        tags={t: record[t] for t in tag_cols if record.get(t, "").strip()},
                    )
                )
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}:{reader.reader.line_num}: unreadable CSV ({exc})") from exc
    if not rows:
        raise EmptyInputError(f"{path}: no score rows")
    return rows


def load_score_rows(path):
    return list(harness.load_scores_csv(path).rows())


def parse_outcome(parse, path):
    """Each row with its dicts' key order, or the error's type and message."""
    try:
        rows = parse(path)
    except AgevalError as exc:
        return type(exc), str(exc)
    return [(r.utt_id, list(r.values.items()), r.wer_percent, list(r.tags.items())) for r in rows]


SCORES_FILES = {
    "quoted tags": b'utt_id,wer,age,note\r\nu1,10.0,0.5,"a,b"\r\nu2,20.0,0.7,"one\ntwo"\r\nu3,,0.9,""\r\n',
    "blank lines": b"utt_id,wer,age\n\nu1,1.0,0.5\n\n\nu2,2.0,0.6\n\n",
    "bad cell after blank lines": b"utt_id,wer,age\n\nu1,1.0,0.5\n\n\nu2,x,0.6\n",
    "duplicate columns": b"utt_id,wer,age,age,snr,snr\nu1,1.0,0.5,0.6,a,b\nu2,2.0,,0.7,c,\n",
    "bad first duplicate": b"utt_id,wer,age,age\nu1,1.0,bad,0.5\n",
    "empty last duplicate": b"utt_id,wer,age,age\nu1,1.0,0.5,\n",
    "short row": b"utt_id,wer,age,stoi\nu1,1.0,0.5,0.2\nu2,1.0,0.5\n",
    "long row": b"utt_id,wer,age\nu1,1.0,0.5,extra\n",
    "blank cells": b"utt_id,wer,age,stoi\nu1, ,0.5,  \n",
    "no measure value": b"utt_id,wer,age\nu1,1.0,0.5\nu2,1.0,\n",
    "infinite measure": b"utt_id,wer,age\nu1,1.0,inf\n",
    "negative wer": b"utt_id,wer,age\nu1,-1.0,0.5\n",
    "no wer column": b"utt_id,age,tag\nu1,0.5,x\n",
    "header only": b"utt_id,wer,age\n",
    "empty": b"",
    "blank header": b"\nutt_id,wer,age\nu1,1.0,0.5\n",
    "no utt_id": b"id,wer,age\nu1,1.0,0.5\n",
    "unnamed columns": b"utt_id,wer,,age, ,\nu1,1.0,,0.5,\t\nu2,2.0\n",
    "value under an unnamed column": b"utt_id,wer,,age,\nu1,1.0,,0.5,\nu2,2.0,,0.6,y\n",
    "NUL cell": b"utt_id,wer,age\nu1,\0,0.5\n",
    "overlong field after blank lines": b"utt_id,wer,age\nu1,1.0,0.5\n\n\nu2," + OVERLONG + b",0.6\n",
    "overlong field after a blank line and a row": b"utt_id,wer,age\n\nu1,1.0,0.5\nu2," + OVERLONG + b"\n",
    "overlong header": b"utt_id," + OVERLONG + b"\nu1,1.0\n",
    "undecodable": b"utt_id,wer,age\nu1,1.0,0.5\n\xff\n",
}


@pytest.mark.parametrize("data", SCORES_FILES.values(), ids=SCORES_FILES.keys())
def test_the_scores_parser_matches_csv_dictreader(tmp_path, data):
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    assert parse_outcome(load_score_rows, path) == parse_outcome(dictreader_load_scores_csv, path)


def test_a_value_under_an_unnamed_scores_column_is_an_error(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_bytes(SCORES_FILES["value under an unnamed column"])
    with pytest.raises(FormatError, match=r"scores\.csv:3: value 'y' in column 5, which the header leaves unnamed"):
        harness.load_scores_csv(path)
    path.write_bytes(b"utt_id,wer,age,,\r\nu1,1.0,0.5,,\r\n")
    table = harness.load_scores_csv(path)
    assert (table.tags, table.utt_ids) == ({}, ["u1"])


def test_scores_errors_name_the_physical_line(tmp_path):
    path = tmp_path / "scores.csv"
    for key, line in (("overlong header", 1), ("overlong field after blank lines", 5),
                      ("overlong field after a blank line and a row", 4), ("undecodable", 0)):
        path.write_bytes(SCORES_FILES[key])
        with pytest.raises(FormatError, match=rf"scores\.csv:{line}: unreadable CSV"):
            harness.load_scores_csv(path)
    path.write_bytes(SCORES_FILES["bad cell after blank lines"])
    with pytest.raises(FormatError, match=r"scores\.csv:6: wer 'x' is not a number"):
        harness.load_scores_csv(path)


@pytest.mark.parametrize("data, where", [
    (b"utt_id,wer,age\nu1,1.0,0.5\n\nu2,1.0,0.5,extra\n", r"scores\.csv:4: more fields than"),
    (b'utt_id,wer,age,note\nu1,1.0,0.5,"one\ntwo"\nu2,x,0.6,\n', r"scores\.csv:4: wer 'x'"),
], ids=["long row", "bad cell after a multi-line record"])
def test_scores_row_errors_name_the_physical_line(tmp_path, data, where):
    path = tmp_path / "scores.csv"
    path.write_bytes(data)
    with pytest.raises(FormatError, match=where):
        harness.load_scores_csv(path)


score_cells = st.one_of(
    st.sampled_from(["", " ", "0.5", "-0.0", "1e300", "inf", "nan", "12", "x", '"', '"a,b"', '"a\nb"', "\0",
                     "\udcff", OVERLONG.decode()]),  # an undecodable byte, a csv.Error
    st.floats().map(repr),
)


@given(
    header=st.lists(st.sampled_from(["utt_id", "wer", "age", "entropy", "stoi", "snr", ""]),
                    min_size=1, max_size=6),
    records=st.lists(st.lists(score_cells, max_size=7).map(",".join), max_size=6),
    end=st.sampled_from(["\n", "\r\n", "\r"]),
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_scores_parser_matches_csv_dictreader_on_arbitrary_files(tmp_path, header, records, end):
    path = tmp_path / "scores.csv"
    path.write_bytes(end.join([",".join(header), *records]).encode("utf-8", "surrogateescape"))
    assert parse_outcome(load_score_rows, path) == parse_outcome(dictreader_load_scores_csv, path)
