"""The file parsers and the command line on arbitrary input.

Only AgevalError or OSError may escape a parser. A malformed file must end as
a typed error that the command line turns into exit 1 (or, for audio, a
skipped row and exit 2), never as a traceback.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ageval import am, dsp, harness
from ageval.cli import main
from ageval.errors import AgevalError, FormatError

fuzz = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

json_leaves = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=10,
)
csv_cells = st.one_of(
    st.floats().map(repr), st.integers().map(str), st.text(max_size=8), st.just(""), st.just('"')
)
csv_text = st.lists(st.lists(csv_cells, max_size=6).map(",".join), max_size=6).map("\n".join)


def parse_only_typed_errors(parse, path, data):
    path.write_bytes(data)
    try:
        parse(path)
    except (AgevalError, OSError):
        pass


as_bytes = str.encode
raw_inputs = st.one_of(st.binary(max_size=200), st.text(max_size=200).map(as_bytes))


@given(data=st.one_of(
    raw_inputs,
    csv_text.map(lambda t: as_bytes("utt_id,clean_path,degraded_path,wer,snr_db\n" + t)),
    st.lists(st.dictionaries(st.sampled_from(["utt_id", "clean_path", "degraded_path", "wer", "x"]),
                             json_values), max_size=4).map(
        lambda records: as_bytes("".join(json.dumps(r) + "\n" for r in records))),
), suffix=st.sampled_from([".csv", ".jsonl"]))
@fuzz
def test_load_manifest_raises_only_typed_errors(tmp_path, data, suffix):
    parse_only_typed_errors(harness.load_manifest, tmp_path / f"m{suffix}", data)


@given(data=st.one_of(
    raw_inputs, csv_text.map(lambda t: as_bytes("utt_id,wer,age,stoi,algo\n" + t))
))
@fuzz
def test_load_scores_csv_raises_only_typed_errors(tmp_path, data):
    parse_only_typed_errors(harness.load_scores_csv, tmp_path / "scores.csv", data)


MODEL_DOCUMENT = {
    "input_dim": 2,
    "left_context": 1,
    "right_context": 0,
    "layers": [
        {"activation": "tanh", "out_dim": 3, "in_dim": 4, "weight": [0.1] * 12, "bias": [0.0] * 3},
        {"activation": "softmax", "out_dim": 2, "in_dim": 3, "weight": [0.2] * 6, "bias": [0.0] * 2},
    ],
}


def test_the_model_document_to_mutate_is_valid(tmp_path):
    (tmp_path / "model.json").write_text(json.dumps(MODEL_DOCUMENT))
    assert am.load_model(tmp_path / "model.json").n_classes == 2


@st.composite
def mutated_models(draw, document=MODEL_DOCUMENT):
    """A valid model document with one field replaced by an edge value or arbitrary JSON."""
    doc = json.loads(json.dumps(document))
    target = doc if draw(st.booleans()) else draw(st.sampled_from(doc["layers"]))
    edges = st.sampled_from([math.inf, -math.inf, math.nan, -1, 0, 2**64, 1.5, "2", []])
    target[draw(st.sampled_from(sorted(target)))] = draw(edges | json_leaves | json_values)
    return as_bytes(json.dumps(doc))


@given(data=st.one_of(raw_inputs, mutated_models()))
@fuzz
def test_load_model_raises_only_typed_errors(tmp_path, data):
    parse_only_typed_errors(am.load_model, tmp_path / "model.json", data)


def test_unreadable_files_name_the_path(tmp_path):
    cases = [
        (harness.load_manifest, "m.csv", b"\xffutt_id,clean_path,degraded_path\n"),
        (harness.load_manifest, "m.csv", b"utt_id,clean_path,degraded_path\nu," + b"a" * 140000),
        (harness.load_manifest, "m.jsonl", b'{"utt_id": ' + b"[" * 100000),
        (harness.load_scores_csv, "scores.csv", b"\xffutt_id,wer,age\n"),
        (harness.load_scores_csv, "scores.csv", b"utt_id,wer,age\nu1,1.0," + b"1" * 140000),
        (am.load_model, "model.json", b"\xff{}"),
        (am.load_model, "model.json", b'{"input_dim": 1e999, "left_context": 0, '
                                      b'"right_context": 0, "layers": [1]}'),
        (am.load_model, "model.json", b"[" * 100000),
    ]
    for parse, name, data in cases:
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            parse(path)


# the command line on arbitrary files -------------------------------------

# One softmax layer over the default 40 fbank coefficients, so that a valid
# document lets score reach every measure.
SCORING_MODEL = {
    "input_dim": 40,
    "left_context": 0,
    "right_context": 0,
    "layers": [
        {"activation": "softmax", "out_dim": 3, "in_dim": 40,
         "weight": [0.01 * (i % 7) for i in range(120)], "bias": [0.0] * 3},
    ],
}
AUDIO_FILES = ("clean.wav", "noisy.wav", "short.wav", "garbage.wav", "missing.wav")

wer_cells = st.floats(0.0, 100.0).map(repr) | st.just("")


def numbered_rows(header, cells):
    """A CSV file: the header, then one row u<i>,<cells> per drawn tuple."""
    return st.lists(st.tuples(*cells).map(",".join), max_size=8).map(
        lambda rows: as_bytes(header + "\n" + "".join(f"u{i},{r}\n" for i, r in enumerate(rows)))
    )


audio_names = st.sampled_from(AUDIO_FILES)
manifest_files = numbered_rows(
    "utt_id,clean_path,degraded_path,wer", (audio_names, audio_names, wer_cells)
)
model_files = st.just(as_bytes(json.dumps(SCORING_MODEL))) | mutated_models(SCORING_MODEL)
measure_cells = (st.floats(0.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False)).map(repr)
scores_files = numbered_rows(
    "utt_id,wer,age,algo", (wer_cells, measure_cells, st.sampled_from(["a", "b", ""]))
)


@st.composite
def mostly(draw, well_formed, arbitrary):
    """Three draws in four from well_formed, so that the run gets past parsing."""
    return draw(arbitrary if draw(st.integers(0, 3)) == 3 else well_formed)


def write_audio(directory):
    t = np.arange(8000) / 16000.0
    clean = 0.3 * np.sin(2 * np.pi * 300 * t) * (0.5 + 0.5 * np.sin(2 * np.pi * 4 * t))
    noise = np.random.default_rng(0).normal(0.0, 0.05, t.size)
    dsp.save_wav(dsp.Waveform(clean, 16000), directory / "clean.wav")
    dsp.save_wav(dsp.Waveform(clean + noise, 16000), directory / "noisy.wav")
    dsp.save_wav(dsp.Waveform(clean[:300], 16000), directory / "short.wav")
    (directory / "garbage.wav").write_bytes(b"RIFF\x00\x01garbage")


@given(
    manifest=mostly(manifest_files, raw_inputs | csv_text.map(as_bytes)),
    model=mostly(model_files, raw_inputs),
    scores=mostly(scores_files, raw_inputs | csv_text.map(lambda t: as_bytes("utt_id,wer\n" + t))),
    group_by=st.sampled_from(["none", "algo", "snr_db"]),
)
@settings(max_examples=100, deadline=None)
def test_score_and_correlate_exit_with_zero_one_or_two(manifest, model, scores, group_by):
    with tempfile.TemporaryDirectory() as name:
        root = Path(name)
        write_audio(root)
        (root / "manifest.csv").write_bytes(manifest)
        (root / "model.json").write_bytes(model)
        (root / "scores.csv").write_bytes(scores)
        out = root / "out"
        code = main(["score", "--manifest", str(root / "manifest.csv"),
                     "--model", str(root / "model.json"), "--out", str(out)])
        assert code in (0, 1, 2)
        for scores_path in (root / "scores.csv", out / "scores.csv"):
            if scores_path.is_file():
                code = main(["correlate", "--scores", str(scores_path), "--group-by", group_by,
                             "--out", str(root / "report")])
                assert code in (0, 1, 2)
