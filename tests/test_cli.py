"""Command line entry points, exercised through main()."""

import argparse
import csv
import dataclasses
import inspect
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import ageval
from ageval import cli, dsp, fixture, harness, stats
from ageval.cli import main


def test_flag_defaults_are_the_library_defaults(capsys):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = [a.option_strings[0] for a in sub.choices["score"]._actions if a.dest != "help"]
    assert options == ["--manifest", "--model", "--measures", "--tolerance", "--workers", "--out"]
    assert [f.name for f in dataclasses.fields(harness.RunConfig)] == [
        "measures", "alignment_tolerance", "workers"
    ]
    score = parser.parse_args(["score", "--manifest", "m.csv", "--out", "out"])
    run = harness.RunConfig()
    assert (tuple(score.measures.split(",")), score.tolerance, score.workers) == (
        run.measures, run.alignment_tolerance, run.workers
    )
    # scoring has one front end: a feature flag is not an option
    with pytest.raises(SystemExit) as info:
        main(["score", "--manifest", "m.csv", "--out", "out", "--window", "hann"])
    assert info.value.code == 2
    assert "unrecognized arguments: --window hann" in capsys.readouterr().err
    fixture_args = parser.parse_args(["fixture", "--out", "out"])
    defaults = inspect.signature(fixture.make_fixture_corpus).parameters
    assert tuple(map(float, fixture_args.snrs.split(","))) == defaults["snr_grid"].default
    assert (fixture_args.seed, fixture_args.utts) == (defaults["seed"].default, defaults["n_utts"].default)


def test_the_commands_are_the_pipeline_and_mix(capsys):
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"mix", "score", "correlate", "fixture"}
    for command in ("features", "train-toy"):
        with pytest.raises(SystemExit) as info:
            main([command, "--out", "x"])
        assert info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_mix_command_writes_the_requested_snr(tmp_path):
    rng = np.random.default_rng(0)
    clean = dsp.Waveform(0.3 * np.sin(2 * np.pi * 440 * np.arange(8000) / 16000.0), 16000)
    noise = dsp.Waveform(rng.normal(0, 0.1, 12000), 16000)
    dsp.save_wav(clean, tmp_path / "clean.wav")
    dsp.save_wav(noise, tmp_path / "noise.wav")
    code = main([
        "mix",
        "--clean", str(tmp_path / "clean.wav"),
        "--noise", str(tmp_path / "noise.wav"),
        "--snr", "10",
        "--out", str(tmp_path / "mix.wav"),
    ])
    assert code == 0
    mixed = dsp.load_wav(tmp_path / "mix.wav")
    ref = dsp.load_wav(tmp_path / "clean.wav")
    added = mixed.samples - ref.samples
    snr = 10.0 * np.log10(np.mean(ref.samples**2) / np.mean(added**2))
    # quantization to 16-bit PCM costs a little accuracy
    assert abs(snr - 10.0) < 0.1


@pytest.mark.parametrize("snr", ["4000", "-4000"])
def test_the_mix_command_names_an_snr_without_a_finite_gain(tmp_path, capsys, snr):
    rng = np.random.default_rng(1)
    dsp.save_wav(dsp.Waveform(rng.normal(0, 0.1, 8000), 16000), tmp_path / "clean.wav")
    dsp.save_wav(dsp.Waveform(rng.normal(0, 0.1, 8000), 16000), tmp_path / "noise.wav")
    code = main([
        "mix",
        "--clean", str(tmp_path / "clean.wav"),
        "--noise", str(tmp_path / "noise.wav"),
        f"--snr={snr}",
        "--out", str(tmp_path / "mix.wav"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: SNR {float(snr)} dB gives no finite, nonzero noise gain\n"
    assert not (tmp_path / "mix.wav").exists()


def test_full_pipeline_through_the_cli(tmp_path, mini_corpus):
    corpus = mini_corpus.parent
    out = tmp_path / "run"
    code = main([
        "score",
        "--manifest", str(mini_corpus),
        "--model", str(corpus / "model.json"),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "scores.csv").is_file()
    code = main([
        "correlate",
        "--scores", str(out / "scores.csv"),
        "--group-by", "none",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert "all" in doc["groups"]
    assert (out / "scatter_age.csv").is_file()
    assert (out / "scatter_stoi.csv").is_file()


def test_correlate_accepts_an_explicit_report_path(tmp_path, mini_corpus):
    corpus = mini_corpus.parent
    out = tmp_path / "run"
    assert main([
        "score",
        "--manifest", str(mini_corpus),
        "--model", str(corpus / "model.json"),
        "--measures", "stoi",
        "--out", str(out),
    ]) == 0
    assert main([
        "correlate",
        "--scores", str(out / "scores.csv"),
        "--out", str(out / "stoi_report.json"),
    ]) == 0
    doc = json.loads((out / "stoi_report.json").read_text())
    assert sorted(doc["groups"]["all"]["correlations"]) == ["stoi"]


def test_fixture_command_generates_a_scorable_corpus(tmp_path):
    code = main([
        "fixture",
        "--out", str(tmp_path / "corpus"),
        "--seed", "5",
        "--snrs", "0,15",
        "--utts", "2",
    ])
    assert code == 0
    assert (tmp_path / "corpus" / "manifest.csv").is_file()
    assert (tmp_path / "corpus" / "model.json").is_file()


def test_score_returns_two_when_rows_are_skipped(tmp_path, mini_corpus, capsys):
    corpus = mini_corpus.parent
    entries = harness.load_manifest(mini_corpus)
    manifest = tmp_path / "broken.csv"
    with open(manifest, "w") as fh:
        fh.write("utt_id,clean_path,degraded_path\n")
        fh.write(f"bad,{entries[0].clean_path},{tmp_path / 'missing.wav'}\n")
        fh.write(f"good,{entries[0].clean_path},{entries[0].degraded_path}\n")
    code = main([
        "score",
        "--manifest", str(manifest),
        "--model", str(corpus / "model.json"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "skipped" in err
    skipped = (tmp_path / "out" / "skipped.csv").read_text()
    assert "FileNotFoundError" in skipped


def test_errors_exit_with_code_one(tmp_path, mini_corpus, capsys):
    corpus = mini_corpus.parent
    code = main([
        "score",
        "--manifest", str(mini_corpus),
        "--model", str(corpus / "model.json"),
        "--measures", "age,pesq",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # posterior measures without a model are a configuration error
    code = main([
        "score",
        "--manifest", str(mini_corpus),
        "--out", str(tmp_path / "out2"),
    ])
    assert code == 1


def write_manifest(path, rows):
    with open(path, "w") as fh:
        fh.write("utt_id,clean_path,degraded_path\n")
        for utt_id, clean, degraded in rows:
            fh.write(f"{utt_id},{clean},{degraded}\n")


def read_rows(path):
    with open(path) as fh:
        return {line.split(",")[0]: line for line in fh.read().splitlines()[1:]}


def test_an_8khz_pair_skips_only_its_row(tmp_path, mini_corpus):
    model = str(mini_corpus.parent / "model.json")
    entries = harness.load_manifest(mini_corpus)[:2]
    for side in ("clean", "degraded"):
        wave = dsp.load_wav(getattr(entries[0], f"{side}_path"))
        dsp.save_wav(dsp.resample(wave, 8000), tmp_path / f"{side}8k.wav")
    good = [(e.utt_id, e.clean_path, e.degraded_path) for e in entries]
    low = ("low", tmp_path / "clean8k.wav", tmp_path / "degraded8k.wav")
    write_manifest(tmp_path / "m.csv", good + [low])
    argv = ["score", "--manifest", str(tmp_path / "m.csv"), "--model", model]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert list(read_rows(tmp_path / "out" / "scores.csv")) == [e.utt_id for e in entries]
    reason = read_rows(tmp_path / "out" / "skipped.csv")["low"].split(",", 1)[1]
    assert reason.startswith("ConfigError: mel high edge 7800.0 Hz exceeds Nyquist")
    # a manifest of the 8 kHz pair alone skips every row with the one reason
    write_manifest(tmp_path / "low.csv", [low])
    assert main(["score", "--manifest", str(tmp_path / "low.csv"), "--model", model,
                 "--out", str(tmp_path / "low")]) == 2
    assert (tmp_path / "low" / "scores.csv").read_bytes() == b"utt_id,wer\r\n"
    skipped = read_rows(tmp_path / "low" / "skipped.csv")
    assert list(skipped) == ["low"]
    assert skipped["low"].split(",", 1)[1] == reason


def test_a_pair_at_an_odd_rate_skips_its_stoi_row(tmp_path):
    # Resampling 2000000011 Hz to STOI's 10 kHz would need a 298 GiB filter.
    samples = 0.1 * np.random.default_rng(0).normal(size=4000)
    for name in ("clean", "degraded"):
        dsp.save_wav(dsp.Waveform(samples, 2_000_000_011), tmp_path / f"{name}.wav")
    write_manifest(tmp_path / "m.csv", [("odd", tmp_path / "clean.wav", tmp_path / "degraded.wav")])
    assert main(["score", "--manifest", str(tmp_path / "m.csv"), "--measures", "stoi",
                 "--out", str(tmp_path / "out")]) == 2
    skipped = read_rows(tmp_path / "out" / "skipped.csv")
    assert list(skipped) == ["odd"]
    assert skipped["odd"].split(",", 1)[1].startswith("ValidationError: cannot resample 2000000011 Hz")


def test_malformed_numbers_exit_with_code_one(tmp_path, capsys):
    assert main(["fixture", "--out", str(tmp_path / "fx"), "--snrs=abc"]) == 1
    assert capsys.readouterr().err.startswith("error: --snrs")


def test_the_fixture_command_rejects_a_negative_seed(tmp_path, capsys):
    assert main(["fixture", "--out", str(tmp_path / "fx"), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"
    assert not (tmp_path / "fx").exists()


def test_tolerance_flag_also_governs_stoi(tmp_path, mini_corpus):
    corpus = mini_corpus.parent
    entry = harness.load_manifest(mini_corpus)[0]
    clean = dsp.load_wav(entry.clean_path)
    shorter = dsp.Waveform(clean.samples[: int(clean.samples.size * 0.97)], clean.sample_rate_hz)
    dsp.save_wav(shorter, tmp_path / "short.wav")
    write_manifest(tmp_path / "m.csv", [("short", entry.clean_path, tmp_path / "short.wav")])
    argv = ["score", "--manifest", str(tmp_path / "m.csv"), "--model", str(corpus / "model.json")]
    assert main(argv + ["--tolerance", "0.05", "--out", str(tmp_path / "wide")]) == 0
    (row,) = harness.load_scores_csv(tmp_path / "wide" / "scores.csv").rows()
    assert sorted(row.values) == ["age", "entropy", "stoi"]
    assert main(argv + ["--out", str(tmp_path / "default")]) == 2
    assert "short" in read_rows(tmp_path / "default" / "skipped.csv")


def test_a_nan_sample_skips_only_its_row(tmp_path, mini_corpus):
    corpus = mini_corpus.parent
    entry = harness.load_manifest(mini_corpus)[0]
    samples = dsp.load_wav(entry.degraded_path).samples.astype(np.float32)
    samples[samples.size // 2] = np.nan
    wavfile.write(tmp_path / "nan.wav", 16000, samples)
    write_manifest(
        tmp_path / "m.csv",
        [("good", entry.clean_path, entry.degraded_path), ("nan", entry.clean_path, tmp_path / "nan.wav")],
    )
    for measures in ("age,entropy,stoi", "stoi"):
        out = tmp_path / measures.replace(",", "_")
        assert main([
            "score", "--manifest", str(tmp_path / "m.csv"), "--model", str(corpus / "model.json"),
            "--measures", measures, "--out", str(out),
        ]) == 2
        assert list(read_rows(out / "scores.csv")) == ["good"]
        assert "FormatError" in read_rows(out / "skipped.csv")["nan"]


def test_a_truncated_wav_skips_only_its_row(tmp_path, mini_corpus):
    # scipy alone reads the cut file short, with only a warning.
    corpus = mini_corpus.parent
    entry = harness.load_manifest(mini_corpus)[0]
    (tmp_path / "cut.wav").write_bytes(Path(entry.degraded_path).read_bytes()[:-200])
    write_manifest(
        tmp_path / "m.csv",
        [("good", entry.clean_path, entry.degraded_path), ("cut", entry.clean_path, tmp_path / "cut.wav")],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", wavfile.WavFileWarning)
        assert main([
            "score", "--manifest", str(tmp_path / "m.csv"), "--model", str(corpus / "model.json"),
            "--out", str(tmp_path / "out"),
        ]) == 2
    assert list(read_rows(tmp_path / "out" / "scores.csv")) == ["good"]
    with open(tmp_path / "out" / "skipped.csv", newline="") as fh:
        [(utt_id, reason)] = list(csv.reader(fh))[1:]
    assert utt_id == "cut"
    assert reason.startswith("FormatError: ") and "truncated: the data chunk ends" in reason


@pytest.mark.parametrize(
    "row, detail", [("u2,20.0,abc", "age"), ("u2,20.0,nan", "age"), ("u2,20.0,inf", "age"),
                    ("u2,20.0", "fewer fields")],
)
def test_correlate_rejects_bad_measure_cells(tmp_path, capsys, row, detail):
    lines = ["utt_id,wer,age"] + [f"u{i},{10.0 * i},{0.5 * i}" for i in range(5)]
    lines[3] = row
    (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
    assert main(["correlate", "--scores", str(tmp_path / "scores.csv"), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scores.csv:4" in err and detail in err


@pytest.mark.parametrize("header, group_by, detail", [
    ("utt_id,wer,age,age,snr_db", "none", "scores.csv:1: header repeats column 'age'"),
    ("utt_id,wer,age,snr_db,snr_db", "snr_db", "scores.csv:1: header repeats column 'snr_db'"),
    ("utt_id,wer,age,snr_db,x", "snr", "no row carries the tag 'snr'; tags: ['snr_db', 'x']"),
], ids=["repeated measure", "repeated tag", "absent group tag"])
def test_correlate_rejects_an_ambiguous_column_or_an_absent_group(
    tmp_path, capsys, header, group_by, detail
):
    lines = [header] + [f"u{i},{10.0 * i},{0.5 * i},{0.1 * i},{i % 2}" for i in range(6)]
    (tmp_path / "scores.csv").write_text("\n".join(lines) + "\n")
    assert main(["correlate", "--scores", str(tmp_path / "scores.csv"), "--group-by", group_by,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and detail in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_logistic_fit_out_of_float_range_is_skipped_without_a_warning(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "utt_id,wer,age,stoi\nu0,0.0,2.17e307,0.9\nu1,1.0,0.75,0.5\nu2,99.0,0.0,0.1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["correlate", "--scores", str(scores), "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(report["groups"]["all"]["correlations"]) == ["stoi"]
    reason = report["skipped"]["all/age"]
    assert reason.startswith("NumericError:")
    # the skip lines are all that reach stderr: the group's fit and the
    # curve's, the same fit over the same rows
    assert capsys.readouterr().err == (
        f"skipped group all/age: {reason}\nskipped curve age: {reason}\n"
    )
    assert not (tmp_path / "out" / "scatter_age.csv").exists()


def test_a_group_mean_out_of_float_range_is_skipped_without_a_warning(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "utt_id,wer,age,stoi\nu0,0.0,1.5e308,0.9\nu1,1.0,1.5e308,0.5\nu2,99.0,0.0,0.1\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["correlate", "--scores", str(scores), "--out", str(tmp_path / "out")])
    assert code == 0

    def reject(constant):
        raise AssertionError(f"{constant} in report.json")

    report = json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=reject)
    reason = report["skipped"]["all/age"]
    assert reason == "NumericError: the mean of age leaves the float64 range"
    assert sorted(report["groups"]["all"]["means"]) == ["stoi", "wer"]
    assert sorted(report["groups"]["all"]["correlations"]) == ["stoi"]
    assert capsys.readouterr().err == (
        f"skipped group all/age: {reason}\n"
        "skipped curve age: NumericError: measure values out of range for the logistic fit's start\n"
    )


def kill_this_process(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_dead_pool_worker_exits_with_code_one(tmp_path, mini_corpus, monkeypatch, capfd):
    monkeypatch.setattr(harness, "_score_group", kill_this_process)
    code = main(["score", "--manifest", str(mini_corpus), "--model",
                 str(mini_corpus.parent / "model.json"), "--workers", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capfd.readouterr().err
    assert err.startswith("error: ") and "terminated abruptly" in err
    assert "Traceback" not in err


# Calls the helper that main() calls, frees a 16 MiB block, allocates it again
# and prints the page faults the second allocation took.
_REUSE_PROBE = """
import resource
import numpy as np
from ageval import cli
cli._keep_freed_heap()
block = np.ones(2 << 20)
del block
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
block = np.ones(2 << 20)
del block
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(cli.ctypes.CDLL(None), "mallopt"), reason="C library without mallopt")
def test_a_freed_block_is_reused_without_page_faults():
    src = str(Path(ageval.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _REUSE_PROBE], env={**os.environ, "PYTHONPATH": path},
                          check=True, capture_output=True, text=True, timeout=120)
    # glibc's defaults map such a block afresh, which took about 400 faults.
    assert int(done.stdout) < 100


# Imports the command line, runs the command its arguments name and prints the
# exit code and every scipy.io module then loaded.
_SCIPY_IO_PROBE = """
import sys
from ageval import cli
code = cli.main(sys.argv[1:])
print(code, sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "io"]))
"""


def test_import_and_a_score_run_load_no_scipy_io_module(mini_corpus, tmp_path):
    src = str(Path(ageval.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    args = ["score", "--manifest", str(mini_corpus), "--model", str(mini_corpus.parent / "model.json"),
            "--workers", "1", "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-c", _SCIPY_IO_PROBE, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          check=True, capture_output=True, text=True, timeout=300)
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "scores.csv").exists()


# Runs the commands its argument lines name, one after another in a working
# directory of its own, and prints their exit codes.
_PIPELINE_PROBE = """
import os, sys
from ageval import cli
os.chdir(sys.argv[1])
print(*(cli.main(line.split()) for line in sys.argv[2:]))
"""


def test_the_pipeline_opens_every_text_file_as_utf8(tmp_path):
    """EncodingWarning marks a text file opened in the locale's encoding; here it is an error."""
    src = str(Path(ageval.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    commands = [
        "fixture --out corpus --seed 0 --utts 2 --snrs=-5,5,15",
        "score --manifest corpus/manifest.csv --model corpus/model.json --workers 2 --out run",
        "correlate --scores run/scores.csv --out report",
        "mix --clean corpus/clean/utt000.wav --noise corpus/clean/utt001.wav --snr 5 --out mix.wav",
    ]
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", _PIPELINE_PROBE, str(tmp_path), *commands],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 0 0 0"


def test_keep_freed_heap_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    cli._keep_freed_heap()


def test_os_errors_exit_with_code_one(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("utt_id,wer,age\n" + "".join(f"u{i},{10.0 * i},{0.5 * i}\n" for i in range(5)))
    assert main(["correlate", "--scores", str(scores), "--out", str(scores / "sub")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["score", "--manifest", str(tmp_path), "--measures", "stoi",
                 "--out", str(tmp_path / "out")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("weight", float("nan")), ("bias", float("inf"))])
def test_a_model_with_non_finite_weights_exits_with_code_one(
    tmp_path, mini_corpus, capsys, field, value
):
    doc = json.loads((mini_corpus.parent / "model.json").read_text())
    doc["layers"][0][field][0] = value
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert main([
        "score", "--manifest", str(mini_corpus), "--model", str(tmp_path / "model.json"),
        "--out", str(tmp_path / "out"),
    ]) == 1
    assert capsys.readouterr().err.startswith("error: layer weights and biases must be finite")
    assert not (tmp_path / "out").exists()


def test_a_model_whose_softmax_layer_has_no_rows_exits_with_code_one(tmp_path, mini_corpus, capsys):
    doc = json.loads((mini_corpus.parent / "model.json").read_text())
    doc["layers"][-1].update(out_dim=0, weight=[], bias=[])
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert main([
        "score", "--manifest", str(mini_corpus), "--model", str(tmp_path / "model.json"),
        "--out", str(tmp_path / "out"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: layer weight must have at least one row and one column")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def write_grid_scores(path, n_groups):
    """A scores file of n_groups snr_db groups of 6 rows, every row carrying all three measures."""
    rng = np.random.default_rng(11)
    bounds = ((5.0, 95.0), (0.5, 3.0), (0.1, 2.0), (0.2, 0.9))
    lines = ["utt_id,wer,age,entropy,stoi,snr_db"]
    for g in range(n_groups):
        for i in range(6):
            cells = [repr(rng.uniform(lo, hi)) for lo, hi in bounds]
            lines.append(",".join([f"u{g}_{i}", *cells, str(5 * g)]))
    path.write_text("\n".join(lines) + "\n")
    return path


def count_fits(monkeypatch):
    """Count the items fit_logistic fits through both bindings that reach it: one per call,
    or a stack's size."""
    calls = []
    fit = stats.fit_logistic

    def counted(*args, **kwargs):
        m = np.asarray(args[0])
        calls.extend([args] * (len(m) if m.ndim == 2 else 1))
        return fit(*args, **kwargs)

    for module in (stats, harness):
        monkeypatch.setattr(module, "fit_logistic", counted)
    return calls


@pytest.mark.parametrize("group_by, fits", [("none", 3), ("snr_db", 6 * 3 + 3)])
def test_correlate_fits_each_group_and_each_curve_once(tmp_path, monkeypatch, group_by, fits):
    scores = write_grid_scores(tmp_path / "scores.csv", 6)
    calls = count_fits(monkeypatch)
    out = tmp_path / "out"
    assert main(["correlate", "--scores", str(scores), "--group-by", group_by, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["skipped"] == {}
    assert all(len(g["correlations"]) == 3 for g in report["groups"].values())
    assert sorted(p.name for p in out.glob("scatter_*")) == [
        "scatter_age.csv", "scatter_entropy.csv", "scatter_stoi.csv"]
    assert len(calls) == fits
    # emit_report only writes
    correlation = harness.correlate_by_group(harness.load_scores_csv(scores), None)
    calls.clear()
    harness.emit_report(correlation, tmp_path / "again")
    assert calls == []


def test_correlate_reports_a_partly_carried_measure_as_skipped(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "utt_id,wer,age,stoi,g\n"
        "u1,10.0,0.5,0.9,x\n"
        "u2,30.0,1.5,0.7,x\n"
        "u3,55.0,2.5,,x\n"
        "u4,70.0,3.5,0.4,x\n"
        "u5,90.0,4.5,0.2,x\n"
    )
    out = tmp_path / "out"
    assert main(["correlate", "--scores", str(scores), "--group-by", "g", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["skipped"] == {"x/stoi": "carried by 4 of 5 rows with wer"}
    assert sorted(report["groups"]["x"]["means"]) == ["age", "stoi", "wer"]
    assert sorted(report["groups"]["x"]["correlations"]) == ["age"]
    assert "skipped group x/stoi: carried by 4 of 5 rows with wer" in capsys.readouterr().err


def test_correlate_names_a_measure_whose_scatter_curve_fit_raises(tmp_path, capsys):
    scores = write_grid_scores(tmp_path / "scores.csv", 2)
    lines = scores.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2] = "1e307"  # one age cell of group 0 overflows the fits that include it
    lines[1] = ",".join(cells)
    scores.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["correlate", "--scores", str(scores), "--group-by", "snr_db", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert sorted(report["groups"]["5"]["correlations"]) == ["age", "entropy", "stoi"]
    assert sorted(report["skipped"]) == ["0/age"]
    assert capsys.readouterr().err.splitlines() == [
        f"skipped group 0/age: {report['skipped']['0/age']}",
        "skipped curve age: NumericError: measure values out of range for the logistic fit's start",
    ]
    assert not (out / "scatter_age.csv").exists()
    assert (out / "scatter_entropy.csv").exists() and (out / "scatter_stoi.csv").exists()


def test_correlate_treats_a_dotted_out_path_as_a_directory(tmp_path):
    scores = write_grid_scores(tmp_path / "scores.csv", 1)
    run = tmp_path / "outs" / "run.v2"
    assert main(["correlate", "--scores", str(scores), "--out", str(run)]) == 0
    assert sorted(p.name for p in (tmp_path / "outs").iterdir()) == ["run.v2"]
    assert sorted(p.name for p in run.iterdir()) == [
        "report.json", "scatter_age.csv", "scatter_entropy.csv", "scatter_stoi.csv", "scores.csv"]
    # a .json suffix in any case names the report
    assert main(["correlate", "--scores", str(scores), "--out", str(run / "Named.JSON")]) == 0
    assert json.loads((run / "Named.JSON").read_text())["groups"]["all"]["n_rows"] == 6
