"""Command line entry points, exercised through main()."""

import json
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from ageval import dsp, harness
from ageval.cli import main


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


def test_features_command_matches_the_library(tmp_path):
    rng = np.random.default_rng(1)
    wave = dsp.Waveform(rng.normal(0, 0.1, 8000), 16000)
    dsp.save_wav(wave, tmp_path / "x.wav")
    code = main([
        "features",
        "--in", str(tmp_path / "x.wav"),
        "--kind", "mfcc",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 0
    saved = dsp.load_features(tmp_path / "x.csv", feature_kind="mfcc")
    direct = dsp.mfcc(dsp.load_wav(tmp_path / "x.wav"))
    assert np.array_equal(saved.values, direct.values)


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


def test_train_toy_command_round_trips(tmp_path):
    rng = np.random.default_rng(2)
    low = rng.normal(-1.0, 0.3, (80, 6))
    high = rng.normal(1.0, 0.3, (80, 6))
    feats = dsp.FeatureMatrix(np.vstack([low, high]), "fbank", 10.0)
    dsp.save_features(feats, tmp_path / "train.csv")
    np.savetxt(tmp_path / "labels.txt", [0] * 80 + [1] * 80, fmt="%d")
    code = main([
        "train-toy",
        "--features", str(tmp_path / "train.csv"),
        "--labels", str(tmp_path / "labels.txt"),
        "--hidden", "8",
        "--lr", "0.5",
        "--epochs", "80",
        "--out", str(tmp_path / "model.json"),
    ])
    assert code == 0
    from ageval import am

    model = am.load_model(tmp_path / "model.json")
    assert am.frame_error_rate(model, feats, [0] * 80 + [1] * 80) < 5.0


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
    # a feature flag that no row can satisfy skips every row with the same reason
    write_manifest(tmp_path / "good.csv", good)
    assert main(["score", "--manifest", str(tmp_path / "good.csv"), "--model", model,
                 "--fft-size", "256", "--out", str(tmp_path / "fft")]) == 2
    skipped = read_rows(tmp_path / "fft" / "skipped.csv")
    assert sorted(skipped) == sorted(e.utt_id for e in entries)
    assert {line.split(",", 1)[1] for line in skipped.values()} == {
        "ConfigError: fft_size 256 is smaller than the 400-sample frame"
    }


def test_malformed_numbers_exit_with_code_one(tmp_path, capsys):
    assert main(["fixture", "--out", str(tmp_path / "fx"), "--snrs=abc"]) == 1
    assert capsys.readouterr().err.startswith("error: --snrs")
    feats = dsp.FeatureMatrix(np.zeros((2, 3)), "fbank", 10.0)
    dsp.save_features(feats, tmp_path / "f.csv")
    (tmp_path / "labels.txt").write_text("x\n")
    argv = ["train-toy", "--features", str(tmp_path / "f.csv"), "--out", str(tmp_path / "m.json")]
    assert main(argv + ["--labels", str(tmp_path / "labels.txt")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'labels.txt'}")
    (tmp_path / "labels.txt").write_text("0\n1\n")
    assert main(argv + ["--labels", str(tmp_path / "labels.txt"), "--hidden", "4,x"]) == 1
    assert capsys.readouterr().err.startswith("error: --hidden")


def test_tolerance_flag_also_governs_stoi(tmp_path, mini_corpus):
    corpus = mini_corpus.parent
    entry = harness.load_manifest(mini_corpus)[0]
    clean = dsp.load_wav(entry.clean_path)
    shorter = dsp.Waveform(clean.samples[: int(clean.samples.size * 0.97)], clean.sample_rate_hz)
    dsp.save_wav(shorter, tmp_path / "short.wav")
    write_manifest(tmp_path / "m.csv", [("short", entry.clean_path, tmp_path / "short.wav")])
    argv = ["score", "--manifest", str(tmp_path / "m.csv"), "--model", str(corpus / "model.json")]
    assert main(argv + ["--tolerance", "0.05", "--out", str(tmp_path / "wide")]) == 0
    (row,) = harness.load_scores_csv(tmp_path / "wide" / "scores.csv")
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
    # the skip line is all that reaches stderr
    assert capsys.readouterr().err == f"skipped group all/age: {reason}\n"
    assert not (tmp_path / "out" / "scatter_age.csv").exists()


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
