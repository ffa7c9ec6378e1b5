"""Synthetic corpus generator."""

import csv
import filecmp
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import ageval
from ageval import am, dsp, fixture, harness
from ageval.errors import ConfigError
from ageval.fixture import make_fixture_corpus


def sequential_fixture(out, seed, snr_grid, n_utts, epochs):
    """The corpus built one step after another on one thread: the reference.

    Returns the manifest's (utt_id, degraded_path, wer) rows.
    """
    for sub in ("clean", "degraded"):
        (out / sub).mkdir(parents=True)
    fspec, mspec = dsp.FrameSpec(), dsp.MelSpec()
    rng = np.random.default_rng(seed)
    clean_waves, labels = [], []
    for u in range(n_utts):
        samples, spans = fixture._synth_utterance(rng)
        dsp.save_wav(dsp.Waveform(samples, fixture.SAMPLE_RATE), out / "clean" / f"utt{u:03d}.wav")
        clean_waves.append(dsp.load_wav(out / "clean" / f"utt{u:03d}.wav"))
        labels.append(fixture._frame_labels(samples.size, spans, fspec))
    noise = dsp.Waveform(rng.normal(0.0, 1.0, size=int(1.5 * fixture.SAMPLE_RATE)),
                         fixture.SAMPLE_RATE)
    with am._one_blas_thread():
        model = am.train_toy(
            [dsp.mvn(dsp.fbank(w, fspec, mspec)) for w in clean_waves], labels,
            hidden_dims=(32,), activation="sigmoid", learning_rate=1.0, epochs=epochs,
            seed=seed + 1, n_classes=fixture.N_TONE_CLASSES + 1, left_context=2,
            right_context=2,
        )
        am.save_model(model, out / "model.json")
        rows = []
        for u in range(n_utts):
            for snr_db in snr_grid:
                offset = int(rng.integers(0, noise.samples.size))
                mixed = dsp.mix_at_snr(clean_waves[u], noise, snr_db, offset)
                name = f"utt{u:03d}_snr{fixture._snr_name(snr_db)}.wav"
                dsp.save_wav(mixed, out / "degraded" / name)
                feats = dsp.mvn(dsp.fbank(dsp.load_wav(out / "degraded" / name), fspec, mspec))
                wer = am.frame_error_rate(model, feats, labels[u])
                rows.append((name[:-4], f"degraded/{name}", repr(wer)))
    return rows


def test_corpus_layout_and_manifest(mini_corpus):
    root = mini_corpus.parent
    entries = harness.load_manifest(mini_corpus)
    assert len(entries) == 8  # 4 utterances x 2 SNRs
    assert (root / "model.json").is_file()
    for entry in entries:
        assert Path(entry.clean_path).is_file()
        assert Path(entry.degraded_path).is_file()
        assert entry.wer_percent is not None
        assert 0.0 <= entry.wer_percent <= 100.0
        assert set(entry.tags) >= {"snr_db", "noise_type", "se_algo", "condition"}
    snrs = {e.tags["snr_db"] for e in entries}
    assert snrs == {"0.0", "20.0"}


def test_labels_align_with_feature_frames(mini_corpus):
    root = mini_corpus.parent
    entries = harness.load_manifest(mini_corpus)
    clean_paths = sorted({e.clean_path for e in entries})
    for clean_path in clean_paths:
        utt = Path(clean_path).stem
        labels = np.loadtxt(root / "labels" / f"{utt}.txt", dtype=np.int64)
        feats = dsp.fbank(dsp.load_wav(clean_path))
        assert labels.shape == (feats.n_frames,)
        assert labels.min() >= 0 and labels.max() <= 4


def test_model_scores_clean_speech_better_than_noise(mini_corpus):
    root = mini_corpus.parent
    entries = harness.load_manifest(mini_corpus)
    by_snr = {}
    for entry in entries:
        by_snr.setdefault(float(entry.tags["snr_db"]), []).append(entry.wer_percent)
    assert np.mean(by_snr[0.0]) > np.mean(by_snr[20.0])


def test_generation_is_byte_deterministic(tmp_path):
    kwargs = dict(seed=3, snr_grid=(5.0,), n_utts=2, epochs=30)
    first = make_fixture_corpus(tmp_path / "one", **kwargs)
    second = make_fixture_corpus(tmp_path / "two", **kwargs)
    rel_one = sorted(
        p.relative_to(first.parent) for p in first.parent.rglob("*") if p.is_file()
    )
    rel_two = sorted(
        p.relative_to(second.parent) for p in second.parent.rglob("*") if p.is_file()
    )
    assert rel_one == rel_two
    for rel in rel_one:
        assert filecmp.cmp(first.parent / rel, second.parent / rel, shallow=False), rel


def test_the_overlapped_fixture_equals_the_sequential_reference(tmp_path):
    kwargs = dict(seed=5, snr_grid=(0.0, 15.0), n_utts=3, epochs=20)
    manifest = make_fixture_corpus(tmp_path / "overlapped", **kwargs)
    rows = sequential_fixture(tmp_path / "sequential", **kwargs)
    with open(manifest, newline="") as fh:
        got = [(r["utt_id"], r["degraded_path"], r["wer"]) for r in csv.DictReader(fh)]
    assert got == rows
    overlapped = manifest.parent
    names = ["model.json"] + [f"degraded/{p.name}" for p in (overlapped / "degraded").iterdir()]
    assert len(names) == 1 + 3 * 2
    for name in names:
        assert (overlapped / name).read_bytes() == (tmp_path / "sequential" / name).read_bytes(), name


def test_a_failed_degraded_write_leaves_with_its_own_error(tmp_path, monkeypatch):
    real_save_wav = dsp.save_wav
    degraded_writes = []

    def save_wav(wave, path):
        if Path(path).parent.name == "degraded":
            degraded_writes.append(path)
            if len(degraded_writes) == 2:
                raise OSError(f"disk full writing {path}")
        real_save_wav(wave, path)

    monkeypatch.setattr(dsp, "save_wav", save_wav)
    with pytest.raises(OSError, match="disk full"):
        make_fixture_corpus(tmp_path / "corpus", snr_grid=(0.0, 10.0), n_utts=2, epochs=2)
    assert not (tmp_path / "corpus" / "manifest.csv").exists()


def test_a_failed_training_cancels_the_rows_not_yet_started(tmp_path, monkeypatch):
    real_fbank = dsp.fbank
    helper_calls = []

    def fbank(*args):
        if threading.current_thread() is not threading.main_thread():
            helper_calls.append(args)
            time.sleep(0.01)  # keep the helper slower than the failure
        return real_fbank(*args)

    def train_toy(*args, **kwargs):
        raise RuntimeError("training failed")

    monkeypatch.setattr(dsp, "fbank", fbank)
    monkeypatch.setattr(am, "train_toy", train_toy)
    snrs = tuple(float(s) for s in range(10))
    with pytest.raises(RuntimeError, match="training failed"):
        make_fixture_corpus(tmp_path / "corpus", snr_grid=snrs, n_utts=2, epochs=1)
    assert len(helper_calls) < 2 * len(snrs)


def test_the_model_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Four utterances are the fewest whose unpinned training differed with 1 and 2 threads.
    src = str(Path(ageval.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-m", "ageval.cli", "fixture", "--out", str(out),
                        "--utts", "4", "--snrs", "0"], env=env, check=True,
                       capture_output=True, timeout=300)
        outputs.append([(out / name).read_bytes() for name in ("model.json", "manifest.csv")])
    assert outputs[0] == outputs[1]


def test_different_seeds_give_different_audio(tmp_path):
    a = make_fixture_corpus(tmp_path / "a", seed=1, snr_grid=(10.0,), n_utts=1, epochs=5)
    b = make_fixture_corpus(tmp_path / "b", seed=2, snr_grid=(10.0,), n_utts=1, epochs=5)
    wav_a = dsp.load_wav(harness.load_manifest(a)[0].clean_path)
    wav_b = dsp.load_wav(harness.load_manifest(b)[0].clean_path)
    assert wav_a.samples.size != wav_b.samples.size or not np.array_equal(
        wav_a.samples, wav_b.samples
    )


def test_trained_model_loads_and_matches_feature_dims(mini_corpus):
    model = am.load_model(mini_corpus.parent / "model.json")
    entries = harness.load_manifest(mini_corpus)
    feats = dsp.mvn(dsp.fbank(dsp.load_wav(entries[0].clean_path)))
    post = am.forward(model, feats)
    assert post.values.shape == (feats.n_frames, 5)


def test_an_empty_snr_grid_is_rejected_before_any_file_is_written(tmp_path):
    with pytest.raises(ConfigError):
        make_fixture_corpus(tmp_path / "corpus", snr_grid=[], n_utts=1, epochs=1)
    assert not (tmp_path / "corpus").exists()
