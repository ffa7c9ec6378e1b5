"""Synthetic corpus generator."""

import filecmp
from pathlib import Path

import numpy as np
import pytest

from ageval import am, dsp, harness
from ageval.errors import ConfigError
from ageval.fixture import make_fixture_corpus


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
