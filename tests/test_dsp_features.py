"""Framing, log mel filterbank, cepstra, splicing, normalization and feature files."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ageval import dsp, measures
from ageval.errors import ConfigError, FormatError, TooShortError, ValidationError


def noise_wave(n, rate=16000, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return dsp.Waveform(rng.normal(0, scale, n), rate)


# framing ---------------------------------------------------------------

def test_frame_count_matches_closed_form_for_default_spec():
    # 25 ms / 10 ms at 16 kHz: 400-sample frames, 160-sample shift
    rng = np.random.default_rng(2)
    spec = dsp.FrameSpec()
    for _ in range(100):
        n = int(rng.integers(400, 20000))
        frames = dsp.frame_signal(noise_wave(n), spec)
        assert frames.shape == (1 + (n - 400) // 160, 400)


@given(
    n=st.integers(min_value=512, max_value=6000),
    frame_ms=st.sampled_from([16.0, 20.0, 25.0, 32.0]),
    shift_ms=st.sampled_from([5.0, 8.0, 10.0, 16.0]),
)
@settings(max_examples=60, deadline=None)
def test_frame_count_property(n, frame_ms, shift_ms):
    rate = 16000
    frame_len = int(round(frame_ms * rate / 1000.0))
    shift = int(round(shift_ms * rate / 1000.0))
    spec = dsp.FrameSpec(
        frame_length_ms=frame_ms, frame_shift_ms=shift_ms, fft_size=1024
    )
    frames = dsp.frame_signal(dsp.Waveform(np.ones(n), rate), spec)
    assert frames.shape == (1 + (n - frame_len) // shift, frame_len)


def test_signal_shorter_than_one_frame_rejected():
    with pytest.raises(TooShortError):
        dsp.frame_signal(noise_wave(100), dsp.FrameSpec())


def test_preemphasis_on_constant_signal():
    # y[t] = x[t] - 0.97 x[t-1] = 0.03 c for t >= 1, and y[0] = x[0] = c
    spec = dsp.FrameSpec(window_kind="rectangular", preemphasis=0.97)
    frames = dsp.frame_signal(dsp.Waveform(np.full(3200, 0.5), 16000), spec)
    assert frames[0, 0] == 0.5
    assert_allclose(frames[0, 1:], 0.03 * 0.5, rtol=0, atol=1e-15)
    assert_allclose(frames[1:], 0.03 * 0.5, rtol=0, atol=1e-15)


def test_window_is_applied_per_frame():
    spec = dsp.FrameSpec(window_kind="hamming", preemphasis=0.0)
    frames = dsp.frame_signal(dsp.Waveform(np.full(800, 0.5), 16000), spec)
    assert_allclose(frames[0], 0.5 * np.hamming(400), rtol=0, atol=0)


def index_matrix_frames(waveform, spec):
    """Frames gathered through an explicit (n_frames, frame_len) index matrix."""
    sr = waveform.sample_rate_hz
    frame_len = spec.frame_length_samples(sr)
    frame_shift = spec.frame_shift_samples(sr)
    x = waveform.samples
    if spec.preemphasis > 0.0:
        x = np.concatenate(([x[0]], x[1:] - spec.preemphasis * x[:-1]))
    n_frames = 1 + (x.size - frame_len) // frame_shift
    idx = frame_shift * np.arange(n_frames)[:, None] + np.arange(frame_len)[None, :]
    window = {"hamming": np.hamming, "hann": np.hanning, "rectangular": np.ones}[spec.window_kind]
    return x[idx] * window(frame_len)


@given(
    n=st.integers(min_value=512, max_value=8000),
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(-6.0, 1.0),
    frame_ms=st.sampled_from([16.0, 25.0, 32.0]),
    shift_ms=st.sampled_from([5.0, 10.0, 16.0]),
    window_kind=st.sampled_from(dsp.WINDOW_KINDS),
    preemphasis=st.sampled_from([0.0, 0.97]),
)
@settings(max_examples=80, deadline=None)
def test_frame_signal_is_bit_identical_to_an_index_matrix_gather(
    n, seed, level, frame_ms, shift_ms, window_kind, preemphasis
):
    spec = dsp.FrameSpec(frame_ms, min(shift_ms, frame_ms), window_kind, preemphasis, 1024)
    wave = noise_wave(n, seed=seed, scale=10.0**level)
    got = dsp.frame_signal(wave, spec)
    want = index_matrix_frames(wave, spec)
    assert got.shape == want.shape
    assert got.tobytes().hex() == want.tobytes().hex()


@given(
    rates=st.sampled_from([(16000, 10000), (8000, 10000), (44100, 16000)]),
    n=st.integers(min_value=1, max_value=6000),
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(-6.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_resample_is_bit_identical_to_scipy_resample_poly(rates, n, seed, level):
    # Fails when a scipy upgrade changes the filter resample_poly designs by default.
    source, target = rates
    wave = noise_wave(n, rate=source, seed=seed, scale=10.0**level)
    g = np.gcd(source, target)
    target_len = int(round(n * target / source))
    if target_len < 1:
        with pytest.raises(TooShortError):
            dsp.resample(wave, target)
        return
    want = scipy.signal.resample_poly(wave.samples, target // g, source // g)[:target_len]
    assert dsp.resample(wave, target).samples.tobytes().hex() == want.tobytes().hex()


def test_frame_spec_validation():
    with pytest.raises(ValidationError):
        dsp.FrameSpec(fft_size=500)
    with pytest.raises(ValidationError):
        dsp.FrameSpec(frame_shift_ms=0.0)
    with pytest.raises(ValidationError):
        dsp.FrameSpec(window_kind="kaiser")
    with pytest.raises(ValidationError):
        dsp.FrameSpec(preemphasis=1.5)


# filterbank and cepstra ------------------------------------------------

def test_fbank_of_silence_is_exactly_the_log_floor():
    fb = dsp.fbank(dsp.Waveform(np.zeros(4000), 16000))
    assert fb.feature_kind == "fbank"
    assert fb.dim == 40
    assert np.all(fb.values == np.log(1e-10))


def test_fbank_peaks_at_the_filter_matching_a_pure_tone():
    mel_spec = dsp.MelSpec()
    centers = dsp.mel_center_frequencies_hz(mel_spec)
    t = np.arange(16000) / 16000.0
    for k in (5, 20, 34):
        tone = dsp.Waveform(0.3 * np.sin(2 * np.pi * centers[k] * t), 16000)
        fb = dsp.fbank(tone, mel_spec=mel_spec)
        assert np.argmax(fb.values.mean(axis=0)) == k


def test_mel_center_frequencies_are_increasing_and_inside_range():
    mel_spec = dsp.MelSpec(n_filters=40, low_freq_hz=20.0, high_freq_hz=7800.0)
    centers = dsp.mel_center_frequencies_hz(mel_spec)
    assert centers.shape == (40,)
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 20.0 and centers[-1] < 7800.0


def test_mel_filterbank_rows_are_bounded_triangles():
    fb = dsp.mel_filterbank(dsp.MelSpec(), 16000, 512)
    assert fb.shape == (40, 257)
    # triangles peak at 1 at their centers; sampled on the bin grid the
    # maxima stay at or below that
    assert np.all(fb >= 0.0)
    assert np.all(fb <= 1.0 + 1e-12)
    assert np.all(fb.max(axis=1) > 0.5)


def test_cached_constants_are_read_only():
    constants = [
        dsp._window("hamming", 400),
        dsp._resample_taps(5, 8),
        dsp._mel_filterbank(dsp.MelSpec(), 16000, 512),
        measures._stoi_window(),
        measures._third_octave_bands(),
    ]
    for constant in constants:
        with pytest.raises(ValueError):
            constant[(0,) * constant.ndim] = 1.0


def test_fbank_calls_with_equal_specs_share_one_filterbank():
    spec = dsp.MelSpec(n_filters=23, high_freq_hz=6500.0)
    before = dsp._mel_filterbank.cache_info()
    wave = noise_wave(4000, seed=6)
    first = dsp.fbank(wave, mel_spec=spec)
    second = dsp.fbank(wave, mel_spec=dsp.MelSpec(n_filters=23, high_freq_hz=6500.0))
    after = dsp._mel_filterbank.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert np.array_equal(first.values, second.values)
    assert dsp._mel_filterbank(spec, 16000, 512) is dsp._mel_filterbank(
        dsp.MelSpec(n_filters=23, high_freq_hz=6500.0), 16000, 512
    )


def test_mel_filterbank_returns_an_array_the_caller_owns():
    fb = dsp.mel_filterbank(dsp.MelSpec(), 16000, 512)
    assert fb.flags.writeable
    fb[0, :] = 7.0
    assert np.all(dsp.mel_filterbank(dsp.MelSpec(), 16000, 512) <= 1.0 + 1e-12)
    assert np.all(dsp.fbank(noise_wave(4000, seed=8)).values < 7.0)


def test_mfcc_is_the_orthonormal_dct_of_fbank_rows():
    w = noise_wave(4800, seed=4)
    fb = dsp.fbank(w)
    mf = dsp.mfcc(w)
    n = fb.dim
    k = np.arange(n)[:, None]
    basis = np.cos(np.pi * (2 * np.arange(n)[None, :] + 1) * k / (2 * n))
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    reference = (fb.values @ basis.T) * scale[None, :]
    assert mf.feature_kind == "mfcc"
    assert mf.dim == 13
    assert_allclose(mf.values, reference[:, :13], rtol=0, atol=1e-10)


def test_mfcc_of_silence_is_a_pure_dc_cepstrum():
    mf = dsp.mfcc(dsp.Waveform(np.zeros(4000), 16000))
    assert_allclose(mf.values[:, 0], np.log(1e-10) * np.sqrt(40.0), rtol=1e-12)
    assert np.all(mf.values[:, 1:] == 0.0)


def test_mel_high_edge_above_nyquist_rejected():
    with pytest.raises(ConfigError):
        dsp.fbank(noise_wave(1600), mel_spec=dsp.MelSpec(high_freq_hz=9000.0))


def test_fft_shorter_than_frame_rejected():
    spec = dsp.FrameSpec(frame_length_ms=40.0, fft_size=512)
    with pytest.raises(ConfigError):
        dsp.fbank(noise_wave(3200), frame_spec=spec)


# splicing --------------------------------------------------------------

def test_splice_with_no_context_keeps_values():
    feats = dsp.FeatureMatrix(np.arange(12.0).reshape(4, 3), "fbank", 10.0)
    out = dsp.splice(feats, 0, 0)
    assert out.feature_kind == "spliced"
    assert np.array_equal(out.values, feats.values)


def test_splice_replicates_edges():
    vals = np.arange(8.0).reshape(4, 2)
    out = dsp.splice_array(vals, 2, 1)
    assert out.shape == (4, 8)
    assert_allclose(out[0], np.concatenate([vals[0], vals[0], vals[0], vals[1]]))
    assert_allclose(out[2], np.concatenate([vals[0], vals[1], vals[2], vals[3]]))
    assert_allclose(out[3], np.concatenate([vals[1], vals[2], vals[3], vals[3]]))


@given(
    n=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=6),
    left=st.integers(min_value=0, max_value=4),
    right=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_splice_shape_and_center_property(n, d, left, right):
    vals = np.arange(n * d, dtype=np.float64).reshape(n, d)
    out = dsp.splice_array(vals, left, right)
    assert out.shape == (n, d * (left + right + 1))
    assert np.array_equal(out[:, left * d : (left + 1) * d], vals)


def test_splice_rejects_negative_context():
    feats = dsp.FeatureMatrix(np.zeros((3, 2)), "fbank", 10.0)
    with pytest.raises(ValidationError):
        dsp.splice(feats, -1, 0)


# normalization ---------------------------------------------------------

def test_mvn_standardizes_columns():
    rng = np.random.default_rng(6)
    feats = dsp.FeatureMatrix(rng.normal(3.0, 2.5, (200, 8)), "fbank", 10.0)
    out = dsp.mvn(feats)
    assert out.feature_kind == "fbank"
    assert_allclose(out.values.mean(axis=0), 0.0, atol=1e-9)
    assert_allclose(out.values.std(axis=0), 1.0, atol=1e-9)


def test_mvn_zeroes_constant_columns():
    vals = np.column_stack([np.full(50, 7.5), np.linspace(0, 1, 50)])
    out = dsp.mvn(dsp.FeatureMatrix(vals, "fbank", 10.0))
    assert np.all(out.values[:, 0] == 0.0)
    assert out.values[:, 1].std() > 0


def test_mvn_needs_at_least_two_frames():
    with pytest.raises(TooShortError):
        dsp.mvn(dsp.FeatureMatrix(np.zeros((1, 4)), "fbank", 10.0))


# feature files ---------------------------------------------------------

def test_binary_feature_round_trip_is_exact_at_float32(tmp_path):
    rng = np.random.default_rng(7)
    vals = rng.normal(0, 1, (17, 5)).astype(np.float32).astype(np.float64)
    feats = dsp.FeatureMatrix(vals, "mfcc", 10.0)
    path = tmp_path / "f.feat"
    dsp.save_features(feats, path)
    assert path.read_bytes()[:4] == b"AGEF"
    back = dsp.load_features(path, feature_kind="mfcc")
    assert back.feature_kind == "mfcc"
    assert np.array_equal(back.values, vals)


def test_csv_feature_round_trip_is_exact_at_float64(tmp_path):
    rng = np.random.default_rng(8)
    feats = dsp.FeatureMatrix(rng.normal(0, 1, (9, 4)), "fbank", 10.0)
    path = tmp_path / "f.csv"
    dsp.save_features(feats, path)
    back = dsp.load_features(path)
    assert np.array_equal(back.values, feats.values)


def test_load_features_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        dsp.load_features(path)


def test_load_features_rejects_truncated_payload(tmp_path):
    feats = dsp.FeatureMatrix(np.ones((4, 4)), "fbank", 10.0)
    path = tmp_path / "trunc.feat"
    dsp.save_features(feats, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        dsp.load_features(path)


def test_feature_matrix_validation():
    with pytest.raises(ValidationError):
        dsp.FeatureMatrix(np.zeros((2, 2)), "plp", 10.0)
    with pytest.raises(ValidationError):
        dsp.FeatureMatrix(np.array([[np.nan, 1.0]]), "fbank", 10.0)
