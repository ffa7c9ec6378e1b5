"""Log mel filterbank (with its framing), cepstra, splicing and normalization."""

import tracemalloc

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ageval import dsp, harness, measures
from ageval.errors import ConfigError, TooShortError, ValidationError


def noise_wave(n, rate=16000, seed=0, scale=0.1):
    rng = np.random.default_rng(seed)
    return dsp.Waveform(rng.normal(0, scale, n), rate)


# framing ---------------------------------------------------------------

def test_frame_count_matches_closed_form_for_default_spec():
    # 25 ms / 10 ms at 16 kHz: 400-sample frames, 160-sample shift
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(400, 20000))
        assert dsp.fbank(noise_wave(n)).n_frames == 1 + (n - 400) // 160


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
    features = dsp.fbank(dsp.Waveform(np.ones(n), rate), spec)
    assert features.n_frames == 1 + (n - frame_len) // shift


def test_signal_shorter_than_one_frame_rejected():
    with pytest.raises(TooShortError, match="^signal of 100 samples is shorter than one 400-sample frame$"):
        dsp.fbank(noise_wave(100))


def test_preemphasis_on_constant_signal():
    # y[t] = x[t] - 0.97 x[t-1] = 0.03 c for t >= 1, and y[0] = x[0] = c;
    # one-sample frames every sample make each power row y[t]^2, across blocks
    x = np.full(3200, 0.5)
    power = dsp._power_spectra(x, np.ones(1), 1, 1, 0.97)
    assert power.shape == (3200, 1)
    assert power[0, 0] == 0.25
    assert_allclose(np.sqrt(power[1:, 0]), 0.03 * 0.5, rtol=0, atol=1e-15)


def test_window_is_applied_per_frame():
    spec = dsp.FrameSpec(window_kind="hamming", preemphasis=0.0)
    power = dsp._power_spectra(np.full(800, 0.5), np.hamming(400), 160, spec.fft_size)
    want = np.abs(np.fft.rfft(0.5 * np.hamming(400), n=spec.fft_size)) ** 2
    assert power.shape == (3, spec.fft_size // 2 + 1)
    for row in power:
        assert row.tobytes().hex() == want.tobytes().hex()


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
    # the framing now lives in _power_spectra: its power rows are those of
    # frames gathered through an explicit index matrix
    spec = dsp.FrameSpec(frame_ms, min(shift_ms, frame_ms), window_kind, preemphasis, 1024)
    wave = noise_wave(n, seed=seed, scale=10.0**level)
    frame_len = round(spec.frame_length_ms * wave.sample_rate_hz / 1000)
    window = dsp._window(window_kind, frame_len)
    shift = round(spec.frame_shift_ms * wave.sample_rate_hz / 1000)
    got = dsp._power_spectra(wave.samples, window, shift, 1024, preemphasis)
    want = np.abs(np.fft.rfft(index_matrix_frames(wave, spec), n=1024)) ** 2
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


def second_of_silence(rate):
    return dsp.Waveform(np.zeros(16000), rate)


@pytest.mark.parametrize("make, error, name, good", [
    (second_of_silence, ValidationError, "sample rate", 16000),
    (lambda rate: dsp.resample(second_of_silence(16000), rate), ValidationError, "target rate", 8000),
    (lambda n: dsp.FrameSpec(fft_size=n), ValidationError, "fft_size", 512),
    (lambda n: dsp.MelSpec(n_filters=n), ValidationError, "n_filters", 40),
    (lambda n: harness.RunConfig(workers=n), ConfigError, "workers", 1),
], ids=["Waveform", "resample", "FrameSpec", "MelSpec", "RunConfig"])
def test_value_objects_take_counts_only_as_integers(make, error, name, good):
    make(good)
    make(np.int64(good))
    for bad in (good + 0.5, float(good), np.float64(good), str(good), True):
        with pytest.raises(error) as info:
            make(bad)
        assert type(info.value) is error
        assert str(info.value) == f"{name} must be an integer, got {bad!r}"


# filterbank and cepstra ------------------------------------------------

def test_fbank_of_silence_is_exactly_the_log_floor():
    fb = dsp.fbank(dsp.Waveform(np.zeros(4000), 16000))
    assert fb.feature_kind == "fbank"
    assert fb.dim == 40
    assert np.all(fb.values == np.log(1e-10))


def test_fbank_peaks_at_the_filter_matching_a_pure_tone():
    mel_spec = dsp.MelSpec()
    # The centers of the 40 filters: equally spaced mels from 20 to 7800 Hz, in Hz.
    edges = np.linspace(*2595.0 * np.log10(1.0 + np.array([20.0, 7800.0]) / 700.0), 42)
    centers = 700.0 * (10.0 ** (edges[1:-1] / 2595.0) - 1.0)
    t = np.arange(16000) / 16000.0
    for k in (5, 20, 34):
        tone = dsp.Waveform(0.3 * np.sin(2 * np.pi * centers[k] * t), 16000)
        fb = dsp.fbank(tone, mel_spec=mel_spec)
        assert np.argmax(fb.values.mean(axis=0)) == k


def test_mel_filterbank_rows_are_bounded_triangles():
    fb = dsp._mel_filterbank(dsp.MelSpec(), 16000, 512)
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


def test_a_melspec_may_have_fewer_than_thirteen_filters():
    spec = dsp.MelSpec(n_filters=10)
    assert dsp.fbank(noise_wave(4800, seed=4), mel_spec=spec).dim == 10


def test_mel_high_edge_above_nyquist_rejected():
    with pytest.raises(ConfigError):
        dsp.fbank(noise_wave(1600), mel_spec=dsp.MelSpec(high_freq_hz=9000.0))


def test_fft_shorter_than_frame_rejected():
    spec = dsp.FrameSpec(frame_length_ms=40.0, fft_size=512)
    with pytest.raises(ConfigError, match="^fft_size 512 is smaller than the 640-sample frame$"):
        dsp.fbank(noise_wave(3200), frame_spec=spec)


@pytest.mark.parametrize("n, rate, message", [
    (3200, 8000, "mel high edge 7800.0 Hz exceeds Nyquist for 8000 Hz audio"),
    # a signal shorter than one frame meets its rate's fault first
    (100, 8000, "mel high edge 7800.0 Hz exceeds Nyquist for 8000 Hz audio"),
    (100, 48000, "fft_size 512 is smaller than the 1200-sample frame"),
])
def test_the_default_front_end_names_a_rate_it_cannot_frame(n, rate, message):
    with pytest.raises(ConfigError) as info:
        dsp.fbank(noise_wave(n, rate=rate))
    assert str(info.value) == message


# block-wise spectra ----------------------------------------------------

BLOCK = dsp._FRAME_BLOCK


def index_matrix_frames(waveform, spec):
    """Frames gathered through an explicit (n_frames, frame_len) index matrix."""
    sr = waveform.sample_rate_hz
    frame_len = round(spec.frame_length_ms * sr / 1000)
    frame_shift = round(spec.frame_shift_ms * sr / 1000)
    x = waveform.samples
    if spec.preemphasis > 0.0:
        x = np.concatenate(([x[0]], x[1:] - spec.preemphasis * x[:-1]))
    n_frames = 1 + (x.size - frame_len) // frame_shift
    idx = frame_shift * np.arange(n_frames)[:, None] + np.arange(frame_len)[None, :]
    window = {"hamming": np.hamming, "hann": np.hanning, "rectangular": np.ones}[spec.window_kind]
    return x[idx] * window(frame_len)


def single_pass_fbank(waveform, frame_spec, mel_spec):
    """Log mel energies with every stage run over the whole utterance at once."""
    frames = index_matrix_frames(waveform, frame_spec)
    power = np.abs(np.fft.rfft(frames, n=frame_spec.fft_size)) ** 2
    filterbank = dsp._mel_filterbank(mel_spec, waveform.sample_rate_hz, frame_spec.fft_size)
    return np.log(np.maximum(power @ filterbank.T, dsp.LOG_FLOOR))


@pytest.mark.parametrize("n_frames", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize(
    "frame_spec",
    [
        dsp.FrameSpec(),
        dsp.FrameSpec(window_kind="hann", preemphasis=0.0),
        dsp.FrameSpec(frame_length_ms=32.0, frame_shift_ms=32.0, window_kind="rectangular"),
    ],
    ids=["default", "no-preemphasis", "no-overlap"],
)
def test_fbank_is_bit_identical_to_the_single_pass_formula(n_frames, frame_spec):
    rate = 16000
    frame_len = round(frame_spec.frame_length_ms * rate / 1000)
    shift = round(frame_spec.frame_shift_ms * rate / 1000)
    # One sample short of the next frame, so the frame count is exact.
    wave = noise_wave(frame_len + (n_frames - 1) * shift + shift - 1, seed=n_frames)
    mel_spec = dsp.MelSpec()
    got = dsp.fbank(wave, frame_spec, mel_spec).values
    want = single_pass_fbank(wave, frame_spec, mel_spec)
    assert got.shape == (n_frames, mel_spec.n_filters)
    assert got.tobytes().hex() == want.tobytes().hex()


@given(
    extra=st.integers(min_value=0, max_value=3 * BLOCK * 160),
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(-6.0, 1.0),
    frame_ms=st.sampled_from([16.0, 20.0, 25.0, 32.0]),
    shift_ms=st.sampled_from([5.0, 8.0, 10.0, 16.0]),
    window_kind=st.sampled_from(dsp.WINDOW_KINDS),
    preemphasis=st.sampled_from([0.0, 0.97]),
    leading_zeros=st.integers(min_value=0, max_value=700),
    negative_zero=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_fbank_is_bit_identical_to_the_single_pass_formula_on_random_signals(
    extra, seed, level, frame_ms, shift_ms, window_kind, preemphasis, leading_zeros, negative_zero
):
    rate = 16000
    spec = dsp.FrameSpec(frame_ms, min(shift_ms, frame_ms), window_kind, preemphasis, 1024)
    frame_len = round(spec.frame_length_ms * rate / 1000)
    n = frame_len + extra
    samples = noise_wave(n, seed=seed, scale=10.0**level).samples
    samples[:leading_zeros] = 0.0
    if negative_zero:
        samples[0] = -0.0
    wave = dsp.Waveform(samples, rate)
    mel_spec = dsp.MelSpec()
    got = dsp.fbank(wave, spec, mel_spec).values
    want = single_pass_fbank(wave, spec, mel_spec)
    n_frames = 1 + (n - frame_len) // round(spec.frame_shift_ms * rate / 1000)
    assert got.shape == want.shape == (n_frames, mel_spec.n_filters)
    assert got.tobytes().hex() == want.tobytes().hex()


def test_fbank_of_a_signal_of_exactly_one_frame():
    wave = noise_wave(400, seed=3)
    got = dsp.fbank(wave).values
    assert got.tobytes() == single_pass_fbank(wave, dsp.FrameSpec(), dsp.MelSpec()).tobytes()


def test_fbank_memory_is_its_power_matrix_and_output_plus_a_bounded_block():
    # 60 s at 16 kHz: whole-utterance frames and spectra would add about 40 MB.
    wave = noise_wave(60 * 16000, seed=5)
    dsp.fbank(noise_wave(4000))  # build the cached window and filterbank first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        features = dsp.fbank(wave)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    power = features.n_frames * (dsp.FrameSpec().fft_size // 2 + 1) * 8
    assert peak <= power + features.values.nbytes + 2_000_000


# splicing --------------------------------------------------------------

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


def gather_splice(values, left, right):
    """Splicing as an index gather: row n takes rows clip(n - left .. n + right)."""
    n = values.shape[0]
    offsets = np.arange(-left, right + 1)
    idx = np.clip(np.arange(n)[:, None] + offsets[None, :], 0, n - 1)
    return values[idx].reshape(n, -1)


@given(
    n=st.integers(min_value=1, max_value=130),
    d=st.integers(min_value=1, max_value=40),
    left=st.integers(min_value=0, max_value=4),
    right=st.integers(min_value=0, max_value=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_splice_array_is_bit_identical_to_the_index_gather(n, d, left, right, seed):
    vals = np.random.default_rng(seed).normal(size=(n, d))
    got = dsp.splice_array(vals, left, right)
    want = gather_splice(vals, left, right)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a fresh array the caller owns, like the gather's
    assert got.flags.writeable and got.flags.c_contiguous
    assert not np.shares_memory(got, vals)


def test_splice_rejects_negative_context():
    with pytest.raises(ValidationError):
        dsp.splice_array(np.zeros((3, 2)), -1, 0)
    with pytest.raises(ValidationError):
        dsp.splice_array(np.zeros((3, 2)), 0, -1)


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


def test_feature_matrix_validation():
    with pytest.raises(ValidationError):
        dsp.FeatureMatrix(np.zeros((2, 2)), "plp", 10.0)
    with pytest.raises(ValidationError):
        dsp.FeatureMatrix(np.array([[np.nan, 1.0]]), "fbank", 10.0)
