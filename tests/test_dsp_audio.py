"""WAV round trips, PCM scaling and resampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.io import wavfile

from ageval import dsp
from ageval.errors import FormatError, ValidationError


def tone(freq_hz, seconds=0.5, rate=16000, amp=0.3):
    t = np.arange(int(round(seconds * rate))) / rate
    return dsp.Waveform(amp * np.sin(2 * np.pi * freq_hz * t), rate)


def test_wav_round_trip_error_within_one_lsb(tmp_path):
    w = tone(440.0)
    path = tmp_path / "t.wav"
    dsp.save_wav(w, path)
    back = dsp.load_wav(path)
    assert back.sample_rate_hz == 16000
    assert back.samples.shape == w.samples.shape
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768.0


def test_wav_second_round_trip_is_lossless(tmp_path):
    # once quantized, writing and reading again must not change anything
    w = tone(350.0)
    dsp.save_wav(w, tmp_path / "a.wav")
    first = dsp.load_wav(tmp_path / "a.wav")
    dsp.save_wav(first, tmp_path / "b.wav")
    second = dsp.load_wav(tmp_path / "b.wav")
    assert np.array_equal(first.samples, second.samples)


def test_save_wav_clips_out_of_range_values(tmp_path):
    w = dsp.Waveform(np.array([2.0, -2.0, 0.0]), 8000)
    dsp.save_wav(w, tmp_path / "clip.wav")
    rate, raw = wavfile.read(tmp_path / "clip.wav")
    assert rate == 8000
    assert raw.dtype == np.int16
    assert raw[0] == 32767
    assert raw[1] == -32768
    assert raw[2] == 0


def test_load_wav_scales_int16_by_full_scale(tmp_path):
    path = tmp_path / "int16.wav"
    wavfile.write(path, 8000, np.array([-32768, 0, 16384, 32767], np.int16))
    w = dsp.load_wav(path)
    assert_allclose(
        w.samples, [-1.0, 0.0, 0.5, 32767 / 32768], rtol=0, atol=0
    )


def test_load_wav_accepts_float32(tmp_path):
    path = tmp_path / "f32.wav"
    data = np.array([-0.5, 0.25, 0.9], dtype=np.float32)
    wavfile.write(path, 16000, data)
    assert_allclose(
        dsp.load_wav(path).samples, data.astype(np.float64), rtol=0, atol=0
    )


def test_load_wav_rejects_non_finite_samples(tmp_path):
    for bad in (np.nan, np.inf):
        path = tmp_path / "bad.wav"
        wavfile.write(path, 16000, np.array([0.1, bad, -0.2], dtype=np.float32))
        with pytest.raises(FormatError):
            dsp.load_wav(path)


def test_waveform_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            dsp.Waveform(np.array([0.1, bad, -0.2]), 16000)


def test_load_wav_selects_channel(tmp_path):
    path = tmp_path / "stereo.wav"
    left = (np.arange(10) * 100).astype(np.int16)
    right = -left
    wavfile.write(path, 16000, np.stack([left, right], axis=1))
    assert_allclose(dsp.load_wav(path, channel=0).samples, left / 32768.0)
    assert_allclose(dsp.load_wav(path, channel=1).samples, right / 32768.0)


def test_load_wav_rejects_bad_channel(tmp_path):
    path = tmp_path / "mono.wav"
    wavfile.write(path, 16000, np.zeros(10, dtype=np.int16))
    with pytest.raises(FormatError):
        dsp.load_wav(path, channel=1)


def test_load_wav_rejects_non_wav_bytes(tmp_path):
    path = tmp_path / "not.wav"
    path.write_bytes(b"definitely not a wav file")
    with pytest.raises(FormatError):
        dsp.load_wav(path)


def test_load_wav_rejects_unsupported_sample_format(tmp_path):
    path = tmp_path / "i32.wav"
    wavfile.write(path, 16000, np.zeros(10, dtype=np.int32))
    with pytest.raises(FormatError):
        dsp.load_wav(path)


def test_waveform_validation():
    with pytest.raises(ValidationError):
        dsp.Waveform(np.array([]), 16000)
    with pytest.raises(ValidationError):
        dsp.Waveform(np.zeros((3, 2)), 16000)
    with pytest.raises(ValidationError):
        dsp.Waveform(np.zeros(5), 0)


def test_resample_same_rate_returns_same_object():
    w = tone(440.0)
    assert dsp.resample(w, 16000) is w


def test_resample_output_length_rounds():
    rng = np.random.default_rng(0)
    rates = [8000, 10000, 16000, 22050, 44100]
    for _ in range(50):
        n = int(rng.integers(100, 5000))
        src = int(rng.choice(rates))
        dst = int(rng.choice(rates))
        out = dsp.resample(dsp.Waveform(rng.normal(0, 0.1, n), src), dst)
        assert out.sample_rate_hz == dst
        assert out.samples.size == int(round(n * dst / src))


def test_resample_preserves_sine_amplitude_and_frequency():
    w = tone(1000.0, seconds=1.0, rate=16000, amp=0.5)
    out = dsp.resample(w, 10000)
    mid = out.samples[1000:-1000]
    # amplitude within 1 percent, estimated from the RMS of the interior
    assert abs(np.sqrt(2.0) * np.std(mid) - 0.5) < 0.005
    spectrum = np.abs(np.fft.rfft(mid))
    peak_hz = np.argmax(spectrum) * 10000.0 / mid.size
    assert abs(peak_hz - 1000.0) < 2.0


def test_resample_rejects_bad_rate():
    with pytest.raises(ValidationError):
        dsp.resample(tone(200.0), 0)
