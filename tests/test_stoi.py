"""Short-time objective intelligibility scoring."""

import numpy as np
import pytest

from ageval import dsp, measures
from ageval.errors import (
    AlignmentError,
    DegenerateSignalError,
    SampleRateMismatchError,
    TooShortError,
)


def speechlike(n=30000, rate=10000):
    """Deterministic amplitude-modulated harmonic tone, three seconds long."""
    t = np.arange(n) / rate
    carrier = (
        np.sin(2 * np.pi * 220 * t)
        + 0.5 * np.sin(2 * np.pi * 440 * t)
        + 0.25 * np.sin(2 * np.pi * 880 * t)
    )
    envelope = 0.5 * (1.0 + np.sin(2 * np.pi * 4 * t))
    return dsp.Waveform(carrier * envelope, rate)


def test_identical_signals_score_one():
    clean = speechlike()
    score = measures.stoi(clean, clean)
    assert score.measure_name == "stoi"
    assert score.value >= 0.999


def test_scaling_does_not_change_the_score():
    clean = speechlike()
    for gain in (0.5, 2.0, 10.0):
        scaled = dsp.Waveform(gain * clean.samples, clean.sample_rate_hz)
        assert measures.stoi(clean, scaled).value >= 0.999


def test_unrelated_noise_scores_low():
    clean = speechlike()
    rng = np.random.default_rng(1234)
    noise = dsp.Waveform(
        rng.normal(0.0, float(np.std(clean.samples)), 30000), 10000
    )
    score = measures.stoi(clean, noise)
    assert score.value < 0.35
    # regression pin for the exact construction above
    assert score.value == pytest.approx(0.2402130983129111, rel=1e-10)
    assert score.n_frames_used == 222


def test_score_is_bit_identical_across_calls():
    clean = speechlike()
    rng = np.random.default_rng(9)
    degraded = dsp.Waveform(
        clean.samples + rng.normal(0, 0.2, clean.samples.size), 10000
    )
    assert measures.stoi(clean, degraded).value == measures.stoi(clean, degraded).value


def test_score_improves_with_snr():
    clean = speechlike()
    rng = np.random.default_rng(5)
    noise = dsp.Waveform(rng.normal(0, 0.1, 40000), 10000)
    values = [
        measures.stoi(clean, dsp.mix_at_snr(clean, noise, snr)).value
        for snr in (-5.0, 5.0, 15.0)
    ]
    assert values[0] < values[1] < values[2]


def test_inputs_are_resampled_to_ten_khz():
    t = np.arange(48000) / 16000.0
    carrier = np.sin(2 * np.pi * 300 * t) * (0.5 + 0.5 * np.sin(2 * np.pi * 3 * t))
    clean = dsp.Waveform(carrier, 16000)
    assert measures.stoi(clean, clean).value >= 0.999


def test_small_length_mismatch_is_truncated():
    clean = speechlike()
    shorter = dsp.Waveform(clean.samples[:29700], 10000)
    assert measures.stoi(clean, shorter).value >= 0.999


def test_large_length_mismatch_rejected():
    clean = speechlike()
    shorter = dsp.Waveform(clean.samples[:27000], 10000)
    with pytest.raises(AlignmentError):
        measures.stoi(clean, shorter)


def test_length_tolerance_is_a_parameter():
    clean = speechlike()
    shorter = dsp.Waveform(clean.samples[:29100], 10000)  # 3% shorter
    with pytest.raises(AlignmentError):
        measures.stoi(clean, shorter)
    assert measures.stoi(clean, shorter, tolerance=0.05).value >= 0.999


def test_sample_rate_mismatch_rejected():
    clean = speechlike()
    with pytest.raises(SampleRateMismatchError):
        measures.stoi(clean, dsp.Waveform(clean.samples, 16000))


def test_silent_input_rejected():
    clean = speechlike()
    silent = dsp.Waveform(np.zeros(30000), 10000)
    with pytest.raises(DegenerateSignalError):
        measures.stoi(silent, clean)
    with pytest.raises(DegenerateSignalError):
        measures.stoi(clean, silent)


def test_too_short_signal_rejected():
    w = dsp.Waveform(np.full(2000, 0.1), 10000)
    with pytest.raises(TooShortError):
        measures.stoi(w, w)
