"""Additive noise mixing at an exact signal-to-noise ratio."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ageval import dsp
from ageval.errors import DegenerateSignalError, SampleRateMismatchError, ValidationError

SNR_GRID = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def measured_snr_db(mix, clean):
    added = mix.samples - clean.samples
    return 10.0 * np.log10(
        np.mean(clean.samples**2) / np.mean(added**2)
    )


def test_equal_power_at_zero_db_gives_unit_gain():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 0.2, 2048)
    clean = dsp.Waveform(x, 16000)
    noise = dsp.Waveform(x[::-1].copy(), 16000)
    mix = dsp.mix_at_snr(clean, noise, 0.0)
    assert_allclose(mix.samples, clean.samples + noise.samples, rtol=0, atol=1e-12)


def test_twenty_db_with_equal_powers_gives_gain_one_tenth():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 0.2, 1024)
    clean = dsp.Waveform(x, 16000)
    noise = dsp.Waveform(x.copy(), 16000)
    mix = dsp.mix_at_snr(clean, noise, 20.0)
    assert_allclose(mix.samples, clean.samples + 0.1 * x, rtol=1e-12, atol=0)


def test_measured_snr_matches_target_across_grid():
    rng = np.random.default_rng(0)
    clean = dsp.Waveform(rng.normal(0, 0.1, 16000), 16000)
    noise = dsp.Waveform(rng.normal(0, 0.05, 20000), 16000)
    for snr in SNR_GRID:
        mix = dsp.mix_at_snr(clean, noise, snr)
        assert mix.samples.size == clean.samples.size
        assert abs(measured_snr_db(mix, clean) - snr) < 1e-9


def test_mix_scales_linearly_with_clean():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 0.1, 4000)
    noise = dsp.Waveform(rng.normal(0, 0.2, 6000), 16000)
    one = dsp.mix_at_snr(dsp.Waveform(x, 16000), noise, 7.0)
    three = dsp.mix_at_snr(dsp.Waveform(3.0 * x, 16000), noise, 7.0)
    assert_allclose(three.samples, 3.0 * one.samples, rtol=1e-12)


def test_short_noise_extends_cyclically():
    rng = np.random.default_rng(2)
    clean = dsp.Waveform(rng.normal(0, 0.1, 1000), 16000)
    noise = dsp.Waveform(rng.normal(0, 0.1, 300), 16000)
    mix = dsp.mix_at_snr(clean, noise, 5.0)
    assert mix.samples.size == 1000
    assert abs(measured_snr_db(mix, clean) - 5.0) < 1e-9


def test_noise_offset_wraps_modulo_noise_length():
    rng = np.random.default_rng(5)
    clean = dsp.Waveform(rng.normal(0, 0.1, 1000), 16000)
    noise = dsp.Waveform(rng.normal(0, 0.1, 300), 16000)
    a = dsp.mix_at_snr(clean, noise, 5.0, noise_offset=700)
    b = dsp.mix_at_snr(clean, noise, 5.0, noise_offset=100)
    assert np.array_equal(a.samples, b.samples)
    c = dsp.mix_at_snr(clean, noise, 5.0, noise_offset=0)
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("offset, message", [
    (-1, "noise_offset must be nonnegative"),
    (1.5, "noise_offset must be an integer, got 1.5"),
    (True, "noise_offset must be an integer, got True"),
    ("3", "noise_offset must be an integer, got '3'"),
])
def test_a_noise_offset_that_is_not_a_nonnegative_integer_is_a_validation_error(offset, message):
    clean = dsp.Waveform(np.ones(100), 16000)
    noise = dsp.Waveform(np.ones(300), 16000)
    with pytest.raises(ValidationError) as info:
        dsp.mix_at_snr(clean, noise, 5.0, noise_offset=offset)
    assert str(info.value) == message
    assert dsp.mix_at_snr(clean, noise, 5.0, noise_offset=np.int64(7)).samples.size == 100


@pytest.mark.parametrize("snr_db, noise_level", [
    (4000.0, 0.1),  # the power ratio overflows
    (-4000.0, 0.1),  # the power ratio underflows to zero
    (float("nan"), 0.1),
    (-3000.0, 1e-160),  # the scaled noise power underflows to zero: the gain is infinite
])
def test_an_snr_without_a_finite_nonzero_gain_is_a_validation_error(snr_db, noise_level):
    rng = np.random.default_rng(6)
    clean = dsp.Waveform(rng.normal(0, 0.1, 1000), 16000)
    noise = dsp.Waveform(rng.normal(0, noise_level, 1000), 16000)
    with pytest.raises(ValidationError, match=f"SNR {snr_db} dB"):
        dsp.mix_at_snr(clean, noise, snr_db)


@pytest.mark.parametrize("snr_db", ["5", True, None, complex(5.0)])
def test_an_snr_that_is_no_real_number_is_a_validation_error(snr_db):
    rng = np.random.default_rng(6)
    clean = dsp.Waveform(rng.normal(0, 0.1, 1000), 16000)
    noise = dsp.Waveform(rng.normal(0, 0.1, 1000), 16000)
    with pytest.raises(ValidationError) as info:
        dsp.mix_at_snr(clean, noise, snr_db)
    assert type(info.value) is ValidationError
    assert str(info.value) == f"SNR must be a finite real number, got {snr_db!r}"


def test_zero_clean_rejected():
    noise = dsp.Waveform(np.ones(100), 16000)
    with pytest.raises(DegenerateSignalError):
        dsp.mix_at_snr(dsp.Waveform(np.zeros(100), 16000), noise, 5.0)


def test_zero_noise_segment_rejected_even_if_noise_elsewhere_nonzero():
    clean = dsp.Waveform(np.ones(100), 16000)
    noise = dsp.Waveform(np.concatenate([np.zeros(500), np.ones(500)]), 16000)
    with pytest.raises(DegenerateSignalError):
        dsp.mix_at_snr(clean, noise, 5.0, noise_offset=0)
    # the same noise works once the window lands on the nonzero part
    mixed = dsp.mix_at_snr(clean, noise, 5.0, noise_offset=500)
    assert mixed.samples.size == 100


def test_sample_rate_mismatch_rejected():
    clean = dsp.Waveform(np.ones(100), 16000)
    noise = dsp.Waveform(np.ones(100), 8000)
    with pytest.raises(SampleRateMismatchError):
        dsp.mix_at_snr(clean, noise, 5.0)
