"""Short-time objective intelligibility scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # 2000 samples give fewer than 30 frames; the rest are shorter than one
    # 256-sample frame at 10 kHz.
    for n, rate in [(2000, 10000), (1, 10000), (255, 10000), (400, 16000)]:
        w = dsp.Waveform(np.full(n, 0.1), rate)
        with pytest.raises(TooShortError):
            measures.stoi(w, w)


# bit identity against the per-segment loop formulation ----------------------

FRAME, HOP, SEGMENT, BANDS = 256, 128, 30, 15
DEFAULT_TOLERANCE = measures.DEFAULT_ALIGNMENT_TOLERANCE


def loop_frames(x):
    starts = np.arange(0, x.size - FRAME + 1, HOP)
    return x[starts[:, None] + np.arange(FRAME)[None, :]]


def loop_remove_silent_frames(x, y):
    w = np.hanning(FRAME + 2)[1:-1]
    fx = loop_frames(x) * w
    fy = loop_frames(y) * w
    energy_db = 20.0 * np.log10(np.linalg.norm(fx, axis=1) / np.sqrt(FRAME) + 1e-20)
    keep = energy_db > energy_db.max() - 40.0
    if not np.any(keep):
        raise DegenerateSignalError("all analysis frames are silent")
    fx = fx[keep]
    fy = fy[keep]
    xs = np.zeros(HOP * (fx.shape[0] - 1) + FRAME)
    ys = np.zeros(xs.size)
    for j in range(fx.shape[0]):
        xs[j * HOP : j * HOP + FRAME] += fx[j]
        ys[j * HOP : j * HOP + FRAME] += fy[j]
    return xs, ys


def loop_stoi_score(x, y):
    xs, ys = loop_remove_silent_frames(x, y)
    if xs.size < FRAME:
        raise TooShortError("too little non-silent signal")
    w = np.hanning(FRAME + 2)[1:-1]
    bands = measures._third_octave_bands()
    env_x = np.sqrt(bands @ (np.abs(np.fft.rfft(loop_frames(xs) * w, n=512)) ** 2).T)
    env_y = np.sqrt(bands @ (np.abs(np.fft.rfft(loop_frames(ys) * w, n=512)) ** 2).T)
    n_frames = env_x.shape[1]
    if n_frames < SEGMENT:
        raise TooShortError("too few frames")
    clip_bound = 1.0 + 10.0 ** (15.0 / 20.0)
    segment_means = []
    for m in range(SEGMENT, n_frames + 1):
        seg_x = env_x[:, m - SEGMENT : m]
        seg_y = env_y[:, m - SEGMENT : m]
        alpha = np.sqrt(
            (seg_x**2).sum(axis=1, keepdims=True) / ((seg_y**2).sum(axis=1, keepdims=True) + 1e-20)
        )
        seg_y_norm = np.minimum(alpha * seg_y, seg_x * clip_bound)
        cx = seg_x - seg_x.mean(axis=1, keepdims=True)
        cy = seg_y_norm - seg_y_norm.mean(axis=1, keepdims=True)
        cx = cx / (np.linalg.norm(cx, axis=1, keepdims=True) + 1e-20)
        cy = cy / (np.linalg.norm(cy, axis=1, keepdims=True) + 1e-20)
        segment_means.append(float((cx * cy).sum() / BANDS))
    return float(np.mean(segment_means)), n_frames


def split_stoi_score(x, y):
    """The STOI core on same-length 10 kHz signals: the clean side, then the degraded side."""
    return measures._stoi_degraded(*measures._stoi_clean(x), y)


def split_remove_silent_frames(x, y):
    """Silence removal as the clean and degraded sides compose it."""
    fx = measures._windowed_frames(x)
    keep = measures._loud_frames(fx)
    fy = measures._windowed_frames(y)
    return measures._overlap_add(fx[keep]), measures._overlap_add(fy[keep])


def loop_stoi(clean, degraded):
    """The public stoi on aligned waveforms, with the loop formulation at its core."""
    n = min(clean.samples.size, degraded.samples.size)
    x, y = clean.samples[:n], degraded.samples[:n]
    if np.mean(x**2) == 0.0 or np.mean(y**2) == 0.0:
        raise DegenerateSignalError("cannot score a silent signal")
    if clean.sample_rate_hz != 10000:
        x = dsp.resample(dsp.Waveform(x, clean.sample_rate_hz), 10000).samples
        y = dsp.resample(dsp.Waveform(y, clean.sample_rate_hz), 10000).samples
    if x.size < FRAME:
        raise TooShortError("shorter than one frame")
    return loop_stoi_score(x, y)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes().hex()


@st.composite
def signal_pairs(draw):
    """A 10 kHz clean/degraded pair of any length and level, often with a quiet stretch."""
    n = draw(st.integers(min_value=FRAME, max_value=60000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    level = 10.0 ** draw(st.floats(-4.0, 1.0))
    t = np.arange(n) / 10000.0
    x = level * np.sin(2 * np.pi * 300 * t) * (0.5 + 0.5 * np.sin(2 * np.pi * 4 * t))
    x = x + level * draw(st.floats(0.0, 1.0)) * rng.normal(size=n)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, n - 1))
        stop = start + draw(st.integers(0, n // 2))
        x[start:stop] *= draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1]))
    y = x + level * 10.0 ** draw(st.floats(-4.0, 1.0)) * rng.normal(size=n)
    return x, y


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DegenerateSignalError, TooShortError) as exc:
        return type(exc)


@given(pair=signal_pairs())
@settings(max_examples=80, deadline=None)
def test_remove_silent_frames_is_bit_identical_to_the_loop(pair):
    got = outcome(split_remove_silent_frames, *pair)
    want = outcome(loop_remove_silent_frames, *pair)
    if isinstance(want, type):
        assert got is want
    else:
        assert [bits(a) for a in got] == [bits(a) for a in want]


@given(pair=signal_pairs())
@settings(max_examples=80, deadline=None)
def test_stoi_score_is_bit_identical_to_the_loop(pair):
    got = outcome(split_stoi_score, *pair)
    want = outcome(loop_stoi_score, *pair)
    if isinstance(want, type):
        assert got is want
    else:
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


@given(
    pair=signal_pairs(),
    rate=st.sampled_from([10000, 16000]),
    cuts=st.lists(st.floats(0.0, DEFAULT_TOLERANCE), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_a_shared_clean_reference_is_bit_identical_to_the_loop(pair, rate, cuts):
    """One reference serves degraded versions of several aligned lengths, in any order."""
    x, y = pair
    reference = measures.StoiReference(dsp.Waveform(x, rate))
    shorter = [y[: y.size - int(cut * y.size)] for cut in cuts]
    versions = [y, *shorter, 0.5 * y, x, np.zeros(y.size), shorter[0]]
    for samples in versions:
        degraded = dsp.Waveform(samples, rate)
        got = outcome(measures.stoi, reference, degraded)
        want = outcome(loop_stoi, reference.clean, degraded)
        if isinstance(want, type):
            assert got is want
        else:
            assert (got.value.hex(), got.n_frames_used) == (want[0].hex(), want[1])


def test_a_reference_resamples_each_aligned_prefix_of_the_clean_signal():
    # 29901 samples at 16 kHz become 18688 = 256 + 144 * 128 at 10 kHz, so the
    # last analysis frame reaches the end, where resampling the prefix differs
    # from truncating a resample of the whole clean signal.
    clean = speechlike(n=30000, rate=16000)
    noisy = clean.samples + 0.2 * np.random.default_rng(4).normal(size=clean.samples.size)
    reference = measures.StoiReference(clean)
    for n in (30000, 29901, 30000):
        degraded = dsp.Waveform(noisy[:n], 16000)
        got = measures.stoi(reference, degraded)
        want_value, want_frames = loop_stoi(clean, degraded)
        assert (got.value.hex(), got.n_frames_used) == (want_value.hex(), want_frames)


def test_a_score_over_several_segment_blocks_matches_the_loop():
    x = speechlike(n=60000).samples
    y = x + 0.3 * np.random.default_rng(3).normal(size=x.size)
    value, frames = split_stoi_score(x, y)
    assert frames - SEGMENT + 1 > 3 * measures._STOI_BLOCK
    want_value, want_frames = loop_stoi_score(x, y)
    assert (value.hex(), frames) == (want_value.hex(), want_frames)


def test_samples_whose_frame_energies_overflow_are_a_degenerate_signal():
    # Above about 1e154 a frame's energy overflows to inf, so no frame lies
    # within 40 dB of the loudest: a typed error, not an empty frame set.
    # Under the suite's error::RuntimeWarning setting an overflow warning fails too.
    for scale in (1e160, 1e200):
        huge = dsp.Waveform(speechlike().samples * scale, 10000)
        with pytest.raises(DegenerateSignalError, match="silent"):
            measures.stoi(huge, huge)
