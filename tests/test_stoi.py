"""Short-time objective intelligibility scoring."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ageval import dsp, harness, measures
from ageval.errors import (
    AlignmentError,
    ConfigError,
    DegenerateSignalError,
    SampleRateMismatchError,
    TooShortError,
    ValidationError,
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


@pytest.mark.parametrize("tolerance, rule", [
    (float("nan"), "be a finite real number"),
    (float("inf"), "be a finite real number"),
    (-0.1, "lie in [0, 1)"),
    (1.0, "lie in [0, 1)"),
    (1.5, "lie in [0, 1)"),
    ("0.1", "be a finite real number"),
    (True, "be a finite real number"),
])
def test_a_tolerance_outside_zero_to_one_is_rejected(tolerance, rule):
    clean = speechlike(16000)
    half = dsp.Waveform(clean.samples[:8000], 10000)
    message = f"alignment tolerance must {rule}, got {tolerance!r}"
    with pytest.raises(ValidationError) as info:
        measures.stoi(clean, half, tolerance=tolerance)
    assert type(info.value) is ValidationError and str(info.value) == message
    with pytest.raises(ValidationError):
        measures.aligned_length(100, 50, tolerance, "frame")
    with pytest.raises(ConfigError) as info:
        harness.RunConfig(alignment_tolerance=tolerance)
    assert str(info.value) == message


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
    """The public stoi on same-length 10 kHz signals: (value, frames used)."""
    score = measures.stoi(dsp.Waveform(x, 10000), dsp.Waveform(y, 10000), tolerance=0.0)
    return score.value, score.n_frames_used


def split_remove_silent_frames(x, y):
    """Silence removal as the clean and degraded sides compose it."""
    fx = dsp._strided_frames(x, FRAME, HOP)
    keep = measures._loud_frames(fx)
    return measures._compacted(fx, keep), measures._compacted(dsp._strided_frames(y, FRAME, HOP), keep)


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
    # loop_stoi, not loop_stoi_score: the public stoi also rejects a silent signal.
    want = outcome(loop_stoi, *(dsp.Waveform(s, 10000) for s in pair))
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


def counted_clean_terms(monkeypatch):
    """Record the blocks measures._clean_segment_terms builds from here on."""
    calls = []
    real = measures._clean_segment_terms

    def counted(seg_x):
        calls.append(seg_x.shape[0])
        return real(seg_x)

    monkeypatch.setattr(measures, "_clean_segment_terms", counted)
    return calls


def noisy_versions(clean, n, count):
    rng = np.random.default_rng(n)
    return [
        dsp.Waveform(clean.samples[:n] + 0.1 * (k + 1) * rng.normal(size=n), clean.sample_rate_hz)
        for k in range(count)
    ]


def n_segment_blocks(reference, n):
    """The segment blocks at n; call it only after the scores it counts, as side(n) counts as one."""
    n_segments = reference.side(n)[1].shape[1] - SEGMENT + 1
    return -(-n_segments // measures._STOI_BLOCK)


def test_a_reference_keeps_a_lengths_clean_terms_from_its_second_score(monkeypatch):
    clean = speechlike(n=60000)
    versions = noisy_versions(clean, 60000, 3)
    want = [measures.stoi(clean, degraded) for degraded in versions]
    reference = measures.StoiReference(clean)
    calls = counted_clean_terms(monkeypatch)
    got, built = [], []
    for degraded in versions:
        got.append(measures.stoi(reference, degraded))
        built.append(len(calls))
    assert [(s.value.hex(), s.n_frames_used) for s in got] == [
        (s.value.hex(), s.n_frames_used) for s in want
    ]
    blocks = n_segment_blocks(reference, 60000)
    assert blocks > 3
    # built one block at a time and dropped, built and kept, then reused
    assert built == [blocks, 2 * blocks, 2 * blocks]


def test_a_reference_scored_once_per_length_keeps_no_clean_terms():
    clean = speechlike()
    reference = measures.StoiReference(clean)
    for n in (30000, 29800):
        measures.stoi(reference, noisy_versions(clean, n, 1)[0])
    assert sorted(reference._sides) == [29800, 30000]
    assert all(record[2] is None for record in reference._sides.values())


def test_a_reference_keeps_clean_terms_for_each_length_it_serves(monkeypatch):
    clean = speechlike()
    reference = measures.StoiReference(clean)
    calls = counted_clean_terms(monkeypatch)
    lengths = (30000, 29800)
    versions = {n: noisy_versions(clean, n, 3) for n in lengths}
    for k in range(2):
        for n in lengths:
            measures.stoi(reference, versions[n][k])
    blocks = sum(n_segment_blocks(reference, n) for n in lengths)
    assert len(calls) == 2 * blocks
    for n in lengths:
        assert len(reference._sides[n][2]) == n_segment_blocks(reference, n)
        measures.stoi(reference, versions[n][2])
    assert len(calls) == 2 * blocks


def test_a_silent_clean_prefix_is_rejected_on_every_score_and_kept_nowhere():
    # Sound only in the last 1% of the clean file, past the aligned length.
    clean = dsp.Waveform(np.concatenate([np.zeros(30000), speechlike(n=300).samples]), 10000)
    reference = measures.StoiReference(clean)
    degraded = noisy_versions(speechlike(), 30000, 1)[0]
    for _ in range(2):
        with pytest.raises(DegenerateSignalError, match="cannot score a silent signal"):
            measures.stoi(reference, degraded)
    assert reference._sides == {}


def test_a_silent_degraded_file_is_rejected_before_any_clean_side_work(monkeypatch):
    def fail(x):
        raise AssertionError("the clean side was built for a silent degraded file")

    monkeypatch.setattr(measures, "_stoi_clean", fail)
    reference = measures.StoiReference(speechlike())
    with pytest.raises(DegenerateSignalError, match="cannot score a silent signal"):
        measures.stoi(reference, dsp.Waveform(np.zeros(30000), 10000))
    assert reference._sides == {}


BLOCK = dsp._FRAME_BLOCK


@pytest.mark.parametrize("n_frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_stoi_is_bit_identical_to_the_loop_at_frame_block_edges(n_frames):
    # Every frame is loud, so the compacted signals have n_frames frames too.
    rng = np.random.default_rng(n_frames)
    n = FRAME + (n_frames - 1) * HOP + HOP - 1
    clean = speechlike(n=n).samples + 0.05 * rng.normal(size=n)
    degraded = clean + 0.3 * rng.normal(size=n)
    x, y = dsp.Waveform(clean, 10000), dsp.Waveform(degraded, 10000)
    got = outcome(measures.stoi, x, y)
    want = outcome(loop_stoi, x, y)
    if n_frames < SEGMENT:
        assert got is want is TooShortError
    else:
        assert (got.value.hex(), got.n_frames_used) == (want[0].hex(), want[1])
        assert got.n_frames_used == n_frames


def test_stoi_memory_is_one_power_matrix_and_one_signal_plus_a_bounded_block():
    # 60 s at 10 kHz: whole-utterance frames and spectra would add about 27 MB more.
    rng = np.random.default_rng(8)
    clean = speechlike(n=600000)
    degraded = dsp.Waveform(clean.samples + 0.3 * rng.normal(size=600000), 10000)
    measures.stoi(speechlike(), speechlike())  # build the cached window and bands first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        measures.stoi(clean, degraded)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    n_frames = 1 + (600000 - FRAME) // HOP
    power = n_frames * (512 // 2 + 1) * 8
    assert peak <= power + clean.samples.nbytes + 2_000_000


def test_samples_whose_frame_energies_overflow_are_a_degenerate_signal():
    # Above about 1e154 a frame's energy overflows to inf, so no frame lies
    # within 40 dB of the loudest: a typed error, not an empty frame set.
    # Under the suite's error::RuntimeWarning setting an overflow warning fails too.
    for scale in (1e160, 1e200):
        huge = dsp.Waveform(speechlike().samples * scale, 10000)
        with pytest.raises(DegenerateSignalError, match="silent"):
            measures.stoi(huge, huge)
