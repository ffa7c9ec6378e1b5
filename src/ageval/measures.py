"""Clean-vs-degraded scoring measures.

Two posterior-domain measures (cross-entropy against clean posteriors, and the
self-entropy confidence baseline) plus a band-envelope intelligibility measure
computed directly from the waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .am import PosteriorMatrix
from .dsp import Waveform, resample
from .errors import (
    AlignmentError,
    DegenerateSignalError,
    EmptyInputError,
    SampleRateMismatchError,
    ShapeMismatchError,
    TooShortError,
    ValidationError,
)

MEASURE_NAMES = ("age", "entropy", "stoi")

# Posteriors are floored at this value inside the log only; no re-normalization
# afterwards, so uniform-posterior identities stay exact.
POSTERIOR_FLOOR = 1e-10

DEFAULT_ALIGNMENT_TOLERANCE = 0.02

# Band-envelope intelligibility analysis constants, fixed to the standard
# published parameterization.
_STOI_RATE = 10000
_STOI_FRAME = 256
_STOI_HOP = 128
_STOI_FFT = 512
_STOI_BANDS = 15
_STOI_FIRST_CENTER_HZ = 150.0
_STOI_SEGMENT = 30
_STOI_DYN_RANGE_DB = 40.0
_STOI_CLIP_DB = -15.0
_EPS = 1e-20


@dataclass(frozen=True)
class MeasureScore:
    """One measure value for one utterance pair."""

    measure_name: str
    value: float
    n_frames_used: int

    def __post_init__(self) -> None:
        if self.measure_name not in MEASURE_NAMES:
            raise ValidationError(f"unknown measure {self.measure_name!r}")
        if self.n_frames_used < 0:
            raise ValidationError("n_frames_used must be nonnegative")
        if not np.isfinite(self.value):
            raise ValidationError("measure value must be finite")
        if self.measure_name in ("age", "entropy") and self.value < -1e-12:
            raise ValidationError(f"{self.measure_name} must be nonnegative, got {self.value}")
        if self.measure_name == "stoi" and not -1.0 - 1e-12 <= self.value <= 1.0 + 1e-12:
            raise ValidationError(f"stoi must lie in [-1, 1], got {self.value}")


def age(p_clean: PosteriorMatrix, p_degraded: PosteriorMatrix) -> MeasureScore:
    """Mean cross-entropy of degraded posteriors against clean posteriors.

    value = -(1/N) * sum_n sum_i P_clean[n, i] * ln(max(P_degraded[n, i], floor)).
    Higher means the degraded posteriors have drifted further from the clean
    ones, so the value rises with degradation severity.
    """
    a = p_clean.values
    b = p_degraded.values
    if a.shape != b.shape:
        raise ShapeMismatchError(f"posterior shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    if n == 0:
        raise EmptyInputError("no frames to score")
    total = float(np.sum(a * np.log(np.maximum(b, POSTERIOR_FLOOR))))
    return MeasureScore("age", -total / n, n)


def entropy_confidence(p_degraded: PosteriorMatrix) -> MeasureScore:
    """Mean self-entropy of the degraded posteriors (no clean reference needed)."""
    score = age(p_degraded, p_degraded)
    return MeasureScore("entropy", score.value, score.n_frames_used)


def aligned_length(n_clean: int, n_degraded: int, tolerance: float, unit: str) -> int:
    """Common clean/degraded length; AlignmentError beyond a relative difference of tolerance."""
    rel = abs(n_clean - n_degraded) / max(n_clean, n_degraded)
    if rel > tolerance:
        raise AlignmentError(
            f"{unit} counts {n_clean} vs {n_degraded} differ by {rel:.1%}, "
            f"beyond the {tolerance:.1%} tolerance"
        )
    return min(n_clean, n_degraded)


def _stoi_window() -> np.ndarray:
    # Endpoint-free Hann window, length _STOI_FRAME.
    return np.hanning(_STOI_FRAME + 2)[1:-1]


def _stoi_frames(x: np.ndarray) -> np.ndarray:
    starts = np.arange(0, x.size - _STOI_FRAME + 1, _STOI_HOP)
    return x[starts[:, None] + np.arange(_STOI_FRAME)[None, :]]


def _remove_silent_frames(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop frames more than 40 dB below the loudest clean frame, from both signals.

    The mask comes from the clean signal only. Kept frames are windowed and
    overlap-added back into compacted signals.
    """
    w = _stoi_window()
    fx = _stoi_frames(x) * w
    fy = _stoi_frames(y) * w
    energy_db = 20.0 * np.log10(np.linalg.norm(fx, axis=1) / np.sqrt(_STOI_FRAME) + _EPS)
    keep = energy_db > energy_db.max() - _STOI_DYN_RANGE_DB
    if not np.any(keep):
        raise DegenerateSignalError("all analysis frames are silent")
    fx = fx[keep]
    fy = fy[keep]
    out_len = _STOI_HOP * (fx.shape[0] - 1) + _STOI_FRAME
    xs = np.zeros(out_len)
    ys = np.zeros(out_len)
    for j in range(fx.shape[0]):
        s = j * _STOI_HOP
        xs[s : s + _STOI_FRAME] += fx[j]
        ys[s : s + _STOI_FRAME] += fy[j]
    return xs, ys


def _third_octave_bands() -> np.ndarray:
    """Boolean matrix (bands x rfft bins) grouping bins into one-third-octave bands."""
    f = np.linspace(0.0, _STOI_RATE / 2.0, _STOI_FFT // 2 + 1)
    k = np.arange(_STOI_BANDS, dtype=np.float64)
    centers = _STOI_FIRST_CENTER_HZ * 2.0 ** (k / 3.0)
    lows = centers * 2.0 ** (-1.0 / 6.0)
    highs = centers * 2.0 ** (1.0 / 6.0)
    matrix = np.zeros((_STOI_BANDS, f.size))
    for band in range(_STOI_BANDS):
        lo = int(np.argmin((f - lows[band]) ** 2))
        hi = int(np.argmin((f - highs[band]) ** 2))
        matrix[band, lo:hi] = 1.0
    return matrix


def _band_envelopes(x: np.ndarray, band_matrix: np.ndarray) -> np.ndarray:
    """Square-root band energies per frame, shape (bands, frames)."""
    frames = _stoi_frames(x) * _stoi_window()
    power = np.abs(np.fft.rfft(frames, n=_STOI_FFT)) ** 2
    return np.sqrt(band_matrix @ power.T)


def _stoi_score(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Core computation on same-length 10 kHz signals; returns (value, frames used)."""
    xs, ys = _remove_silent_frames(x, y)
    if xs.size < _STOI_FRAME:
        raise TooShortError("too little non-silent signal for band analysis")
    bands = _third_octave_bands()
    env_x = _band_envelopes(xs, bands)
    env_y = _band_envelopes(ys, bands)
    n_frames = env_x.shape[1]
    if n_frames < _STOI_SEGMENT:
        raise TooShortError(
            f"need at least {_STOI_SEGMENT} non-silent analysis frames, got {n_frames}"
        )
    clip_bound = 1.0 + 10.0 ** (-_STOI_CLIP_DB / 20.0)
    segment_means = []
    for m in range(_STOI_SEGMENT, n_frames + 1):
        seg_x = env_x[:, m - _STOI_SEGMENT : m]
        seg_y = env_y[:, m - _STOI_SEGMENT : m]
        alpha = np.sqrt(
            (seg_x**2).sum(axis=1, keepdims=True) / ((seg_y**2).sum(axis=1, keepdims=True) + _EPS)
        )
        seg_y_norm = np.minimum(alpha * seg_y, seg_x * clip_bound)
        cx = seg_x - seg_x.mean(axis=1, keepdims=True)
        cy = seg_y_norm - seg_y_norm.mean(axis=1, keepdims=True)
        cx = cx / (np.linalg.norm(cx, axis=1, keepdims=True) + _EPS)
        cy = cy / (np.linalg.norm(cy, axis=1, keepdims=True) + _EPS)
        segment_means.append(float((cx * cy).sum() / _STOI_BANDS))
    return float(np.mean(segment_means)), n_frames


def stoi(
    clean: Waveform, degraded: Waveform, *, tolerance: float = DEFAULT_ALIGNMENT_TOLERANCE
) -> MeasureScore:
    """Short-time band-envelope correlation between clean and degraded speech.

    Both signals are resampled to 10 kHz, silent frames are removed using the
    clean signal's energy profile, and normalized band envelopes are compared
    over 30-frame segments with per-band level alignment and SDR clipping at
    -15 dB. Values near 1 mean the degraded envelope tracks the clean one.
    The longer signal is truncated, within the aligned_length tolerance.
    """
    if clean.sample_rate_hz != degraded.sample_rate_hz:
        raise SampleRateMismatchError(
            f"clean is {clean.sample_rate_hz} Hz but degraded is {degraded.sample_rate_hz} Hz"
        )
    n = aligned_length(clean.samples.size, degraded.samples.size, tolerance, "sample")
    x = clean.samples[:n]
    y = degraded.samples[:n]
    if float(np.mean(x**2)) == 0.0 or float(np.mean(y**2)) == 0.0:
        raise DegenerateSignalError("cannot score a silent signal")
    rate = clean.sample_rate_hz
    if rate != _STOI_RATE:
        x = resample(Waveform(x, rate), _STOI_RATE).samples
        y = resample(Waveform(y, rate), _STOI_RATE).samples
    value, frames = _stoi_score(x, y)
    return MeasureScore("stoi", value, frames)
