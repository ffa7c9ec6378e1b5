"""Clean-vs-degraded scoring measures.

Two posterior-domain measures (cross-entropy against clean posteriors, and the
self-entropy confidence baseline) plus a band-envelope intelligibility measure
computed directly from the waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .am import PosteriorMatrix
from .dsp import Waveform, _constant, resample
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
# Segments correlated per vectorized block; bounds peak memory on long inputs.
_STOI_BLOCK = 128


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


@_constant
def _stoi_window() -> np.ndarray:
    # Endpoint-free Hann window, length _STOI_FRAME.
    return np.hanning(_STOI_FRAME + 2)[1:-1]


def _windowed_frames(x: np.ndarray) -> np.ndarray:
    return sliding_window_view(x, _STOI_FRAME)[::_STOI_HOP] * _stoi_window()


def _loud_frames(fx: np.ndarray) -> np.ndarray:
    """Keep-mask of the clean frames within 40 dB of the loudest one."""
    # Samples above about 1e154 overflow a frame's energy to inf, and then no
    # frame passes.
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(fx, axis=1)
    energy_db = 20.0 * np.log10(norms / np.sqrt(_STOI_FRAME) + _EPS)
    keep = energy_db > energy_db.max() - _STOI_DYN_RANGE_DB
    if not np.any(keep):
        raise DegenerateSignalError("all analysis frames are silent")
    return keep


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    # A frame is two hops long: hop block b is the first half of frame b plus
    # the second half of frame b - 1.
    out = np.zeros((frames.shape[0] + 1, _STOI_HOP))
    out[:-1] += frames[:, :_STOI_HOP]
    out[1:] += frames[:, _STOI_HOP:]
    return out.reshape(-1)


@_constant
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


def _band_envelopes(x: np.ndarray) -> np.ndarray:
    """Square-root band energies per frame, shape (bands, frames)."""
    power = np.abs(np.fft.rfft(_windowed_frames(x), n=_STOI_FFT)) ** 2
    return np.sqrt(_third_octave_bands() @ power.T)


def _segment_correlations(seg_x: np.ndarray, seg_y: np.ndarray) -> np.ndarray:
    """Mean band correlation of each segment; inputs are C-contiguous (segments, bands, 30).

    Every reduction runs over a contiguous last axis, so each sum adds its
    values in the same order as a reduction over one (bands, 30) segment.
    """
    clip_bound = 1.0 + 10.0 ** (-_STOI_CLIP_DB / 20.0)
    alpha = np.sqrt(
        (seg_x**2).sum(axis=-1, keepdims=True) / ((seg_y**2).sum(axis=-1, keepdims=True) + _EPS)
    )
    seg_y_norm = np.minimum(alpha * seg_y, seg_x * clip_bound)
    cx = seg_x - seg_x.mean(axis=-1, keepdims=True)
    cy = seg_y_norm - seg_y_norm.mean(axis=-1, keepdims=True)
    cx = cx / (np.linalg.norm(cx, axis=-1, keepdims=True) + _EPS)
    cy = cy / (np.linalg.norm(cy, axis=-1, keepdims=True) + _EPS)
    return (cx * cy).reshape(cx.shape[0], -1).sum(axis=1) / _STOI_BANDS


def _stoi_clean(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clean side of the STOI core on a 10 kHz signal: (keep-mask, band envelopes).

    Silence removal keeps the frames within 40 dB of the loudest clean frame;
    the kept frames are windowed and overlap-added back into a compacted
    signal, whose band envelopes are returned.
    """
    if x.size < _STOI_FRAME:
        raise TooShortError(
            f"signal of {x.size} samples at 10 kHz is shorter than one {_STOI_FRAME}-sample frame"
        )
    fx = _windowed_frames(x)
    keep = _loud_frames(fx)
    env_x = _band_envelopes(_overlap_add(fx[keep]))
    if env_x.shape[1] < _STOI_SEGMENT:
        raise TooShortError(
            f"need at least {_STOI_SEGMENT} non-silent analysis frames, got {env_x.shape[1]}"
        )
    return keep, env_x


def _stoi_degraded(keep: np.ndarray, env_x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Degraded side of the STOI core: (value, frames used) for a 10 kHz y of the clean length."""
    env_y = _band_envelopes(_overlap_add(_windowed_frames(y)[keep]))
    # (segments, bands, 30) views, materialized one block of segments at a time.
    win_x = sliding_window_view(env_x, _STOI_SEGMENT, axis=1).transpose(1, 0, 2)
    win_y = sliding_window_view(env_y, _STOI_SEGMENT, axis=1).transpose(1, 0, 2)
    segment_means = [
        _segment_correlations(
            np.ascontiguousarray(win_x[s : s + _STOI_BLOCK]),
            np.ascontiguousarray(win_y[s : s + _STOI_BLOCK]),
        )
        for s in range(0, win_x.shape[0], _STOI_BLOCK)
    ]
    return float(np.mean(np.concatenate(segment_means))), env_x.shape[1]


class StoiReference:
    """STOI's clean side of one clean waveform, built once per aligned sample count.

    For each length n it holds the 10 kHz clean signal's keep-mask from
    silence removal and its band envelopes. Passing one reference as the
    clean argument of stoi for several degraded versions of the same clean
    signal does that work once; the scores equal stoi(reference.clean, ...)
    bit for bit.
    """

    def __init__(self, clean: Waveform) -> None:
        self.clean = clean
        self._sides: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def side(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(keep-mask, band envelopes) of the first n clean samples."""
        if n not in self._sides:
            x = _at_stoi_rate(self.clean.samples[:n], self.clean.sample_rate_hz)
            self._sides[n] = _stoi_clean(x)
        return self._sides[n]


def _at_stoi_rate(samples: np.ndarray, rate: int) -> np.ndarray:
    if rate == _STOI_RATE:
        return samples
    return resample(Waveform(samples, rate), _STOI_RATE).samples


def stoi(
    clean: Waveform | StoiReference,
    degraded: Waveform,
    *,
    tolerance: float = DEFAULT_ALIGNMENT_TOLERANCE,
) -> MeasureScore:
    """Short-time band-envelope correlation between clean and degraded speech.

    Both signals are resampled to 10 kHz, silent frames are removed using the
    clean signal's energy profile, and normalized band envelopes are compared
    over 30-frame segments with per-band level alignment and SDR clipping at
    -15 dB. Values near 1 mean the degraded envelope tracks the clean one.
    The longer signal is truncated, within the aligned_length tolerance.
    A StoiReference as clean reuses its clean side across calls.
    """
    reference = clean if isinstance(clean, StoiReference) else StoiReference(clean)
    clean = reference.clean
    if clean.sample_rate_hz != degraded.sample_rate_hz:
        raise SampleRateMismatchError(
            f"clean is {clean.sample_rate_hz} Hz but degraded is {degraded.sample_rate_hz} Hz"
        )
    n = aligned_length(clean.samples.size, degraded.samples.size, tolerance, "sample")
    y = degraded.samples[:n]
    with np.errstate(over="ignore"):
        silent = float(np.mean(clean.samples[:n] ** 2)) == 0.0 or float(np.mean(y**2)) == 0.0
    if silent:
        raise DegenerateSignalError("cannot score a silent signal")
    keep, env_x = reference.side(n)
    value, frames = _stoi_degraded(keep, env_x, _at_stoi_rate(y, degraded.sample_rate_hz))
    return MeasureScore("stoi", value, frames)
