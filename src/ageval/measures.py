"""Clean-vs-degraded scoring measures.

Two posterior-domain measures (cross-entropy against clean posteriors, and the
self-entropy confidence baseline) plus a band-envelope intelligibility measure
computed directly from the waveforms.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .am import PosteriorMatrix
from .dsp import _FRAME_BLOCK, Waveform, _constant, _power_spectra, _strided_frames, resample
from .errors import (
    AlignmentError,
    DegenerateSignalError,
    EmptyInputError,
    SampleRateMismatchError,
    ShapeMismatchError,
    TooShortError,
    ValidationError,
)

# The measures scored from acoustic-model posteriors, which need a model.
POSTERIOR_MEASURES = ("age", "entropy")
MEASURE_NAMES = (*POSTERIOR_MEASURES, "stoi")

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
        if self.measure_name in POSTERIOR_MEASURES and self.value < -1e-12:
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


def _loud_frames(frames: np.ndarray) -> np.ndarray:
    """Keep-mask of the clean frames whose windowed energy is within 40 dB of the loudest one."""
    norms = np.empty(frames.shape[0])
    # Samples above about 1e154 overflow a frame's energy to inf, and then no
    # frame passes.
    with np.errstate(over="ignore"):
        for start in range(0, frames.shape[0], _FRAME_BLOCK):
            block = frames[start : start + _FRAME_BLOCK] * _stoi_window()
            norms[start : start + _FRAME_BLOCK] = np.linalg.norm(block, axis=1)
    energy_db = 20.0 * np.log10(norms / np.sqrt(_STOI_FRAME) + _EPS)
    keep = energy_db > energy_db.max() - _STOI_DYN_RANGE_DB
    if not np.any(keep):
        raise DegenerateSignalError("all analysis frames are silent")
    return keep


def _compacted(frames: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The kept frames, windowed and overlap-added into one signal."""
    kept = frames[keep]
    kept *= _stoi_window()
    # A frame is two hops long: hop block b is the first half of frame b plus
    # the second half of frame b - 1.
    out = np.zeros((kept.shape[0] + 1, _STOI_HOP))
    out[:-1] += kept[:, :_STOI_HOP]
    out[1:] += kept[:, _STOI_HOP:]
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
    power = _power_spectra(x, _stoi_window(), _STOI_HOP, _STOI_FFT)
    # One product over the whole signal: per-block products give other bits.
    envelopes = _third_octave_bands() @ power.T
    return np.sqrt(envelopes, out=envelopes)


# A clean segment block's (energy, clipping bound, centred unit-norm segment).
_CleanTerms = tuple[np.ndarray, np.ndarray, np.ndarray]


def _segment_blocks(env: np.ndarray) -> Iterator[np.ndarray]:
    """The 30-frame segments of band envelopes, _STOI_BLOCK at a time, as C-contiguous copies.

    Each block has shape (segments, bands, 30).
    """
    windows = _strided_frames(env, _STOI_SEGMENT, 1).transpose(1, 0, 2)
    for s in range(0, windows.shape[0], _STOI_BLOCK):
        yield np.ascontiguousarray(windows[s : s + _STOI_BLOCK])


def _clean_segment_terms(seg_x: np.ndarray) -> _CleanTerms:
    """The clean-only terms of a block of clean segments, shape (segments, bands, 30).

    Per band-segment: the energy sum(seg_x**2), the clipping bound
    seg_x * clip_bound and the centred unit-norm segment. They depend on
    the clean signal alone, so a StoiReference can keep them.

    Every reduction runs over a contiguous last axis, so each sum adds its
    values in the same order as a reduction over one (bands, 30) segment.
    """
    clip_bound = 1.0 + 10.0 ** (-_STOI_CLIP_DB / 20.0)
    energy = (seg_x**2).sum(axis=-1, keepdims=True)
    cx = seg_x - seg_x.mean(axis=-1, keepdims=True)
    cx /= np.linalg.norm(cx, axis=-1, keepdims=True) + _EPS
    return energy, seg_x * clip_bound, cx


def _segment_correlations(clean: _CleanTerms, seg_y: np.ndarray) -> np.ndarray:
    """Mean band correlation of each segment: the clean terms against a degraded block.

    seg_y is C-contiguous, of the clean block's shape; reductions run as in
    _clean_segment_terms. The steps after the level alignment work in place
    on one array: each gives the bits of its out-of-place form.
    """
    energy, bound, cx = clean
    alpha = np.sqrt(energy / ((seg_y**2).sum(axis=-1, keepdims=True) + _EPS))
    cy = alpha * seg_y
    np.minimum(cy, bound, out=cy)
    cy -= cy.mean(axis=-1, keepdims=True)
    cy /= np.linalg.norm(cy, axis=-1, keepdims=True) + _EPS
    cy *= cx
    return cy.reshape(cy.shape[0], -1).sum(axis=1) / _STOI_BANDS


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
    frames = _strided_frames(x, _STOI_FRAME, _STOI_HOP)
    keep = _loud_frames(frames)
    env_x = _band_envelopes(_compacted(frames, keep))
    if env_x.shape[1] < _STOI_SEGMENT:
        raise TooShortError(
            f"need at least {_STOI_SEGMENT} non-silent analysis frames, got {env_x.shape[1]}"
        )
    return keep, env_x


class StoiReference:
    """STOI's clean side of one clean waveform, built once per aligned sample count.

    side(n) keeps one record per length n: the 10 kHz clean signal's
    keep-mask from silence removal, its band envelopes and, from the second
    score at n on, the clean terms of every segment block, about 0.57 MB per
    second of non-silent clean audio. The first score at n builds the terms
    one block at a time and drops them, so a reference scored once per length
    holds no more than one block. Passing one reference as the clean argument
    of stoi for several degraded versions of the same clean signal does that
    work once; the scores equal stoi(reference.clean, ...) bit for bit.
    """

    def __init__(self, clean: Waveform) -> None:
        self.clean = clean
        # n -> [keep-mask, band envelopes, segment terms or None until kept]
        self._sides: dict[int, list] = {}

    def side(self, n: int) -> tuple[np.ndarray, np.ndarray, Iterable[_CleanTerms]]:
        """(keep-mask, band envelopes, segment terms in order) of the first n clean samples.

        Each call counts as one score at n. A silent prefix raises
        DegenerateSignalError and keeps nothing. The first call returns the
        terms as a lazy map; the second builds and keeps them as a list.
        """
        record = self._sides.get(n)
        if record is None:
            x = _at_stoi_rate(_audible(self.clean.samples[:n]), self.clean.sample_rate_hz)
            keep, env_x = _stoi_clean(x)
            self._sides[n] = [keep, env_x, None]
            return keep, env_x, map(_clean_segment_terms, _segment_blocks(env_x))
        keep, env_x, terms = record
        if terms is None:
            terms = record[2] = list(map(_clean_segment_terms, _segment_blocks(env_x)))
        return keep, env_x, terms


def _audible(samples: np.ndarray) -> np.ndarray:
    """samples, unless their mean power is zero: then DegenerateSignalError."""
    with np.errstate(over="ignore"):
        if float(np.mean(samples**2)) == 0.0:
            raise DegenerateSignalError("cannot score a silent signal")
    return samples


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
    y = _audible(degraded.samples[:n])
    keep, env_x, terms = reference.side(n)
    y = _at_stoi_rate(y, degraded.sample_rate_hz)
    env_y = _band_envelopes(_compacted(_strided_frames(y, _STOI_FRAME, _STOI_HOP), keep))
    segment_means = [
        _segment_correlations(clean_terms, seg_y)
        for clean_terms, seg_y in zip(terms, _segment_blocks(env_y))
    ]
    return MeasureScore("stoi", float(np.mean(np.concatenate(segment_means))), env_x.shape[1])
