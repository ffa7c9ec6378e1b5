"""Audio ingestion, SNR-controlled mixing, and FBANK/MFCC feature extraction.

All operations are pure: they return new objects and never mutate their
inputs, so they are safe to call from worker processes. Waveform samples are
float64 in the nominal range [-1, 1].
"""

from __future__ import annotations

import csv
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, wraps
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.io.wavfile
import scipy.signal
from scipy.fft import dct

from .errors import (
    ConfigError,
    DegenerateSignalError,
    EmptyInputError,
    FormatError,
    SampleRateMismatchError,
    TooShortError,
    ValidationError,
)

INT16_FULL_SCALE = 32768.0
LOG_FLOOR = 1e-10  # applied to filterbank outputs before the natural log

WINDOW_KINDS = ("hamming", "hann", "rectangular")
FEATURE_KINDS = ("fbank", "mfcc", "spliced")

FEATURE_MAGIC = b"AGEF"  # binary feature file signature

# Columns with |std| <= this relative threshold are treated as constant by mvn.
_CONST_COLUMN_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Waveform:
    """A mono audio signal with its sample rate; every sample is finite."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValidationError(f"waveform samples must be 1-D, got shape {samples.shape}")
        if samples.size == 0:
            raise ValidationError("waveform must contain at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("waveform samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise ValidationError(f"sample rate must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", int(self.sample_rate_hz))

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class FrameSpec:
    """Short-time analysis parameters: frame length/shift, window, preemphasis, FFT size."""

    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    window_kind: str = "hamming"
    preemphasis: float = 0.97
    fft_size: int = 512

    def __post_init__(self) -> None:
        if self.frame_length_ms <= 0 or self.frame_shift_ms <= 0:
            raise ValidationError("frame length and shift must be positive")
        if self.frame_shift_ms > self.frame_length_ms:
            raise ValidationError("frame shift must not exceed frame length")
        if self.window_kind not in WINDOW_KINDS:
            raise ValidationError(f"unknown window kind {self.window_kind!r}")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValidationError("preemphasis coefficient must be in [0, 1)")
        n = self.fft_size
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValidationError(f"fft_size must be a positive power of two, got {n}")

    def frame_length_samples(self, sample_rate_hz: int) -> int:
        return int(round(self.frame_length_ms * sample_rate_hz / 1000.0))

    def frame_shift_samples(self, sample_rate_hz: int) -> int:
        return int(round(self.frame_shift_ms * sample_rate_hz / 1000.0))


@dataclass(frozen=True)
class MelSpec:
    """Mel filterbank / cepstrum parameters."""

    n_filters: int = 40
    low_freq_hz: float = 20.0
    high_freq_hz: float = 7800.0
    n_cepstra: int = 13

    def __post_init__(self) -> None:
        if self.n_filters < 1:
            raise ValidationError("need at least one mel filter")
        if self.low_freq_hz < 0 or self.low_freq_hz >= self.high_freq_hz:
            raise ValidationError("mel band edges must satisfy 0 <= low < high")
        if not 1 <= self.n_cepstra <= self.n_filters:
            raise ValidationError("n_cepstra must be in [1, n_filters]")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Frames-by-coefficients feature matrix with provenance."""

    values: np.ndarray
    feature_kind: str
    frame_shift_ms: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValidationError(f"feature matrix must be non-empty, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("feature matrix contains non-finite values")
        if self.feature_kind not in FEATURE_KINDS:
            raise ValidationError(f"unknown feature kind {self.feature_kind!r}")
        if self.frame_shift_ms <= 0:
            raise ValidationError("frame_shift_ms must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def load_wav(path: str | Path, channel: int = 0) -> Waveform:
    """Read a RIFF/WAVE file (PCM16 or float32) into a mono Waveform.

    Multichannel input is reduced by selecting one channel (default 0).
    PCM16 samples are scaled by 1/32768 so full scale maps into [-1, 1).
    A non-finite sample in the selected channel is a FormatError.
    """
    try:
        rate, data = scipy.io.wavfile.read(str(path))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / INT16_FULL_SCALE
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise FormatError(
            f"{path}: unsupported sample encoding {data.dtype}, expected PCM16 or float32"
        )
    n_channels = samples.shape[1] if samples.ndim == 2 else 1
    if samples.ndim not in (1, 2):
        raise FormatError(f"{path}: unsupported array layout {samples.shape}")
    if not 0 <= channel < n_channels:
        raise FormatError(
            f"{path}: channel {channel} out of range for {n_channels}-channel file"
        )
    if samples.ndim == 2:
        samples = samples[:, channel]
    if samples.size == 0:
        raise EmptyInputError(f"{path}: file contains no audio samples")
    if not np.all(np.isfinite(samples)):
        raise FormatError(f"{path}: non-finite samples (NaN or infinity)")
    return Waveform(samples, int(rate))


def save_wav(waveform: Waveform, path: str | Path) -> None:
    """Write a Waveform as mono PCM16 little-endian, clipping to [-1, 1]."""
    q = np.round(np.clip(waveform.samples, -1.0, 1.0) * INT16_FULL_SCALE)
    q = np.clip(q, -32768, 32767).astype(np.int16)
    scipy.io.wavfile.write(str(path), waveform.sample_rate_hz, q)


def mix_at_snr(
    clean: Waveform, noise: Waveform, snr_db: float, noise_offset: int = 0
) -> Waveform:
    """Add noise to clean speech at an exact target signal-to-noise ratio.

    The noise is read cyclically starting at noise_offset and extended to the
    clean signal's length. Power is the mean squared amplitude over the full
    mixed extent, so the measured SNR of the result matches snr_db by
    construction.
    """
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise SampleRateMismatchError(
            f"clean is {clean.sample_rate_hz} Hz but noise is {noise.sample_rate_hz} Hz"
        )
    if noise_offset < 0:
        raise ValidationError("noise_offset must be nonnegative")
    n = clean.samples.size
    p_clean = float(np.mean(clean.samples**2))
    if p_clean == 0.0:
        raise DegenerateSignalError("clean signal has zero power")
    idx = (noise_offset + np.arange(n)) % noise.samples.size
    segment = noise.samples[idx]
    p_segment = float(np.mean(segment**2))
    if p_segment == 0.0:
        raise DegenerateSignalError("selected noise segment has zero power")
    gain = float(np.sqrt(p_clean / (p_segment * 10.0 ** (snr_db / 10.0))))
    return Waveform(clean.samples + gain * segment, clean.sample_rate_hz)


def resample(waveform: Waveform, target_hz: int) -> Waveform:
    """Band-limited polyphase resampling to target_hz.

    Same-rate input is returned unchanged. The output length is
    round(n * target / source).
    """
    if target_hz <= 0:
        raise ValidationError(f"target rate must be positive, got {target_hz}")
    source_hz = waveform.sample_rate_hz
    if target_hz == source_hz:
        return waveform
    g = math.gcd(int(target_hz), source_hz)
    up, down = int(target_hz) // g, source_hz // g
    y = scipy.signal.resample_poly(waveform.samples, up, down, window=_resample_taps(up, down))
    target_len = int(round(waveform.samples.size * target_hz / source_hz))
    if target_len < 1:
        raise TooShortError("input too short to resample to the target rate")
    if y.size > target_len:
        y = y[:target_len]
    elif y.size < target_len:
        y = np.pad(y, (0, target_len - y.size))
    return Waveform(y, int(target_hz))


def _constant(build: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """Build a spec-only array once per argument tuple; the shared array is read-only."""

    @lru_cache(maxsize=None)
    @wraps(build)
    def cached(*args: object) -> np.ndarray:
        out = build(*args)
        out.flags.writeable = False
        return out

    return cached


@_constant
def _resample_taps(up: int, down: int) -> np.ndarray:
    # The low-pass FIR filter scipy.signal.resample_poly designs by default.
    max_rate = max(up, down)
    return scipy.signal.firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))


@_constant
def _window(kind: str, length: int) -> np.ndarray:
    if kind == "hamming":
        return np.hamming(length)
    if kind == "hann":
        return np.hanning(length)
    return np.ones(length)


def frame_signal(waveform: Waveform, spec: FrameSpec) -> np.ndarray:
    """Cut a signal into overlapping windowed frames, rows of shape (n_frames, frame_len).

    Preemphasis y[t] = x[t] - a*x[t-1] runs over the whole signal first (the
    first sample is kept as-is), then frames are extracted and windowed. The
    frame count is 1 + floor((len - frame_len) / shift).
    """
    sr = waveform.sample_rate_hz
    frame_len = spec.frame_length_samples(sr)
    frame_shift = spec.frame_shift_samples(sr)
    if frame_len < 1 or frame_shift < 1:
        raise ConfigError("frame length and shift must be at least one sample")
    x = waveform.samples
    if x.size < frame_len:
        raise TooShortError(
            f"signal of {x.size} samples is shorter than one {frame_len}-sample frame"
        )
    if spec.preemphasis > 0.0:
        x = np.concatenate(([x[0]], x[1:] - spec.preemphasis * x[:-1]))
    return sliding_window_view(x, frame_len)[::frame_shift] * _window(spec.window_kind, frame_len)


def _hz_to_mel(f: np.ndarray | float) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m: np.ndarray | float) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_center_frequencies_hz(mel_spec: MelSpec) -> np.ndarray:
    """Center frequency in Hz of each triangular mel filter."""
    edges = np.linspace(
        _hz_to_mel(mel_spec.low_freq_hz), _hz_to_mel(mel_spec.high_freq_hz), mel_spec.n_filters + 2
    )
    return _mel_to_hz(edges[1:-1])


def mel_filterbank(mel_spec: MelSpec, sample_rate_hz: int, fft_size: int) -> np.ndarray:
    """Triangular mel filterbank matrix of shape (n_filters, fft_size // 2 + 1).

    Filters are triangular in the mel domain between adjacent mel-spaced
    centers, evaluated at the FFT bin frequencies, with unit peak. The caller
    owns the returned array.
    """
    return _mel_filterbank(mel_spec, sample_rate_hz, fft_size).copy()


@_constant
def _mel_filterbank(mel_spec: MelSpec, sample_rate_hz: int, fft_size: int) -> np.ndarray:
    edges = np.linspace(
        _hz_to_mel(mel_spec.low_freq_hz), _hz_to_mel(mel_spec.high_freq_hz), mel_spec.n_filters + 2
    )
    bin_mel = _hz_to_mel(np.fft.rfftfreq(fft_size, 1.0 / sample_rate_hz))
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (bin_mel[None, :] - lower) / (center - lower)
    falling = (upper - bin_mel[None, :]) / (upper - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def _check_feature_specs(frame_spec: FrameSpec, mel_spec: MelSpec, sample_rate_hz: int) -> None:
    frame_len = frame_spec.frame_length_samples(sample_rate_hz)
    if frame_spec.fft_size < frame_len:
        raise ConfigError(
            f"fft_size {frame_spec.fft_size} is smaller than the {frame_len}-sample frame"
        )
    if mel_spec.high_freq_hz > sample_rate_hz / 2.0:
        raise ConfigError(
            f"mel high edge {mel_spec.high_freq_hz} Hz exceeds Nyquist for {sample_rate_hz} Hz audio"
        )


def fbank(
    waveform: Waveform, frame_spec: FrameSpec | None = None, mel_spec: MelSpec | None = None
) -> FeatureMatrix:
    """Log mel filterbank features: power spectrum -> mel filters -> ln with floor."""
    fspec = frame_spec if frame_spec is not None else FrameSpec()
    mspec = mel_spec if mel_spec is not None else MelSpec()
    sr = waveform.sample_rate_hz
    _check_feature_specs(fspec, mspec, sr)
    frames = frame_signal(waveform, fspec)
    power = np.abs(np.fft.rfft(frames, n=fspec.fft_size)) ** 2
    filterbank = _mel_filterbank(mspec, sr, fspec.fft_size)
    out = np.log(np.maximum(power @ filterbank.T, LOG_FLOOR))
    return FeatureMatrix(out, "fbank", fspec.frame_shift_ms)


def mfcc(
    waveform: Waveform, frame_spec: FrameSpec | None = None, mel_spec: MelSpec | None = None
) -> FeatureMatrix:
    """Mel cepstra: orthonormal DCT-II of each fbank row, keeping n_cepstra coefficients."""
    mspec = mel_spec if mel_spec is not None else MelSpec()
    base = fbank(waveform, frame_spec, mspec)
    coeffs = dct(base.values, type=2, norm="ortho", axis=1)[:, : mspec.n_cepstra]
    return FeatureMatrix(coeffs, "mfcc", base.frame_shift_ms)


def splice_array(values: np.ndarray, left: int, right: int) -> np.ndarray:
    """Concatenate each row with its left/right neighbors, replicating edges."""
    if left < 0 or right < 0:
        raise ValidationError("context sizes must be nonnegative")
    n = values.shape[0]
    offsets = np.arange(-left, right + 1)
    idx = np.clip(np.arange(n)[:, None] + offsets[None, :], 0, n - 1)
    return values[idx].reshape(n, -1)


def splice(features: FeatureMatrix, left: int, right: int) -> FeatureMatrix:
    """Context splicing: row n becomes the concatenation of rows n-left .. n+right."""
    out = splice_array(features.values, left, right)
    return FeatureMatrix(out, "spliced", features.frame_shift_ms)


def mvn(features: FeatureMatrix) -> FeatureMatrix:
    """Per-column mean and variance normalization.

    Constant columns (zero variance) become all zeros instead of dividing by
    zero. Needs at least two frames.
    """
    v = features.values
    if v.shape[0] < 2:
        raise TooShortError("mean-variance normalization needs at least 2 frames")
    mu = v.mean(axis=0)
    sd = v.std(axis=0)
    constant = sd <= _CONST_COLUMN_TOL * np.maximum(1.0, np.abs(mu))
    out = (v - mu) / np.where(constant, 1.0, sd)
    out[:, constant] = 0.0
    return FeatureMatrix(out, features.feature_kind, features.frame_shift_ms)


def save_features(features: FeatureMatrix, path: str | Path) -> None:
    """Write features to disk: CSV when the suffix is .csv, binary otherwise.

    Binary layout: magic "AGEF", then N and D as unsigned 32-bit little-endian,
    then N*D float32 little-endian values in row-major order.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in features.values:
                writer.writerow([repr(float(v)) for v in row])
        return
    n, d = features.values.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", n, d))
        fh.write(np.ascontiguousarray(features.values, dtype="<f4").tobytes())


def load_features(
    path: str | Path, feature_kind: str = "fbank", frame_shift_ms: float = 10.0
) -> FeatureMatrix:
    """Read a feature file written by save_features.

    The file does not carry provenance, so feature_kind and frame_shift_ms
    must be supplied by the caller when they matter.
    """
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            values = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise FormatError(f"{path}: malformed CSV feature file ({exc})") from exc
        return FeatureMatrix(values, feature_kind, frame_shift_ms)
    raw = path.read_bytes()
    header = len(FEATURE_MAGIC) + 8
    if len(raw) < header or raw[: len(FEATURE_MAGIC)] != FEATURE_MAGIC:
        raise FormatError(f"{path}: missing {FEATURE_MAGIC!r} feature file signature")
    n, d = struct.unpack("<II", raw[len(FEATURE_MAGIC) : header])
    expected = header + 4 * n * d
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {n}x{d} features, got {len(raw)}")
    values = np.frombuffer(raw[header:], dtype="<f4").reshape(n, d).astype(np.float64)
    return FeatureMatrix(values, feature_kind, frame_shift_ms)
