"""Audio ingestion, SNR-controlled mixing, and log mel filterbank (FBANK) features.

All operations are pure: they return new objects and never mutate their
inputs, so they are safe to call from worker processes. Waveform samples are
float64 in the nominal range [-1, 1].
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, wraps
from pathlib import Path

import numpy as np
import scipy.signal

from .errors import (
    ConfigError,
    DegenerateSignalError,
    EmptyInputError,
    FormatError,
    SampleRateMismatchError,
    TooShortError,
    ValidationError,
    _as_array,
    _as_int,
    _as_real,
)

INT16_FULL_SCALE = 32768.0
LOG_FLOOR = 1e-10  # applied to filterbank outputs before the natural log

WINDOW_KINDS = ("hamming", "hann", "rectangular")
FEATURE_KINDS = ("fbank", "spliced")

# WAVE format tags, and an extensible format's subformat GUID after its tag (RFC 2361).
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"

# Columns with |std| <= this relative threshold are treated as constant by mvn.
_CONST_COLUMN_TOL = 1e-12

# Frames whose windowed copies and spectra exist at one time. A row's power
# spectrum has the same bits in any block, so only transient memory depends on
# this; it no longer grows with the length of the signal.
_FRAME_BLOCK = 128


@dataclass(frozen=True, eq=False)
class Waveform:
    """A mono audio signal with its sample rate; every sample is finite."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        samples = _as_array(self.samples, 1, "waveform samples")
        rate = _as_int(self.sample_rate_hz, "sample rate")
        if rate <= 0:
            raise ValidationError(f"sample rate must be positive, got {rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", rate)


@dataclass(frozen=True)
class FrameSpec:
    """Short-time analysis parameters: frame length/shift, window, preemphasis, FFT size."""

    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    window_kind: str = "hamming"
    preemphasis: float = 0.97
    fft_size: int = 512

    def __post_init__(self) -> None:
        for name in ("frame_length_ms", "frame_shift_ms", "preemphasis"):
            _as_real(getattr(self, name), name)
        if self.frame_length_ms <= 0 or self.frame_shift_ms <= 0:
            raise ValidationError("frame length and shift must be positive")
        if self.frame_shift_ms > self.frame_length_ms:
            raise ValidationError("frame shift must not exceed frame length")
        if self.window_kind not in WINDOW_KINDS:
            raise ValidationError(f"unknown window kind {self.window_kind!r}")
        if not 0.0 <= self.preemphasis < 1.0:
            raise ValidationError("preemphasis coefficient must be in [0, 1)")
        n = _as_int(self.fft_size, "fft_size")
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValidationError(f"fft_size must be a positive power of two, got {n}")


@dataclass(frozen=True)
class MelSpec:
    """Mel filterbank parameters: the number of filters and their band edges."""

    n_filters: int = 40
    low_freq_hz: float = 20.0
    high_freq_hz: float = 7800.0

    def __post_init__(self) -> None:
        if _as_int(self.n_filters, "n_filters") < 1:
            raise ValidationError("need at least one mel filter")
        for name in ("low_freq_hz", "high_freq_hz"):
            _as_real(getattr(self, name), name)
        if self.low_freq_hz < 0 or self.low_freq_hz >= self.high_freq_hz:
            raise ValidationError("mel band edges must satisfy 0 <= low < high")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Frames-by-coefficients feature matrix with provenance."""

    values: np.ndarray
    feature_kind: str
    frame_shift_ms: float

    def __post_init__(self) -> None:
        values = _as_array(self.values, 2, "feature matrix")
        if self.feature_kind not in FEATURE_KINDS:
            raise ValidationError(f"unknown feature kind {self.feature_kind!r}")
        if _as_real(self.frame_shift_ms, "frame_shift_ms") <= 0:
            raise ValidationError("frame_shift_ms must be positive")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _parse_fmt(body: bytes, path: str | Path) -> tuple[str | None, int, int, int]:
    """(sample dtype, channels, rate, block align) of a fmt chunk, from its first 40 bytes.

    The dtype is '<i2' for PCM16, '<f4' for float32 and None for another
    encoding. A sample is block align // channels bytes wide; its bits only
    rule out PCM of 8 bits or less and floats of other than 32 or 64 bits.
    An extensible format stands for its subformat.
    """
    if len(body) < 16:
        raise FormatError(f"{path}: fmt chunk of {len(body)} bytes, expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == _EXTENSIBLE:
        if len(body) < 40 or int.from_bytes(body[16:18], "little") < 22 or body[28:] != _GUID_TAIL:
            raise FormatError(f"{path}: extensible fmt chunk without a standard subformat")
        tag = int.from_bytes(body[24:28], "little")
    if tag not in (_PCM, _IEEE_FLOAT):
        raise FormatError(f"{path}: format tag {tag:#06x} is neither PCM nor IEEE float")
    if tag == _PCM and byte_rate != rate * block_align:
        raise FormatError(f"{path}: byte rate {byte_rate} is not {rate} Hz x {block_align} bytes")
    width = block_align // channels if channels else 0
    if tag == _PCM and width == 2 and not 1 <= bits <= 8 and bits <= 64:
        return "<i2", channels, rate, block_align
    if tag == _IEEE_FLOAT and width == 4 and bits in (32, 64):
        return "<f4", channels, rate, block_align
    return None, channels, rate, block_align


def load_wav(path: str | Path) -> Waveform:
    """Read a RIFF/WAVE file (PCM16 or float32) into a mono Waveform.

    Multichannel input is read as its first channel.
    PCM16 samples are scaled by 1/32768 so full scale maps into [-1, 1).
    The last data chunk is read as the fmt chunk before it declares, at the
    last fmt chunk's rate; other chunks are skipped. A truncated file, a
    broken chunk layout, another encoding and a non-finite sample in the
    first channel are a FormatError.
    """
    with open(path, "rb") as fh:
        file_end = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if head[:4] != b"RIFF" or head[8:] != b"WAVE":
            raise FormatError(f"{path}: not a RIFF/WAVE file")
        form_end = 8 + int.from_bytes(head[4:8], "little")
        fmt = data = None
        pos = 12
        while pos < form_end:
            header = fh.read(8)
            if len(header) < 8:
                raise FormatError(
                    f"{path}: truncated: the file ends at byte {file_end}, "
                    f"inside its {form_end}-byte RIFF form"
                )
            chunk_id, size = header[:4], int.from_bytes(header[4:], "little")
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(fh.read(min(size, 40)), path)
            elif chunk_id == b"data":
                data = (pos + 8, size, fmt)
            pos += 8 + size + size % 2
            fh.seek(pos)
        if data is None:
            raise FormatError(f"{path}: no data chunk")
        offset, size, data_fmt = data
        if data_fmt is None:
            raise FormatError(f"{path}: data chunk before any fmt chunk")
        dtype, n_channels, _, block_align = data_fmt
        if offset + size > file_end:
            raise FormatError(
                f"{path}: truncated: the data chunk ends at byte {offset + size}, "
                f"past the end of the file at byte {file_end}"
            )
        if block_align and size % block_align:
            raise FormatError(
                f"{path}: data chunk of {size} bytes is not a whole number "
                f"of {block_align}-byte sample frames"
            )
        if dtype is None:
            raise FormatError(f"{path}: unsupported sample encoding, expected PCM16 or float32")
        count = size // np.dtype(dtype).itemsize
        if count % n_channels:
            raise FormatError(f"{path}: {count} samples do not split into {n_channels} channels")
        fh.seek(offset)
        raw = np.fromfile(fh, dtype=dtype, count=count)[::n_channels]
    if raw.size == 0:
        raise EmptyInputError(f"{path}: file contains no audio samples")
    # Waveform checks every sample too. Of the two encodings only float32 can
    # hold NaN or infinity, and this check names the file as a FormatError.
    if dtype == "<f4" and not np.all(np.isfinite(raw)):
        raise FormatError(f"{path}: non-finite samples (NaN or infinity)")
    samples = raw.astype(np.float64)
    if dtype == "<i2":
        samples /= INT16_FULL_SCALE
    return Waveform(samples, fmt[2])


def save_wav(waveform: Waveform, path: str | Path) -> None:
    """Write a Waveform as mono PCM16 little-endian, clipping to [-1, 1]."""
    q = np.round(np.clip(waveform.samples, -1.0, 1.0) * INT16_FULL_SCALE)
    q = np.clip(q, -32768, 32767).astype("<i2")
    rate = waveform.sample_rate_hz
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + q.nbytes, b"WAVE", b"fmt ", 16, _PCM,
                         1, rate, 2 * rate, 2, 16, b"data", q.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(q.tobytes())


def mix_at_snr(
    clean: Waveform, noise: Waveform, snr_db: float, noise_offset: int = 0
) -> Waveform:
    """Add noise to clean speech at an exact target signal-to-noise ratio.

    The noise is read cyclically starting at noise_offset and extended to the
    clean signal's length. Power is the mean squared amplitude over the full
    mixed extent, so the measured SNR of the result matches snr_db by
    construction. An SNR that gives no finite, nonzero noise gain and a
    noise_offset that is not a nonnegative integer are ValidationErrors.
    """
    if clean.sample_rate_hz != noise.sample_rate_hz:
        raise SampleRateMismatchError(
            f"clean is {clean.sample_rate_hz} Hz but noise is {noise.sample_rate_hz} Hz"
        )
    if _as_int(noise_offset, "noise_offset") < 0:
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
    gain = _noise_gain(snr_db, p_clean, p_segment)
    return Waveform(clean.samples + gain * segment, clean.sample_rate_hz)


def _noise_gain(snr_db: float, p_clean: float = 1.0, p_noise: float = 1.0) -> float:
    """The noise amplitude gain that puts p_clean snr_db dB above gain**2 * p_noise.

    ValidationError unless snr_db is a finite real number and the gain,
    sqrt(p_clean / (p_noise * 10 ** (snr_db / 10))), is a finite, nonzero
    float. At unit powers that holds for |snr_db| below about 3080 dB.
    """
    if isinstance(snr_db, float) and not math.isfinite(snr_db):
        raise ValidationError(f"SNR {snr_db} dB is not finite")
    _as_real(snr_db, "SNR")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    noise_power = p_noise * ratio
    gain = float(np.sqrt(p_clean / noise_power)) if noise_power > 0.0 else math.inf
    if not 0.0 < gain < math.inf:
        raise ValidationError(f"SNR {snr_db} dB gives no finite, nonzero noise gain")
    return gain


def resample(waveform: Waveform, target_hz: int) -> Waveform:
    """Band-limited polyphase resampling to target_hz.

    Same-rate input is returned unchanged. The output length is
    round(n * target / source). Rates whose reduced ratio up/down has a term
    above 65536 raise ValidationError: the filter would take 20 * max(up, down)
    + 1 taps.
    """
    target_hz = _as_int(target_hz, "target rate")
    if target_hz <= 0:
        raise ValidationError(f"target rate must be positive, got {target_hz}")
    source_hz = waveform.sample_rate_hz
    if target_hz == source_hz:
        return waveform
    g = math.gcd(target_hz, source_hz)
    up, down = target_hz // g, source_hz // g
    if max(up, down) > 2**16:
        raise ValidationError(
            f"cannot resample {source_hz} Hz to {target_hz} Hz: the ratio {up}/{down} has a term above 65536"
        )
    y = scipy.signal.resample_poly(waveform.samples, up, down, window=_resample_taps(up, down))
    target_len = int(round(waveform.samples.size * target_hz / source_hz))
    if target_len < 1:
        raise TooShortError("input too short to resample to the target rate")
    # resample_poly gives ceil(n * up / down) samples, never fewer than target_len.
    return Waveform(y[:target_len], target_hz)


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


def _frame_count(n: int, length: int, hop: int) -> int:
    """Frames of length samples every hop in n samples, n >= length: 1 + (n - length) // hop."""
    return 1 + (n - length) // hop


def _frame_geometry(n: int, sample_rate_hz: int, spec: FrameSpec) -> tuple[int, int, int]:
    """(frame length, frame shift, frame count) of n samples at sample_rate_hz.

    Frame length and shift must be at least one sample and fft_size at least
    the frame length (ConfigError), and the n samples must hold one frame
    (TooShortError).
    """
    frame_len = int(round(spec.frame_length_ms * sample_rate_hz / 1000.0))
    frame_shift = int(round(spec.frame_shift_ms * sample_rate_hz / 1000.0))
    if frame_len < 1 or frame_shift < 1:
        raise ConfigError("frame length and shift must be at least one sample")
    if spec.fft_size < frame_len:
        raise ConfigError(f"fft_size {spec.fft_size} is smaller than the {frame_len}-sample frame")
    if n < frame_len:
        raise TooShortError(f"signal of {n} samples is shorter than one {frame_len}-sample frame")
    return frame_len, frame_shift, _frame_count(n, frame_len, frame_shift)


def _strided_frames(x: np.ndarray, length: int, hop: int) -> np.ndarray:
    """Read-only view of the windows of x along its last axis: length samples every hop.

    Shape x.shape[:-1] + (_frame_count(x.shape[-1], length, hop), length); x
    must hold one window. The rows of sliding_window_view(x, length)[::hop],
    without its per-call checks: the ndarray constructor over x's buffer (a
    C-contiguous copy when x is not C-contiguous), which takes about a third
    of as_strided's time per call.
    """
    x = np.ascontiguousarray(x)
    n = _frame_count(x.shape[-1], length, hop)
    step = x.strides[-1]
    frames = np.ndarray(
        x.shape[:-1] + (n, length), x.dtype, buffer=x, strides=x.strides[:-1] + (hop * step, step)
    )
    frames.flags.writeable = False
    return frames


def _power_spectra(
    x: np.ndarray, window: np.ndarray, hop: int, fft_size: int, preemphasis: float = 0.0
) -> np.ndarray:
    """|rfft(frame * window, fft_size)|^2 of each frame of x, shape (frames, fft_size // 2 + 1).

    Frames are window.size samples every hop of the 1-D signal x, which must
    hold one frame. With preemphasis a > 0 the frames are cut from
    y[t] = x[t] - a * x[t - 1], where x[-1] = 0, so y[0] = x[0]. Only the
    power matrix grows with x: _FRAME_BLOCK frames at a time, the samples
    they span are preemphasised, framed, windowed and transformed.
    """
    frame_len = window.size
    power = np.empty((_frame_count(x.size, frame_len, hop), fft_size // 2 + 1))
    for start in range(0, power.shape[0], _FRAME_BLOCK):
        rows = power[start : start + _FRAME_BLOCK]
        lo = start * hop
        hi = lo + (rows.shape[0] - 1) * hop + frame_len
        span = x[lo:hi]
        if preemphasis > 0.0:
            # (x[t - 1] * -a) + x[t] has the bits of x[t] - a * x[t - 1].
            prev = x[lo - 1 : hi - 1] if lo else np.concatenate(([0.0], x[: hi - 1]))
            span = prev * -preemphasis + span
        windowed = _strided_frames(span, frame_len, hop) * window
        np.abs(np.fft.rfft(windowed, n=fft_size), out=rows)
        np.square(rows, out=rows)
    return power


def _hz_to_mel(f: np.ndarray | float) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_edges(mel_spec: MelSpec) -> np.ndarray:
    """The n_filters + 2 equally spaced mel points: each filter's lower edge, center, upper edge."""
    low, high = _hz_to_mel(mel_spec.low_freq_hz), _hz_to_mel(mel_spec.high_freq_hz)
    return np.linspace(low, high, mel_spec.n_filters + 2)


@_constant
def _mel_filterbank(mel_spec: MelSpec, sample_rate_hz: int, fft_size: int) -> np.ndarray:
    """Triangular mel filters with unit peak at the rfft bin frequencies, (n_filters, bins)."""
    edges = _mel_edges(mel_spec)
    bin_mel = _hz_to_mel(np.fft.rfftfreq(fft_size, 1.0 / sample_rate_hz))
    lower = edges[:-2, None]
    center = edges[1:-1, None]
    upper = edges[2:, None]
    rising = (bin_mel[None, :] - lower) / (center - lower)
    falling = (upper - bin_mel[None, :]) / (upper - center)
    return np.clip(np.minimum(rising, falling), 0.0, None)


def fbank(
    waveform: Waveform, frame_spec: FrameSpec | None = None, mel_spec: MelSpec | None = None
) -> FeatureMatrix:
    """Log mel filterbank features: power spectra -> mel filters -> ln with floor.

    The power spectra are those of the preemphasised, framed and windowed
    signal that _power_spectra builds block by block from the waveform.
    """
    fspec = frame_spec if frame_spec is not None else FrameSpec()
    mspec = mel_spec if mel_spec is not None else MelSpec()
    sr = waveform.sample_rate_hz
    if mspec.high_freq_hz > sr / 2.0:
        raise ConfigError(f"mel high edge {mspec.high_freq_hz} Hz exceeds Nyquist for {sr} Hz audio")
    frame_len, shift, _ = _frame_geometry(waveform.samples.size, sr, fspec)
    window = _window(fspec.window_kind, frame_len)
    power = _power_spectra(waveform.samples, window, shift, fspec.fft_size, fspec.preemphasis)
    # One product over the whole utterance: per-block products give other bits.
    out = power @ _mel_filterbank(mspec, sr, fspec.fft_size).T
    np.maximum(out, LOG_FLOOR, out=out)
    np.log(out, out=out)
    return FeatureMatrix(out, "fbank", fspec.frame_shift_ms)


def splice_array(values: np.ndarray, left: int, right: int) -> np.ndarray:
    """Concatenate each row with its left/right neighbors, replicating edges.

    Returns a new array; row n is the flattened rows n-left .. n+right of an
    edge-padded copy of values, read through one strided window.
    """
    if left < 0 or right < 0:
        raise ValidationError("context sizes must be nonnegative")
    n = values.shape[0]
    padded = np.empty((left + n + right,) + values.shape[1:], dtype=values.dtype)
    padded[:left] = values[0]
    padded[left : left + n] = values
    padded[left + n :] = values[-1]
    row = values[0].size
    return _strided_frames(padded.reshape(-1), (left + 1 + right) * row, row).copy()


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
