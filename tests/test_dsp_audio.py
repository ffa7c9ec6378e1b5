"""WAV round trips, PCM scaling and resampling."""

import os
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.io import wavfile

from ageval import dsp
from ageval.errors import AgevalError, EmptyInputError, FormatError, ValidationError


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
    signaling_nan = np.array(0x7F800001, np.uint32).view(np.float32)
    for bad in (np.nan, np.inf, -np.inf, signaling_nan):
        path = tmp_path / "bad.wav"
        wavfile.write(path, 16000, np.array([0.1, bad, -0.2], dtype=np.float32))
        with pytest.raises(FormatError, match="non-finite samples"):
            dsp.load_wav(path)


def test_load_wav_scans_pcm16_samples_once_and_keeps_their_bits(tmp_path):
    # A PCM16 sample cannot be NaN or infinite: only Waveform checks it.
    every = np.arange(-32768, 32768).astype(np.int16)
    wavfile.write(tmp_path / "all.wav", 16000, every)
    with mock.patch.object(np, "isfinite", wraps=np.isfinite) as isfinite:
        samples = dsp.load_wav(tmp_path / "all.wav").samples
    assert isfinite.call_count == 1
    assert samples.tobytes() == (every.astype(np.float64) / 32768.0).tobytes()


def test_waveform_rejects_non_finite_samples():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            dsp.Waveform(np.array([0.1, bad, -0.2]), 16000)


def test_load_wav_reads_a_stereo_file_as_its_first_channel(tmp_path):
    path = tmp_path / "stereo.wav"
    left = (np.arange(10) * 100).astype(np.int16)
    right = -left
    wavfile.write(path, 16000, np.stack([left, right], axis=1))
    assert dsp.load_wav(path).samples.tobytes() == (left / 32768.0).tobytes()


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


def wav_bytes(tmp_path):
    """A valid one-second PCM16 file: 16000 samples, 32000 data bytes."""
    dsp.save_wav(tone(440.0, seconds=1.0), tmp_path / "ok.wav")
    return bytearray((tmp_path / "ok.wav").read_bytes())


def with_size(data, chunk_id, size):
    """data with the size field of its first chunk named chunk_id set to size."""
    at = 4 if chunk_id == b"RIFF" else data.index(chunk_id) + 4
    return data[:at] + size.to_bytes(4, "little") + data[at + 4 :]


def test_load_wav_rejects_a_truncated_data_chunk_without_a_warning(tmp_path):
    # Cut 200 bytes short, scipy alone reads 15900 of 16000 samples and warns.
    data = wav_bytes(tmp_path)
    cases = {
        "cut": data[:-200],
        "huge data size": with_size(data, b"data", 0x7FFFFFFF),
        "all-ones data size": with_size(data, b"data", 0xFFFFFFFF),
    }
    for name, broken in cases.items():
        (tmp_path / "bad.wav").write_bytes(broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error", wavfile.WavFileWarning)
            with pytest.raises(FormatError, match="truncated: the data chunk ends"):
                dsp.load_wav(tmp_path / "bad.wav")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: with_size(d, b"RIFF", len(d) + 10), "truncated: the file ends"),
        (lambda d: with_size(d + b"\0\0\0", b"RIFF", len(d) + 3 - 8), "truncated: the file ends"),
        (lambda d: with_size(d, b"RIFF", 4), "no data chunk"),
        (lambda d: with_size(d, b"data", 31999), "not a whole number of 2-byte sample frames"),
        (lambda d: b"RIFX" + d[4:], "not a RIFF/WAVE file"),
    ],
    ids=["form past the end", "a partial chunk header", "form ends before data", "odd data size",
         "big-endian"],
)
def test_load_wav_rejects_a_broken_chunk_layout_without_a_warning(tmp_path, mutate, message):
    (tmp_path / "bad.wav").write_bytes(mutate(wav_bytes(tmp_path)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", wavfile.WavFileWarning)
        with pytest.raises(FormatError, match=message):
            dsp.load_wav(tmp_path / "bad.wav")


@pytest.mark.parametrize("n", [1, 4801, 21001])
@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_save_wav_writes_the_bytes_of_scipy_wavfile_write(tmp_path, n, rate):
    samples = np.random.default_rng(n).uniform(-1.2, 1.2, n)
    samples[:3] = [1.0, -1.0, 0.5 / 32768][:n]
    dsp.save_wav(dsp.Waveform(samples, rate), tmp_path / "ours.wav")
    pcm = np.clip(np.round(np.clip(samples, -1.0, 1.0) * 32768.0), -32768, 32767)
    wavfile.write(tmp_path / "scipy.wav", rate, pcm.astype(np.int16))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


# load_wav against the reader it replaced ------------------------------------

def scipy_check_riff_layout(fh, path):
    """The chunk walk that ran before scipy.io.wavfile.read, as it was."""
    file_end = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12 or head[:4] != b"RIFF" or head[8:] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    form_end = 8 + int.from_bytes(head[4:8], "little")
    block_align = 0
    has_data = False
    pos = 12
    while pos < form_end:
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{path}: truncated: the file ends inside the RIFF form")
        chunk_id, size = header[:4], int.from_bytes(header[4:], "little")
        if chunk_id == b"fmt " and size >= 16:
            block_align = int.from_bytes(fh.read(14)[12:], "little")
        elif chunk_id == b"data":
            if pos + 8 + size > file_end:
                raise FormatError(f"{path}: truncated: the data chunk ends past the file")
            if block_align and size % block_align:
                raise FormatError(f"{path}: data chunk is not a whole number of sample frames")
            has_data = True
        pos += 8 + size + size % 2
        fh.seek(pos)
    if not has_data:
        raise FormatError(f"{path}: no data chunk")
    fh.seek(0)


def scipy_load_wav(path):
    """load_wav as it was: the walk above, then scipy.io.wavfile.read, then a dtype filter."""
    with open(path, "rb") as fh:
        scipy_check_riff_layout(fh, path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", wavfile.WavFileWarning)
                rate, data = wavfile.read(fh)
        except Exception as exc:
            raise FormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if data.dtype not in (np.int16, np.float32):
        raise FormatError(f"{path}: unsupported sample encoding {data.dtype}")
    if data.ndim == 2:
        data = data[:, 0]
    # A signaling NaN warns as it is cast; outside a test the warning went to stderr.
    with np.errstate(invalid="ignore"):
        samples = data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0
    if samples.size == 0:
        raise EmptyInputError(f"{path}: file contains no audio samples")
    if data.dtype == np.float32 and not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: non-finite samples (NaN or infinity)")
    return dsp.Waveform(samples, int(rate))


def load_outcome(load, path):
    """(rate, sample bytes) of a file load reads, or the type of the AgevalError it raises."""
    try:
        wave = load(path)
    except AgevalError as exc:
        return type(exc)
    return wave.sample_rate_hz, wave.samples.tobytes()


PCM, IEEE_FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
META_IDS = [b"LIST", b"bext", b"JUNK", b"fact", b"Fake", b"id3 ", b"cue "]


def chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def fmt_body(tag, channels, rate, width, bits, block_align=None, byte_rate=None):
    block_align = width * channels if block_align is None else block_align
    byte_rate = rate * block_align if byte_rate is None else byte_rate
    return struct.pack("<HHIIHH", tag, channels, rate, byte_rate, block_align, bits)


def extension(subformat, bits, size=22, tail=GUID_TAIL):
    """cbSize, valid bits, channel mask and the subformat GUID of an extensible fmt chunk."""
    return struct.pack("<HHII", size, bits, 0, subformat) + tail


def riff(*chunks):
    form = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(form)) + form


def sometimes(draw, strategy, usual):
    """A draw from strategy one time in four, else usual."""
    return draw(strategy) if draw(st.integers(0, 3)) == 3 else usual


@st.composite
def fmt_chunks(draw, valid):
    """A PCM16 or float32 fmt chunk, plain or extensible, and its block align.

    Unless valid, a field is now and then changed or the chunk cut.
    """
    def field(strategy, usual):
        return usual if valid else sometimes(draw, strategy, usual)

    tag, width = draw(st.sampled_from([(PCM, 2), (IEEE_FLOAT, 4)]))
    channels = field(st.integers(0, 4), draw(st.sampled_from([1, 2])))
    width = field(st.sampled_from([1, 2, 3, 4, 8]), width)
    bits = field(st.sampled_from([0, 4, 8, 12, 24, 32, 64, 65]), 8 * width)
    rate = field(st.sampled_from([0, 8000, 44100]), 16000)
    block_align = field(st.integers(0, 20), width * channels)
    byte_rate = field(st.integers(0, 2**20), rate * block_align)
    extensible = draw(st.booleans())
    body = fmt_body(EXTENSIBLE if extensible else tag, channels, rate, width, bits, block_align,
                    byte_rate)
    if extensible:
        subformat = field(st.sampled_from([PCM, IEEE_FLOAT, 2, 0x10001]), tag)
        size = field(st.sampled_from([0, 21, 30]), 22)
        tail = field(st.just(GUID_TAIL[:-1] + b"\0"), GUID_TAIL)
        body += extension(subformat, bits, size, tail)
    # Cut to 16 or 18 bytes, or 2 bytes past the end.
    body = field(st.sampled_from([16, 18, 42]).map(lambda cut: (body + b"\0\0")[:cut]), body)
    return chunk(b"fmt ", body), block_align


def data_chunk(draw, valid, block_align):
    """Whole frames of block_align bytes, or unless valid now and then any bytes."""
    size = draw(st.integers(0, 6)) * block_align
    sizes = st.just(size) if valid else st.integers(0, 40)
    return chunk(b"data", draw(sizes.flatmap(lambda n: st.binary(min_size=n, max_size=n))))


meta_chunks = st.tuples(
    st.sampled_from(META_IDS) | st.binary(min_size=4, max_size=4), st.binary(max_size=9)
).map(lambda c: chunk(*c))


@st.composite
def wav_files(draw):
    """A fmt and a data chunk with metadata chunks anywhere; or, half the time, a mutant.

    A mutant's fields are now and then changed, it may hold more fmt and
    data chunks in any order, and its bytes may be overwritten or cut.
    """
    valid = draw(st.booleans())
    fmt, block_align = draw(fmt_chunks(valid))
    chunks = [fmt, data_chunk(draw, valid, block_align)]
    extras = meta_chunks if valid else meta_chunks | fmt_chunks(False).map(lambda c: c[0]) | (
        st.integers(0, 10).flatmap(lambda n: st.binary(min_size=n, max_size=n))
        .map(lambda body: chunk(b"data", body)))
    for extra in draw(st.lists(extras, max_size=3)):
        chunks.insert(draw(st.integers(0, len(chunks))), extra)
    data = bytearray(riff(*chunks))
    if valid:
        return bytes(data)
    flips = sometimes(draw, st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
                                     min_size=1, max_size=2), [])
    for at, value in flips:
        data[at] = value
    data[4:8] = struct.pack("<I", sometimes(draw, st.integers(0, len(data) + 8), len(data) - 8))
    return bytes(data[: sometimes(draw, st.integers(0, len(data)), len(data))])


def last_data_chunk_only(data):
    """data with each data chunk a RIFF walk meets before the last one renamed to an unknown ID.

    load_wav reads the last data chunk alone. The scipy reader also decoded
    the earlier ones, and failed on one it could not decode, for example one
    with zero channels, even when a later data chunk replaced it.
    """
    form_end = 8 + int.from_bytes(data[4:8], "little")
    starts, pos = [], 12
    while pos < form_end and pos + 8 <= len(data):
        if data[pos : pos + 4] == b"data":
            starts.append(pos)
        size = int.from_bytes(data[pos + 4 : pos + 8], "little")
        pos += 8 + size + size % 2
    out = bytearray(data)
    for at in starts[:-1]:
        out[at : at + 4] = b"dat0"
    return bytes(out)


@given(data=wav_files())
@settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_load_wav_reads_what_the_scipy_reader_read(tmp_path, data):
    (tmp_path / "f.wav").write_bytes(data)
    (tmp_path / "last.wav").write_bytes(last_data_chunk_only(data))
    want = load_outcome(scipy_load_wav, tmp_path / "last.wav")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_outcome(dsp.load_wav, tmp_path / "f.wav")
    assert got == want


@pytest.mark.parametrize("subformat, samples", [
    (PCM, np.array([-32768, 7, 32767, 0, -5, 12], np.int16)),
    (IEEE_FLOAT, np.array([-1.0, 0.25, 0.5, 0.0, 3.0, -0.125], np.float32)),
])
def test_load_wav_reads_extensible_pcm16_and_float32(tmp_path, subformat, samples):
    width = samples.itemsize
    fmt = fmt_body(EXTENSIBLE, 2, 22050, width, 8 * width) + extension(subformat, 8 * width)
    (tmp_path / "ext.wav").write_bytes(riff(chunk(b"fmt ", fmt), chunk(b"data", samples.tobytes())))
    scale = 32768.0 if subformat == PCM else 1.0
    wave = dsp.load_wav(tmp_path / "ext.wav")
    assert wave.sample_rate_hz == 22050
    assert wave.samples.tobytes() == (samples[::2] / scale).astype(np.float64).tobytes()
    assert load_outcome(scipy_load_wav, tmp_path / "ext.wav") == (wave.sample_rate_hz, wave.samples.tobytes())


def test_load_wav_reads_the_last_data_chunk_at_the_last_fmt_chunks_rate(tmp_path):
    first, last = np.array([1, 2], np.int16), np.array([0.5, -0.25], np.float32)
    no_channels = fmt_body(PCM, 0, 16000, 2, 16, block_align=2)
    (tmp_path / "two.wav").write_bytes(riff(
        chunk(b"fmt ", no_channels), chunk(b"data", first.tobytes()),
        chunk(b"fmt ", fmt_body(IEEE_FLOAT, 1, 16000, 4, 32)), chunk(b"data", last.tobytes()),
        chunk(b"fmt ", fmt_body(PCM, 1, 8000, 1, 8)),
    ))
    wave = dsp.load_wav(tmp_path / "two.wav")
    assert (wave.sample_rate_hz, wave.samples.tobytes()) == (8000, last.astype(np.float64).tobytes())
    # The scipy reader failed on the first data chunk, which has no channels.
    assert load_outcome(scipy_load_wav, tmp_path / "two.wav") is FormatError


def test_load_wav_skips_metadata_chunks_without_a_warning(tmp_path):
    samples = np.array([5, -9, 300], np.int16)
    fmt = chunk(b"fmt ", fmt_body(PCM, 1, 16000, 2, 16))
    data = chunk(b"data", samples.tobytes())
    # scipy.io.wavfile warned about bext and id3, chunk IDs it did not know.
    (tmp_path / "meta.wav").write_bytes(riff(
        chunk(b"bext", b"\1" * 7), fmt, chunk(b"LIST", b"INFOISFT\3\0\0\0ab\0"), data,
        chunk(b"id3 ", b"x"),
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wave = dsp.load_wav(tmp_path / "meta.wav")
    assert wave.samples.tobytes() == (samples / 32768.0).tobytes()
    assert load_outcome(scipy_load_wav, tmp_path / "meta.wav") == (16000, wave.samples.tobytes())


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


def test_resample_rejects_a_rate_ratio_before_designing_its_filter(monkeypatch):
    # 2000000011 Hz to 10 kHz would design a filter of 40 billion taps.
    def fail(up, down):
        raise AssertionError(f"a filter was designed for {up}/{down}")

    monkeypatch.setattr(dsp, "_resample_taps", fail)
    wave = dsp.Waveform(np.full(64, 0.1), 2_000_000_011)
    with pytest.raises(ValidationError, match="^cannot resample 2000000011 Hz to 10000 Hz"):
        dsp.resample(wave, 10000)
    with pytest.raises(ValidationError, match="^cannot resample 65537 Hz to 10000 Hz"):
        dsp.resample(dsp.Waveform(np.full(64, 0.1), 65537), 10000)


def test_resample_takes_every_ratio_of_rates_up_to_65536_hz(monkeypatch):
    designed = []

    def one_tap(up, down):
        designed.append(max(up, down))
        return np.ones(1)

    monkeypatch.setattr(dsp, "_resample_taps", one_tap)
    for source, target in [(65536, 65535), (65535, 1), (96000, 10000), (192000, 10000), (384000, 10000)]:
        out = dsp.resample(dsp.Waveform(np.full(65536, 0.1), source), target)
        assert out.samples.size == round(65536 * target / source)
    assert designed == [65536, 65535, 48, 96, 192]
