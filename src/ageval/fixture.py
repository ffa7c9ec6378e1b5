"""Self-contained synthetic scoring corpus for end-to-end exercises.

Utterances are sequences of amplitude-modulated harmonic tones from a small
set of classes, separated by silence. Each clean utterance is mixed with
white noise at every SNR in a grid, a toy acoustic model is trained on the
clean features, and each degraded utterance gets a surrogate WER: the frame
classification error rate of that model on the degraded features. Everything
is derived from one seed, so regenerating with the same arguments reproduces
the corpus byte for byte.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np

from . import am, dsp
from .errors import ConfigError

SAMPLE_RATE = 16000
DEFAULT_SEED = 0
DEFAULT_SNR_GRID = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
DEFAULT_N_UTTS = 20

N_TONE_CLASSES = 4
SILENCE_CLASS = 0

# Per-class fundamentals and spectral envelope peaks (Hz). Classes 2 and 3
# share nearby envelope peaks on purpose, so the trained model has a
# confusable pair and its errors carry model-specific structure.
_F0_HZ = (125.0, 185.0, 290.0, 440.0)
_PEAK_HZ = (550.0, 1400.0, 2500.0, 2900.0)
_PEAK_WIDTH_HZ = (350.0, 500.0, 700.0, 800.0)
_MAX_HARMONIC_HZ = 6800.0


def _tone_segment(
    rng: np.random.Generator, tone_class: int, n_samples: int, sample_rate_hz: int
) -> np.ndarray:
    """One amplitude-modulated harmonic tone with the class's spectral envelope, unit peak."""
    f0 = _F0_HZ[tone_class]
    peak = _PEAK_HZ[tone_class]
    width = _PEAK_WIDTH_HZ[tone_class]
    t = np.arange(n_samples) / sample_rate_hz
    signal = np.zeros(n_samples)
    harmonic = 1
    while harmonic * f0 < _MAX_HARMONIC_HZ:
        freq = harmonic * f0
        amp = 1.0 / (1.0 + ((freq - peak) / width) ** 2)
        signal += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
        harmonic += 1
    mod_rate = rng.uniform(2.5, 8.0)
    depth = rng.uniform(0.35, 0.6)
    signal *= 1.0 + depth * np.sin(2.0 * np.pi * mod_rate * t + rng.uniform(0.0, 2.0 * np.pi))
    edge = min(int(0.01 * sample_rate_hz), n_samples // 4)
    if edge > 0:
        ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
        signal[:edge] *= ramp
        signal[-edge:] *= ramp[::-1]
    return signal / np.abs(signal).max()


def _synth_utterance(
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Synthesize one utterance; returns (samples, [(start, end, class), ...])."""
    sr = SAMPLE_RATE
    pieces: list[np.ndarray] = []
    spans: list[tuple[int, int, int]] = []
    cursor = 0

    def silence(duration_s: float) -> None:
        nonlocal cursor
        n = int(duration_s * sr)
        pieces.append(np.zeros(n))
        cursor += n

    silence(rng.uniform(0.10, 0.18))
    for _ in range(int(rng.integers(3, 5))):
        tone_class = int(rng.integers(0, N_TONE_CLASSES))
        n = int(rng.uniform(0.18, 0.30) * sr)
        amplitude = rng.uniform(0.12, 0.22)
        pieces.append(_tone_segment(rng, tone_class, n, sr) * amplitude)
        spans.append((cursor, cursor + n, tone_class + 1))
        cursor += n
        silence(rng.uniform(0.06, 0.12))
    return np.concatenate(pieces), spans


def _frame_labels(
    n_samples: int, spans: Sequence[tuple[int, int, int]], frame_spec: dsp.FrameSpec
) -> np.ndarray:
    """Class of each analysis frame, decided by the sample at the frame center."""
    frame_len = frame_spec.frame_length_samples(SAMPLE_RATE)
    shift = frame_spec.frame_shift_samples(SAMPLE_RATE)
    n_frames = 1 + (n_samples - frame_len) // shift
    centers = frame_len // 2 + shift * np.arange(n_frames)
    labels = np.full(n_frames, SILENCE_CLASS, dtype=np.int64)
    for start, end, tone_class in spans:
        labels[(centers >= start) & (centers < end)] = tone_class
    return labels


def _snr_name(snr_db: float) -> str:
    return f"{snr_db:g}".replace("-", "m").replace(".", "p")


def make_fixture_corpus(
    out_dir: str | Path,
    seed: int = DEFAULT_SEED,
    snr_grid: Sequence[float] = DEFAULT_SNR_GRID,
    n_utts: int = DEFAULT_N_UTTS,
    epochs: int = 400,
) -> Path:
    """Generate a scoring corpus under out_dir and return the manifest path.

    Layout: clean/*.wav, degraded/*.wav, labels/*.txt, model.json,
    manifest.csv. The manifest has one row per (utterance, SNR) pair with the
    surrogate WER filled in and tags snr_db, noise_type, se_algo, condition.

    While the model trains, one helper thread writes, re-reads and
    featurizes the degraded rows in manifest order; their WERs follow once
    the model exists. The features finished during training are held in
    memory until then, about 32 KB per second of degraded audio (26 MB for
    20 utterances at 30 SNRs).
    """
    if len(snr_grid) == 0:
        raise ConfigError("the SNR grid must hold at least one SNR")
    out = Path(out_dir)
    (out / "clean").mkdir(parents=True, exist_ok=True)
    (out / "degraded").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)
    fspec, mspec = dsp.FrameSpec(), dsp.MelSpec()
    rng = np.random.default_rng(seed)

    clean_waves: list[dsp.Waveform] = []
    labels: list[np.ndarray] = []
    for u in range(n_utts):
        samples, spans = _synth_utterance(rng)
        dsp.save_wav(dsp.Waveform(samples, SAMPLE_RATE), out / "clean" / f"utt{u:03d}.wav")
        # Re-read so every downstream step sees the quantized file content.
        clean_waves.append(dsp.load_wav(out / "clean" / f"utt{u:03d}.wav"))
        frame_classes = _frame_labels(samples.size, spans, fspec)
        labels.append(frame_classes)
        with open(out / "labels" / f"utt{u:03d}.txt", "w") as fh:
            fh.writelines(f"{c}\n" for c in frame_classes)

    noise = dsp.Waveform(rng.normal(0.0, 1.0, size=int(1.5 * SAMPLE_RATE)), SAMPLE_RATE)
    tasks = [
        (u, snr_db, int(rng.integers(0, noise.samples.size)))
        for u in range(n_utts)
        for snr_db in snr_grid
    ]

    def degrade(task: tuple[int, float, int]) -> tuple[str, dsp.FeatureMatrix]:
        u, snr_db, offset = task
        name = f"utt{u:03d}_snr{_snr_name(snr_db)}.wav"
        dsp.save_wav(dsp.mix_at_snr(clean_waves[u], noise, snr_db, offset), out / "degraded" / name)
        degraded = dsp.load_wav(out / "degraded" / name)
        return name, dsp.mvn(dsp.fbank(degraded, fspec, mspec))

    clean_features = [dsp.mvn(dsp.fbank(w, fspec, mspec)) for w in clean_waves]
    rows: list[dict[str, str]] = []
    # One BLAS thread for the helper's features and the main thread's
    # training and forward passes, so no byte written depends on the
    # caller's thread setting. The pool is shut down before the count is
    # restored.
    with am._one_blas_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        try:
            degraded_features = pool.map(degrade, tasks)
            model = am.train_toy(
                clean_features,
                labels,
                hidden_dims=(32,),
                activation="sigmoid",
                learning_rate=1.0,
                epochs=epochs,
                seed=seed + 1,
                n_classes=N_TONE_CLASSES + 1,
                left_context=2,
                right_context=2,
            )
            am.save_model(model, out / "model.json")
            for (u, snr_db, _), (name, feats) in zip(tasks, degraded_features):
                wer = am.frame_error_rate(model, feats, labels[u])
                rows.append(
                    {
                        "utt_id": f"utt{u:03d}_snr{_snr_name(snr_db)}",
                        "clean_path": f"clean/utt{u:03d}.wav",
                        "degraded_path": f"degraded/{name}",
                        "wer": repr(float(wer)),
                        "snr_db": repr(float(snr_db)),
                        "noise_type": "white",
                        "se_algo": "noisy",
                        "condition": "fixture",
                    }
                )
        except BaseException:
            # Drop the rows not yet started instead of finishing them first.
            pool.shutdown(cancel_futures=True)
            raise

    manifest_path = out / "manifest.csv"
    with open(manifest_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "utt_id",
                "clean_path",
                "degraded_path",
                "wer",
                "snr_db",
                "noise_type",
                "se_algo",
                "condition",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    return manifest_path
