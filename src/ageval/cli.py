"""Command-line interface: mix, features, score, correlate, fixture, train-toy.

Exit codes: 0 on success, 1 on a fatal configuration or format error or a
dead pool worker, 2 when a scoring run completed but had to skip rows.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import am, dsp, fixture, harness
from .errors import AgevalError, ConfigError, FormatError
from .measures import DEFAULT_ALIGNMENT_TOLERANCE


def _add_feature_flags(parser: argparse.ArgumentParser) -> None:
    frame, mel = dsp.FrameSpec, dsp.MelSpec  # the class attributes hold the defaults
    group = parser.add_argument_group("feature extraction")
    group.add_argument("--frame-ms", type=float, default=frame.frame_length_ms,
                       help="frame length in ms")
    group.add_argument("--shift-ms", type=float, default=frame.frame_shift_ms, help="frame shift in ms")
    group.add_argument("--window", choices=dsp.WINDOW_KINDS, default=frame.window_kind)
    group.add_argument("--preemphasis", type=float, default=frame.preemphasis)
    group.add_argument("--fft-size", type=int, default=frame.fft_size)
    group.add_argument("--n-filters", type=int, default=mel.n_filters, help="mel filterbank size")
    group.add_argument("--low-freq", type=float, default=mel.low_freq_hz, help="mel low edge in Hz")
    group.add_argument("--high-freq", type=float, default=mel.high_freq_hz,
                       help="mel high edge in Hz")
    group.add_argument("--n-cepstra", type=int, default=mel.n_cepstra)


def _specs_from_args(args: argparse.Namespace) -> tuple[dsp.FrameSpec, dsp.MelSpec]:
    frame_spec = dsp.FrameSpec(
        frame_length_ms=args.frame_ms,
        frame_shift_ms=args.shift_ms,
        window_kind=args.window,
        preemphasis=args.preemphasis,
        fft_size=args.fft_size,
    )
    mel_spec = dsp.MelSpec(
        n_filters=args.n_filters,
        low_freq_hz=args.low_freq,
        high_freq_hz=args.high_freq,
        n_cepstra=args.n_cepstra,
    )
    return frame_spec, mel_spec


def _cmd_mix(args: argparse.Namespace) -> int:
    clean = dsp.load_wav(args.clean)
    noise = dsp.load_wav(args.noise)
    mixed = dsp.mix_at_snr(clean, noise, args.snr, args.offset)
    dsp.save_wav(mixed, args.out)
    print(f"wrote {args.out} ({mixed.samples.size} samples at {mixed.sample_rate_hz} Hz)")
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    frame_spec, mel_spec = _specs_from_args(args)
    waveform = dsp.load_wav(args.input)
    extract = dsp.fbank if args.kind == "fbank" else dsp.mfcc
    feats = extract(waveform, frame_spec, mel_spec)
    dsp.save_features(feats, args.out)
    print(f"wrote {args.out} ({feats.n_frames} frames x {feats.dim} coefficients)")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    measures = tuple(m.strip() for m in args.measures.split(",") if m.strip())
    frame_spec, mel_spec = _specs_from_args(args)
    cfg = harness.RunConfig(
        measures=measures,
        feature_kind=args.feature_kind,
        frame_spec=frame_spec,
        mel_spec=mel_spec,
        alignment_tolerance=args.tolerance,
        workers=args.workers,
    )
    model = am.load_model(args.model) if args.model else None
    entries = harness.load_manifest(args.manifest)
    rows, skipped = harness.score_manifest(entries, model, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_scores_csv(harness.ScoreTable.from_rows(rows), out / "scores.csv")
    harness.write_skip_log(skipped, out / "skipped.csv")
    print(f"scored {len(rows)} of {len(entries)} utterances -> {out / 'scores.csv'}")
    if skipped:
        for utt_id, reason in skipped:
            print(f"skipped {utt_id}: {reason}", file=sys.stderr)
        return 2
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    table = harness.load_scores_csv(args.scores)
    group_key = None if args.group_by in ("none", "") else args.group_by
    correlation = harness.correlate_by_group(table, group_key)
    out = Path(args.out)
    if out.suffix.lower() == ".json":
        report_path = harness.emit_report(correlation, out.parent, out.name)
    else:
        report_path = harness.emit_report(correlation, out)
    print(f"wrote {report_path}")
    for name, reason in sorted(correlation.skipped.items()):
        print(f"skipped group {name}: {reason}", file=sys.stderr)
    return 0


def _numbers(pieces: Iterable[str], convert: Callable[[str], float], flag: str) -> tuple:
    try:
        return tuple(convert(p) for p in pieces)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _cmd_fixture(args: argparse.Namespace) -> int:
    snr_grid = _numbers(args.snrs.split(","), float, "--snrs")
    manifest = fixture.make_fixture_corpus(
        args.out, seed=args.seed, snr_grid=snr_grid, n_utts=args.utts
    )
    print(f"wrote {manifest}")
    return 0


def _cmd_train_toy(args: argparse.Namespace) -> int:
    feats = dsp.load_features(args.features)
    try:
        labels = np.loadtxt(args.labels, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise FormatError(f"{args.labels}: not one integer class index per line ({exc})") from exc
    hidden = _numbers([h for h in args.hidden.split(",") if h], int, "--hidden")
    model = am.train_toy(
        [feats],
        [labels],
        hidden_dims=hidden,
        activation=args.activation,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
        left_context=args.left_context,
        right_context=args.right_context,
    )
    am.save_model(model, args.out)
    loss = am.cross_entropy_loss(model, feats, labels)
    print(f"wrote {args.out} (final loss {loss:.6f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ageval",
        description="Score degraded speech against clean references and correlate with WER.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mix = sub.add_parser("mix", help="mix clean speech with noise at an exact SNR")
    p_mix.add_argument("--clean", required=True)
    p_mix.add_argument("--noise", required=True)
    p_mix.add_argument("--snr", type=float, required=True, help="target SNR in dB")
    p_mix.add_argument("--offset", type=int, default=0, help="noise start sample")
    p_mix.add_argument("--out", required=True)
    p_mix.set_defaults(func=_cmd_mix)

    p_feat = sub.add_parser("features", help="extract FBANK or MFCC features to a file")
    p_feat.add_argument("--in", dest="input", required=True)
    p_feat.add_argument("--kind", choices=("fbank", "mfcc"), default="fbank")
    p_feat.add_argument("--out", required=True, help=".csv for text, anything else for binary")
    _add_feature_flags(p_feat)
    p_feat.set_defaults(func=_cmd_features)

    p_score = sub.add_parser("score", help="score every utterance pair in a manifest")
    p_score.add_argument("--manifest", required=True)
    p_score.add_argument("--model", default=None, help="model JSON (needed for age/entropy)")
    p_score.add_argument("--measures", default=",".join(harness.RunConfig.measures))
    p_score.add_argument("--feature-kind", choices=("fbank", "mfcc"),
                         default=harness.RunConfig.feature_kind)
    p_score.add_argument("--tolerance", type=float, default=DEFAULT_ALIGNMENT_TOLERANCE,
                         help="relative clean/degraded length difference allowed")
    p_score.add_argument("--workers", type=int, default=harness.RunConfig.workers)
    p_score.add_argument("--out", required=True, help="output directory")
    _add_feature_flags(p_score)
    p_score.set_defaults(func=_cmd_score)

    p_corr = sub.add_parser("correlate", help="fit and correlate measures against WER")
    p_corr.add_argument("--scores", required=True, help="scores.csv from the score command")
    p_corr.add_argument("--group-by", default="none", help="tag column to group by, or 'none'")
    p_corr.add_argument("--out", required=True,
                        help="report path if it ends in .json, else an output directory")
    p_corr.set_defaults(func=_cmd_correlate)

    p_fix = sub.add_parser("fixture", help="generate a synthetic scoring corpus")
    p_fix.add_argument("--out", required=True)
    p_fix.add_argument("--seed", type=int, default=fixture.DEFAULT_SEED)
    p_fix.add_argument("--snrs", default=",".join(f"{s:g}" for s in fixture.DEFAULT_SNR_GRID))
    p_fix.add_argument("--utts", type=int, default=fixture.DEFAULT_N_UTTS)
    p_fix.set_defaults(func=_cmd_fixture)

    p_train = sub.add_parser("train-toy", help="train a small model on features + labels")
    p_train.add_argument("--features", required=True, help="feature file (binary or .csv)")
    p_train.add_argument("--labels", required=True, help="text file, one class index per line")
    p_train.add_argument("--hidden", default="16", help="comma-separated hidden layer sizes")
    p_train.add_argument("--activation", choices=am.HIDDEN_ACTIVATIONS, default="sigmoid")
    p_train.add_argument("--lr", type=float, default=0.1)
    p_train.add_argument("--epochs", type=int, default=200)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--left-context", type=int, default=0)
    p_train.add_argument("--right-context", type=int, default=0)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=_cmd_train_toy)

    return parser


# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Keep freed heap pages in the process instead of returning them after each row.

    glibc gives the top of the heap back to the kernel whenever more than its
    trim threshold is free there. Scoring frees one row's arrays just before
    the next row allocates the same sizes, so when those arrays sit at the top
    of the heap, which depends on where longer-lived objects happened to land,
    every row faults the same pages in again. A 600-row run then took about
    200,000 page faults and 0.4 s more system time in some processes and a
    few thousand faults in others. Fixed thresholds end that: blocks up to
    32 MiB (the largest glibc's own sliding threshold reaches) come from the
    heap, and up to 64 MiB free at its top is kept. Pool workers inherit the
    setting. Does nothing where the C library has no mallopt.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_heap()
    try:
        return args.func(args)
    # BrokenExecutor: a pool worker died, e.g. killed for lack of memory.
    except (AgevalError, OSError, BrokenExecutor) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
