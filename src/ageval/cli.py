"""Command-line interface: the fixture -> score -> correlate pipeline, and mix.

Exit codes: 0 on success, 1 on a fatal configuration or format error or a
dead pool worker, 2 when a scoring run completed but had to skip rows.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

from . import am, dsp, fixture, harness
from .errors import AgevalError, ConfigError


def _cmd_mix(args: argparse.Namespace) -> int:
    clean = dsp.load_wav(args.clean)
    noise = dsp.load_wav(args.noise)
    mixed = dsp.mix_at_snr(clean, noise, args.snr, args.offset)
    dsp.save_wav(mixed, args.out)
    print(f"wrote {args.out} ({mixed.samples.size} samples at {mixed.sample_rate_hz} Hz)")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    measures = tuple(m.strip() for m in args.measures.split(",") if m.strip())
    cfg = harness.RunConfig(measures, args.tolerance, args.workers)
    model = am.load_model(args.model) if args.model else None
    entries = harness.load_manifest(args.manifest)
    table, skipped = harness.score_manifest(entries, model, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_scores_csv(table, out / "scores.csv")
    harness.write_skip_log(skipped, out / "skipped.csv")
    print(f"scored {len(table)} of {len(entries)} utterances -> {out / 'scores.csv'}")
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
    for measure, reason in sorted(correlation.lost_curves.items()):
        print(f"skipped curve {measure}: {reason}", file=sys.stderr)
    return 0


def _cmd_fixture(args: argparse.Namespace) -> int:
    try:
        snr_grid = tuple(float(s) for s in args.snrs.split(","))
        fixture._check_snr_grid(snr_grid)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"--snrs: {exc}") from exc
    manifest = fixture.make_fixture_corpus(
        args.out, seed=args.seed, snr_grid=snr_grid, n_utts=args.utts
    )
    print(f"wrote {manifest}")
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

    p_score = sub.add_parser("score", help="score every utterance pair in a manifest")
    p_score.add_argument("--manifest", required=True)
    p_score.add_argument("--model", default=None, help="model JSON on default fbank (for age/entropy)")
    p_score.add_argument("--measures", default=",".join(harness.RunConfig.measures))
    p_score.add_argument("--tolerance", type=float, default=harness.RunConfig.alignment_tolerance,
                         help="relative clean/degraded length difference allowed")
    p_score.add_argument("--workers", type=int, default=harness.RunConfig.workers)
    p_score.add_argument("--out", required=True, help="output directory")
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
