"""Print the sha256 of every file the fixture -> score -> correlate pipeline writes.

    python3 tools/digests.py --seed 0 --out /tmp/digests

runs, under --out (which must not exist yet):

- fixture/          `ageval fixture --seed N`
- score/            `ageval score` on the fixture, one process
- score-workers2/   the same with `--workers 2`
- correlate/        `ageval correlate` on score/scores.csv, ungrouped
- correlate-snr_db/ the same with `--group-by snr_db`
- correlate-groups/ `ageval correlate --group-by cond` on groups.csv, a
  seeded synthetic scores file written there first: 50 groups of 10-70
  rows, a few without wer, and two of 5500 rows with wer, so fits come in
  many stacks of equal-length items, and the large groups' items in
  several; one group has only 2 rows with wer, one a constant measure and
  one a measure value of 1e307, and every row carries every measure
- correlate-errors/ `ageval correlate --group-by cond` on errors.csv, a
  seeded scores file of seven 40-row groups, so all items share stacks:
  two healthy, and one each whose age is constant, whose age holds one
  1e307, whose wer is constant, whose wer holds one 1e300 (no
  correlation) and whose wer holds one 1.35e154 (no RMSE)
- stoi-lengths/     `ageval score --measures stoi` (exit 2) on a manifest
  written there first: utt000's fixture rows (clean terms kept from the
  second row on), two rows of utt000_snr0 cut by 1% (a second aligned
  length, scored twice), one cut by 0.5% (a third, scored once) and one
  against an all-zero clean file (skipped as silent)

and prints one `<sha256>  <path under --out>` line per file, sorted by path.
Two checkouts write the same bytes when their outputs are equal, for example
`diff <(python3 tools/digests.py --seed 0 --out a) <(...)` run from each. The
package is imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ageval.cli import main as ageval  # noqa: E402
from ageval.dsp import Waveform, load_wav, save_wav  # noqa: E402


def _run(argv: list[str], expect: int = 0) -> None:
    # The commands' own messages name --out; only the digests go to stdout.
    with contextlib.redirect_stdout(sys.stderr):
        code = ageval(argv)
    if code != expect:
        raise SystemExit(f"ageval {' '.join(argv)} exited with code {code}, not {expect}")


def _write_group_scores(path: Path, seed: int) -> None:
    """The correlate-groups/ input: measures tracking a latent severity, WER, one tag."""
    rng = np.random.default_rng([seed, 19])
    sizes = [*rng.integers(10, 71, 50).tolist(), 5500, 5500]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "wer", "age", "entropy", "stoi", "cond"])
        for g, size in enumerate(sizes):
            severity = rng.uniform(0.0, 1.0, size)
            values = np.column_stack((
                0.3 + 2.5 * severity + rng.normal(0.0, 0.25, size),
                0.2 + 1.5 * severity + rng.normal(0.0, 0.3, size),
                0.95 - 0.6 * severity + rng.normal(0.0, 0.08, size),
            ))
            wer = 100.0 / (1.0 + np.exp(-rng.uniform(4.0, 12.0) * (severity - 0.5))) + rng.normal(0.0, 6.0, size)
            wer = np.clip(wer, 0.0, 100.0)
            # rows without wer: a few in each small group, all but 2 in group g002;
            # the two large groups fit 6 items of 5500 points, 2 per stack
            if g < 50:
                wer[rng.uniform(0.0, 1.0, size) < 0.1] = np.nan
            if g == 2:
                wer[2:] = np.nan
            if g == 3:
                values[:, 1] = 0.75  # a constant measure: its fit is skipped
            if g == 4:
                values[0, 0] = 1e307  # its mean is finite, its fit's start is not
            for i in range(size):
                cells = [repr(float(v)) for v in values[i]]
                writer.writerow([f"g{g:03d}_{i:04d}", "" if np.isnan(wer[i]) else repr(float(wer[i])),
                                 *cells, f"g{g:03d}"])


def _write_error_scores(path: Path, seed: int) -> None:
    """The correlate-errors/ input: one group per outcome of a correlation item, 40 rows each."""
    rng = np.random.default_rng([seed, 23])
    faults = ["healthy", "healthy", "age_constant", "age_1e307", "wer_constant", "wer_1e300", "wer_1e154"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utt_id", "wer", "age", "entropy", "stoi", "cond"])
        for g, fault in enumerate(faults):
            severity = rng.uniform(0.0, 1.0, 40)
            age = 0.3 + 2.5 * severity + rng.normal(0.0, 0.25, 40)
            entropy = 0.2 + 1.5 * severity + rng.normal(0.0, 0.3, 40)
            stoi = 0.95 - 0.6 * severity + rng.normal(0.0, 0.08, 40)
            wer = np.clip(100.0 * severity + rng.normal(0.0, 6.0, 40), 0.0, 100.0)
            if fault == "age_constant":
                age[:] = 0.75
            elif fault == "age_1e307":
                age[0] = 1e307
            elif fault == "wer_constant":
                wer[:] = 42.0
            elif fault == "wer_1e300":
                wer[0] = 1e300
            elif fault == "wer_1e154":
                wer[0] = 1.35e154  # its square overflows; the centred sums of 40 rows do not
            for i in range(40):
                writer.writerow([f"e{g}_{i:02d}", *(repr(float(v[i])) for v in (wer, age, entropy, stoi)),
                                 f"e{g}_{fault}"])


def _write_stoi_lengths(out: Path, fixture: Path) -> None:
    """The stoi-lengths/ input: one clean file scored at three aligned lengths, and a silent one."""
    with open(fixture / "manifest.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    col = {name: i for i, name in enumerate(header)}
    rows = [row for row in rows if row[col["clean_path"]] == "clean/utt000.wav"]
    for row in rows:
        for name in ("clean_path", "degraded_path"):
            row[col[name]] = "../fixture/" + row[col[name]]
    snr0 = load_wav(fixture / "degraded" / "utt000_snr0.wav")
    n, rate = snr0.samples.size, snr0.sample_rate_hz
    save_wav(Waveform(snr0.samples[: n - n // 100], rate), out / "cut1.wav")
    save_wav(Waveform(snr0.samples[: n - n // 200], rate), out / "cut05.wav")
    save_wav(Waveform(np.zeros(n), rate), out / "silent.wav")
    clean = "../fixture/clean/utt000.wav"
    for utt_id, clean_path, degraded_path in [
        ("cut1_a", clean, "cut1.wav"),
        ("cut1_b", clean, "cut1.wav"),
        ("cut05", clean, "cut05.wav"),
        ("silent_clean", "silent.wav", "../fixture/degraded/utt000_snr0.wav"),
    ]:
        row = [""] * len(header)
        row[col["utt_id"]], row[col["clean_path"]], row[col["degraded_path"]] = (
            utt_id, clean_path, degraded_path)
        rows.append(row)
    with open(out / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="a directory that does not exist yet")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True)
    manifest = str(out / "fixture" / "manifest.csv")
    model = str(out / "fixture" / "model.json")
    scores = str(out / "score" / "scores.csv")
    _run(["fixture", "--seed", str(args.seed), "--out", str(out / "fixture")])
    _run(["score", "--manifest", manifest, "--model", model, "--out", str(out / "score")])
    _run(["score", "--manifest", manifest, "--model", model, "--workers", "2",
          "--out", str(out / "score-workers2")])
    _run(["correlate", "--scores", scores, "--out", str(out / "correlate")])
    _run(["correlate", "--scores", scores, "--group-by", "snr_db",
          "--out", str(out / "correlate-snr_db")])
    groups = out / "correlate-groups"
    groups.mkdir()
    _write_group_scores(groups / "groups.csv", args.seed)
    _run(["correlate", "--scores", str(groups / "groups.csv"), "--group-by", "cond", "--out", str(groups)])
    errors = out / "correlate-errors"
    errors.mkdir()
    _write_error_scores(errors / "errors.csv", args.seed)
    _run(["correlate", "--scores", str(errors / "errors.csv"), "--group-by", "cond", "--out", str(errors)])
    lengths = out / "stoi-lengths"
    lengths.mkdir()
    _write_stoi_lengths(lengths, out / "fixture")
    _run(["score", "--manifest", str(lengths / "manifest.csv"), "--measures", "stoi",
          "--out", str(lengths)], expect=2)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
