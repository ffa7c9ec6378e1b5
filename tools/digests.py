"""Print the sha256 of every file the fixture -> score -> correlate pipeline writes.

    python3 tools/digests.py --seed 0 --out /tmp/digests

runs, under --out (which must not exist yet):

- fixture/          `ageval fixture --seed N`
- score/            `ageval score` on the fixture, one process
- score-workers2/   the same with `--workers 2`
- correlate/        `ageval correlate` on score/scores.csv, ungrouped
- correlate-snr_db/ the same with `--group-by snr_db`

and prints one `<sha256>  <path under --out>` line per file, sorted by path.
Two checkouts write the same bytes when their outputs are equal, for example
`diff <(python3 tools/digests.py --seed 0 --out a) <(...)` run from each. The
package is imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ageval.cli import main as ageval  # noqa: E402


def _run(argv: list[str]) -> None:
    # The commands' own messages name --out; only the digests go to stdout.
    with contextlib.redirect_stdout(sys.stderr):
        code = ageval(argv)
    if code != 0:
        raise SystemExit(f"ageval {' '.join(argv)} exited with code {code}")


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
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
