"""The seed-0 pipeline writes the bytes recorded in tests/golden/digests_seed0.txt.

The file's first line names the numpy, scipy and Python versions and the
machine it was written on; the other lines are what

    OPENBLAS_NUM_THREADS=1 python3 tools/digests.py --seed 0 --out <new dir>

printed there. A change that means to move output bytes rewrites the file
the same way and names each moved file with its old and new digest.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

GOLDEN = Path(__file__).parent / "golden" / "digests_seed0.txt"
TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def build_line():
    return (f"# numpy {np.__version__} scipy {scipy.__version__} "
            f"python {platform.python_version()} machine {platform.machine()}")


def digests(lines):
    """{path: sha256} of `<sha256>  <path>` lines."""
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_seed0_outputs_keep_their_recorded_bytes(tmp_path):
    recorded, *lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    running = build_line()
    if recorded != running:
        pytest.skip(f"digests were recorded with {recorded[2:]}, this is {running[2:]}; "
                    "another numpy, scipy or BLAS build may round differently")
    # an open that relies on the locale's encoding fails the run
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(TOOL), "--seed", "0", "--out", str(tmp_path / "out")],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    want, got = digests(lines), digests(done.stdout.splitlines())
    moved = [f"{path}: {want.get(path, 'absent')} -> {got.get(path, 'absent')}"
             for path in sorted(want.keys() | got.keys()) if want.get(path) != got.get(path)]
    assert moved == [], "output bytes moved:\n" + "\n".join(moved)
