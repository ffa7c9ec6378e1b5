"""Benchmark for ageval: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload grid-serial --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Inputs are generated under ``.perfbench-work/`` and removed at the
end. Every set-up and every measured pass runs ``ageval.cli.main`` in a
forked copy of this process, so each pass starts as cold as a fresh command.
Its peak resident memory is read with ``wait4`` (see ``in_child``).

With ``--trace 0`` the set-up is repeated for at least ``SETUP_SECONDS``
(three times at least) and the measured phase for at least ``--seconds``
seconds (three passes at least). Each set-up and pass is scaled to a
reference host speed read by ``probe`` just before and after it, and medians
are reported. With ``--trace 1`` one untraced and one traced pass give the
per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every correctness check passed, 1 when one failed, and 2
when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
# The program under test is always this checkout's src/, never an installed copy.
sys.path.insert(0, str(ROOT / "src"))

import ageval  # noqa: E402
import ageval.cli  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from metrics import layer_metrics, median  # noqa: E402
from tracer import Tracer, missing  # noqa: E402

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
MIN_PASSES = 3
PROBE_BLOCKS = 5
PROBE_ROUNDS = 12
# Median probe() reading on the 2-core x86-64 VM the bounds were set on:
# scaled times are seconds at that host speed.
PROBE_NOMINAL_S = 0.21
SAMPLED_CHECK_ROWS = 12
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
OUTPUT_FILES = ("scores.csv", "skipped.csv", "report.json")


# ---------------------------------------------------------------- processes


def in_child(fn: Callable[[], object], log_path: Path) -> tuple[object, float]:
    """Run fn in a forked child; return its JSON-able result and the child's peak RSS in MB.

    The child's output goes to log_path. Peak RSS comes from wait4, so it
    covers the child and every process it waited for (its pool workers). A
    forked child starts with the pages it shares with this process, so the
    figure has this process's resident set at fork as its floor.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            os.dup2(log_fd, 1)
            os.dup2(log_fd, 2)
            try:
                payload = {"ok": True, "value": fn()}
            except BaseException:  # reported to the parent, which stops the run
                payload = {"ok": False, "error": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(payload).encode())
            sys.stdout.flush()
            sys.stderr.flush()
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    payload = json.loads(data) if data else {"ok": False, "error": f"exit status {status}, no result"}
    if not payload["ok"]:
        log_tail = log_path.read_text(errors="replace")[-4000:] if log_path.exists() else ""
        raise workloads.BenchError(f"child failed:\n{payload['error']}\n{log_path.name}:\n{log_tail}")
    return payload["value"], usage.ru_maxrss / 1024.0


def probe() -> float:
    """Seconds for a fixed mix of interpreter loops and numpy FFTs: a reading of the host's speed.

    On a shared VM each core's speed drifts by 20% or more over seconds to
    minutes, longer than a pass and often longer than a run, and every
    measured time drifts with it. The probe's work never changes, calls
    nothing in ageval and starts no BLAS threads, so its time moves with the
    host alone. The median block stands for all of them, so that one stall
    of the probe itself does not count.
    """
    signal = numpy.random.default_rng(0).standard_normal(1 << 14)
    blocks = []
    for _ in range(PROBE_BLOCKS):
        start = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            total = 0
            for j in range(40_000):
                total += j * j
            numpy.abs(numpy.fft.rfft(signal)) ** 2
        blocks.append(time.perf_counter() - start)
    return PROBE_BLOCKS * median(blocks)


def probe_processes(n: int) -> float:
    """Mean probe() reading of n processes run at once; in this process when n is 1.

    A single-process job keeps to the core it started on, so its own process
    reads that core. A pool spreads over the cores, so as many processes read
    them all.
    """
    if n == 1:
        return probe()
    children = []
    for _ in range(n):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            try:
                os.close(read_fd)
                os.write(write_fd, repr(probe()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    readings = []
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        os.waitpid(pid, 0)
        if not data:
            raise workloads.BenchError("a probe process ended without a reading")
        readings.append(float(data))
    return sum(readings) / n


def gauged(job: Callable[[], dict], processes: int) -> dict:
    """Run job between two host-speed readings taken where it runs; add their mean as probe_s."""
    before = probe_processes(processes)
    result = job()
    result["probe_s"] = (before + probe_processes(processes)) / 2
    return result


def timed_setup(wl, out: Path, seed: int, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    start = time.perf_counter()
    inputs = wl.setup(out, seed)
    elapsed = time.perf_counter() - start
    return {"s": elapsed, "inputs": inputs, "trace": tracer.snapshot() if tracer else {}}


def timed_pass(wl, inputs: dict, out: Path, workers: int, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()  # never removed: the forked child exits after this pass
    phases = []
    for phase in wl.phases(inputs, out, workers):
        start = time.perf_counter()
        rc = ageval.cli.main(phase.argv)
        phases.append({"name": phase.name, "rc": rc, "expected_rc": phase.expected_rc,
                       "s": time.perf_counter() - start})
    return {"phases": phases, "trace": tracer.snapshot() if tracer else {}}


# ---------------------------------------------------------------- records


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every scores.csv / skipped.csv / report.json a pass wrote, by relative path."""
    found = sorted(p for p in out.rglob("*") if p.name in OUTPUT_FILES)
    return {str(p.relative_to(out)): sha256(p) for p in found}


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, workers: int) -> dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
        "seed": seed,
        "workers": workers,
    }


class Verdict:
    """Rows (or groups) attempted, those with a wrong outcome, and run-wide problems."""

    def __init__(self) -> None:
        self.attempted: list[str] = []
        self.wrong: set[str] = set()
        self.problems: list[str] = []

    def fail_all(self, problem: str) -> None:
        """A problem that makes every attempted outcome wrong, such as an unexpected exit code."""
        self.problems.append(problem)
        self.wrong.update(self.attempted)

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.problems


def check_run(inputs: dict, out: Path, results: list[dict], verdict: Verdict, verify_ids) -> None:
    """Check the outputs one pass wrote in out, then every pass's exit codes and digests.

    Passes whose digests match the checked pass wrote the same bytes, so
    checking one checks all.
    """
    if "manifest" in inputs:
        ids, wrong, notes = workloads.check_scores(inputs, out / "score", verify_ids)
        verdict.attempted = ids
        verdict.wrong |= wrong
        if (out / "correlate").is_dir():
            members, bad_groups, more = workloads.check_report(
                out / "score" / "scores.csv", out / "correlate" / "report.json", "snr_db")
            for group in bad_groups:
                verdict.wrong.update(members.get(group, [group]))
            notes += more
    else:
        members, bad_groups, notes = workloads.check_report(
            Path(inputs["scores"]), out / "correlate" / "report.json", workloads.WIDE_TAG)
        verdict.attempted = sorted(members)
        verdict.wrong |= bad_groups
    for note in notes[:20]:
        print(f"check: {note}")
    for result in results:
        for phase in result["phases"]:
            if phase["rc"] != phase["expected_rc"]:
                verdict.fail_all(f"{phase['name']} exited with {phase['rc']}, expected {phase['expected_rc']}")
        if result["digests"] != results[0]["digests"]:
            verdict.fail_all("outputs differ between passes")


# ---------------------------------------------------------------- runs


def _rows_per_s(result: dict, phase_name: str, rows: int) -> float:
    for phase in result["phases"]:
        if phase["name"] == phase_name:
            return rows / phase["s"]
    return 0.0


def _wall(result: dict) -> float:
    return sum(p["s"] for p in result["phases"])


def print_input_properties(inputs: dict, workers: int) -> dict:
    props = workloads.input_properties(inputs, workers)
    print("input " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in props.items()))
    return props


def run_e2e(wl, seed: int, seconds: float, work: Path, nproc: int, verdict: Verdict) -> dict[str, float]:
    workers = wl.workers(nproc)
    setups: list[dict] = []
    start = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        out = work / f"setup{len(setups)}"
        setups.append(in_child(lambda: gauged(lambda: timed_setup(wl, out, seed, False), 1), work / "setup.log")[0])
    inputs = setups[0]["inputs"]
    fixed = [{f: sha256(work / f"setup{i}" / f) for f in inputs["fixed_files"]} for i in range(len(setups))]
    if any(f != fixed[0] for f in fixed):
        verdict.problems.append("set-up is not reproducible from the seed")
    for i in range(1, len(setups)):
        shutil.rmtree(work / f"setup{i}")
    props = print_input_properties(inputs, workers)

    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        out = work / f"pass{len(passes)}"
        result, rss_mb = in_child(lambda: gauged(lambda: timed_pass(wl, inputs, out, workers, False), workers),
                                  work / "pass.log")
        result["peak_rss_mb"] = rss_mb
        result["digests"] = output_digests(out)
        passes.append(result)
        if len(passes) > 1:
            shutil.rmtree(out)
    print("unscaled wall_s=" + ",".join(f"{_wall(r):.4f}" for r in passes)
          + " setup_s=" + ",".join(f"{s['s']:.4f}" for s in setups))
    print("probe_s passes=" + ",".join(f"{r['probe_s']:.4f}" for r in passes)
          + " setups=" + ",".join(f"{s['probe_s']:.4f}" for s in setups))
    for name, digest in passes[0]["digests"].items():
        print(f"digest {name} sha256={digest}")
    verify = None
    if "manifest" in inputs:
        ids = [r["utt_id"] for r in workloads.read_csv(inputs["manifest"])]
        verify = workloads.sample_ids(ids, inputs["planted"], SAMPLED_CHECK_ROWS, seed)
    check_run(inputs, work / "pass0", passes, verdict, verify)
    return {
        "setup_s": median([s["s"] * PROBE_NOMINAL_S / s["probe_s"] for s in setups]),
        "wall_s": median([_wall(r) * PROBE_NOMINAL_S / r["probe_s"] for r in passes]),
        "rows_per_s": median([_rows_per_s(r, wl.primary, props["rows"]) * r["probe_s"] / PROBE_NOMINAL_S
                              for r in passes]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passes]),
    }


def run_traced(wl, seed: int, work: Path, nproc: int, verdict: Verdict) -> dict[str, float]:
    workers = wl.workers(nproc)
    setup = in_child(lambda: timed_setup(wl, work / "setup0", seed, True), work / "setup.log")[0]
    inputs = setup["inputs"]
    props = print_input_properties(inputs, workers)

    def run(name: str, pass_workers: int, traced: bool) -> dict:
        out = work / name
        result = in_child(lambda: timed_pass(wl, inputs, out, pass_workers, traced), work / "pass.log")[0]
        result["digests"] = output_digests(out)
        for file, digest in result["digests"].items():
            print(f"digest {name}/{file} sha256={digest}")
        return result

    plain = run("untraced", workers, False)
    traced = run("traced", workers, True)
    source = traced
    speedup = 0.0
    if workers > 1:
        source = run("serial", 1, True)
        pooled_s = traced["trace"].get("harness.score_manifest", {}).get("total", 0.0)
        serial_s = source["trace"].get("harness.score_manifest", {}).get("total", 0.0)
        speedup = serial_s / pooled_s if pooled_s else 0.0
    check_run(inputs, work / "untraced", [plain, traced, source], verdict, verify_ids=None)  # every row

    absent = missing(source["trace"], wl.required_measured) + missing(setup["trace"], wl.required_setup)
    if absent:
        verdict.problems.append(f"trace recorded no calls for {absent}")
    skipped = workloads.read_csv(work / "untraced" / "score" / "skipped.csv") if "manifest" in inputs else []
    rows = props["rows"]
    corr_rows = rows if "manifest" not in inputs else len(workloads.read_csv(work / "untraced" / "score" / "scores.csv"))
    return layer_metrics(
        source["trace"],
        setup["trace"],
        skip_count=len(skipped),
        reuse_share=props["clean_reuse_share"],
        pool_speedup=speedup,
        trace_overhead_s=_wall(traced) - _wall(plain),
        score_rows_per_s=_rows_per_s(plain, "score", rows),
        correlate_rows_per_s=_rows_per_s(plain, "correlate", corr_rows),
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(ageval.__file__).resolve().parent != ROOT / "src" / "ageval":
        print(f"perfbench: ageval imported from {ageval.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(environment(args.seed, wl.workers(nproc)), sort_keys=True))

    work = ROOT / ".perfbench-work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    verdict = Verdict()
    try:
        if args.trace:
            values = run_traced(wl, args.seed, work, nproc, verdict)
            declared = SPEC["per_layer"]
        else:
            values = run_e2e(wl, args.seed, args.seconds, work, nproc, verdict)
            declared = SPEC["end_to_end"]
        values = {m["name"]: values[m["name"]] for m in declared}
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other workload's run is using it
        except OSError:
            pass

    for name, value in values.items():
        print(f"metric {name} {value:.6g} {UNITS[name]}")
    attempted = len(verdict.attempted)
    failed = len(verdict.wrong)
    print(f"metric fail_ratio {failed / attempted if attempted else 1.0:.6g} ratio")
    for problem in verdict.problems:
        print(f"problem: {problem}")
    print(f"correct {str(verdict.correct).lower()}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }))
    return 0 if verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
