#!/usr/bin/env python3
"""Benchmark of the routegame CLI, driven in-process one job at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from src/.
One client calls `routegame.cli.main(argv)` in a closed loop (the next job
starts when the previous one has returned) and captures stdout. Each answer
is checked by perfbench/checks.py, which does not import routegame. Job times
run from the call to its return and exclude the check.

--trace 0 runs jobs for T seconds and reports the end-to-end metrics. Job
and set-up times are scaled to a reference machine speed measured between
jobs (see speed.py); raw wall times are in the provenance line.
--trace 1 runs a fixed list of jobs three times: once plain, for the tracing
overhead, and twice with spans around each layer's public functions. The
counts of the two traced passes must match exactly. It reports the per-layer
metrics of the first traced pass and writes its spans to
.perfbench-out/spans-<workload>.csv.gz.

The last line of stdout is the result as one JSON object; the line before it
records provenance (workload sizes, seed, nproc, Python, source digest).
Exit code 0 when the run completed, 2 when the program cannot be imported.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback

import speed
import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
# Set-up rounds in a timed run: one before the first job, the rest spread over the run.
SETUP_ROUNDS = 5
# A job's time tail is read at the highest percentile with this many jobs beyond it.
TAIL_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The routegame sources are not in this checkout."""


def import_program():
    """Import routegame.cli afresh from src/ (dropping any earlier import)."""
    if not os.path.isfile(os.path.join(SRC, "routegame", "cli.py")):
        raise ProgramMissing(f"no routegame sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in _program_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("routegame.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"routegame was imported from {cli.__file__}, not {SRC}")
    return cli


def source_digest() -> str:
    """sha256 over src/routegame/*.py, naming the code measured without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "routegame")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_job(cli, argv):
    """Call cli.main(argv); return (exit code or None, start, end, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed job, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter()
    return code, start, end, out.getvalue(), err.getvalue()


def verify(job, code, stdout, stderr) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[-300:]}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    try:
        return job.check(report)
    except Exception as exc:  # a malformed report fails its job
        return [f"check raised {exc!r}"]


class Tally:
    """Job intervals and failures; times are read at reference speed."""

    def __init__(self, gauge: speed.Gauge) -> None:
        self.gauge = gauge
        self.intervals: list[tuple[float, float]] = []
        self.failed = 0
        self.problems: list[str] = []

    def run(self, cli, job) -> None:
        self.gauge.tick()
        code, start, end, stdout, stderr = run_job(cli, job.argv)
        self.intervals.append((start, end))
        bad = verify(job, code, stdout, stderr)
        if bad:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{' '.join(job.argv)}: {'; '.join(bad)}")

    def add(self, other: "Tally") -> None:
        self.intervals += other.intervals
        self.failed += other.failed
        self.problems += other.problems

    def raw_times(self) -> list[float]:
        return [end - start for start, end in self.intervals]

    def times(self) -> list[float]:
        return [(end - start) * self.gauge.scale(start, end) for start, end in self.intervals]

    @property
    def attempted(self) -> int:
        return len(self.intervals)


def _program_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "routegame" or n.startswith("routegame.")}


def set_up(make, seed: int, tiny: bool, workdir: str):
    """Import the program, write the scenario files and make one warm-up call."""
    cli = import_program()
    os.makedirs(workdir, exist_ok=True)
    plan = make(seed, workdir, tiny)
    code, _, _, _, stderr = run_job(cli, plan.warmup)
    if code != 0:
        raise RuntimeError(f"warm-up {plan.warmup} exited {code}: {stderr}")
    return cli, plan


def repeat_set_up(make, seed: int, tiny: bool, workdir: str) -> tuple[float, float]:
    """One more set-up round, returning its (start, end). The program being
    measured stays imported. The round rewrites the run's scenario files with
    the same bytes: creating files costs ~0.5 ms each on an ext4 disk and
    drifts from run to run, which would swamp the program's own set-up."""
    measured = _program_modules()
    start = time.perf_counter()
    try:
        set_up(make, seed, tiny, workdir)
        return start, time.perf_counter()
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(measured)


def job_metrics(times: list[float], failed: int) -> dict[str, float]:
    ordered = sorted(times)
    n = len(ordered)
    return {
        "jobs_per_s": (n - failed) / sum(ordered),
        "job_s_p50": statistics.median(ordered),
        "job_s_tail": ordered[n - 1 - min(TAIL_BEYOND, n - 1)],
    }


def measure(cli, plan, seconds: float, again) -> tuple[Tally, list[tuple[float, float]]]:
    """Run jobs for `seconds` of wall time, then finish the current cycle of
    the job mix, so that every run weighs the mix alike. The further set-up
    rounds (`again()` returns one round's interval) are spread evenly over
    the run, so that their median does not rest on one stretch of machine
    speed, and do not count towards `seconds`."""
    tally, rounds = Tally(speed.Gauge()), []
    tally.gauge.tick(force=True)
    stream = plan.stream()
    gc.collect()
    start = time.perf_counter()
    paused = 0.0
    while (elapsed := time.perf_counter() - start - paused) < seconds or tally.attempted % plan.cycle:
        if len(rounds) < SETUP_ROUNDS - 1 and elapsed >= seconds * (len(rounds) + 1) / SETUP_ROUNDS:
            pause = time.perf_counter()
            tally.gauge.tick(force=True)
            rounds.append(again())
            tally.gauge.tick(force=True)
            paused += time.perf_counter() - pause
        else:
            tally.run(cli, next(stream))
    return tally, rounds


def end_to_end(tally: Tally, rounds: list[tuple[float, float]]) -> tuple[dict, dict]:
    n = tally.attempted
    setup = [(end - start) * tally.gauge.scale(start, end) for start, end in rounds]
    scaled = job_metrics(tally.times(), tally.failed)
    raw = job_metrics(tally.raw_times(), tally.failed)
    metrics = {
        "jobs_per_s": (scaled["jobs_per_s"], "1/s"),
        "job_s_p50": (scaled["job_s_p50"], "s"),
        "job_s_tail": (scaled["job_s_tail"], "s"),
        "verified_ratio": ((n - tally.failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    beyond = min(TAIL_BEYOND, n - 1)
    notes = {
        "jobs": n,
        "error_rate": tally.failed / n,
        "tail_percentile": round(100.0 * (n - beyond) / n, 2),
        "tail_jobs_beyond": beyond,
        "setup_rounds_s": [round(x, 4) for x in setup],
        "raw_wall": {**raw, "setup_s": statistics.median(e - s for s, e in rounds)},
        "kernel_ms": [round(1e3 * f(tally.gauge.kernel_s), 4) for f in (min, statistics.median, max)],
    }
    return metrics, notes


def trace(cli, plan, spans_path: str) -> tuple[Tally, dict, dict]:
    """One plain and two traced passes over the same fixed job list."""
    def job_list():
        stream = plan.stream()
        return [next(stream) for _ in range(plan.trace_jobs)]

    gauge = speed.Gauge()
    plain = Tally(gauge)
    for job in job_list():
        plain.run(cli, job)
    passes = []
    for pass_no in range(2):
        tracer = tracing.Tracer()
        traced = Tally(gauge)
        uninstall = tracing.install(tracer)
        try:
            for job_id, job in enumerate(job_list()):
                tracer.job = job_id
                traced.run(cli, job)
        finally:
            uninstall()
        if pass_no == 0:
            tracer.write_spans(spans_path)
        passes.append((traced, tracing.layer_metrics(tracer), tracer.span_count))
        del tracer
    (first, metrics, spans), (second, metrics2, _) = passes
    tally = Tally(gauge)
    for t in (plain, first, second):
        tally.add(t)
    counts, counts2 = tracing.count_metrics(metrics), tracing.count_metrics(metrics2)
    for name in counts:
        if counts[name] != counts2[name]:
            tally.problems.append(f"count {name} did not repeat: {counts[name]} then {counts2[name]}")
    plain_s, traced_s = sum(plain.times()), sum(first.times())
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    notes = {
        "trace_jobs": plan.trace_jobs,
        "spans": spans,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "counts_repeat": counts == counts2,
        "plain_jobs_per_s": plan.trace_jobs / plain_s,
        "traced_jobs_per_s": plan.trace_jobs / traced_s,
    }
    return tally, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    make = WORKLOADS[args.workload]

    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        cli, plan = set_up(make, args.seed, args.tiny, workdir)
    except ProgramMissing as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    first_round = (PROCESS_START, time.perf_counter())
    try:
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}.csv.gz")
            tally, metrics, notes = trace(cli, plan, spans_path)
        else:
            tally, rounds = measure(
                cli, plan, args.seconds,
                lambda: repeat_set_up(make, args.seed, args.tiny, workdir),
            )
            metrics, notes = end_to_end(tally, [first_round] + rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        **plan.describe(),
        **notes,
        "loop": "closed, 1 client, 1 thread, --workers 1",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "source_sha256": source_digest(),
        "problems": tally.problems,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
