"""Benchmark of gasptables: run one workload for one seed, print one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one caller in one thread: a job starts
when the previous one has finished.  A round runs the workload's whole job
list once and checks every output; rounds repeat until the next one would
end after ``--seconds``, and at least one round runs.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans (see perfbench/README.md for every name).  The last line
of standard output is the result object; the line before it records the
run's settings.  A traced run also writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
# Set-up is timed this many times before the rounds and again after them,
# so the median sees two states of the shared host half a minute apart.
SETUP_REPEATS = 6
SAMPLE_INTERVAL_S = 0.1
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_ratio": "ratio", "clean_ratio": "ratio"}


def import_fresh():
    """Import gasptables from this checkout, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "gasptables" or m.startswith("gasptables.")]:
        del sys.modules[name]
    return importlib.import_module("gasptables")


def timed_setup(workload: str, seed: int):
    """Import the package and build the job list SETUP_REPEATS times.

    Returns the times and the last (package, jobs) pair.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        gp = import_fresh()
        jobs = workloads.make_jobs(workload, seed)
        times.append(time.perf_counter() - start)
    return times, gp, jobs


_BIG = (1 << 4000) // 7
_rng = random.Random(7)
_SMALL = [[[_rng.randrange(331) for _ in range(8)] for _ in range(8)] for _ in range(4)]
_WIDE = [[_rng.randrange(331) for _ in range(160)] for _ in range(12)]


def reference_work() -> int:
    """A fixed pure-Python loop that never calls gasptables.

    Its three parts do what the workloads' hot loops do: small-integer list
    arithmetic (plan), big-integer, bit-count and dict operations (search),
    and modular row reduction and dot products (protocol).
    """
    acc = 0
    row = list(range(1, 300))
    for k in range(20):
        row = [(x * 31 + k) % 1_000_003 for x in row]
        acc += sum(row) % 97

    masks: dict[int, int] = {}
    for k in range(600):
        x = (_BIG * (k + 3)) >> (k % 64)
        acc += (x & 0xFFFF_FFFF).bit_count()
        masks[k & 63] = masks.get(k & 63, 0) | (1 << (k % 50))

    q = 331
    for m in _SMALL:
        a = [list(r) for r in m]
        for col in range(len(a)):
            piv = next((r for r in range(col, len(a)) if a[r][col]), None)
            if piv is None:
                break
            a[col], a[piv] = a[piv], a[col]
            inv = pow(a[col][col], q - 2, q)
            for r in range(col + 1, len(a)):
                f = a[r][col] * inv % q
                a[r] = [(v - f * p) % q for v, p in zip(a[r], a[col])]
    top = _WIDE[0]
    for r in _WIDE[1:]:
        acc += sum((v - r[0] * p) % q for v, p in zip(r, top))
    return acc


class SpeedMeter:
    """A round's time in units of a reference loop that never calls gasptables.

    The host is shared, and how fast it runs Python drifts by tens of percent
    within a minute.  The reference loop slows down with it, so time divided
    by the loop's time cancels most of the drift.  A SIGALRM interval timer
    interrupts the round every SAMPLE_INTERVAL_S, inside library calls too,
    and times one reference loop.  Each stretch between two samples is divided
    by the mean of their reference times, and ``ref_units`` sums the
    quotients.  The samples' own time stays in the round, about 2% of it, the
    same share on every commit.
    """

    @staticmethod
    def _reference_seconds() -> float:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start

    def __enter__(self):
        self.ref_units = 0.0
        self._last_ref = self._reference_seconds()
        self._last_t = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def _sample(self, signum=None, frame=None):
        now = time.perf_counter()
        ref = self._reference_seconds()
        self.ref_units += (now - self._last_t) / ((self._last_ref + ref) / 2)
        self._last_t, self._last_ref = now, ref

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False


def run_round(gp, tr, workload: str, jobs) -> dict:
    """Run every job once; a job that raises or fails a check counts as failed."""
    run_job = workloads.RUNNERS[workload]
    failed = audited = leaks = 0
    problems = []
    for job_id, job in enumerate(jobs):
        tr.start_job(job_id)
        try:
            found, leaked = run_job(gp, tr, job)
        except Exception:
            found, leaked = [traceback.format_exc(limit=3)], None
        if found:
            failed += 1
            problems.append(f"job {job_id} {job!r:.80}: {'; '.join(found)}")
        if leaked is not None:
            audited += 1
            leaks += leaked
    return {"jobs": len(jobs), "failed": failed, "audited": audited, "leaks": leaks,
            "problems": problems}


def git_head() -> str:
    """HEAD of the checkout's git repository, read from its files, or "unknown"."""
    git = ROOT / ".git"
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "gasptables" / "__init__.py").is_file():
        print(f"perfbench: no gasptables sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times, gp, jobs = timed_setup(args.workload, args.seed)
    if Path(gp.__file__).resolve().parent != SRC / "gasptables":
        print(f"perfbench: imported gasptables from {gp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # The repeated imports leave module cycles behind; free them now so the
    # peak memory of the first round does not depend on when the collector runs.
    gc.collect()

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.install(gp, tracer)
    elif spans.installed(gp):
        print(f"perfbench: tracing wrappers present: {spans.installed(gp)}", file=sys.stderr)
        return 2

    rounds, longest = [], 0.0
    started = time.perf_counter()
    try:
        while True:
            tracer.start_round()
            t0 = time.perf_counter()
            with SpeedMeter() as meter:
                rnd = run_round(gp, tracer, args.workload, jobs)
            rnd["wall_s"] = time.perf_counter() - t0
            rnd["wall_ref"] = meter.ref_units
            if not rounds:
                # Peak memory of set-up and one pass over the job list; later
                # rounds redo the same work, and their number varies.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rounds.append(rnd)
            longest = max(longest, rnd["wall_s"])
            if time.perf_counter() - started + longest > args.seconds:
                break
    finally:
        if args.trace:
            spans.uninstall(gp)
    setup_times += timed_setup(args.workload, args.seed)[0]

    attempted = sum(r["jobs"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    audited = sum(r["audited"] for r in rounds)
    leaks = sum(r["leaks"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    correct = failed == 0 and not spans.installed(gp)

    if args.trace:
        per_round = []
        for rnd, recorded in zip(rounds, tracer.rounds):
            wall = rnd["wall_s"]
            m = spans.round_metrics(recorded, wall)
            m["trace.wall_ref"] = rnd["wall_ref"]
            m["bench.jobs"] = rnd["jobs"]
            m["bench.audited_jobs"] = rnd["audited"]
            m["bench.leak_jobs"] = rnd["leaks"]
            if m["trace.top_busy_s"] > wall:
                problems.append(f"top-level spans busy {m['trace.top_busy_s']} s > round {wall} s")
                correct = False
            per_round.append(m)
        values, unequal = spans.combine_rounds(per_round)
        problems += [f"count {name} differs between rounds" for name in unequal]
        correct = correct and not unequal
        units = spans.UNITS
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        values = {
            "wall_ref": statistics.median(r["wall_ref"] for r in rounds),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": 1 - failed / attempted,
            "clean_ratio": 1 - leaks / attempted,
        }
        units = END_TO_END

    for p in problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(), "git_head": git_head(),
        "jobs_per_round": len(jobs), "rounds": len(rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "round_wall_ref": [r["wall_ref"] for r in rounds],
        "jobs": attempted, "failed_jobs": failed, "fail_ratio": failed / attempted,
        "audited_jobs": audited, "leak_jobs": leaks, "leak_ratio": leaks / attempted,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
