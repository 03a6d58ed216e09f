"""Spans recorded from outside gasptables, and the per-layer metrics built from them.

A span is one call into a layer: its name, the job it belongs to, the span
that caused it, start and end on the ``perf_counter_ns`` clock, and a few
counts read from the call's arguments or result.  Spans stay in memory and
are written out once, when the run ends.

The benchmark opens a span around every library call it makes itself (the
top-level spans).  For the traced run only, ``install`` replaces the
module-level names through which one layer calls another with wrappers that
open child spans; ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Optional

Note = Optional[Callable[[tuple, dict, object], dict]]

_WRAPPER_MARK = "_perfbench_wrapper"


class NullTracer:
    """The untraced path: every call goes straight to the library."""

    traced = False

    def call(self, name: str, note: Note, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def start_round(self) -> None:
        pass

    def start_job(self, job_id: int) -> None:
        pass


class Tracer:
    """Records spans, one list per round.

    Each span is ``[parent, job, name, start_ns, end_ns, counts]``; its id is
    its index in the round's list, and ``parent`` is -1 for a top-level span.
    """

    traced = True

    def __init__(self):
        self.rounds: list[list[list]] = []
        self._stack: list[int] = []
        self._job = -1

    def start_round(self) -> None:
        self.rounds.append([])
        self._stack.clear()

    def start_job(self, job_id: int) -> None:
        self._job = job_id

    def call(self, name: str, note: Note, fn, *args, **kwargs):
        spans = self.rounds[-1]
        rec = [self._stack[-1] if self._stack else -1, self._job, name, 0, 0, None]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[3] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()
        if note is not None:
            rec[5] = note(args, kwargs, result)
        return result

    def write(self, path) -> None:
        """Write every span as one JSON array per line, round first."""
        with open(path, "w") as fh:
            for rnd, spans in enumerate(self.rounds):
                for sid, (parent, job, name, start, end, counts) in enumerate(spans):
                    fh.write(json.dumps([rnd, sid, parent, job, name, start, end, counts]))
                    fh.write("\n")


def _matrix_dim(args, kwargs, result):
    return {"n": len(args[1])}


def _mults(args, kwargs, result):
    a, b = args[1], args[2]
    return {"mults": len(a) * len(b) * (len(b[0]) if b else 0)}


def _points(args, kwargs, result):
    return {"n": len(result[1])}


# Module-level names that one layer calls another through, wrapped only in
# the traced run: (module, attribute, span name, counts taken from the call).
INTERNAL = (
    ("gasp", "n_of_r", "gasp.n_of_r", None),
    ("gasp", "candidate_set", "gasp.candidate_set", None),
    ("sdmm", "choose_field_and_points", "sdmm.points", _points),
    ("sdmm", "encode", "sdmm.encode", None),
    ("sdmm", "server_compute", "sdmm.compute", None),
    ("sdmm", "is_invertible", "field.is_invertible", _matrix_dim),
    ("sdmm", "solve", "field.solve", None),
    ("sdmm", "mat_mul", "field.mat_mul", _mults),
)


def _wrap(tracer: Tracer, name: str, note: Note, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, note, fn, *args, **kwargs)

    wrapper.__wrapped__ = fn
    setattr(wrapper, _WRAPPER_MARK, True)
    return wrapper


def install(gp, tracer: Tracer) -> None:
    for mod_name, attr, name, note in INTERNAL:
        mod = getattr(gp, mod_name)
        setattr(mod, attr, _wrap(tracer, name, note, getattr(mod, attr)))


def uninstall(gp) -> None:
    for mod_name, attr, _, _ in INTERNAL:
        mod = getattr(gp, mod_name)
        fn = getattr(mod, attr)
        if getattr(fn, _WRAPPER_MARK, False):
            setattr(mod, attr, fn.__wrapped__)


def installed(gp) -> list[str]:
    """Names that currently hold a tracing wrapper."""
    return [
        f"{mod_name}.{attr}"
        for mod_name, attr, _, _ in INTERNAL
        if getattr(getattr(getattr(gp, mod_name), attr), _WRAPPER_MARK, False)
    ]


# Every per-layer metric: (name, unit, span, what).  ``what`` is "calls",
# "busy", "self" (busy minus direct children), "p50"/"p99" (call durations in
# microseconds), or the key of a count summed over the span's calls.
PER_LAYER = (
    ("gasp.optimal_r.calls", "count", "gasp.optimal_r", "calls"),
    ("gasp.optimal_r.busy_s", "s", "gasp.optimal_r", "busy"),
    ("gasp.optimal_r.p50_us", "us", "gasp.optimal_r", "p50"),
    ("gasp.optimal_r.p99_us", "us", "gasp.optimal_r", "p99"),
    ("gasp.candidate_set.busy_s", "s", "gasp.candidate_set", "busy"),
    ("gasp.n_of_r.calls", "count", "gasp.n_of_r", "calls"),
    ("gasp.n_of_r.busy_s", "s", "gasp.n_of_r", "busy"),
    ("gasp.n_theorem1.busy_s", "s", "gasp.n_theorem1", "busy"),
    ("gasp.construct.busy_s", "s", "gasp.construct", "busy"),
    ("degree_table.count_distinct.calls", "count", "degree_table.count_distinct", "calls"),
    ("degree_table.count_distinct.busy_s", "s", "degree_table.count_distinct", "busy"),
    ("degree_table.count_distinct.cells", "count", "degree_table.count_distinct", "cells"),
    ("equivalence.canonical.calls", "count", "equivalence.canonical", "calls"),
    ("equivalence.canonical.busy_s", "s", "equivalence.canonical", "busy"),
    ("bounds.lower_bounds.busy_s", "s", "bounds.lower_bounds", "busy"),
    ("search.exhaustive.busy_s", "s", "search.exhaustive", "busy"),
    ("search.exhaustive.pairs", "count", "search.exhaustive", "pairs"),
    ("search.exhaustive.valid", "count", "search.exhaustive", "valid"),
    ("search.greedy.busy_s", "s", "search.greedy", "busy"),
    ("search.greedy.nodes", "count", "search.greedy", "nodes"),
    ("search.fixed_prefix.busy_s", "s", "search.fixed_prefix", "busy"),
    ("search.fixed_prefix.examined", "count", "search.fixed_prefix", "examined"),
    ("sdmm.points.busy_s", "s", "sdmm.points", "busy"),
    ("sdmm.points.self_s", "s", "sdmm.points", "self"),
    ("sdmm.encode.busy_s", "s", "sdmm.encode", "busy"),
    ("sdmm.compute.busy_s", "s", "sdmm.compute", "busy"),
    ("sdmm.decode.busy_s", "s", "sdmm.decode", "busy"),
    ("sdmm.decode.self_s", "s", "sdmm.decode", "self"),
    ("sdmm.audit.busy_s", "s", "sdmm.audit", "busy"),
    ("sdmm.audit.self_s", "s", "sdmm.audit", "self"),
    ("sdmm.audit.subsets", "count", "sdmm.audit", "subsets"),
    ("sdmm.audit.leaks", "count", "sdmm.audit", "leaks"),
    ("field.is_invertible.calls", "count", "field.is_invertible", "calls"),
    ("field.is_invertible.busy_s", "s", "field.is_invertible", "busy"),
    ("field.solve.calls", "count", "field.solve", "calls"),
    ("field.solve.busy_s", "s", "field.solve", "busy"),
    ("field.mat_mul.calls", "count", "field.mat_mul", "calls"),
    ("field.mat_mul.busy_s", "s", "field.mat_mul", "busy"),
    ("field.mat_mul.mults", "count", "field.mat_mul", "mults"),
)

# Metrics that are not one span's: derived ratios and whole-round figures.
DERIVED = (
    ("search.exhaustive.valid_ratio", "ratio"),
    ("sdmm.points.attempts", "count"),
    ("trace.wall_s", "s"),
    ("trace.wall_ref", "ref"),
    ("trace.top_busy_s", "s"),
    ("trace.spans", "count"),
    ("bench.jobs", "count"),
    ("bench.audited_jobs", "count"),
    ("bench.leak_jobs", "count"),
)


def _percentile_us(durations_ns: list[int], p: float) -> float:
    if not durations_ns:
        return 0.0
    ordered = sorted(durations_ns)
    idx = min(len(ordered) - 1, int(p * len(ordered)))
    return ordered[idx] / 1000.0


def round_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced round, except the figures run.py
    takes from the round itself: job counts and time in reference loops."""
    child_ns = [0] * len(spans)
    for parent, _, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations: dict[str, list[int]] = {}
    self_ns: dict[str, int] = {}
    counts: dict[tuple[str, str], int] = {}
    attempts = 0
    top_ns = 0
    for sid, (parent, _, name, start, end, note) in enumerate(spans):
        dur = end - start
        durations.setdefault(name, []).append(dur)
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[sid]
        if parent < 0:
            top_ns += dur
        for key, val in (note or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + val
        if name == "field.is_invertible" and parent >= 0:
            up = spans[parent]
            # Each point-selection attempt starts with one N x N check.
            if up[2] == "sdmm.points" and up[5] and note["n"] == up[5]["n"]:
                attempts += 1
    out: dict[str, float] = {}
    for metric, _, span, what in PER_LAYER:
        durs = durations.get(span, [])
        if what == "calls":
            out[metric] = len(durs)
        elif what == "busy":
            out[metric] = sum(durs) / 1e9
        elif what == "self":
            out[metric] = self_ns.get(span, 0) / 1e9
        elif what in ("p50", "p99"):
            out[metric] = _percentile_us(durs, 0.5 if what == "p50" else 0.99)
        else:
            out[metric] = counts.get((span, what), 0)
    pairs = out["search.exhaustive.pairs"]
    out["search.exhaustive.valid_ratio"] = out["search.exhaustive.valid"] / pairs if pairs else 0.0
    out["sdmm.points.attempts"] = attempts
    out["trace.wall_s"] = wall_s
    out["trace.top_busy_s"] = top_ns / 1e9
    out["trace.spans"] = len(spans)
    return out


UNITS = {name: unit for name, unit, _, _ in PER_LAYER} | dict(DERIVED)
TIME_UNITS = ("s", "us", "ref")


def combine_rounds(per_round: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each time over rounds; counts must agree exactly between rounds.

    Returns the combined metrics and the names of counts that differed.
    """
    combined: dict[str, float] = {}
    unequal = []
    for metric in per_round[0]:
        values = [r[metric] for r in per_round]
        if UNITS[metric] in TIME_UNITS:
            combined[metric] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                unequal.append(metric)
            combined[metric] = values[0]
    return combined, unequal
