"""Tests of the benchmark harness: job lists, failure counting and tracing."""

import json
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gasptables  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_PLAN = [(4, 4, 4), (9, 6, 9), (2, 2, 5), (3, 7, 2)]
SMALL_PROTOCOL = workloads.ProtocolJob(
    n=2, dims=(4, 2, 4), r=2, subsets=55, seed=5,
    a_mat=((1, 2), (3, 4), (5, 6), (7, 8)),
    b_mat=((1, 0, 2, 0), (0, 3, 0, 4)),
)


def _patched(**overrides):
    """A stand-in for the gasptables package with some functions replaced."""
    ns = types.SimpleNamespace(**{k: getattr(gasptables, k) for k in gasptables.__all__})
    for name, fn in overrides.items():
        setattr(ns, name, fn)
    return ns


def test_job_lists_repeat_for_a_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    plan = workloads.make_jobs("plan", 7)
    assert plan != workloads.make_jobs("plan", 8)
    assert len(plan) == 2 * workloads.GRID ** 3
    assert all(1 <= K <= 1000 and 1 <= L <= 1000 and 1 <= T <= 3000 for K, L, T in plan)
    proto = workloads.make_jobs("protocol", 7)
    assert [j.seed for j in proto] != [j.seed for j in workloads.make_jobs("protocol", 8)]
    assert [len(j.a_mat) for j in proto] == [8, 16, 24, 128]


def test_wrong_count_is_counted_as_a_failure_and_the_run_goes_on():
    clean = run.run_round(gasptables, spans.NullTracer(), "plan", SMALL_PLAN)
    assert clean["failed"] == 0 and clean["jobs"] == len(SMALL_PLAN)

    off_by_one = _patched(count_distinct=lambda t: gasptables.count_distinct(t) + 1)
    bad = run.run_round(off_by_one, spans.NullTracer(), "plan", SMALL_PLAN)
    assert bad["jobs"] == len(SMALL_PLAN)
    assert bad["failed"] == len(SMALL_PLAN)
    assert all("count_distinct" in p for p in bad["problems"])


def test_an_exception_is_counted_as_a_failure():
    def broken(*args):
        raise gasptables.DomainError("boom")

    res = run.run_round(_patched(lower_bounds=broken), spans.NullTracer(), "plan", SMALL_PLAN)
    assert res["failed"] == len(SMALL_PLAN)
    assert "boom" in res["problems"][0]


def test_traced_round_counts_and_wrapper_removal():
    tracer = spans.Tracer()
    walls = []
    spans.install(gasptables, tracer)
    try:
        assert len(spans.installed(gasptables)) == len(spans.INTERNAL)
        for _ in range(2):
            tracer.start_round()
            t0 = time.perf_counter()
            res = run.run_round(gasptables, tracer, "plan", SMALL_PLAN)
            run.run_round(gasptables, tracer, "protocol", [SMALL_PROTOCOL])
            walls.append(time.perf_counter() - t0)
    finally:
        spans.uninstall(gasptables)
    assert spans.installed(gasptables) == []
    assert res["failed"] == 0
    per_round = []
    for spans_of_round, wall in zip(tracer.rounds, walls):
        per_round.append(spans.round_metrics(spans_of_round, wall))
        per_round[-1].update({"trace.wall_ref": wall, "bench.jobs": 5,
                              "bench.audited_jobs": 1, "bench.leak_jobs": 0})
    m, unequal = spans.combine_rounds(per_round)
    assert unequal == []
    assert m["gasp.optimal_r.calls"] == len(SMALL_PLAN) + 1
    assert m["gasp.n_of_r.calls"] > 0
    assert m["trace.top_busy_s"] <= m["trace.wall_s"]
    assert m["sdmm.audit.subsets"] == 55 and m["sdmm.audit.leaks"] == 0
    assert m["sdmm.points.attempts"] >= 1
    # plain product 4x2x4, plus 11 servers each multiplying 2x2 by 2x2
    assert m["field.mat_mul.mults"] == 4 * 2 * 4 + 11 * 2 * 2 * 2
    assert m["sdmm.decode.self_s"] <= m["sdmm.decode.busy_s"]


def test_benchmark_json_names_every_emitted_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.UNITS
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
