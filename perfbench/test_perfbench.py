"""Tests of the benchmark's own arithmetic and output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from adiasweep.acceptance import CriterionResult  # noqa: E402
from adiasweep.sweep import CSV_HEADER, SweepRecord  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_traced_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(0.5)

    traced_leaf = tracer.wrap_leaf("schedules.hot_eval", leaf)

    def inner():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(1.0)

    traced_inner = tracer.wrap("evolution.adaptive", inner)

    def outer():
        clock.advance(2.0)
        traced_inner()
        traced_inner()
        clock.advance(3.0)

    tracer.request_id = 7
    tracer.wrap("metrics.measure", outer)()

    measure = tracer.stats["metrics.measure"]
    adaptive = tracer.stats["evolution.adaptive"]
    hot = tracer.stats["schedules.hot_eval"]
    assert (hot.count, hot.total_s, hot.self_s) == (2, 1.0, 1.0)
    assert (adaptive.count, adaptive.total_s, adaptive.self_s) == (2, 5.0, 4.0)
    assert (measure.count, measure.total_s, measure.self_s) == (1, 10.0, 5.0)

    # Leaves keep no span; children point at their parent; all share the request.
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[1], []).append(dict(zip(tracing.SPAN_FIELDS, span)))
    assert set(by_name) == {"metrics.measure", "evolution.adaptive"}
    (root,) = by_name["metrics.measure"]
    assert root["parent"] is None and (root["start"], root["end"]) == (0.0, 10.0)
    assert [s["parent"] for s in by_name["evolution.adaptive"]] == [root["id"], root["id"]]
    assert {span[5] for span in tracer.spans} == {7}


def test_boundary_only_counts_calls_from_outside_the_layer():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    calls = []

    def value(x):
        calls.append(x)
        clock.advance(1.0)
        return x

    traced_value = tracer.wrap("schedules.value", value, keep_span=False, boundary_only=True)

    def product(x):
        return traced_value(x) * traced_value(x)

    traced_product = tracer.wrap("schedules.value", product, keep_span=False, boundary_only=True)
    evaluate = tracer.wrap("hamiltonians.evaluate", lambda x: traced_product(x), keep_span=False)
    assert evaluate(3) == 9
    assert len(calls) == 2
    stat = tracer.stats["schedules.value"]
    assert (stat.count, stat.total_s) == (1, 2.0)
    assert tracer.stats["hamiltonians.evaluate"].self_s == 0.0
    assert tracer.spans == []


def test_layer_metrics_are_per_pass_and_ratios_use_totals():
    tracer = tracing.Tracer()
    tracer.stat("evolution.adaptive").count = 4
    tracer.stat("evolution.adaptive").total_s = 2.0
    tracer.stat("sweep.load_or_run").count = 10
    tracer.stat("sweep.run_sweep").count = 2
    tracer.add("evolution.steps", 900)
    tracer.add("evolution.rejected", 100)
    tracer.add("evolution.t_max_sum", 30.0)
    m = tracing.layer_metrics(tracer, passes=2)
    assert m["evolution.propagations"] == 2
    assert m["evolution.steps"] == 450
    assert m["evolution.rhs_evals"] == (6 * 1000 + 4) / 2
    assert m["evolution.accept_ratio"] == 0.9
    assert m["evolution.steps_per_T"] == 30.0
    assert m["evolution.us_per_step"] == pytest.approx(2000.0)
    assert (m["sweep.cache_hits"], m["sweep.cache_misses"], m["sweep.hit_ratio"]) == (4, 1, 0.8)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER} - {
        "trace.overhead_s",
        "trace.overhead_frac",
    }


def test_percentile_interpolates_between_order_statistics():
    xs = [float(x) for x in range(1, 11)]  # 1..10
    assert stats.percentile(xs, 0) == 1.0
    assert stats.percentile(xs, 100) == 10.0
    assert stats.percentile(xs, 50) == 5.5
    assert stats.percentile(xs, 90) == pytest.approx(9.1)
    assert stats.percentile([4.0, 1.0, 3.0], 50) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(100, 90) == 10
    assert not stats.tail_supported(91, 90)
    assert stats.tail_supported(92, 90)
    assert not stats.tail_supported(5, 90)
    assert stats.tail_supported(1000, 99)


def test_failed_frac_counts_against_attempted():
    assert stats.failed_frac(240, 0) == 0.0
    assert stats.failed_frac(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        stats.failed_frac(3, 4)


def _records():
    reference = [
        {"t": 50.0, "eps": 1e-2, "eps_bar_t": 2e-2, "norm_drift": 1e-11},
        {"t": 100.0, "eps": 3e-3, "eps_bar_t": 4e-3, "norm_drift": 2e-11},
    ]
    coeffs = (1.5, 20.0)
    records = [
        SweepRecord(
            t=r["t"],
            eps=r["eps"],
            eps_bar_t=r["eps_bar_t"],
            eps_bar_1=coeffs[0] / r["t"],
            eps_bar_2=coeffs[1] / r["t"] ** 2,
            ratio1=1.0,
            ratio2=1.0,
            eps_t2=1.0,
            slope=None,
            norm_drift=r["norm_drift"],
        )
        for r in reference
    ]
    return records, reference, coeffs


def test_sweep_check_counts_each_failed_point_once():
    records, reference, coeffs = _records()
    assert workloads.check_sweep_records(records, reference, coeffs) == []
    within = [replace(records[0], eps=records[0].eps * (1 + 5e-7)), records[1]]
    assert workloads.check_sweep_records(within, reference, coeffs) == []
    bad = [
        replace(records[0], eps=records[0].eps * (1 + 2e-6), norm_drift=2e-9),
        replace(records[1], error="step limit exceeded"),
    ]
    problems = workloads.check_sweep_records(bad, reference, coeffs)
    assert len(problems) == 2
    assert "eps" in problems[0] and "norm_drift" in problems[0]
    assert len(workloads.check_sweep_records(records[:1], reference, coeffs)) == 1
    wrong_estimate = [replace(records[0], eps_bar_2=records[0].eps_bar_2 * 1.001), records[1]]
    assert len(workloads.check_sweep_records(wrong_estimate, reference, coeffs)) == 1


def test_csv_check_requires_header_and_one_row_per_record():
    records, _, _ = _records()
    rows = [f"{r.t!r},{r.eps!r}" + ",0" * 8 for r in records]
    assert workloads.check_csv("\n".join([CSV_HEADER] + rows) + "\n", records) == []
    assert workloads.check_csv("\n".join(["T,eps"] + rows), records)
    assert workloads.check_csv("\n".join([CSV_HEADER] + rows[:1]), records)


def test_check_oracles_counts_failed_criteria(monkeypatch):
    def fake_run_all(cache_dir, numbers, printer):
        results = [
            CriterionResult(1, "one", True, "", 0.0),
            CriterionResult(2, "two", False, "off by far", 0.0),
            CriterionResult(8, "eight", True, "", 0.0),
        ]
        for r in results:
            printer(r.name)
        return results

    monkeypatch.setattr(workloads.acceptance, "run_all", fake_run_all)
    oracle = workloads.CheckOracles()
    oracle.cache_dir = "unused"
    oracle.passes = 0
    result = oracle.run_pass()
    assert (result.attempted, result.failed) == (3, 1)
    assert len(result.latencies_s) == 3
    assert result.problems == ["FAIL 2. two: off by far"]


def test_benchmark_json_names_match_what_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER)
    passes = [workloads.PassResult(1.0, [0.001 * i for i in range(1, 20)], 19, 0)]
    printed = run._end_to_end(passes, setup_s=0.5)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in printed.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
