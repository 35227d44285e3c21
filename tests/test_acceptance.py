"""End-to-end acceptance gate: one test per shipped guarantee.

Criteria 3-7 integrate to long total times, so the whole module takes most of
a minute.  Sweep results (criteria 4-7) are cached per config hash; point
ADIASWEEP_ACCEPTANCE_CACHE at a persistent directory to skip those sweeps on
reruns.  Criteria 2, 3 and 8 are recomputed every time.
"""

import os
from types import SimpleNamespace

import pytest

from adiasweep import acceptance
from adiasweep.sweep import SweepRecord


@pytest.fixture(scope="session")
def results(tmp_path_factory):
    cache_dir = os.environ.get("ADIASWEEP_ACCEPTANCE_CACHE") or str(
        tmp_path_factory.mktemp("acceptance-cache")
    )
    by_number = {}

    def record(line):
        print(line)

    for result in acceptance.run_all(cache_dir=cache_dir, printer=record):
        by_number[result.number] = result
    return by_number


def _check(results, number):
    result = results[number]
    print(f"criterion {number}: {'PASS' if result.passed else 'FAIL'} -- {result.details}")
    assert result.passed, result.details


def test_criterion_1_analytic_estimators(results):
    _check(results, 1)


def test_criterion_2_leading_order_scaling(results):
    _check(results, 2)


def test_criterion_3_crossover_reproduction(results):
    _check(results, 3)


def test_criterion_4_crossover_scaling_with_k(results):
    _check(results, 4)


def test_criterion_5_three_level_case_agreement(results):
    _check(results, 5)


def test_criterion_6_exponential_decay(results):
    _check(results, 6)


def test_criterion_7_sqrt2_bound(results):
    _check(results, 7)


def test_criterion_8_numerics_hygiene(results):
    _check(results, 8)


def test_run_all_runs_a_repeated_number_once(tmp_path):
    results = acceptance.run_all(cache_dir=str(tmp_path), numbers=(1, 1), printer=lambda line: None)
    assert [r.number for r in results] == [1]


def test_run_all_times_each_criterion_with_perf_counter(monkeypatch):
    ticks = iter([10.0, 12.5])
    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    stub = lambda ctx: acceptance.CriterionResult(1, "stub", True, "ok")  # noqa: E731
    monkeypatch.setitem(acceptance.CRITERIA, 1, stub)
    lines = []
    (result,) = acceptance.run_all(cache_dir="unused", numbers=(1,), printer=lines.append)
    assert result.elapsed == 2.5
    assert lines == ["PASS  1. stub [2.5s] -- ok"]


def test_context_sweeps_each_config_once(monkeypatch):
    loads = []

    def fake_load_or_run(cfg, cache_dir, use_cache=True):
        loads.append(cfg)
        return [SweepRecord(100.0, 0.1, 0.1, 0.1, 0.1, 1.0, 1.0, 1e3, None, 1e-14)]

    monkeypatch.setattr(acceptance, "load_or_run", fake_load_or_run)
    ctx = acceptance.AcceptanceContext("unused", use_cache=False)
    cfg = acceptance.CROSSOVER_SWEEPS[1e-3]
    first = ctx.sweep("c4 k=0.001", cfg)
    second = ctx.sweep("c7", cfg)
    assert loads == [cfg]
    assert second == first
    assert [label for label, _ in ctx.drift_log] == ["c4 k=0.001 t=100", "c7 t=100"]
