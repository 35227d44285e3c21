"""End-to-end acceptance gate: one test per shipped guarantee.

Criteria 3-7 integrate to long total times, so the session's run_all takes a
few seconds.  Sweep results (criteria 4-7) are cached per config hash; point
ADIASWEEP_ACCEPTANCE_CACHE at a persistent directory to skip those sweeps on
reruns.  Criteria 2, 3 and 8 are recomputed every time.  The last tests check
the record accuracy that every criterion's tolerance is derived from.
"""

import os
from types import SimpleNamespace

import pytest

from adiasweep import acceptance, sweep
from adiasweep.hamiltonians import ModelSpec
from adiasweep.metrics import TypicalErrorConfig
from adiasweep.sweep import SweepRecord


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    """One full run_all, recording the tolerance and the smallest eps_bar of
    every point measured and every sweep read."""
    cache_dir = os.environ.get("ADIASWEEP_ACCEPTANCE_CACHE") or str(
        tmp_path_factory.mktemp("acceptance-cache")
    )
    reads = []
    measure_errors, load_or_run = acceptance.measure_errors, acceptance.load_or_run

    def measured(path, t, windows, ev):
        per_window = measure_errors(path, t, windows, ev)
        for m in per_window:
            reads.append((f"point t={t:g}", ev.atol + ev.rtol, m.typical))
        return per_window

    def swept(cfg, *args, **kwargs):
        records = load_or_run(cfg, *args, **kwargs)
        smallest = min(r.eps_bar_t for r in records if r.ok)
        reads.append((f"sweep {cfg.model.model} k={cfg.model.k:g}", cfg.atol + cfg.rtol, smallest))
        return records

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "measure_errors", measured)
        mp.setattr(acceptance, "load_or_run", swept)
        results = acceptance.run_all(cache_dir=cache_dir, printer=print)
    return SimpleNamespace(
        cache_dir=cache_dir, by_number={r.number: r for r in results}, reads=reads
    )


@pytest.fixture(scope="session")
def results(suite):
    return suite.by_number


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


def test_every_eps_bar_read_is_above_the_floor_of_its_tolerance(suite):
    """No criterion reads an eps_bar smaller than its tolerance holds to RECORD_ACCURACY."""
    assert len(suite.reads) == 12  # 7 windows (criteria 2, 3, 8) and 5 sweep configs
    for label, tol, smallest in suite.reads:
        floor = tol * acceptance.EPS_BAR_ERROR_PER_TOL / acceptance.RECORD_ACCURACY
        assert smallest >= floor, f"{label}: eps_bar {smallest:.3e} < floor {floor:.3e}"


def test_cached_reports_serve_the_sweep_criteria_unchanged(suite, monkeypatch):
    def no_sweep(cfg):
        raise AssertionError(f"{cfg.model.model} k={cfg.model.k:g} swept on a warm cache")

    monkeypatch.setattr(sweep, "run_sweep", no_sweep)
    numbers = (4, 5, 6, 7)
    again = acceptance.run_all(cache_dir=suite.cache_dir, numbers=numbers, printer=lambda line: None)
    first = [suite.by_number[n] for n in numbers]
    assert [(r.number, r.passed, r.details) for r in again] == [
        (r.number, r.passed, r.details) for r in first
    ]


# Each builtin model at the k of its criterion, at a small t and at t >= 3e3,
# with an eps_bar floor just below the measured value.
ACCURACY_CASES = [
    ("two-level", 1e-3, 50.0, 2.6e-2),
    ("two-level", 1e-3, 3e3, 2.1e-4),
    ("two-level-exp", 1e-2, 50.0, 2.5e-2),
    ("two-level-exp", 1e-2, 5623.0, 2.4e-7),
    ("three-level-case1", 1e-3, 300.0, 4.4e-3),
    ("three-level-case1", 1e-3, 3e3, 2.2e-4),
    ("three-level-case2", 1e-3, 300.0, 4.3e-3),
    ("three-level-case2", 1e-3, 3e3, 2.2e-4),
]


@pytest.mark.parametrize("model, k, t, floor", ACCURACY_CASES)
def test_record_tolerances_hold_eps_bar_to_the_record_accuracy(model, k, t, floor):
    """eps_bar at the rule's tolerance is within RECORD_ACCURACY of a run at 1/100 of it."""
    ctx = acceptance.AcceptanceContext("unused", use_cache=False)
    spec = ModelSpec(model, k=k)
    te = TypicalErrorConfig(tau0=1.0, samples=48, reduction="rms")
    (reference,) = ctx.measure("reference", spec, t, (te,), floor / 100.0)
    assert reference.typical >= floor
    (ruled,) = ctx.measure("rule", spec, t, (te,), floor)
    assert abs(ruled.typical / reference.typical - 1.0) <= acceptance.RECORD_ACCURACY
