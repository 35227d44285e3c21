"""End-to-end acceptance gate: one test per shipped guarantee.

Criteria 3-7 integrate to long total times, so the session's run_all takes a
few seconds.  Sweep results (criteria 4-7) are cached per config hash; point
ADIASWEEP_ACCEPTANCE_CACHE at a persistent directory to skip those sweeps on
reruns.  The points of criteria 2 and 3 are one-point sweeps, cached the same
way; criterion 8 is recomputed every time.  The last tests check the record
accuracy that every criterion's tolerance is derived from.
"""

import os
import re
from types import SimpleNamespace

import pytest

from adiasweep import acceptance, cli, sweep
from adiasweep.evolution import EvolutionFailure
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
    assert len(suite.reads) == 12  # 2 windows (criterion 8) and 10 sweep configs
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


POINT_CRITERIA = (2, 3)


def _details(lines):
    """Printed result lines without their elapsed-time field."""
    return [re.sub(r" \[[0-9.]+s\]", "", line) for line in lines]


@pytest.fixture(scope="module")
def cold_points(tmp_path_factory):
    """A cold run of the point criteria into a cache of their own."""
    cache_dir = str(tmp_path_factory.mktemp("point-cache"))
    lines = []
    results = acceptance.run_all(cache_dir=cache_dir, numbers=POINT_CRITERIA, printer=lines.append)
    assert all(r.passed for r in results), lines
    return SimpleNamespace(cache_dir=cache_dir, lines=lines)


def test_warm_point_criteria_propagate_nothing(cold_points, monkeypatch):
    def no_point(*args):
        raise AssertionError("a point of criterion 2 or 3 propagated on a warm cache")

    monkeypatch.setattr(sweep, "compute_sweep_point", no_point)
    monkeypatch.setattr(acceptance, "measure_errors", no_point)
    lines = []
    acceptance.run_all(cache_dir=cold_points.cache_dir, numbers=POINT_CRITERIA, printer=lines.append)
    assert _details(lines) == _details(cold_points.lines)


def test_uncached_point_criteria_recompute_every_point_and_write_nothing(
    cold_points, tmp_path, monkeypatch
):
    computed = []

    def replay(cfg, t, coeff1, coeff2):
        # the cold run's record of the same point, which propagates nothing
        computed.append((cfg.model.k, t))
        (record,) = sweep.load_or_run(cfg, cold_points.cache_dir)
        return record

    monkeypatch.setattr(sweep, "compute_sweep_point", replay)
    cache_dir = tmp_path / "unused"
    lines = []
    acceptance.run_all(
        cache_dir=str(cache_dir), use_cache=False, numbers=POINT_CRITERIA, printer=lines.append
    )
    assert computed == [(0.0, 200.0), (0.0, 500.0), (0.0, 1000.0), (1e-3, 50.0), (1e-3, 3e4)]
    assert not cache_dir.exists()
    assert _details(lines) == _details(cold_points.lines)


# Every point of criteria 2 and 3: model, k, t and eps_bar floor.
POINTS = [
    ("two-level", 0.0, 200.0, acceptance.SQRT2 * 0.95 / 1000.0),
    ("two-level", 0.0, 500.0, acceptance.SQRT2 * 0.95 / 1000.0),
    ("two-level", 0.0, 1000.0, acceptance.SQRT2 * 0.95 / 1000.0),
    ("two-level", 1e-3, 50.0, 2.6e-2),
    ("two-level", 1e-3, 3e4, 3.1e-6),
]


def test_point_records_equal_measure_errors_bitwise(cold_points):
    """Each point's cached eps_bar is what measure_errors gives at the same tolerances."""
    ctx = acceptance.AcceptanceContext(cold_points.cache_dir)
    te = TypicalErrorConfig(tau0=1.0, samples=64, reduction="rms")
    for model, k, t, floor in POINTS:
        spec = ModelSpec(model, k=k)
        record = ctx.point("cached", spec, t, te, floor)
        (measured,) = ctx.measure("live", spec, t, (te,), floor)
        assert record.eps_bar_t == measured.typical, (model, k, t)
        assert record.eps == measured.error, (model, k, t)


def test_a_failed_point_fails_its_criterion_and_the_rest_still_run(tmp_path, monkeypatch):
    def fail(*args):
        raise EvolutionFailure("step limit exceeded (stub)")

    monkeypatch.setattr(sweep, "measure_errors", fail)
    lines = []
    results = acceptance.run_all(
        cache_dir=str(tmp_path), use_cache=False, numbers=(1, 2, 3), printer=lines.append
    )
    assert [(r.number, r.passed) for r in results] == [(1, True), (2, False), (3, False)]
    assert results[1].details == "; ".join(
        f"t={t:g} failed: step limit exceeded (stub)" for t in (200.0, 500.0, 1000.0)
    )
    assert results[2].details.startswith("t=50 failed: step limit exceeded (stub)")


def test_a_failed_sweep_point_fails_criteria_4_to_7_with_its_note(tmp_path, monkeypatch):
    # The last point of every sweep fails and the others hold stand-in values.
    # Dropping the failed records instead made criterion 5 compare case1 and
    # case2 at different t.
    note = "step limit exceeded (stub)"

    def point(cfg, t, coeff1, coeff2):
        if t == sweep.t_grid(cfg)[-1]:
            nan = float("nan")
            return SweepRecord(t, nan, nan, nan, nan, nan, nan, nan, None, nan, error=note)
        return SweepRecord(t, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, None, 0.0)

    def failed(*configs):
        return "; ".join(f"t={sweep.t_grid(cfg)[-1]:g} failed: {note}" for cfg in configs)

    monkeypatch.setattr(sweep, "compute_sweep_point", point)
    results = acceptance.run_all(
        cache_dir=str(tmp_path), use_cache=False, numbers=(4, 5, 6, 7), printer=lambda line: None
    )
    cases = [acceptance._case_sweep_config(m) for m in ("three-level-case1", "three-level-case2")]
    assert [(r.number, r.passed, r.details) for r in results] == [
        (4, False, failed(*acceptance.CROSSOVER_SWEEPS.values())),
        (5, False, failed(*cases)),
        (6, False, failed(acceptance.EXPONENTIAL_SWEEP)),
        (7, False, failed(acceptance.CROSSOVER_SWEEPS[1e-3])),
    ]


@pytest.mark.parametrize("name", ["evolve_fixed_step", "evolve", "evolve_dop54", "measure_errors"])
def test_a_numerical_failure_fails_criterion_8_and_check_exits_2(name, tmp_path, monkeypatch):
    # 8(b) calls the three integrators and 8(d) measure_errors; a failure in
    # any of them is one of criterion 8's problems, not an abort of the run.
    def fail(*args, **kwargs):
        raise EvolutionFailure("step limit exceeded (stub)")

    monkeypatch.setattr(acceptance, name, fail)
    lines = []
    results = acceptance.run_all(
        cache_dir=str(tmp_path), use_cache=False, numbers=(1, 8), printer=lines.append
    )
    assert [(r.number, r.passed) for r in results] == [(1, True), (8, False)]
    assert lines[1].startswith("FAIL  8. numerics hygiene")
    part = "(d)" if name == "measure_errors" else "(b)"
    assert f"PROBLEMS: numerical failure in {part}: step limit exceeded (stub)" in lines[1]
    assert cli.main(["check", "--only", "1,8", "--no-cache", "--cache-dir", str(tmp_path)]) == 2


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
