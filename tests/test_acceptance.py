"""End-to-end acceptance gate: one test per shipped guarantee.

The sweeps behind criteria 3-7 integrate millions of adaptive steps, so the
whole module takes a few minutes.  Results are cached per config hash; point
ADIASWEEP_ACCEPTANCE_CACHE at a persistent directory to make reruns cheap.
"""

import os

import pytest

from adiasweep import acceptance


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
