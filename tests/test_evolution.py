import cmath
import math

import numpy as np
import pytest

from adiasweep.evolution import (
    EvolutionConfig,
    EvolutionFailure,
    evolve,
    evolve_dop54,
    evolve_fixed_step,
    evolve_many,
    ground_state,
)
from adiasweep.hamiltonians import Coupling, HamiltonianPath, ModelSpec, build
from adiasweep.metrics import true_error
from adiasweep.schedules import Schedule

TWO_LEVEL = build(ModelSpec("two-level", k=0.0))


def test_zero_time_is_identity():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    result = evolve(TWO_LEVEL, EvolutionConfig(t_total=0.0), psi0)
    assert np.array_equal(result.final_state, psi0)
    assert result.steps_taken == 0


def test_constant_diagonal_pure_phase():
    path = HamiltonianPath(2, (1.0, 2.0), ())
    psi0 = np.array([1.0, 0.0], dtype=complex)
    result = evolve(path, EvolutionConfig(t_total=10.0), psi0)
    assert abs(result.final_state[0] - cmath.exp(-10.0j)) < 1e-9
    assert abs(result.final_state[1]) == 0.0


def test_ground_state_is_basis_vector_at_endpoints():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    assert np.array_equal(psi0, np.array([1.0, 0.0], dtype=complex))
    three = build(ModelSpec("three-level-case1", k=0.0))
    assert np.array_equal(ground_state(three, 1.0), np.eye(3, dtype=complex)[:, 0])


def test_adaptive_agrees_with_fixed_step_oracle():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    g_end = ground_state(TWO_LEVEL, 1.0)
    cfg = EvolutionConfig(t_total=50.0)
    eps_adaptive = true_error(evolve(TWO_LEVEL, cfg, psi0).final_state, g_end)
    eps_fixed = true_error(evolve_fixed_step(TWO_LEVEL, cfg, psi0, step=1e-5).final_state, g_end)
    assert abs(eps_adaptive - eps_fixed) < 1e-8
    # the DOP5(4) oracle too; the explicit pair is not unitary, its truncation
    # drift grows like 0.1 * t * rtol
    dop = evolve_dop54(TWO_LEVEL, cfg, psi0)
    assert abs(true_error(dop.final_state, g_end) - eps_fixed) < 1e-8
    assert 0.0 < dop.norm_drift < 1e-9
    assert dop.steps_taken > 100


def test_norm_drift_small():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    result = evolve(TWO_LEVEL, EvolutionConfig(t_total=50.0), psi0)
    assert result.norm_drift < 1e-9
    assert result.steps_taken > 100
    assert result.rejected_steps < result.steps_taken
    tight = evolve(TWO_LEVEL, EvolutionConfig(t_total=1000.0, rtol=4e-12, atol=1e-14), psi0)
    assert tight.norm_drift < 1e-9


def test_tolerance_refinement_stability():
    path = build(ModelSpec("two-level", k=1e-3))
    psi0 = ground_state(path, 0.0)
    g_end = ground_state(path, 1.0)
    for t in (50.0, 500.0, 5000.0):
        eps = []
        for rtol in (1e-10, 5e-11):
            cfg = EvolutionConfig(t_total=t, rtol=rtol, atol=1e-12)
            eps.append(true_error(evolve(path, cfg, psi0).final_state, g_end))
        assert abs(eps[0] - eps[1]) < max(0.01 * max(eps), 1e-9)


def test_global_phase_invariance():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    g_end = ground_state(TWO_LEVEL, 1.0)
    cfg = EvolutionConfig(t_total=37.0)
    eps_plain = true_error(evolve(TWO_LEVEL, cfg, psi0).final_state, g_end)
    eps_rotated = true_error(
        evolve(TWO_LEVEL, cfg, psi0 * cmath.exp(0.7j)).final_state, g_end
    )
    assert abs(eps_plain - eps_rotated) < 1e-12


def test_batch_matches_individual_evolutions():
    path = build(ModelSpec("two-level", k=1e-3))
    psi0 = ground_state(path, 0.0)
    g_end = ground_state(path, 1.0)
    ts = np.array([40.0, 55.0, 70.0])
    cfg = EvolutionConfig(t_total=1.0)
    batch = evolve_many(path, cfg, ts, psi0)
    for i, t in enumerate(ts):
        solo = evolve(path, EvolutionConfig(t_total=float(t)), psi0)
        eps_batch = true_error(batch.final_states[i], g_end)
        eps_solo = true_error(solo.final_state, g_end)
        assert abs(eps_batch - eps_solo) < 1e-9
        assert batch.norm_drifts[i] < 1e-9


def test_step_limit_failure_carries_diagnostics():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    with pytest.raises(EvolutionFailure) as excinfo:
        evolve(TWO_LEVEL, EvolutionConfig(t_total=500.0, max_steps=40), psi0)
    diag = excinfo.value.diagnostics
    assert 0.0 < diag["s_reached"] < 1.0
    assert diag["steps_taken"] <= 40
    assert f"s_reached={diag['s_reached']:.6g}, steps_taken={diag['steps_taken']}" in str(excinfo.value)


def test_initial_state_must_be_normalized():
    with pytest.raises(ValueError, match="normalized"):
        evolve(TWO_LEVEL, EvolutionConfig(t_total=1.0), np.array([1.0, 1.0]))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(t_total=-1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(t_total=1.0, s_start=0.9, s_end=0.5)
    with pytest.raises(ValueError):
        EvolutionConfig(t_total=1.0, rtol=0.0)
    for field in ("t_total", "rtol", "atol", "s_start", "s_end"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                EvolutionConfig(**{"t_total": 1.0, field: bad})


def test_evolve_many_input_validation():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    cfg = EvolutionConfig(t_total=1.0)
    with pytest.raises(ValueError):
        evolve_many(TWO_LEVEL, cfg, np.array([]), psi0)
    with pytest.raises(ValueError):
        evolve_many(TWO_LEVEL, cfg, np.array([-2.0]), psi0)
    with pytest.raises(ValueError, match="finite"):
        evolve_many(TWO_LEVEL, cfg, np.array([10.0, math.nan]), psi0)


def test_clipped_window_evolution():
    spec = ModelSpec("two-level-exp", k=1e-2)
    path = build(spec)
    lo, hi = spec.evolution_window()
    psi0 = ground_state(path, lo)
    cfg = EvolutionConfig(t_total=20.0, s_start=lo, s_end=hi)
    result = evolve(path, cfg, psi0)
    assert result.norm_drift < 1e-9
    eps = true_error(result.final_state, ground_state(path, hi))
    assert 0.0 < eps < 0.5


ORACLE_SPECS = (
    ModelSpec("two-level", k=1e-3),
    ModelSpec("two-level-exp", k=1e-2),
    ModelSpec("three-level-case1", k=1e-3),
    ModelSpec("three-level-case2", k=1e-3),
)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.model)
def test_agrees_with_dop54_oracle(spec):
    path = build(spec)
    lo, hi = spec.evolution_window()
    psi0 = ground_state(path, lo)
    g_end = ground_state(path, hi)
    for t in (200.0, 1000.0):
        cfg = EvolutionConfig(t_total=t, rtol=4e-12, atol=1e-14, s_start=lo, s_end=hi)
        eps = true_error(evolve(path, cfg, psi0).final_state, g_end)
        eps_oracle = true_error(evolve_dop54(path, cfg, psi0).final_state, g_end)
        assert abs(eps / eps_oracle - 1.0) < 1e-6


def test_norm_drift_at_rounding_level():
    path = build(ModelSpec("three-level-case1", k=1e-3))
    psi0 = ground_state(path, 0.0)
    cfg = EvolutionConfig(t_total=1.0, rtol=2.5e-13, atol=1e-15)
    batch = evolve_many(path, cfg, np.array([50.0, 500.0, 5000.0]), psi0)
    assert np.all(batch.norm_drifts < 1e-12)


def test_cell_count_grows_slower_than_t():
    path = build(ModelSpec("two-level", k=1e-3))
    psi0 = ground_state(path, 0.0)
    cells = [
        evolve(path, EvolutionConfig(t_total=t, rtol=1.5e-12, atol=1e-14), psi0).steps_taken
        for t in (100.0, 1000.0)
    ]
    assert cells[1] < 10 * cells[0]


class _NanAfterMidpoint(Schedule):
    def value(self, s):
        return np.where(s > 0.5, math.nan, s * (1.0 - s))


def test_non_finite_error_estimate_fails_fast():
    path = HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, _NanAfterMidpoint()),))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(EvolutionFailure, match="non-finite") as excinfo:
        evolve(path, EvolutionConfig(t_total=100.0), psi0)
    assert excinfo.value.diagnostics["s_reached"] <= 0.5


def test_tolerance_below_rounding_floor_fails_fast():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    with pytest.raises(EvolutionFailure, match="rounding floor"):
        evolve(TWO_LEVEL, EvolutionConfig(t_total=200.0, rtol=1e-20, atol=1e-22), psi0)

