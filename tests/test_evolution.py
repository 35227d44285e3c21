import cmath
import math

import numpy as np
import pytest

from adiasweep import evolution
from adiasweep.evolution import (
    EvolutionConfig,
    EvolutionFailure,
    evolve,
    evolve_dop54,
    evolve_fixed_step,
    evolve_many,
    ground_state,
)
from adiasweep.hamiltonians import MODEL_NAMES, Coupling, HamiltonianPath, ModelSpec, build
from adiasweep.metrics import TypicalErrorConfig, true_error, window_samples
from adiasweep.schedules import Parabola, PowerRamp, Product, Schedule, rational_pulse

TWO_LEVEL = build(ModelSpec("two-level", k=0.0))


def test_zero_time_is_identity():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    result = evolve(TWO_LEVEL, EvolutionConfig(t_total=0.0), psi0)
    assert np.array_equal(result.final_state, psi0)
    assert result.steps_taken == 0


def _count_advance_calls(monkeypatch) -> list:
    """Record the cell count of every block passed to ``_advance``."""
    advance = evolution._advance
    cells = []

    def counting(y, h, *args):
        cells.append(h.shape[0])
        return advance(y, h, *args)

    monkeypatch.setattr(evolution, "_advance", counting)
    return cells


def test_constant_diagonal_pure_phase(monkeypatch):
    path = HamiltonianPath(2, (1.0, 2.0), ())
    psi0 = np.array([1.0, 0.0], dtype=complex)
    result = evolve(path, EvolutionConfig(t_total=10.0), psi0)
    assert abs(result.final_state[0] - cmath.exp(-10.0j)) < 1e-9
    assert abs(result.final_state[1]) == 0.0
    # three levels over many blocks of the propagated half window, cut small
    # by a wide batch of total times: a common phase per block that is
    # dropped, doubled or taken from the wrong level is off by O(1)
    energies = (0.0, 1.0, 2.5)
    path = HamiltonianPath(3, energies, ())
    t_values = np.linspace(7000.0, 8000.0, 129)
    blocks = _count_advance_calls(monkeypatch)
    for j, energy in enumerate(energies):
        psi0 = np.eye(3, dtype=complex)[j]
        blocks.clear()
        result = evolve_many(path, EvolutionConfig(t_total=8000.0), t_values, psi0)
        assert len(blocks) >= 10
        want = np.exp(-1j * t_values * energy)[:, None] * psi0
        assert np.max(np.abs(result.final_states - want)) < 1e-9


def test_advance_blocks_fit_the_byte_budget(monkeypatch):
    # the accepted cells are propagated in blocks whose phase table
    # (2 * cells, levels - 1, members) and group state (levels, G, levels,
    # members), complex, fit the budget: blocks of more than 256 cells for a
    # 49-member window batch, and of at most 256 for 513 members
    advance = evolution._advance
    calls = []

    def recording(y, h, *args):
        calls.append((h.shape[0], y.shape[0], y.shape[1]))
        return advance(y, h, *args)

    monkeypatch.setattr(evolution, "_advance", recording)
    cfg = EvolutionConfig(t_total=3e3, rtol=1.5e-13, atol=1e-15)
    for model, samples in (
        ("two-level", 0),
        ("two-level", 48),
        ("two-level", 512),
        ("three-level-case1", 48),
    ):
        path = build(ModelSpec(model, k=1e-3))
        t_values = np.array([cfg.t_total])
        if samples:
            window = window_samples(cfg.t_total, TypicalErrorConfig(samples=samples))
            t_values = np.concatenate((t_values, window))
        calls.clear()
        result = evolve_many(path, cfg, t_values, ground_state(path, 0.0))
        blocks = [cells for cells, _, _ in calls]
        assert sum(blocks) == result.steps_taken
        assert len(blocks) > 1
        for cells, n, dim in calls:
            exps = 2 * cells
            groups = -(-exps // (math.isqrt(exps - 1) + 1))
            working_set = 16 * (exps * (dim - 1) * n + dim * groups * dim * n)
            assert working_set <= evolution._ADVANCE_BYTES
        if samples == 48:
            assert min(blocks[:-1]) > 256
        if samples == 512:
            assert max(blocks) <= 256


def test_step_limit_inside_a_merged_block_counts_every_taken_cell(monkeypatch):
    # a 49-member batch propagates its first block only once it holds more
    # cells than the mesh's first group yields; a cap inside that block stops
    # the run with exactly the capped cells taken, and only the estimated
    # cells beyond them rejected
    path = build(ModelSpec("two-level", k=1e-2))
    psi0 = ground_state(path, 0.0)
    t_values = np.concatenate(([500.0], window_samples(500.0, TypicalErrorConfig(samples=48))))
    blocks = []
    yielded = []  # (cells accepted, cells estimated) as the mesh yields each block
    advance, window = evolution._advance, evolution._Mesh.window

    def recording_advance(y, h, *args):
        blocks.append(h)
        return advance(y, h, *args)

    def recording_window(mesh, lo, hi):
        accepted = 0
        for block in window(mesh, lo, hi):
            accepted += block[0].shape[0]
            yielded.append((accepted, mesh.estimated))
            yield block

    monkeypatch.setattr(evolution, "_advance", recording_advance)
    monkeypatch.setattr(evolution._Mesh, "window", recording_window)
    cfg = EvolutionConfig(t_total=500.0, rtol=1.5e-12, atol=1e-14)
    evolve_many(path, cfg, t_values, psi0)
    cap = 600
    assert blocks[0].shape[0] > cap > 2 * evolution._GROUP_CELLS
    widths = np.concatenate(blocks)
    estimated = next(count for accepted, count in yielded if accepted >= cap)
    blocks.clear()
    capped = EvolutionConfig(t_total=500.0, rtol=1.5e-12, atol=1e-14, max_steps=cap)
    with pytest.raises(EvolutionFailure, match="step limit") as excinfo:
        evolve_many(path, capped, t_values, psi0)
    diag = excinfo.value.diagnostics
    assert not blocks
    assert diag["steps_taken"] == cap
    assert diag["rejected_steps"] == estimated - cap
    assert diag["s_reached"] == pytest.approx(float(np.sum(widths[:cap])), rel=1e-12)


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


def _rk4_loop(path, cfg, psi0, step):
    """Reference: RK4 one step at a time, each stage a matrix-vector product."""
    span = cfg.s_end - cfg.s_start
    n_steps = max(1, int(math.ceil(span / step)))
    h = span / n_steps
    t = cfg.t_total

    def rhs(s, y):
        return -1j * t * (path.evaluate(s) @ y)

    y = np.asarray(psi0, dtype=complex).copy()
    s = cfg.s_start
    for i in range(n_steps):
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + (0.5 * h) * k1)
        k3 = rhs(s + 0.5 * h, y + (0.5 * h) * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = cfg.s_start + (i + 1) * h
    return y, n_steps


_CHUNK = evolution._RK4_CHUNK_STEPS


@pytest.mark.parametrize(
    "spec",
    (
        ModelSpec("two-level", k=1e-3),
        ModelSpec("three-level-case1", k=1e-3),
        ModelSpec("two-level-exp", k=1e-2),
    ),
    ids=lambda spec: spec.model,
)
def test_fixed_step_matches_step_by_step_rk4(spec):
    path = build(spec)
    lo, hi = spec.evolution_window()
    psi0 = ground_state(path, lo)
    for n in (1, 2, 3, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
        # t grows with n so every step has the same t*h and the drift stays small
        cfg = EvolutionConfig(t_total=0.01 * n, s_start=lo, s_end=hi)
        step = (hi - lo) / (n - 0.5)
        expected, n_loop = _rk4_loop(path, cfg, psi0, step)
        result = evolve_fixed_step(path, cfg, psi0, step=step)
        assert result.steps_taken == n_loop == n
        assert np.max(np.abs(result.final_state - expected)) < 1e-12


@pytest.mark.parametrize("k", (0.0, 1e-2))
def test_fixed_step_is_fourth_order(k):
    path = build(ModelSpec("two-level", k=k))
    psi0 = ground_state(path, 0.0)
    cfg = EvolutionConfig(t_total=20.0, rtol=1e-14, atol=1e-16)
    exact = evolve(path, cfg, psi0).final_state
    errors = [
        np.linalg.norm(evolve_fixed_step(path, cfg, psi0, step=h).final_state - exact)
        for h in (4e-3, 2e-3, 1e-3)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 14.0 <= coarse / fine <= 18.0


class _Unevaluable(Schedule):
    def value(self, s):
        raise AssertionError("schedule evaluated")


def test_fixed_step_rejects_bad_step():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    cfg = EvolutionConfig(t_total=50.0)
    for step in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="step"):
            evolve_fixed_step(TWO_LEVEL, cfg, psi0, step=step)
    # one step over the whole window: RK4 blows up, and the drift check says so
    with pytest.raises(EvolutionFailure, match="norm drift"):
        evolve_fixed_step(TWO_LEVEL, cfg, psi0, step=2.0)


def test_fixed_step_limit_fails_before_any_work():
    path = HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, _Unevaluable()),))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    cfg = EvolutionConfig(t_total=50.0, max_steps=1000)
    for step in (1e-4, 1e-300):
        with pytest.raises(EvolutionFailure, match="max_steps") as excinfo:
            evolve_fixed_step(path, cfg, psi0, step=step)
        assert excinfo.value.diagnostics["steps_taken"] == 0


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


def test_oracle_specs_cover_every_model():
    # A model added to the table without a spec here would skip the DOP5(4) cross-check.
    assert sorted(spec.model for spec in ORACLE_SPECS) == sorted(MODEL_NAMES)


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


def test_dop54_oracle_runs_any_dimension_with_shared_schedules():
    # four levels; couplings (0,1) and (1,2) hold equal pulses, evaluated once
    pulse = rational_pulse(1e-2)
    path = HamiltonianPath(
        4,
        (0.0, 1.0, 2.5, 3.7),
        (
            Coupling(0, 1, 1.0, pulse),
            Coupling(1, 2, 0.7, rational_pulse(1e-2)),
            Coupling(2, 3, 0.5, Parabola()),
        ),
    )
    assert path.schedule_slots == ((pulse, Parabola()), (0, 0, 1))
    psi0 = ground_state(path, 0.0)
    g_end = ground_state(path, 1.0)
    cfg = EvolutionConfig(t_total=200.0, rtol=4e-12, atol=1e-14)
    eps = true_error(evolve(path, cfg, psi0).final_state, g_end)
    oracle = evolve_dop54(path, cfg, psi0)
    assert abs(eps / true_error(oracle.final_state, g_end) - 1.0) < 1e-6
    assert oracle.norm_drift < 1e-9


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


def test_fixed_step_non_finite_state_fails():
    path = HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, _NanAfterMidpoint()),))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(EvolutionFailure, match="norm drift"):
        evolve_fixed_step(path, EvolutionConfig(t_total=10.0), psi0, step=1e-3)


def test_trusted_checks_every_row():
    limit = evolution.NORM_DRIFT_LIMIT
    good = np.array([[1.0, 0.0], [0.6, 0.8j], [(1.0 + 0.5 * limit) * 1j, 0.0]])
    drifts = evolution._trusted(good, {"steps_taken": 7})
    assert drifts.shape == (3,)
    assert np.all(drifts <= limit)
    assert drifts[2] == pytest.approx(0.5 * limit)
    for bad in ([math.nan, 0.0], [1.0 + 2.0 * limit, 0.0]):
        y = np.vstack((good, np.array(bad, dtype=complex)))
        with pytest.raises(EvolutionFailure, match="norm drift") as excinfo:
            evolution._trusted(y, {"steps_taken": 7, "rejected_steps": 2})
        assert not excinfo.value.diagnostics["norm_drift"] <= limit
        assert excinfo.value.diagnostics["steps_taken"] == 7
        assert excinfo.value.diagnostics["rejected_steps"] == 2


def test_tolerance_below_rounding_floor_fails_fast():
    psi0 = ground_state(TWO_LEVEL, 0.0)
    with pytest.raises(EvolutionFailure, match="rounding floor"):
        evolve(TWO_LEVEL, EvolutionConfig(t_total=200.0, rtol=1e-20, atol=1e-22), psi0)
    # just below the floor of the two-level estimate (about 5e-17): the first
    # trial group already stops improving, before any cell is propagated
    with pytest.raises(EvolutionFailure, match="rounding floor") as excinfo:
        evolve(TWO_LEVEL, EvolutionConfig(t_total=200.0, rtol=1e-17, atol=1e-19), psi0)
    assert excinfo.value.diagnostics["steps_taken"] == 0
    assert excinfo.value.diagnostics["rejected_steps"] < 10 * evolution._GROUP_CELLS


def test_tolerance_above_rounding_floor_is_met():
    # The two-level floor, about 5e-17, comes from the rounding of the
    # batched eigh and may move between LAPACK builds; 3e-16 keeps a margin
    # of about 6x while still lying below the 1.5e-15 floor of a full-cell
    # 16/15 estimate.
    cfg = EvolutionConfig(t_total=200.0, rtol=3e-16, atol=3e-18)
    psi0 = ground_state(TWO_LEVEL, 0.0)
    result = evolve(TWO_LEVEL, cfg, psi0)
    assert result.norm_drift < 1e-12
    # the same mesh of the propagated half, re-estimated pair by pair, meets
    # the tolerance
    tol = cfg.atol + cfg.rtol
    shift = TWO_LEVEL.diagonal_mean()
    mesh = evolution._Mesh(lambda s: TWO_LEVEL.evaluate(s, shift), cfg.t_total, tol)
    widths = np.concatenate([block[0] for block in mesh.window(0.0, 0.5)])
    assert widths.shape[0] == result.steps_taken
    err = mesh._estimate(np.concatenate(([0.0], np.cumsum(widths)))[::2])[0]
    assert np.max(err) <= tol


@pytest.mark.parametrize(
    "spec, t, rtol, atol",
    (
        (ModelSpec("two-level", k=1e-2), 500.0, 1.5e-12, 1e-14),
        (ModelSpec("three-level-case1", k=1e-3), 300.0, 2.5e-13, 1e-15),
    ),
    ids=lambda v: getattr(v, "model", None),
)
def test_eigensystems_per_propagated_cell(spec, t, rtol, atol, monkeypatch):
    path = build(spec)
    psi0 = ground_state(path, 0.0)
    eigh = np.linalg.eigh
    matrices = []

    def counting_eigh(a, *args, **kwargs):
        matrices.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    result = evolve(path, EvolutionConfig(t_total=t, rtol=rtol, atol=atol), psi0)
    # each estimated pair diagonalizes 6 exponents and propagates 2 cells
    assert sum(matrices) <= 3.5 * result.steps_taken


_GAUSS = math.sqrt(3.0) / 6.0


def _cf4_reference(path, shift, t, a, b, substeps=64):
    """CF4 propagator over [a, b] from equal substeps, assembling H one s at a time."""
    eye = np.eye(path.dim)
    h = (b - a) / substeps

    def expm(m):  # exp(-i*t*h*m) for a real symmetric m
        lam, vec = np.linalg.eigh(m)
        return (vec * np.exp(-1j * t * h * lam)) @ vec.T

    u = np.eye(path.dim, dtype=complex)
    for n in range(substeps):
        s = a + n * h
        h0 = path.evaluate(s + (0.5 - _GAUSS) * h) - shift * eye
        h1 = path.evaluate(s + (0.5 + _GAUSS) * h) - shift * eye
        first = expm((0.25 + _GAUSS) * h0 + (0.25 - _GAUSS) * h1)
        second = expm((0.25 - _GAUSS) * h0 + (0.25 + _GAUSS) * h1)
        u = second @ first @ u
    return u


@pytest.mark.parametrize(
    "spec",
    (ModelSpec("two-level", k=1e-3), ModelSpec("three-level-case1", k=1e-3)),
    ids=lambda spec: spec.model,
)
@pytest.mark.parametrize("t", (50.0, 500.0))
@pytest.mark.parametrize("tol", (1e-8, 1e-10))
def test_local_error_estimate_is_calibrated(spec, t, tol):
    path = build(spec)
    shift = path.diagonal_mean()
    mesh = evolution._Mesh(lambda s: path.evaluate(s, shift), t, tol)
    widths = np.concatenate([block[0] for block in mesh.window(0.0, 1.0)])
    pair_edges = np.concatenate(([0.0], np.cumsum(widths)))[::2]
    n = pair_edges.shape[0] - 1
    ratios = []
    for i in sorted({0, 1, n // 3, n // 2, 2 * n // 3, n - 1}):
        err, h, lam, vec = mesh._estimate(pair_edges[i : i + 2])
        assert err[0] > 1e-13  # resolved well above the rounding of the reference
        true = 0.0
        for half in (0, 1):  # left half first
            a = pair_edges[i] + half * h[0]
            phases = np.exp(-1j * t * h[half] * lam[half])
            first, second = ((v * p) @ v.T for v, p in zip(vec[half], phases))
            true += np.linalg.norm(second @ first - _cf4_reference(path, shift, t, a, a + h[half]))
        # the estimate is the pair's mean: how the halves share the summed
        # error is not resolved (at tol 1e-8 the first left half takes up
        # to 3.2x the mean), so the sum is what is calibrated
        ratios.append(true / (2.0 * err[0]))
    assert 0.5 <= min(ratios) and max(ratios) <= 2.0
    assert 0.8 <= float(np.median(ratios)) <= 1.25


@pytest.mark.parametrize(
    "spec",
    (ModelSpec("two-level", k=1e-2), ModelSpec("three-level-case1", k=1e-3)),
    ids=lambda spec: spec.model,
)
@pytest.mark.parametrize("t_max", (50.0, 3e4))
def test_estimate_matches_a_dense_per_pair_reference(spec, t_max):
    path = build(spec)
    shift = path.diagonal_mean()
    mesh = evolution._Mesh(lambda s: path.evaluate(s, shift), t_max, 1e-10)
    trial = 1.0 / (evolution._TRIAL_RATE * t_max)  # the trial mesh's pair width
    for start, width in ((0.0, trial), (0.37, trial / 7.0), (1.0 - 2.0 * trial, trial)):
        edges = start + width * np.arange(3.0)
        err = mesh._estimate(edges)[0]
        for pair, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            # each cell from two eigh exponentials multiplied with plain @
            mid = a + 0.5 * (b - a)
            full, left, right = (
                _cf4_reference(path, shift, t_max, lo, hi, substeps=1)
                for lo, hi in ((a, b), (a, mid), (mid, b))
            )
            want = np.linalg.norm(full - right @ left) / 30.0
            assert want > 1e-14
            assert abs(err[pair] - want) <= 1e-16


def _dense_cells(h, lam, vec, t):
    """Product of the cells (h, lam, vec) at total time t, one exponential at a time.

    A t of shape (n, 1, 1) gives the stack of n products.
    """
    u = np.eye(vec.shape[-1], dtype=complex)
    for c in range(h.shape[0]):
        for e in range(2):  # the first exponential of a cell acts first
            v = vec[c, e]
            u = (v * np.exp(-1j * t * h[c] * lam[c, e])) @ v.T @ u
    return u


@pytest.mark.parametrize("dim", (2, 3))
def test_advance_matches_dense_cell_product(dim):
    rng = np.random.default_rng(dim)
    window = TypicalErrorConfig(samples=48)
    # a block of several cells, a block of one cell, a batch holding t=0, and
    # two window batches, whose phases come from the coarse x fine table; a
    # window's cells are as narrow as the mesh makes them at its t
    for cells, t_values, h_max in (
        (5, np.array([1.0, 40.0, 250.0, 1000.0]), 0.02),
        (1, np.array([3.0, 700.0]), 0.02),
        (4, np.array([0.0, 60.0, 900.0]), 0.02),
        (5, np.concatenate(([50.0], window_samples(50.0, window))), 0.02),
        (5, np.concatenate(([3e4], window_samples(3e4, window))), 1.0 / 3e4),
    ):
        members = evolution._Phases(t_values)
        assert (members.table is None) == (t_values.shape[0] < 17)
        b = rng.normal(size=(cells, 2, dim, dim))
        lam, vec = np.linalg.eigh(b + b.swapaxes(-1, -2))
        h = rng.uniform(0.25 * h_max, h_max, size=cells)
        n = t_values.shape[0]
        # identity blocks, as on a mirror-symmetric window, give the propagators
        eye = np.tile(np.eye(dim, dtype=complex), (n, 1, 1))
        got = evolution._advance(eye, h, lam, vec, members)
        assert got.shape == (n, dim, dim)
        for i, t in enumerate(t_values):
            assert np.max(np.abs(got[i] - _dense_cells(h, lam, vec, t))) < 1e-13
    # single-column blocks, as on any other window
    y = rng.normal(size=(n, dim, 1)) + 1j * rng.normal(size=(n, dim, 1))
    y /= np.linalg.norm(y, axis=1)[:, None]
    got = evolution._advance(y, h, lam, vec, members)
    assert got.shape == (n, dim, 1)
    for i, t in enumerate(t_values):
        assert np.max(np.abs(got[i] - _dense_cells(h, lam, vec, t) @ y[i])) < 1e-13
    # blocks of 1 cell up to the largest the byte budget allows, cut into
    # groups of ceil(sqrt(2m)) exponentials, the last group padded at 5 and
    # 37 cells; a single member and a 129-member window batch; blocks of one
    # and of dim columns.  Cells are at most 1/(4t) wide, and narrower in
    # blocks over 256 cells, so that no block's phases sum past 64: larger
    # sums round, however the chain runs, to the bound.
    batch = np.concatenate(([3e4], window_samples(3e4, TypicalErrorConfig(samples=128))))
    for t_values in (np.array([700.0]), batch):
        members = evolution._Phases(t_values)
        n = t_values.shape[0]
        for cells in (1, 2, 5, 37, 128, evolution._block_cells(members, dim)):
            b = rng.normal(size=(cells, 2, dim, dim))
            lam, vec = np.linalg.eigh(b + b.swapaxes(-1, -2))
            h_max = min(0.25, 64.0 / cells) / t_values[0]
            h = rng.uniform(0.25 * h_max, h_max, size=cells)
            dense = _dense_cells(h, lam, vec, t_values[:, None, None])
            for k in (1, dim):
                y = rng.normal(size=(n, dim, k)) + 1j * rng.normal(size=(n, dim, k))
                y /= np.linalg.norm(y, axis=1)[:, None]
                got = evolution._advance(y, h, lam, vec, members)
                assert got.shape == (n, dim, k)
                assert np.max(np.abs(got - dense @ y)) < 1e-13


def _undeclared(path):
    """The same path with every schedule behind a subclass that declares no symmetry."""

    class Undeclared(Schedule):
        def __init__(self, inner):
            self.value = inner.value

    couplings = tuple(
        Coupling(c.i, c.j, c.amplitude, Undeclared(c.schedule)) for c in path.couplings
    )
    return HamiltonianPath(path.dim, path.diagonal, couplings)


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.model)
def test_mirrored_cells_propagate_by_the_transpose(spec):
    # CF4 cells on [0, 1/2] and their mirror images on [1/2, 1], in reverse
    # order: the second product is the transpose of the first
    path = build(spec)
    assert path.mirror_symmetric()
    shift = path.diagonal_mean()
    rng = np.random.default_rng(3)
    edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, size=24))))
    edges *= 0.5 / edges[-1]
    t = 300.0
    first = second = np.eye(path.dim, dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        first = _cf4_reference(path, shift, t, a, b, substeps=1) @ first
        second = second @ _cf4_reference(path, shift, t, 1.0 - b, 1.0 - a, substeps=1)
    assert np.max(np.abs(second - first.T)) < 1e-13


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.model)
def test_mirror_path_agrees_with_whole_window(spec):
    path = build(spec)
    whole = _undeclared(path)
    assert path.mirror_symmetric() and not whole.mirror_symmetric()
    lo, hi = spec.evolution_window()
    psi0 = ground_state(path, lo)
    g_end = ground_state(path, hi)
    for t in (50.0, 500.0):
        cfg = EvolutionConfig(t_total=t, s_start=lo, s_end=hi)
        mirrored, reference = evolve(path, cfg, psi0), evolve(whole, cfg, psi0)
        eps = true_error(mirrored.final_state, g_end)
        assert abs(eps - true_error(reference.final_state, g_end)) < 1e-9
        assert mirrored.steps_taken <= 0.55 * reference.steps_taken


def _three_level_ramps(flip: bool) -> HamiltonianPath:
    """A path no builtin covers, with no mirror symmetry; ``flip`` gives its reflection H(1-s)."""

    def ramp(k, n, reflected=False):
        return Product((Parabola(), PowerRamp(k, n, reflected=reflected != flip)))

    couplings = (
        Coupling(0, 1, 1.0, ramp(0.05, 2)),
        Coupling(1, 2, 0.7, ramp(0.2, 1, reflected=True)),
        Coupling(0, 2, 0.4, Parabola()),
    )
    return HamiltonianPath(3, (0.0, 1.0, 2.5), couplings)


def test_reflected_path_has_the_same_error():
    # Running a real symmetric H(s) backwards transposes its propagator, so
    # H(1-s) prepares its ground state with the error of H(s); both paths take
    # the whole window
    path, reflected = _three_level_ramps(False), _three_level_ramps(True)
    assert not path.mirror_symmetric() and not reflected.mirror_symmetric()
    for t in (50.0, 300.0):
        cfg = EvolutionConfig(t_total=t, rtol=5e-14, atol=5e-14)
        eps = [
            true_error(evolve(p, cfg, ground_state(p, 0.0)).final_state, ground_state(p, 1.0))
            for p in (path, reflected)
        ]
        assert abs(eps[0] - eps[1]) <= 1e-9 * eps[0]


def test_asymmetric_window_takes_the_whole_window():
    path = build(ModelSpec("two-level", k=1e-3))
    psi0 = ground_state(path, 0.1)
    cfg = EvolutionConfig(t_total=200.0, s_start=0.1, s_end=0.95)
    got, whole = evolve(path, cfg, psi0), evolve(_undeclared(path), cfg, psi0)
    assert np.array_equal(got.final_state, whole.final_state)
    assert got.steps_taken == whole.steps_taken


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.model)
def test_mirrored_fixed_step_matches_the_whole_window(spec):
    # odd counts take a middle step; 2 * _CHUNK + 2 runs the half past one chunk
    path = build(spec)
    whole = _undeclared(path)
    lo, hi = spec.evolution_window()
    psi0 = ground_state(path, lo)
    for n in (1, 3, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 2 * _CHUNK + 2):
        cfg = EvolutionConfig(t_total=0.01 * n, s_start=lo, s_end=hi)
        assert evolution._mirrored(path, cfg) and not evolution._mirrored(whole, cfg)
        step = (hi - lo) / (n - 0.5)
        got = evolve_fixed_step(path, cfg, psi0, step=step)
        reference = evolve_fixed_step(whole, cfg, psi0, step=step)
        assert got.steps_taken == reference.steps_taken == n
        assert np.max(np.abs(got.final_state - reference.final_state)) < 1e-12


class _Recorded(Schedule):
    """``inner``, keeping the largest s it is evaluated at."""

    def __init__(self, inner):
        self.inner = inner
        self.s_max = -math.inf

    def value(self, s):
        self.s_max = max(self.s_max, float(np.max(s)))
        return self.inner.value(s)

    def mirror_symmetric(self):
        return self.inner.mirror_symmetric()


def _fixed_step_reach(lo, hi, n):
    """The largest s at which RK4 of n steps over [lo, hi] evaluates the path."""
    sched = _Recorded(rational_pulse(1e-3))
    path = HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, sched),))
    cfg = EvolutionConfig(t_total=10.0, s_start=lo, s_end=hi)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    result = evolve_fixed_step(path, cfg, psi0, step=(hi - lo) / (n - 0.5))
    assert result.steps_taken == n
    return sched.s_max


@pytest.mark.parametrize("n", (2 * _CHUNK + 1, 2 * _CHUNK + 2))
def test_fixed_step_evaluates_half_of_a_mirrored_window(n):
    assert 0.5 <= _fixed_step_reach(0.0, 1.0, n) <= 0.5 + 1.0 / n
    assert _fixed_step_reach(0.1, 0.95, n) == pytest.approx(0.95, abs=1e-12)


class _ClaimsMirror(Schedule):
    """``inner``, declared mirror-symmetric whether it is or not."""

    def __init__(self, inner):
        self.value = inner.value

    def mirror_symmetric(self):
        return True


def test_dop54_oracle_catches_a_false_mirror_claim():
    # CF4 and RK4 both propagate half the window and err alike; DOP5(4) runs
    # the whole window, so criterion 8(b)'s cross-check fails
    ramp = PowerRamp(0.3, 1)
    assert not ramp.mirror_symmetric()
    path = HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, _ClaimsMirror(ramp)),))
    psi0 = ground_state(path, 0.0)
    g_end = ground_state(path, 1.0)
    cfg = EvolutionConfig(t_total=50.0)
    eps_fixed = true_error(evolve_fixed_step(path, cfg, psi0, step=1e-5).final_state, g_end)
    eps = true_error(evolve(path, cfg, psi0).final_state, g_end)
    eps_oracle = true_error(evolve_dop54(path, cfg, psi0).final_state, g_end)
    assert abs(eps - eps_fixed) < 1e-8
    assert abs(eps_oracle - eps_fixed) > 1e-2


@pytest.mark.parametrize("samples", (16, 48, 64))
def test_phase_table_matches_exp(samples):
    rng = np.random.default_rng(samples)
    for t in (10.0, 500.0, 3e4):
        t_values = np.concatenate(([t], window_samples(t, TypicalErrorConfig(samples=samples))))
        # an exponential's phase per level, t*h*(lambda - lambda_0), stays
        # below 0.2 on the meshes of the sweeps' tolerances
        rates = rng.uniform(0.0, 1.0, size=(512, 2)) / t
        members = evolution._Phases(t_values)
        assert members.table is not None
        got = members(rates)
        want = np.exp(-1j * (rates[..., None] * t_values))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("samples", (48, 64))
def test_phase_tables_of_two_windows_match_exp(samples):
    # 48 = 7 x 7 - 1: the first window's table pads into the second's members
    rng = np.random.default_rng(samples)
    t = 1000.0
    windows = [window_samples(t, TypicalErrorConfig(tau0, samples=samples)) for tau0 in (0.5, 2.0)]
    t_values = np.concatenate(([t], *windows))
    members = evolution._Phases(t_values)
    # one table per window, each run starting where the t values descend
    assert [first for first, _, _ in members.table] == [1, 1 + samples]
    rates = rng.uniform(0.0, 1.0, size=(512, 2)) / t
    got = members(rates)
    want = np.exp(-1j * (rates[..., None] * t_values))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15


def test_phases_off_an_even_grid_are_direct_exponentials():
    rng = np.random.default_rng(7)
    t = 500.0
    even = np.concatenate(([t], window_samples(t, TypicalErrorConfig(samples=48))))
    moved = even.copy()
    moved[20] += 1e-9 * t
    rates = rng.uniform(0.0, 4.0, size=(64, 2)) / t
    for t_values in (
        np.concatenate(([t], np.sort(rng.uniform(450.0, 550.0, size=48)))),  # irregular
        np.concatenate(([t], np.linspace(480.0, 520.0, 15))),  # 15 grid members
        moved,
    ):
        members = evolution._Phases(t_values)
        assert members.table is None
        assert np.array_equal(members(rates), np.exp(-1j * (rates[..., None] * t_values)))


@pytest.mark.parametrize(
    "shape", ((512, 2, 2), (512, 3, 3), (64, 3, 2, 2, 2), (64, 3, 2, 3, 3)), ids=str
)
def test_mul_matches_matmul(shape):
    rng = np.random.default_rng(len(shape) + shape[-1])
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    want = np.moveaxis(a @ b, (-2, -1), (0, 1))
    got = evolution._mul(*(np.moveaxis(x, (-2, -1), (0, 1)) for x in (a, b)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", (2, 3))
def test_mul_of_swapped_views_matches_matmul(dim):
    # as the group tree passes them: (levels, groups, columns, members) buffers
    # viewed as (levels, columns, groups, members)
    rng = np.random.default_rng(dim)
    shape = (dim, 6, dim, 49)
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    a, b = a.swapaxes(1, 2), b.swapaxes(1, 2)
    want = np.moveaxis(a.transpose(2, 3, 0, 1) @ b.transpose(2, 3, 0, 1), (0, 1), (2, 3))
    got = evolution._mul(a, b)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
