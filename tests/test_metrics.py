import math

import numpy as np
import pytest

from adiasweep.evolution import EvolutionConfig, evolve_many, ground_state
from adiasweep.hamiltonians import Coupling, HamiltonianPath, ModelSpec, build
from adiasweep.metrics import (
    DegenerateGapError,
    TypicalErrorConfig,
    crossover_time,
    decade_slope,
    measure_errors,
    reduce_window,
    reference_scaling_estimate,
    sqrt2_bound_check,
    switching_estimate,
    true_error,
    window_samples,
)
from adiasweep.schedules import Parabola, PowerRamp, Product


def typical_error(eps_of_t, t, cfg):
    """Window average of eps_of_t around t, one evaluation per window sample."""
    return reduce_window(np.array([eps_of_t(ti) for ti in window_samples(t, cfg)]), cfg.reduction)


def test_true_error_trivial_cases():
    g = np.array([1.0, 0.0], dtype=complex)
    e = np.array([0.0, 1.0], dtype=complex)
    assert true_error(g, g) == 0.0
    assert true_error(e, g) == 1.0
    half = (g + e) / math.sqrt(2.0)
    assert true_error(half, g) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)
    with pytest.raises(ValueError, match="normalized"):
        true_error(2.0 * g, g)


def test_true_error_insensitive_to_tiny_norm_drift():
    # an overall norm loss of d would put a sqrt(2d) ~ 2e-5 floor under the
    # measurement if it leaked into the overlap
    g = np.array([1.0, 0.0], dtype=complex)
    eps = 1e-6
    psi = np.array([math.sqrt(1.0 - eps**2), eps], dtype=complex)
    drifted = psi * (1.0 - 3e-10)
    assert true_error(drifted, g) == true_error(psi, g)
    assert true_error(drifted, g) == pytest.approx(eps, rel=1e-4)


def test_true_error_full_precision_at_small_error(rng):
    # psi = cos(theta) g + i sin(theta) e has true error sin(theta) exactly
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g_rand = a / np.linalg.norm(a)
    e_rand = b - g_rand * np.vdot(g_rand, b)
    e_rand /= np.linalg.norm(e_rand)
    basis = np.eye(3, dtype=complex)
    for g, e in ((basis[0], basis[2]), (g_rand, e_rand)):
        for theta in (1e-9, 3e-7, 1e-5, 0.3):
            psi = math.cos(theta) * g + 1j * math.sin(theta) * e
            assert abs(true_error(psi, g) - math.sin(theta)) <= 1e-14


def test_true_error_scores_a_stack(rng):
    g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g /= np.linalg.norm(g)
    states = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    states /= np.linalg.norm(states, axis=1)[:, None]
    states[0] = g
    errors = true_error(states, g)
    assert isinstance(errors, np.ndarray) and errors.shape == (5,)
    assert isinstance(true_error(states[1], g), float)
    for psi, err in zip(states, errors):
        assert abs(err - true_error(psi, g)) <= 1e-15
    assert errors[0] <= 1e-15
    # the normalization is checked state by state
    states[3] *= 1.0 + 1e-5
    with pytest.raises(ValueError, match="psi_final is not normalized"):
        true_error(states, g)


def test_typical_error_constant():
    cfg = TypicalErrorConfig(tau0=1.0, samples=32, reduction="mean")
    assert typical_error(lambda t: 0.7, 100.0, cfg) == pytest.approx(0.7, rel=1e-15)
    cfg = TypicalErrorConfig(tau0=1.0, samples=32, reduction="rms")
    assert typical_error(lambda t: 0.7, 100.0, cfg) == pytest.approx(0.7, rel=1e-15)


def test_typical_error_power_law_closed_form():
    # mean of b/t over [t-w, t+w] is b*ln((t+w)/(t-w))/(2w)
    b, t = 3.0, 100.0
    w = math.sqrt(t)
    expected = b * math.log((t + w) / (t - w)) / (2.0 * w)
    cfg = TypicalErrorConfig(tau0=1.0, samples=64, reduction="mean")
    got = typical_error(lambda tp: b / tp, t, cfg)
    assert got == pytest.approx(expected, rel=1e-6)
    assert got == pytest.approx(b / t, rel=1e-2)


def test_typical_error_oscillatory_against_dense_quadrature():
    t = 500.0
    cfg = TypicalErrorConfig(tau0=1.0, samples=64, reduction="mean")
    fn = lambda tp: abs(math.sin(tp)) / tp
    got = typical_error(fn, t, cfg)
    dense = TypicalErrorConfig(tau0=1.0, samples=2**17, reduction="mean")
    ref = typical_error(fn, t, dense)
    assert abs(got - ref) / ref < 0.005


def test_window_samples_validity():
    cfg = TypicalErrorConfig(tau0=4.0, samples=16)
    with pytest.raises(ValueError, match="window"):
        window_samples(2.0, cfg)
    samples = window_samples(100.0, cfg)
    assert samples.shape == (16,)
    w = math.sqrt(400.0)
    assert samples[0] > 100.0 - w
    assert samples[-1] < 100.0 + w
    assert np.all(np.diff(samples) > 0)


def test_typical_error_config_validation():
    with pytest.raises(ValueError):
        TypicalErrorConfig(tau0=0.0)
    with pytest.raises(ValueError):
        TypicalErrorConfig(samples=8)
    with pytest.raises(ValueError):
        TypicalErrorConfig(reduction="median")


def test_switching_estimate_reference_values():
    assert switching_estimate(build(ModelSpec("two-level", k=0.0)), 1).coefficient == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )
    assert switching_estimate(
        build(ModelSpec("three-level-case1", k=0.0)), 1
    ).coefficient == pytest.approx(math.sqrt(34.0) / 4.0, abs=1e-12)
    assert switching_estimate(build(ModelSpec("three-level-case2", k=1e-3)), 1).coefficient == 0.0


def test_switching_estimate_against_independent_eigensolver():
    # recompute the order-1 coefficient with numpy's eigensolver and a direct sum
    path = build(ModelSpec("three-level-case1", k=0.0))
    total = 0.0
    for endpoint in (0, 1):
        w, v = np.linalg.eigh(path.evaluate(float(endpoint)))
        h1 = path.endpoint_deriv(endpoint, 1)
        for j in (1, 2):
            elem = v[:, j].conj() @ h1 @ v[:, 0]
            total += abs(elem) ** 2 / (w[j] - w[0]) ** (2 * 2)
    expected = math.sqrt(total)
    got = switching_estimate(path, 1).coefficient
    assert got == pytest.approx(expected, rel=1e-13)


def test_switching_estimate_order2_smoothed():
    k = 1e-3
    est = switching_estimate(build(ModelSpec("two-level", k=k)), 2)
    expected = math.sqrt(2.0) * 2.0 * (1.0 + 2.0 * k) ** 2 / (k * (1.0 + k))
    assert est.coefficient == pytest.approx(expected, rel=1e-12)
    assert est.start_coefficient == pytest.approx(est.end_coefficient, rel=1e-12)


def test_switching_estimate_order3_vanishes_for_order3_smoothing():
    path = build(ModelSpec("two-level", k=1e-3, order=3))
    est = switching_estimate(path, 3)
    assert est.coefficient == 0.0
    assert switching_estimate(path, 4).coefficient > 0.0


def test_switching_estimate_per_level_terms():
    est = switching_estimate(build(ModelSpec("three-level-case1", k=0.0)), 1)
    assert len(est.level_terms) == 4
    by_endpoint = {0: [], 1: []}
    for term in est.level_terms:
        by_endpoint[term.endpoint].append(term)
    gaps = sorted(t.gap for t in by_endpoint[0])
    assert gaps == pytest.approx([1.0, 2.0])


def test_switching_estimate_shift_invariance():
    path = build(ModelSpec("two-level", k=1e-3))
    shifted = HamiltonianPath(
        path.dim, tuple(d + 5.0 for d in path.diagonal), path.couplings
    )
    for order in (1, 2):
        a = switching_estimate(path, order).coefficient
        b = switching_estimate(shifted, order).coefficient
        assert a == pytest.approx(b, rel=1e-13)


def test_switching_estimate_degenerate_gap():
    path = HamiltonianPath(2, (1.0, 1.0), (Coupling(0, 1, 1.0, Parabola()),))
    with pytest.raises(DegenerateGapError):
        switching_estimate(path, 1)


def test_reference_scaling_estimate_reduces_to_order1():
    base = build(ModelSpec("two-level", k=0.0))
    ref = reference_scaling_estimate(base, 0.0, 0)
    est = switching_estimate(base, 1)
    assert ref.error_order == 1
    assert ref.bracket == pytest.approx(est.coefficient, rel=1e-13)
    assert ref.sqrt_prefactor_coefficient == pytest.approx(est.coefficient, rel=1e-13)


def test_reference_scaling_estimate_prefactor():
    base = build(ModelSpec("two-level", k=0.0))
    ref = reference_scaling_estimate(base, 1e-3, 1)
    assert ref.sqrt_prefactor_coefficient == pytest.approx(
        math.sqrt(1000.0) * ref.bracket, rel=1e-13
    )
    assert ref.substituted_coefficient == pytest.approx(1000.0 * ref.bracket, rel=1e-13)


def test_reference_shortcut_vs_exact_ramp_transform():
    # the exact second derivative of the ramp-transformed path exceeds the
    # n!/k^n shortcut by (n+1)/(1+k)^n
    k = 1e-3
    base = build(ModelSpec("two-level", k=0.0))
    ref = reference_scaling_estimate(base, k, 1)
    ramped = Product((PowerRamp(k, 1), Parabola(), PowerRamp(k, 1, reflected=True)))
    exact = switching_estimate(HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, ramped),)), 2)
    ratio = exact.coefficient / ref.substituted_coefficient
    assert ratio == pytest.approx(2.0 / (1.0 + k), rel=1e-12)


def test_reference_scaling_requires_positive_k():
    base = build(ModelSpec("two-level", k=0.0))
    with pytest.raises(ValueError):
        reference_scaling_estimate(base, 0.0, 1)


def test_estimator_curves_cross_at_inverse_k():
    # order-1 curve of the base path crosses the order-2 curve of the
    # smoothed path at t = b2/b1, which scales like 1/k
    base_b1 = switching_estimate(build(ModelSpec("two-level", k=0.0)), 1).coefficient
    crossings = {}
    for k in (1e-4, 1e-3, 1e-2):
        b2 = switching_estimate(build(ModelSpec("two-level", k=k)), 2).coefficient
        crossings[k] = b2 / base_b1
    for k, t_cross in crossings.items():
        assert 0.5 <= t_cross * k / 2.0 <= 2.0


def test_decade_slope():
    ts = np.geomspace(10.0, 1e3, 13)
    vals = 5.0 / ts**1.5
    assert decade_slope(ts, vals, 100.0, 1000.0) == pytest.approx(-1.5, abs=1e-9)
    with pytest.raises(ValueError, match="fewer than 3"):
        decade_slope(ts, vals, 900.0, 950.0)


def test_sqrt2_bound_check_arithmetic():
    assert sqrt2_bound_check(0.0, 0.123)
    assert not sqrt2_bound_check(1.0, 0.5)
    assert sqrt2_bound_check(0.7, 0.5)


def test_crossover_time_synthetic():
    ts = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    ratios = np.array([3.0, 1.5, 1.1, 0.95, 1.02])
    assert crossover_time(ts, ratios) == 40.0
    assert crossover_time(ts, np.array([3.0, 1.5, 1.1, 0.5, 1.02])) == 160.0
    assert crossover_time(ts, np.full(5, 2.0)) is None
    assert crossover_time(ts, np.full(5, 1.0)) == 10.0


def test_window_sampling_density_insensitive():
    # 32 vs 64 window samples agree at the percent level once the window
    # covers a few oscillation periods
    path = build(ModelSpec("two-level", k=0.0))
    ev = EvolutionConfig(t_total=120.0)
    vals = {}
    for samples in (32, 64):
        te = TypicalErrorConfig(tau0=1.0, samples=samples, reduction="rms")
        (m,) = measure_errors(path, 120.0, (te,), ev)
        vals[samples] = m.typical
    assert abs(vals[32] / vals[64] - 1.0) < 0.01


def test_window_width_insensitive_at_large_t():
    path = build(ModelSpec("two-level", k=1e-3))
    vals = {}
    for tau0 in (0.5, 2.0):
        te = TypicalErrorConfig(tau0=tau0, samples=64, reduction="rms")
        ev = EvolutionConfig(t_total=1000.0, rtol=4e-12, atol=1e-14)
        (m,) = measure_errors(path, 1000.0, (te,), ev)
        vals[tau0] = m.typical
    assert abs(vals[0.5] / vals[2.0] - 1.0) < 0.02


def test_windows_of_one_batch_match_their_own_calls():
    # Two windows share one propagation, whose mesh is built for the wider
    # window's largest t; each still reads its own typical error.
    path = build(ModelSpec("two-level", k=1e-3))
    ev = EvolutionConfig(t_total=1000.0, rtol=4e-12, atol=1e-14)
    windows = tuple(TypicalErrorConfig(tau0=tau0, samples=64) for tau0 in (0.5, 2.0))
    batched = measure_errors(path, 1000.0, windows, ev)
    assert len(batched) == 2
    for window, got in zip(windows, batched):
        (alone,) = measure_errors(path, 1000.0, (window,), ev)
        assert got.t == alone.t == 1000.0
        assert abs(got.typical / alone.typical - 1.0) < 1e-6
        assert abs(got.error / alone.error - 1.0) < 1e-6
        assert got.norm_drift_max < 1e-12


def test_a_single_window_is_one_batch_of_t_and_its_samples():
    path = build(ModelSpec("three-level-case1", k=1e-3))
    te = TypicalErrorConfig(tau0=1.0, samples=48, reduction="mean")
    ev = EvolutionConfig(t_total=300.0, rtol=1e-11, atol=1e-13)
    (m,) = measure_errors(path, 300.0, (te,), ev)
    ts = np.concatenate(([300.0], window_samples(300.0, te)))
    batch = evolve_many(path, ev, ts, ground_state(path, 0.0))
    errs = true_error(batch.final_states, ground_state(path, 1.0))
    assert m.error == errs[0]
    assert m.typical == reduce_window(errs[1:], "mean")
    assert m.norm_drift_max == np.max(batch.norm_drifts)
