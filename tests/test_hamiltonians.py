import ast
import pathlib

import numpy as np
import pytest

import adiasweep
from adiasweep.hamiltonians import (
    MODEL_NAMES,
    PULSES,
    Coupling,
    HamiltonianPath,
    ModelSpec,
    build,
)
from adiasweep.schedules import Parabola, PowerRamp, Product


def central_deriv(path, s, h=1e-6):
    return (path.evaluate(s + h) - path.evaluate(s - h)) / (2.0 * h)


def ramped_two_level(k, n=1):
    """The k=0 two-level path with its coupling multiplied by ramp(s)^n ramp(1-s)^n."""
    sched = Product((PowerRamp(k, n), Parabola(), PowerRamp(k, n, reflected=True)))
    return HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, sched),))


def jet_deriv(path, s):
    """dH/ds from the first Taylor coefficient of every coupling schedule."""
    m = np.zeros((path.dim, path.dim), dtype=complex)
    for c in path.couplings:
        m[c.i, c.j] = m[c.j, c.i] = c.amplitude * c.schedule.taylor(s, 1)[1]
    return m


def test_two_level_k0_midpoint():
    path = build(ModelSpec("two-level", k=0.0))
    expected = np.array([[0.0, 0.25], [0.25, 1.0]])
    assert np.array_equal(path.evaluate(0.5), expected)


def test_three_level_case2_endpoint_diagonal():
    path = build(ModelSpec("three-level-case2", k=1e-3))
    assert np.array_equal(path.evaluate(0.0), np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.array_equal(path.evaluate(1.0), np.diag([1.0, 2.0, 3.0]).astype(complex))


def test_smoothed_midpoint_coupling_is_quarter():
    path = build(ModelSpec("two-level", k=1e-3))
    h = path.evaluate(0.5)
    assert h[0, 1] == 0.25


def test_all_builtins_diagonal_at_endpoints():
    for model in ("two-level", "two-level-exp", "three-level-case1", "three-level-case2"):
        path = build(ModelSpec(model, k=1e-3))
        for s in (0.0, 1.0):
            h = path.evaluate(s)
            off = h - np.diag(np.diag(h))
            assert np.max(np.abs(off)) == 0.0


def test_two_level_k0_deriv_at_zero():
    path = build(ModelSpec("two-level", k=0.0))
    expected = np.array([[0, 1], [1, 0]], dtype=complex)
    assert np.array_equal(jet_deriv(path, 0.0), expected)
    assert np.array_equal(path.endpoint_deriv(0, 1), expected)


def test_three_level_case1_deriv_matches_finite_differences():
    path = build(ModelSpec("three-level-case1", k=1e-3))
    for s in (0.25, 0.5, 1.0 - 1e-6):
        got = jet_deriv(path, s)
        ref = central_deriv(path, s - 2e-6 if s > 0.99 else s)
        target = jet_deriv(path, s - 2e-6 if s > 0.99 else s)
        assert np.max(np.abs(target - ref)) < 1e-6 * (1.0 + np.max(np.abs(target)))
        assert got.shape == (3, 3)


def test_endpoint_hamiltonian_derivs():
    k = 1e-3
    base = build(ModelSpec("two-level", k=0.0))
    assert np.array_equal(base.endpoint_deriv(0, 1), np.array([[0, 1], [1, 0]], dtype=complex))
    smoothed = build(ModelSpec("two-level", k=k))
    assert np.max(np.abs(smoothed.endpoint_deriv(0, 1))) == 0.0
    c = 2.0 * (1.0 + 2.0 * k) ** 2 / (k * (1.0 + k))
    h2 = smoothed.endpoint_deriv(0, 2)
    assert h2[0, 1] == pytest.approx(c, rel=1e-13)
    assert h2[1, 0] == h2[0, 1]
    assert h2[0, 0] == 0.0


def test_k_zero_reproduces_base_path_bitwise():
    built = build(ModelSpec("two-level", k=0.0))
    manual = HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, Parabola()),))
    for s in np.linspace(0.0, 1.0, 101):
        assert np.array_equal(built.evaluate(s), manual.evaluate(s))
    exp_built = build(ModelSpec("two-level-exp", k=0.0))
    for s in np.linspace(0.0, 1.0, 101):
        assert np.array_equal(exp_built.evaluate(s), manual.evaluate(s))


def test_reflection_symmetry():
    for model in ("two-level", "two-level-exp"):
        path = build(ModelSpec(model, k=1e-3))
        for s in np.linspace(0.0, 1.0, 41):
            assert np.max(np.abs(path.evaluate(s) - path.evaluate(1.0 - s))) < 1e-14


def test_hermitian_everywhere():
    for model in ("two-level", "three-level-case1", "three-level-case2"):
        path = build(ModelSpec(model, k=1e-2))
        for s in np.linspace(0.0, 1.0, 17):
            h = path.evaluate(s)
            assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_smoothing_transform_identity_cases():
    # a k=0 ramp is exactly 1, so the transform leaves the path bitwise unchanged
    path = build(ModelSpec("two-level", k=0.0))
    for n in (1, 3):
        transformed = ramped_two_level(0.0, n)
        for s in np.linspace(0.0, 1.0, 41):
            assert np.array_equal(transformed.evaluate(s), path.evaluate(s))


def test_smoothing_transform_small_k_limit():
    path = build(ModelSpec("two-level", k=0.0))
    for s in (0.2, 0.5, 0.8):
        base_val = path.evaluate(s)[0, 1]
        for k in (1e-3, 1e-5, 1e-7):
            val = ramped_two_level(k).evaluate(s)[0, 1]
            assert abs(val - base_val) < 20.0 * k
    transformed = ramped_two_level(1e-7)
    assert abs(transformed.evaluate(0.5)[0, 1] - 0.25) < 1e-6


def test_smoothing_transform_endpoint_derivatives():
    k = 1e-2
    transformed = ramped_two_level(k)
    assert np.max(np.abs(transformed.endpoint_deriv(0, 1))) == 0.0
    expected = 2.0 / (k * (1.0 + k))
    assert transformed.endpoint_deriv(0, 2)[0, 1] == pytest.approx(expected, rel=1e-12)


def test_model_spec_validation():
    with pytest.raises(ValueError, match="unknown model"):
        ModelSpec("five-level")
    with pytest.raises(ValueError, match=">= 0"):
        ModelSpec("two-level", k=-1e-3)
    with pytest.raises(ValueError, match="order"):
        ModelSpec("two-level", order=0)


def test_model_spec_refuses_what_its_model_does_not_read():
    # k1..k3 override the couplings of a model that has several; a wrong
    # number of energies is refused here, not first in build.
    for name in ("k1", "k2", "k3"):
        with pytest.raises(ValueError, match=f"does not read {name}"):
            ModelSpec("two-level-exp", k=1e-2, **{name: 1e-3})
    with pytest.raises(ValueError, match="E0', 'E1'"):
        ModelSpec("two-level", energies=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="E1', 'E2', 'E3'"):
        ModelSpec("three-level-case2", energies=(1.0, 1.0))
    assert ModelSpec("two-level", k=1e-3).k_values() == (1e-3,)


def test_no_code_compares_against_a_model_name():
    # Every per-model fact is a field of hamiltonians.MODELS.  A comparison
    # with a model's name anywhere in the package is a branch the table
    # does not see; constructing a ModelSpec by name is no comparison.
    found = set()
    for path in sorted(pathlib.Path(adiasweep.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
                continue
            for operand in (node.left, *node.comparators):
                for sub in ast.walk(operand):
                    if isinstance(sub, ast.Constant) and sub.value in MODEL_NAMES:
                        found.add(f"{path.name}:{node.lineno}")
    assert not found, sorted(found)


def test_no_code_outside_hamiltonians_reads_a_pulse_kind():
    # Which fields a pulse reads is said by its PULSES entry and asked of a
    # row through Model.reads.  Reading a row's pulse or comparing with a
    # pulse kind elsewhere is a second copy of that rule.  schedule-dump's
    # --family names schedule families, some of which share a pulse kind's
    # name, and no model's pulse.
    found = set()
    for path in sorted(pathlib.Path(adiasweep.__file__).parent.glob("*.py")):
        if path.name == "hamiltonians.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        families = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "_cmd_schedule_dump"
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "pulse":
                found.add(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Compare) and id(node) not in families:
                for operand in (node.left, *node.comparators):
                    for sub in ast.walk(operand):
                        if isinstance(sub, ast.Constant) and sub.value in PULSES:
                            found.add(f"{path.name}:{node.lineno}")
    assert not found, sorted(found)


def test_case_defaults():
    case1 = ModelSpec("three-level-case1", k=2e-3)
    assert case1.k_values() == (2e-3, 2e-3, 2e-3)
    assert case1.energy_values() == (1.0, 1.0, 1.0)
    case2 = ModelSpec("three-level-case2", k=2e-3)
    assert case2.k_values() == (2e-3, 0.0, 0.0)
    assert case2.energy_values() == (1.0, 0.0, 1.0)
    assert ModelSpec("three-level-case1", k=1e-3, k2=5e-4).k_values() == (1e-3, 5e-4, 1e-3)


def test_zero_amplitude_couplings_dropped():
    path = build(ModelSpec("three-level-case2", k=1e-3))
    pairs = {(c.i, c.j) for c in path.couplings}
    assert pairs == {(0, 1), (1, 2)}


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_one_assembly_for_a_float_or_an_array_of_s(model):
    # The propagators evaluate arrays of s, ground states and the endpoint
    # walk single floats; both must give the same matrices bit for bit.
    path = build(ModelSpec(model, k=1e-3))
    s_list = [0.0, 0.3, 0.5, 1.0]
    for shift in (0.0, path.diagonal_mean()):
        stack = path.evaluate(np.array(s_list), shift)
        assert stack.shape == (len(s_list), path.dim, path.dim) and stack.dtype == np.float64
        for i, s in enumerate(s_list):
            single = path.evaluate(s, shift)
            assert single.shape == (path.dim, path.dim) and single.dtype == np.float64
            assert stack[i].tobytes() == single.tobytes()
            assert np.array_equal(single, single.T)
    for e in (0, 1):
        assert path.endpoint_deriv(e, 0).tobytes() == path.evaluate(float(e)).tobytes()


def test_evolution_window():
    assert ModelSpec("two-level", k=1e-3).evolution_window() == (0.0, 1.0)
    lo, hi = ModelSpec("two-level-exp", k=1e-3).evolution_window()
    assert lo == 1e-6 and hi == 1.0 - 1e-6


def test_base_spec():
    spec = ModelSpec("two-level-exp", k=1e-2)
    base = spec.base()
    assert base.model == "two-level" and base.k == 0.0
    assert ModelSpec("three-level-case2", k=1e-3).base().model == "three-level-case2"


def test_path_validation():
    with pytest.raises(ValueError, match="out of range"):
        HamiltonianPath(2, (0.0, 1.0), (Coupling(1, 1, 1.0, Parabola()),))
    with pytest.raises(ValueError, match="diagonal"):
        HamiltonianPath(3, (0.0, 1.0), ())
