import math

import numpy as np
import pytest

from adiasweep.schedules import (
    PREFACTOR_MODES,
    Constant,
    ExponentialPulse,
    Parabola,
    PowerRamp,
    Product,
    Schedule,
    rational_pulse,
)
from adiasweep.evolution import fast_value

K_LADDER = (1e-4, 1e-3, 1e-2)

ALL_FAMILIES = (
    Parabola(),
    rational_pulse(1e-4),
    rational_pulse(1e-3),
    rational_pulse(1e-2),
    rational_pulse(1e-3, order=2),
    rational_pulse(1e-3, prefactor="as-printed"),
    ExponentialPulse(1e-3),
    ExponentialPulse(1e-2),
)


def central_d1(sched, s, h=1e-5):
    return (sched.value(s + h) - sched.value(s - h)) / (2.0 * h)


def central_d2(sched, s, h=1e-5):
    return (sched.value(s + h) - 2.0 * sched.value(s) + sched.value(s - h)) / h**2


def test_parabola_values():
    f0 = Parabola()
    assert f0.value(0.5) == 0.25
    assert f0.taylor(0.0, 2) == [0.0, 1.0, -1.0]
    assert f0.taylor(1.0, 1) == [0.0, -1.0]
    assert f0.taylor(0.3, 4)[2:] == [-1.0, 0.0, 0.0]


def test_rational_midpoint_normalization_exact():
    for k in K_LADDER:
        sched = rational_pulse(k)
        assert sched.value(0.5) == 0.25


def test_rational_as_printed_midpoint():
    for k in K_LADDER:
        sched = rational_pulse(k, prefactor="as-printed")
        assert sched.value(0.5) == pytest.approx(0.25 / (1.0 + 2.0 * k) ** 4, rel=1e-14)


def test_rational_first_derivative_vanishes_exactly():
    for k in K_LADDER:
        sched = rational_pulse(k)
        assert sched.taylor(0.0, 1)[1] == 0.0
        assert sched.taylor(1.0, 1)[1] == 0.0


def test_rational_second_derivative_formula():
    # symbolic differentiation of s^2 (1-s)^2 (1+2k)^2 / ((s+k)(1-s+k)) at s=0
    for k in K_LADDER:
        expected = 2.0 * (1.0 + 2.0 * k) ** 2 / (k * (1.0 + k))
        assert rational_pulse(k).endpoint_deriv(0, 2) == pytest.approx(expected, rel=1e-13)
    assert rational_pulse(1e-3).endpoint_deriv(0, 2) == pytest.approx(2006.002, abs=5e-4)


def test_rational_third_derivative_formula():
    # order-2 smoothing: s^3 (1+2k)^4 / (k^2 (1+k)^2) is the leading term at s=0
    for k in K_LADDER:
        expected = 6.0 * (1.0 + 2.0 * k) ** 4 / (k**2 * (1.0 + k) ** 2)
        sched = rational_pulse(k, order=2)
        assert sched.endpoint_deriv(0, 3) == pytest.approx(expected, rel=1e-13)
        assert sched.endpoint_deriv(1, 3) == pytest.approx(-expected, rel=1e-13)


def test_order3_smoothing_third_derivative_vanishes_exactly():
    for k in K_LADDER:
        sched = rational_pulse(k, order=3)
        for endpoint in (0, 1):
            for order in range(4):
                assert sched.endpoint_deriv(endpoint, order) == 0.0
            assert sched.endpoint_deriv(endpoint, 4) != 0.0


def test_endpoints_vanish():
    for sched in ALL_FAMILIES:
        assert sched.value(0.0) == 0.0
        assert sched.value(1.0) == 0.0


def test_symmetry():
    for sched in ALL_FAMILIES:
        for s in np.linspace(0.0, 1.0, 41):
            assert abs(sched.value(s) - sched.value(1.0 - s)) < 1e-14


class _Undeclared(Parabola):
    """Symmetric in fact, but an unknown subclass is never taken to be."""

    def mirror_symmetric(self):
        return Schedule.mirror_symmetric(self)


MIRROR_ANSWERS = (
    *((rational_pulse(1e-3, n, prefactor), True) for n in (1, 2) for prefactor in PREFACTOR_MODES),
    (rational_pulse(0.0), True),
    (ExponentialPulse(1e-2), True),
    (Constant(0.3), True),
    (PowerRamp(0.0), True),
    (Product((Parabola(), PowerRamp(1e-3))), False),
    (Product((Parabola(), PowerRamp(1e-3), PowerRamp(2e-3, reflected=True))), False),
    (Product((PowerRamp(1e-3, reflected=True), Parabola(), PowerRamp(1e-3))), True),
    (Product((Parabola(), _Undeclared())), False),
    (PowerRamp(1e-3), False),
    (_Undeclared(), False),
)


@pytest.mark.parametrize("sched, symmetric", MIRROR_ANSWERS, ids=repr)
def test_mirror_symmetric_answers(sched, symmetric):
    assert sched.mirror_symmetric() is symmetric
    if symmetric:
        # dyadic s, so 1 - s is exact and only the evaluation order differs
        s = np.arange(1025) / 1024.0
        value, mirrored = sched.value(s), sched.value(1.0 - s)
        assert np.all(np.abs(mirrored - value) <= 1e-15 * np.abs(value))


def test_exponential_midpoint_value():
    for k in K_LADDER:
        assert ExponentialPulse(k).value(0.5) == pytest.approx(0.25 * math.exp(-4.0 * k), rel=1e-14)


def test_exponential_flatness_bound():
    for k in K_LADDER:
        sched = ExponentialPulse(k)
        for s in np.linspace(1e-6, 0.5, 57):
            assert abs(sched.value(s)) <= s * math.exp(-k / s) + 1e-300


def test_exponential_clipped_endpoint_negligible():
    s = 1e-6
    for k in K_LADDER:
        bound = math.exp(-k * 1e6 / (1.0 - 1e-6)) * 1e-6
        assert ExponentialPulse(k).value(s) <= bound


def test_exponential_endpoint_derivatives_zero():
    sched = ExponentialPulse(1e-3)
    assert sched.taylor(0.0, 3) == [0.0] * 4
    assert sched.taylor(1.0, 3) == [0.0] * 4
    for order in range(9):
        assert sched.endpoint_deriv(0, order) == 0.0
        assert sched.endpoint_deriv(1, order) == 0.0


def test_derivatives_match_finite_differences():
    grid = np.linspace(0.01, 0.99, 29)
    first_order_families = tuple(f for f in ALL_FAMILIES if f is not ALL_FAMILIES[4])
    for sched in first_order_families:
        for s in grid:
            _, d1, half_d2 = sched.taylor(s, 2)
            d2 = 2.0 * half_d2
            assert abs(d1 - central_d1(sched, s)) <= 1e-6 * (1.0 + abs(d1))
            assert abs(d2 - central_d2(sched, s)) <= 1e-6 * (1.0 + abs(d2))


def test_order2_second_derivative_against_first():
    # the order-2 pulse varies too fast near s ~ 10k for a value-based
    # second difference at the standard step; difference f' instead
    sched = rational_pulse(1e-3, order=2)
    h = 1e-6
    for s in np.linspace(0.01, 0.99, 29):
        fd = (sched.taylor(s + h, 1)[1] - sched.taylor(s - h, 1)[1]) / (2.0 * h)
        d2 = 2.0 * sched.taylor(s, 2)[2]
        assert abs(d2 - fd) <= 1e-7 * (1.0 + abs(d2))


def test_uniform_closeness_monotone_in_k():
    grid = np.linspace(0.0, 1.0, 501)
    f0 = Parabola()
    gaps = []
    for k in sorted(K_LADDER, reverse=True):
        sched = rational_pulse(k)
        gaps.append(max(abs(sched.value(s) - f0.value(s)) for s in grid))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_endpoint_deriv_analytic_orders():
    f0 = Parabola()
    assert f0.endpoint_deriv(0, 1) == 1.0
    assert f0.endpoint_deriv(1, 1) == -1.0
    assert f0.endpoint_deriv(0, 2) == -2.0
    assert rational_pulse(1e-3).endpoint_deriv(0, 1) == 0.0


def test_endpoint_deriv_fd_orders_on_parabola():
    # third and higher derivatives of the parabola vanish exactly
    f0 = Parabola()
    for order in (3, 4, 5, 6, 8):
        assert f0.endpoint_deriv(0, order) == 0.0
        assert f0.endpoint_deriv(1, order) == 0.0


@pytest.mark.parametrize("n,k,rel", [(1, 1e-2, 1e-12), (2, 1e-2, 1e-12), (3, 1e-2, 1e-12)])
def test_ramp_product_series_oracle(n, k, rel):
    # series expansion of ramp^n * parabola * ramp(1-s)^n near s=0:
    # leading term s^(n+1) / (k^n (1+k)^n), so the (n+1)-th derivative is
    # (n+1)! / (k^n (1+k)^n)
    sched = Product((PowerRamp(k, n), Parabola(), PowerRamp(k, n, reflected=True)))
    expected = math.factorial(n + 1) / (k**n * (1.0 + k) ** n)
    for endpoint, sign in ((0, 1.0), (1, -1.0)):
        got = sched.endpoint_deriv(endpoint, n + 1)
        assert got == pytest.approx(sign**(n + 1) * expected, rel=rel)
    # all lower orders vanish
    for order in range(n + 1):
        assert sched.endpoint_deriv(0, order) == 0.0
        assert sched.endpoint_deriv(1, order) == 0.0


def test_endpoint_deriv_rejects_high_order():
    # any non-negative order is supported; d^m/ds^m of s/(s+k) at 0 is
    # (-1)^(m+1) m! / k^m
    k = 1e-2
    for order in (7, 8, 12):
        expected = (-1.0) ** (order + 1) * math.factorial(order) / k**order
        assert PowerRamp(k).endpoint_deriv(0, order) == pytest.approx(expected, rel=1e-13)
    assert Parabola().endpoint_deriv(0, 7) == 0.0
    for sched in (Parabola(), ExponentialPulse(1e-3)):
        with pytest.raises(ValueError, match="order"):
            sched.endpoint_deriv(0, -1)
        with pytest.raises(ValueError, match="endpoint"):
            sched.endpoint_deriv(2, 1)
    with pytest.raises(ValueError, match="order"):
        Parabola().taylor(0.5, -1)


def test_taylor_coefficients_are_consistent():
    # (m+1) * c_{m+1}(s) is the derivative of c_m(s), for every family and order
    h = 1e-7
    families = ALL_FAMILIES + (
        Constant(0.3),
        PowerRamp(1e-2, 3, reflected=True, scale=1.02),
        rational_pulse(1e-2, order=3),
    )
    for sched in families:
        for s in (0.1, 0.37, 0.5, 0.81):
            jet = sched.taylor(s, 5)
            assert jet[0] == pytest.approx(sched.value(s), rel=1e-15)
            lo, hi = sched.taylor(s - h, 4), sched.taylor(s + h, 4)
            for m in range(4):
                fd = (hi[m] - lo[m]) / (2.0 * h)
                want = (m + 1) * jet[m + 1]
                assert abs(fd - want) <= 1e-5 * (abs(want) + abs(jet[m]) + 1e-3), (sched, s, m)


def test_exponential_jet_underflows_to_zero():
    # k/(s(1-s)) is above 745 at s=1e-3, where exp(-k/u) underflows
    sched = ExponentialPulse(1.0)
    assert sched.value(1e-3) == 0.0
    assert sched.taylor(1e-3, 4) == [0.0] * 5
    assert sched.taylor(0.5, 4)[0] == sched.value(0.5)


def test_domain_validation():
    for sched in (Parabola(), rational_pulse(1e-3), ExponentialPulse(1e-3), Constant(2.0)):
        with pytest.raises(ValueError, match="outside"):
            sched.value(-0.1)
        with pytest.raises(ValueError, match="outside"):
            sched.taylor(1.2, 1)
        with pytest.raises(ValueError, match="outside"):
            sched.value(np.array([0.5, 1.2]))
        with pytest.raises(ValueError, match="outside"):
            sched.value(np.array([[0.5], [np.nan]]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        rational_pulse(-1e-3)
    with pytest.raises(ValueError):
        rational_pulse(1e-3, order=0)
    with pytest.raises(ValueError):
        rational_pulse(1e-3, prefactor="bogus")
    with pytest.raises(ValueError):
        ExponentialPulse(0.0)
    with pytest.raises(ValueError):
        PowerRamp(-0.5)


def test_rational_k_zero_is_parabola():
    assert isinstance(rational_pulse(0.0), Parabola)


def test_product_derivatives_against_fd():
    sched = Product((Constant(0.7), Parabola(), PowerRamp(2e-3, 2)))
    for s in (0.05, 0.3, 0.77):
        _, d1, half_d2 = sched.taylor(s, 2)
        assert d1 == pytest.approx(central_d1(sched, s), rel=1e-6, abs=1e-9)
        assert 2.0 * half_d2 == pytest.approx(central_d2(sched, s), rel=1e-6, abs=1e-6)


def test_fast_value_bitwise_identical():
    # the propagator's evaluator is value itself; one-element arrays match floats
    grid = np.linspace(0.0, 1.0, 101)
    for sched in ALL_FAMILIES + (Constant(0.3), PowerRamp(1e-3, 2, reflected=True)):
        assert fast_value(sched) == sched.value
        for s in grid:
            got = sched.value(float(s))
            assert type(got) is float
            assert sched.value(np.array([s]))[0] == got


def _exponential_underflow_edges(k):
    """s values around the point where k/(s(1-s)) crosses the 745 cutoff, both ends."""
    u_edge = k / 745.0
    s_edge = (1.0 - math.sqrt(1.0 - 4.0 * u_edge)) / 2.0
    below = [s_edge]
    for _ in range(3):
        below.append(np.nextafter(below[-1], 0.0))
    around = below + [np.nextafter(s_edge, 1.0), np.nextafter(np.nextafter(s_edge, 1.0), 1.0)]
    return around + [1.0 - s for s in around] + [5e-324, 1e-300, 1.0 - 1e-16]


def test_fast_value_arrays_equal_scalar_value():
    families = ALL_FAMILIES + (
        Constant(0.3),
        PowerRamp(0.0),
        PowerRamp(1e-3, 3),
        PowerRamp(1e-3, 2, reflected=True, scale=1.002),
        ExponentialPulse(0.5),
        rational_pulse(1e-2, order=3),
    )
    grid = np.concatenate((np.linspace(0.0, 1.0, 2001), [1e-6, 1.0 - 1e-6]))
    for sched in families:
        s = grid
        if isinstance(sched, ExponentialPulse):
            s = np.concatenate((grid, _exponential_underflow_edges(sched.k)))
        expected = np.array([sched.value(float(x)) for x in s])
        got = sched.value(s)
        assert got.shape == s.shape
        assert np.array_equal(got, expected), sched
        # stacked inputs keep their shape
        assert np.array_equal(sched.value(s.reshape(-1, 1)), expected.reshape(-1, 1))

