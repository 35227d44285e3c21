import math

import numpy as np
import pytest

from adiasweep.schedules import (
    Constant,
    ExponentialPulse,
    Parabola,
    PowerRamp,
    Product,
    fast_value,
    rational_pulse,
)

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
    assert f0.deriv1(0.0) == 1.0
    assert f0.deriv1(1.0) == -1.0
    assert f0.deriv2(0.3) == -2.0


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
        assert sched.deriv1(0.0) == 0.0
        assert sched.deriv1(1.0) == 0.0


def test_rational_second_derivative_formula():
    # symbolic differentiation of s^2 (1-s)^2 (1+2k)^2 / ((s+k)(1-s+k)) at s=0
    for k in K_LADDER:
        expected = 2.0 * (1.0 + 2.0 * k) ** 2 / (k * (1.0 + k))
        assert rational_pulse(k).deriv2(0.0) == pytest.approx(expected, rel=1e-13)
    assert rational_pulse(1e-3).deriv2(0.0) == pytest.approx(2006.002, abs=5e-4)


def test_endpoints_vanish():
    for sched in ALL_FAMILIES:
        assert sched.value(0.0) == 0.0
        assert sched.value(1.0) == 0.0


def test_symmetry():
    for sched in ALL_FAMILIES:
        for s in np.linspace(0.0, 1.0, 41):
            assert abs(sched.value(s) - sched.value(1.0 - s)) < 1e-14


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
    assert sched.deriv1(0.0) == 0.0
    assert sched.deriv2(1.0) == 0.0
    for order in range(7):
        assert sched.endpoint_deriv(0, order) == 0.0
        assert sched.endpoint_deriv(1, order) == 0.0


def test_derivatives_match_finite_differences():
    grid = np.linspace(0.01, 0.99, 29)
    first_order_families = tuple(f for f in ALL_FAMILIES if f is not ALL_FAMILIES[4])
    for sched in first_order_families:
        for s in grid:
            d1 = sched.deriv1(s)
            d2 = sched.deriv2(s)
            assert abs(d1 - central_d1(sched, s)) <= 1e-6 * (1.0 + abs(d1))
            assert abs(d2 - central_d2(sched, s)) <= 1e-6 * (1.0 + abs(d2))


def test_order2_second_derivative_against_first():
    # the order-2 pulse varies too fast near s ~ 10k for a value-based
    # second difference at the standard step; difference deriv1 instead
    sched = rational_pulse(1e-3, order=2)
    h = 1e-6
    for s in np.linspace(0.01, 0.99, 29):
        fd = (sched.deriv1(s + h) - sched.deriv1(s - h)) / (2.0 * h)
        d2 = sched.deriv2(s)
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
    # third and higher derivatives of the parabola vanish; the FD path must
    # see an exactly constant second derivative
    f0 = Parabola()
    for order in (3, 4, 5, 6):
        assert f0.endpoint_deriv(0, order) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("n,k,rel", [(1, 1e-2, 1e-12), (2, 1e-2, 1e-4), (3, 1e-2, 1e-3)])
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
        assert abs(sched.endpoint_deriv(0, order)) <= 1e-6 * expected


def test_endpoint_deriv_rejects_high_order():
    with pytest.raises(ValueError, match="unsupported"):
        Parabola().endpoint_deriv(0, 7)
    with pytest.raises(ValueError, match="endpoint"):
        Parabola().endpoint_deriv(2, 1)


def test_domain_validation():
    for sched in (Parabola(), rational_pulse(1e-3), ExponentialPulse(1e-3), Constant(2.0)):
        with pytest.raises(ValueError, match="outside"):
            sched.value(-0.1)
        with pytest.raises(ValueError, match="outside"):
            sched.deriv1(1.2)


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
        assert sched.deriv1(s) == pytest.approx(central_d1(sched, s), rel=1e-6, abs=1e-9)
        assert sched.deriv2(s) == pytest.approx(central_d2(sched, s), rel=1e-6, abs=1e-6)


def test_fast_value_bitwise_identical():
    grid = np.linspace(0.0, 1.0, 101)
    for sched in ALL_FAMILIES + (Constant(0.3), PowerRamp(1e-3, 2, reflected=True)):
        fn = fast_value(sched)
        for s in grid:
            assert fn(s) == sched.value(s)


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
        got = fast_value(sched)(s)
        assert got.shape == s.shape
        assert np.array_equal(got, expected), sched
        # stacked inputs keep their shape
        assert np.array_equal(fast_value(sched)(s.reshape(-1, 1)), expected.reshape(-1, 1))

