"""Scalar pulse schedules on scaled time s in [0, 1], with exact Taylor jets.

Four families cover every builtin model:

* ``Parabola``          -- s*(1-s), the baseline coupling envelope.
* ``PowerRamp``         -- (scale*s/(s+k))**n, rises from 0 to ~1 on scale k;
                           ``reflected=True`` evaluates at 1-s.
* ``ExponentialPulse``  -- s*(1-s)*exp(-k/(s*(1-s))); every endpoint
                           derivative vanishes.
* ``Product``/``Constant`` -- composition glue.

``rational_pulse`` builds the endpoint-smoothed envelope whose first
``order`` derivatives vanish at s=0 and s=1 while staying close to the
parabola in between.  With the default midpoint-normalized prefactor its
value at s=1/2 equals the parabola's exactly; the alternative
``prefactor="as-printed"`` uses the bare 1/(1+2k)**(2*order) factor instead,
which lowers the midpoint by O(k).

Every schedule has two evaluators.  ``value(s)`` takes a float or a numpy
array of s and returns the same kind.  ``taylor(s, order)`` returns the
truncated Taylor jet [f(s), f'(s), f''(s)/2!, ..., f^(order)(s)/order!] as
a list of floats, exact up to rounding at any order: a ramp is
scale*(1 - k/(u+k)), whose series is geometric; the exponential pulse
applies the exp recurrence to the jet of -k/u; a product is the truncated
Cauchy product of its factors' jets.  Derivatives of any order at the ends
of an evolution window, [0, 1] or a part of it, are read off the jets.

``mirror_symmetric()`` says whether f(1-s) = f(s) follows from the
schedule's structure: the parabola, a constant and the exponential pulse are
symmetric, a ramp only when k = 0, and a product when its factors map onto
one another under s -> 1-s.  The base class answers False, so a schedule
nothing is known about is never taken to be symmetric.  Every builtin pulse
is symmetric, which lets the propagator cover half of a mirrored window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# math.exp and float ** int applied elementwise: numpy's own exp and power
# can differ from them in the last ulp, and value() on an array must equal
# value() on each of its elements bit for bit.
_scalar_exp = np.frompyfunc(math.exp, 1, 1)
_scalar_pow = np.frompyfunc(pow, 2, 1)


def _check_s(s):
    """s as a float, or as the array it is; raises outside [0, 1]."""
    if type(s) is not float and isinstance(s, np.ndarray):  # floats skip the array test
        if s.size and not (s.min() >= -1e-12 and s.max() <= 1.0 + 1e-12):
            bad = s[~((s >= -1e-12) & (s <= 1.0 + 1e-12))].flat[0]
            raise ValueError(f"scaled time s={bad!r} outside [0, 1]")
        return s
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError(f"scaled time s={s!r} outside [0, 1]")
    return float(s)


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"derivative order must be >= 0, got {order}")


def _cauchy(a: list[float], b: list[float]) -> list[float]:
    """Product of two jets of equal length, truncated to that length."""
    return [sum([a[i] * b[j - i] for i in range(j + 1)]) for j in range(len(a))]


class Schedule:
    """Base class: immutable scalar function of s in [0, 1]."""

    def value(self, s):
        """f(s) for a float or elementwise for a numpy array of s."""
        raise NotImplementedError

    def taylor(self, s: float, order: int) -> list[float]:
        """[f(s), f'(s), f''(s)/2!, ..., f^(order)(s)/order!]."""
        raise NotImplementedError

    def endpoint_deriv(self, endpoint: float, order: int) -> float:
        """d^order/ds^order at s=endpoint, either end of a window in [0, 1]."""
        if not 0.0 <= endpoint <= 1.0:
            raise ValueError(f"endpoint must lie in [0, 1], got {endpoint!r}")
        _check_order(order)
        return math.factorial(order) * self.taylor(float(endpoint), order)[order]

    def mirror_symmetric(self) -> bool:
        """True only if f(1-s) = f(s) holds by construction."""
        return False


@dataclass(frozen=True)
class Constant(Schedule):
    c: float = 1.0

    def value(self, s):
        s = _check_s(s)
        return self.c if isinstance(s, float) else np.full(s.shape, self.c)

    def taylor(self, s: float, order: int) -> list[float]:
        _check_s(s)
        _check_order(order)
        return [self.c] + [0.0] * order

    def mirror_symmetric(self) -> bool:
        return True


@dataclass(frozen=True)
class Parabola(Schedule):
    """The envelope s*(1-s): unit slope at s=0, slope -1 at s=1."""

    def value(self, s):
        s = _check_s(s)
        return s * (1.0 - s)

    def taylor(self, s: float, order: int) -> list[float]:
        s = _check_s(s)
        _check_order(order)
        return ([s * (1.0 - s), 1.0 - 2.0 * s, -1.0] + [0.0] * order)[: order + 1]

    def mirror_symmetric(self) -> bool:
        return True


@dataclass(frozen=True)
class PowerRamp(Schedule):
    """(scale * u / (u + k))**n with u = s (or 1-s when reflected).

    k = 0 degenerates to the constant 1, so smoothing switches off exactly.
    """

    k: float
    n: int = 1
    reflected: bool = False
    scale: float = 1.0

    def __post_init__(self):
        if self.k < 0.0:
            raise ValueError(f"ramp scale k must be >= 0, got {self.k}")
        if self.n < 1:
            raise ValueError(f"ramp power must be >= 1, got {self.n}")
        if self.k == 0.0 and self.scale != 1.0:
            raise ValueError("k=0 ramp must have scale 1")

    def value(self, s):
        s = _check_s(s)
        scalar = isinstance(s, float)
        if self.k == 0.0:
            return 1.0 if scalar else np.ones(s.shape)
        u = 1.0 - s if self.reflected else s
        g = (self.scale * u) / (u + self.k)
        if scalar:
            return g**self.n
        if self.n == 1:
            return g
        return np.asarray(_scalar_pow(g, self.n), dtype=float)

    def taylor(self, s: float, order: int) -> list[float]:
        s = _check_s(s)
        _check_order(order)
        if self.k == 0.0:
            return [1.0] + [0.0] * order
        u = 1.0 - s if self.reflected else s
        a = u + self.k
        # scale*(1 - k/(a + sign*x)) = scale*(1 - (k/a) * sum_j (-sign*x/a)^j)
        ratio = (1.0 if self.reflected else -1.0) / a
        g = [(self.scale * u) / a]
        term = -self.scale * self.k / a
        for _ in range(order):
            term *= ratio
            g.append(term)
        out = g
        for _ in range(self.n - 1):
            out = _cauchy(out, g)
        return out

    def mirror_symmetric(self) -> bool:
        return self.k == 0.0


@dataclass(frozen=True)
class ExponentialPulse(Schedule):
    """s*(1-s)*exp(-k/(s*(1-s))), zero (with all derivatives) at s=0 and s=1."""

    k: float

    def __post_init__(self):
        if self.k <= 0.0:
            raise ValueError(f"exponential pulse needs k > 0, got {self.k}")

    def value(self, s):
        s = _check_s(s)
        u = s * (1.0 - s)
        if isinstance(s, float):
            if u <= 0.0 or self.k / u > 745.0:  # exp(-k/u) underflows
                return u * 0.0
            return u * math.exp(-self.k / u)
        positive = u > 0.0
        with np.errstate(over="ignore"):  # subnormal u: k/u is inf, value 0
            ratio = self.k / np.where(positive, u, 1.0)
        live = positive & (ratio <= 745.0)
        damp = np.asarray(_scalar_exp(-np.where(live, ratio, 0.0)), dtype=float)
        return np.where(live, u * damp, 0.0)

    def taylor(self, s: float, order: int) -> list[float]:
        u = Parabola().taylor(s, order)
        if u[0] <= 0.0 or self.k / u[0] > 745.0:
            return [0.0] * (order + 1)
        # w = -k/u from u*v = 1, then exp(w) from E' = w'E
        v = [1.0 / u[0]]
        for j in range(1, order + 1):
            v.append(-sum([u[i] * v[j - i] for i in range(1, j + 1)]) / u[0])
        w = [-self.k * x for x in v]
        damp = [math.exp(-self.k / u[0])]
        for j in range(1, order + 1):
            damp.append(sum([i * w[i] * damp[j - i] for i in range(1, j + 1)]) / j)
        return _cauchy(u, damp)

    def endpoint_deriv(self, endpoint: float, order: int) -> float:
        """The jets' value, as in ``Schedule``.

        The override only gives perfbench's tracer a method of this class to
        patch through ``ExponentialPulse.__dict__``.
        """
        return super().endpoint_deriv(endpoint, order)

    def mirror_symmetric(self) -> bool:
        return True


@dataclass(frozen=True)
class Product(Schedule):
    """Pointwise product of schedules; jets multiply as Cauchy products."""

    factors: tuple[Schedule, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")

    def value(self, s):
        out = self.factors[0].value(s)
        for f in self.factors[1:]:
            out = out * f.value(s)
        return out

    def taylor(self, s: float, order: int) -> list[float]:
        out = self.factors[0].taylor(s, order)
        for f in self.factors[1:]:
            out = _cauchy(out, f.taylor(s, order))
        return out

    def mirror_symmetric(self) -> bool:
        """Each ramp pairs with its reflected twin; every other factor is symmetric itself."""
        unpaired: list[PowerRamp] = []
        for f in self.factors:
            if f.mirror_symmetric():
                continue
            if not isinstance(f, PowerRamp):
                return False
            twin = replace(f, reflected=not f.reflected)
            if twin in unpaired:
                unpaired.remove(twin)
            else:
                unpaired.append(f)
        return not unpaired


PREFACTOR_MODES = ("midpoint-normalized", "as-printed")


def rational_pulse(k: float, order: int = 1, prefactor: str = "midpoint-normalized") -> Schedule:
    """Parabola smoothed by ramps so its first ``order`` derivatives vanish
    at both endpoints.  k = 0 returns the bare parabola.
    """
    if k < 0.0:
        raise ValueError(f"smoothing parameter k must be >= 0, got {k}")
    if order < 1:
        raise ValueError(f"smoothing order must be >= 1, got {order}")
    if prefactor not in PREFACTOR_MODES:
        raise ValueError(f"prefactor must be one of {PREFACTOR_MODES}, got {prefactor!r}")
    if k == 0.0:
        return Parabola()
    if prefactor == "midpoint-normalized":
        scale = 1.0 + 2.0 * k
        return Product(
            (
                Parabola(),
                PowerRamp(k, order, scale=scale),
                PowerRamp(k, order, reflected=True, scale=scale),
            )
        )
    return Product(
        (
            Constant((1.0 + 2.0 * k) ** (-2 * order)),
            Parabola(),
            PowerRamp(k, order),
            PowerRamp(k, order, reflected=True),
        )
    )
