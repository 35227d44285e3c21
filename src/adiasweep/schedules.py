"""Scalar pulse schedules on scaled time s in [0, 1], with analytic derivatives.

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

Endpoint derivatives of order 3..6 are obtained from one-sided finite
differences of the analytic second derivative, Richardson-extrapolated over
the step ladder h, h/2, h/4 with h = 1e-2 * variation_scale (schedules built
from ramps vary on scale k, so the ladder shrinks with k, floored at 1e-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_ENDPOINT_ORDER = 6

_FD_BASE_STEP = 1e-2
_FD_LEVELS = 3
_FD_SCALE_FLOOR = 1e-3

_BINOM = {1: (1, -1), 2: (1, -2, 1), 3: (1, -3, 3, -1), 4: (1, -4, 6, -4, 1)}


def _check_s(s: float) -> float:
    if not -1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError(f"scaled time s={s!r} outside [0, 1]")
    return float(s)


class Schedule:
    """Base class: immutable scalar function of s in [0, 1]."""

    def value(self, s: float) -> float:
        raise NotImplementedError

    def deriv1(self, s: float) -> float:
        raise NotImplementedError

    def deriv2(self, s: float) -> float:
        raise NotImplementedError

    def variation_scale(self) -> float:
        """Smallest feature size in s; sets the endpoint FD step ladder."""
        return 1.0

    def endpoint_deriv(self, endpoint: int, order: int) -> float:
        """d^order/ds^order at s=endpoint (0 or 1).

        Orders 0..2 are analytic; 3..6 use Richardson-extrapolated one-sided
        differences of deriv2.  Orders above 6 are unsupported.
        """
        if endpoint not in (0, 1):
            raise ValueError(f"endpoint must be 0 or 1, got {endpoint!r}")
        if not 0 <= order <= MAX_ENDPOINT_ORDER:
            raise ValueError(f"unsupported endpoint derivative order {order}")
        s0 = float(endpoint)
        if order == 0:
            return self.value(s0)
        if order == 1:
            return self.deriv1(s0)
        if order == 2:
            return self.deriv2(s0)
        return self._fd_endpoint_deriv(s0, order)

    def _fd_endpoint_deriv(self, s0: float, order: int) -> float:
        p = order - 2
        coeffs = _BINOM[p]
        inward = 1.0 if s0 == 0.0 else -1.0
        scale = max(min(self.variation_scale(), 1.0), _FD_SCALE_FLOOR)

        def one_sided(h: float) -> float:
            # p-th one-sided difference of deriv2, stepping into the domain
            acc = 0.0
            for i, w in enumerate(coeffs):
                acc += w * self.deriv2(s0 + inward * (p - i) * h)
            return acc / (inward * h) ** p

        h0 = _FD_BASE_STEP * scale
        d = [one_sided(h0 / 2.0**level) for level in range(_FD_LEVELS)]
        r1 = [2.0 * d[1] - d[0], 2.0 * d[2] - d[1]]
        return (4.0 * r1[1] - r1[0]) / 3.0


@dataclass(frozen=True)
class Constant(Schedule):
    c: float = 1.0

    def value(self, s: float) -> float:
        _check_s(s)
        return self.c

    def deriv1(self, s: float) -> float:
        _check_s(s)
        return 0.0

    def deriv2(self, s: float) -> float:
        _check_s(s)
        return 0.0


@dataclass(frozen=True)
class Parabola(Schedule):
    """The envelope s*(1-s): unit slope at s=0, slope -1 at s=1."""

    def value(self, s: float) -> float:
        s = _check_s(s)
        return s * (1.0 - s)

    def deriv1(self, s: float) -> float:
        s = _check_s(s)
        return 1.0 - 2.0 * s

    def deriv2(self, s: float) -> float:
        _check_s(s)
        return -2.0


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

    def _u(self, s: float) -> float:
        return 1.0 - s if self.reflected else s

    def value(self, s: float) -> float:
        s = _check_s(s)
        if self.k == 0.0:
            return 1.0
        u = self._u(s)
        g = (self.scale * u) / (u + self.k)
        return g**self.n

    def deriv1(self, s: float) -> float:
        s = _check_s(s)
        if self.k == 0.0:
            return 0.0
        u = self._u(s)
        sign = -1.0 if self.reflected else 1.0
        g = (self.scale * u) / (u + self.k)
        gp = self.scale * self.k / (u + self.k) ** 2
        gn1 = g ** (self.n - 1) if self.n > 1 else 1.0
        return sign * self.n * gn1 * gp

    def deriv2(self, s: float) -> float:
        s = _check_s(s)
        if self.k == 0.0:
            return 0.0
        u = self._u(s)
        g = (self.scale * u) / (u + self.k)
        gp = self.scale * self.k / (u + self.k) ** 2
        gpp = -2.0 * self.scale * self.k / (u + self.k) ** 3
        gn1 = g ** (self.n - 1) if self.n > 1 else 1.0
        out = self.n * gn1 * gpp
        if self.n > 1:
            gn2 = g ** (self.n - 2) if self.n > 2 else 1.0
            out += self.n * (self.n - 1) * gn2 * gp * gp
        return out

    def variation_scale(self) -> float:
        return self.k if self.k > 0.0 else 1.0


@dataclass(frozen=True)
class ExponentialPulse(Schedule):
    """s*(1-s)*exp(-k/(s*(1-s))), zero (with all derivatives) at s=0 and s=1."""

    k: float

    def __post_init__(self):
        if self.k <= 0.0:
            raise ValueError(f"exponential pulse needs k > 0, got {self.k}")

    def _core(self, s: float) -> tuple[float, float, float]:
        """(u, u', exp(-k/u)) with harmless 0 when the exponent underflows."""
        u = s * (1.0 - s)
        up = 1.0 - 2.0 * s
        if u <= 0.0 or self.k / u > 745.0:
            return u, up, 0.0
        return u, up, math.exp(-self.k / u)

    def value(self, s: float) -> float:
        s = _check_s(s)
        u, _, damp = self._core(s)
        return u * damp

    def deriv1(self, s: float) -> float:
        s = _check_s(s)
        u, up, damp = self._core(s)
        if damp == 0.0:
            return 0.0
        return up * damp * (1.0 + self.k / u)

    def deriv2(self, s: float) -> float:
        s = _check_s(s)
        u, up, damp = self._core(s)
        if damp == 0.0:
            return 0.0
        return damp * (-2.0 * (1.0 + self.k / u) + self.k**2 * up * up / u**3)

    def endpoint_deriv(self, endpoint: int, order: int) -> float:
        if endpoint not in (0, 1):
            raise ValueError(f"endpoint must be 0 or 1, got {endpoint!r}")
        if not 0 <= order <= MAX_ENDPOINT_ORDER:
            raise ValueError(f"unsupported endpoint derivative order {order}")
        return 0.0


@dataclass(frozen=True)
class Product(Schedule):
    """Pointwise product of schedules; derivatives via the Leibniz rule."""

    factors: tuple[Schedule, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")

    def value(self, s: float) -> float:
        out = 1.0
        for f in self.factors:
            out = out * f.value(s)
        return out

    def deriv1(self, s: float) -> float:
        vals = [f.value(s) for f in self.factors]
        d1 = [f.deriv1(s) for f in self.factors]
        out = 0.0
        for i in range(len(self.factors)):
            term = d1[i]
            for j, v in enumerate(vals):
                if j != i:
                    term *= v
            out += term
        return out

    def deriv2(self, s: float) -> float:
        vals = [f.value(s) for f in self.factors]
        d1 = [f.deriv1(s) for f in self.factors]
        d2 = [f.deriv2(s) for f in self.factors]
        nf = len(self.factors)
        out = 0.0
        for i in range(nf):
            term = d2[i]
            for j in range(nf):
                if j != i:
                    term *= vals[j]
            out += term
        for i in range(nf):
            for j in range(i + 1, nf):
                term = 2.0 * d1[i] * d1[j]
                for l in range(nf):
                    if l != i and l != j:
                        term *= vals[l]
                out += term
        return out

    def variation_scale(self) -> float:
        return min(f.variation_scale() for f in self.factors)


# math.exp and float ** int applied elementwise: numpy's own exp and power
# can differ from them in the last ulp, and the array evaluator must
# reproduce value() exactly.
_scalar_exp = np.frompyfunc(math.exp, 1, 1)
_scalar_pow = np.frompyfunc(pow, 2, 1)


def fast_value(sched: Schedule):
    """Vectorized evaluator for the propagation hot path.

    Returns a closure mapping a numpy array of s to an array of the same
    shape holding sched.value elementwise, bit for bit (same operation order,
    the same libm exp), without domain validation; callers must keep s
    inside [0, 1].
    """
    if isinstance(sched, Parabola):
        return lambda s: s * (1.0 - s)
    if isinstance(sched, Constant):
        c = sched.c
        return lambda s: np.full(np.shape(s), c)
    if isinstance(sched, PowerRamp):
        if sched.k == 0.0:
            return lambda s: np.ones(np.shape(s))
        k, n, scale = sched.k, sched.n, sched.scale
        if sched.reflected:
            if n == 1:
                return lambda s: (scale * (1.0 - s)) / ((1.0 - s) + k)
            return lambda s: np.asarray(_scalar_pow((scale * (1.0 - s)) / ((1.0 - s) + k), n), dtype=float)
        if n == 1:
            return lambda s: (scale * s) / (s + k)
        return lambda s: np.asarray(_scalar_pow((scale * s) / (s + k), n), dtype=float)
    if isinstance(sched, ExponentialPulse):
        k = sched.k

        def exp_value(s: np.ndarray) -> np.ndarray:
            u = s * (1.0 - s)
            positive = u > 0.0
            with np.errstate(over="ignore"):  # subnormal u: k/u is inf, value 0
                ratio = k / np.where(positive, u, 1.0)
            live = positive & (ratio <= 745.0)
            damp = np.asarray(_scalar_exp(-np.where(live, ratio, 0.0)), dtype=float)
            return np.where(live, u * damp, 0.0)

        return exp_value
    if isinstance(sched, Product):
        fns = tuple(fast_value(f) for f in sched.factors)

        def product_value(s: np.ndarray) -> np.ndarray:
            out = fns[0](s)
            for f in fns[1:]:
                out = out * f(s)
            return out

        return product_value
    return np.vectorize(sched.value, otypes=[float])


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
