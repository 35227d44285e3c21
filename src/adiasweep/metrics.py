"""Error metrics: true error, windowed typical error, switching estimates.

The true error of a run is the norm of the final state's component outside
the target ground state.  Because it oscillates rapidly with the total time
t, scaling studies use the "typical error": an average of the true error
over the window [t - sqrt(t*tau0), t + sqrt(t*tau0)], sampled on a midpoint
grid.  Two reductions of the window samples are supported:

* ``mean`` -- the plain arithmetic window average;
* ``rms``  -- the quadratic window average sqrt(mean(eps^2)).

The rms reduction is the pipeline default: when several endpoint amplitudes
interfere, the rms average of the oscillating error converges exactly to the
quadrature-combined switching coefficient b_n, making eps_bar ~ b_n / t^n an
identity in the asymptotic regime, and it makes the peak-to-average bound
eps <= sqrt(2) * eps_bar sharp (both are the Cauchy-Schwarz relation between
the peak and the rms of a two-phasor superposition).  The plain mean of the
same signal sits ~10% lower (4/pi vs sqrt(2) for equal amplitudes) and is
kept for window-integral diagnostics.

``switching_estimates`` evaluates the asymptotic coefficients

    b_n = sqrt( sum_{j>0} |<j|d^nH/ds^n|g>|^2 / gap_j^(2n+2)  at s=s_start
              + the same at s=s_end )

for a list of orders n from one walk over the two ends of the evolution
window, ``_endpoint_terms``: one eigensystem and one gap check per end
serve every order.  Each b_n gives the estimator curve b_n / t^n;
``switching_estimate`` is the one-order case.  The window defaults to
[0, 1]; a sweep passes the window it evolves over.
``reference_from_order1`` provides the commonly used shortcut that treats
an order-n endpoint ramp on scale k as a bare (n!/k^n) rescaling of the
first derivative, from the base path's order-1 level terms;
``reference_scaling_estimate`` walks a base path for it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .evolution import EvolutionConfig, evolve_many, ground_state
from .hamiltonians import HamiltonianPath
from .linalg import hermitian_eigensystem

REDUCTIONS = ("rms", "mean")

_GAP_FLOOR = 1e-10


class DegenerateGapError(ValueError):
    """An endpoint gap vanishes; the switching estimate is singular."""


def true_error(psi_final: np.ndarray, g_final: np.ndarray) -> float | np.ndarray:
    """Norm of the component of psi_final orthogonal to g_final, in [0, 1].

    ``psi_final`` is one state (d,), scored as a float, or a stack (n, d),
    scored as an array of n errors.  Both states are divided by their actual
    norms, so the residual norm drift of a propagated state (order 1e-10)
    cannot masquerade as error: an uncompensated drift d would otherwise put
    a floor of sqrt(2d), around 1e-5, under every measurement.  Inputs still
    must be normalized to 1e-6, each state of a stack on its own.  The
    orthogonal component is formed directly rather than as
    sqrt(1 - |<g|psi>|^2), which cancels and loses all precision below
    eps ~ 1e-8.
    """
    psi = np.asarray(psi_final)
    psi_norm = np.linalg.norm(psi, axis=-1)
    g_norm = np.linalg.norm(g_final)
    for name, n in (("psi_final", psi_norm), ("g_final", g_norm)):
        if np.any(np.abs(n - 1.0) > 1e-6):
            raise ValueError(f"{name} is not normalized")
    ov = psi @ np.conj(g_final)  # <g|psi> of each state
    residual = psi / psi_norm[..., None] - g_final * (ov / (g_norm**2 * psi_norm))[..., None]
    errors = np.linalg.norm(residual, axis=-1)
    return float(errors) if errors.ndim == 0 else errors


@dataclass(frozen=True)
class TypicalErrorConfig:
    """Window shape and sampling of the typical-error average."""

    tau0: float = 1.0
    samples: int = 64
    reduction: str = "rms"

    def __post_init__(self):
        if not (math.isfinite(self.tau0) and self.tau0 > 0.0):
            raise ValueError(f"tau0 must be finite and > 0, got {self.tau0}")
        if self.samples < 16:
            raise ValueError(f"need at least 16 window samples, got {self.samples}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"reduction must be one of {REDUCTIONS}")


def window_samples(t: float, cfg: TypicalErrorConfig) -> np.ndarray:
    """Midpoint sample grid over [t - sqrt(t*tau0), t + sqrt(t*tau0)]."""
    half_width = math.sqrt(t * cfg.tau0)
    if t <= half_width:
        raise ValueError(f"window extends below zero: t={t}, tau0={cfg.tau0}")
    lo = t - half_width
    step = 2.0 * half_width / cfg.samples
    return lo + step * (np.arange(cfg.samples) + 0.5)


def reduce_window(errors: np.ndarray, reduction: str) -> float:
    errs = np.asarray(errors, dtype=float)
    if reduction == "mean":
        return float(np.mean(errs))
    if reduction == "rms":
        return float(np.sqrt(np.mean(errs**2)))
    raise ValueError(f"reduction must be one of {REDUCTIONS}")


@dataclass(frozen=True)
class MeasuredError:
    """Single-shot and window-averaged true error of one path at one t."""

    t: float
    error: float
    typical: float
    norm_drift_max: float


def measure_errors(
    path: HamiltonianPath,
    t: float,
    windows: Sequence[TypicalErrorConfig],
    ev_cfg: EvolutionConfig,
) -> list[MeasuredError]:
    """Evolve t plus the samples of every window in ``windows`` in one batch and score it.

    One mesh, built for the batch's largest t, serves every window, and each
    window's evenly spaced samples get a coarse x fine phase table of their
    own (see ``evolution``).  Returns one MeasuredError per window, in order,
    each with the error at t and the batch's largest norm drift.
    """
    psi0 = ground_state(path, ev_cfg.s_start)
    g_end = ground_state(path, ev_cfg.s_end)
    samples = [window_samples(t, w) for w in windows]
    batch = evolve_many(path, ev_cfg, np.concatenate(([t], *samples)), psi0)
    errs = true_error(batch.final_states, g_end)
    drift = float(np.max(batch.norm_drifts))
    per_window = np.split(errs[1:], np.cumsum([w.samples for w in windows[:-1]]))
    return [
        MeasuredError(t, float(errs[0]), reduce_window(e, w.reduction), drift)
        for w, e in zip(windows, per_window)
    ]


@dataclass(frozen=True)
class LevelTerm:
    """One excited level's contribution to an endpoint coefficient."""

    endpoint: int
    level: int
    gap: float
    element: complex
    term: complex  # element / gap**(n+1) for the order n of its estimate


@dataclass(frozen=True)
class SwitchingEstimate:
    """Asymptotic error coefficient of order n and its endpoint split."""

    order: int
    start_coefficient: float
    end_coefficient: float
    coefficient: float
    level_terms: tuple[LevelTerm, ...] = field(repr=False)


def _endpoint_terms(
    path: HamiltonianPath, orders: tuple[int, ...], window: tuple[float, float]
) -> dict[int, tuple[tuple[LevelTerm, ...], tuple[LevelTerm, ...]]]:
    """Level terms <j|d^n H/ds^n|g> / gap_j**(n+1) at both ends of ``window``.

    One eigensystem and one gap check per end serve every n in ``orders``.
    Returns, for each n, one tuple per end, excited levels in ascending
    order; a term's ``endpoint`` is 0 at the window's start and 1 at its end.
    A vanishing gap at either end makes every estimate singular and raises
    DegenerateGapError.
    """
    per_order: dict[int, list[tuple[LevelTerm, ...]]] = {n: [] for n in orders}
    for endpoint, s in enumerate(window):
        eig = hermitian_eigensystem(path.evaluate(float(s)))
        scale = max(1.0, float(np.max(np.abs(eig.eigenvalues))))
        gaps = eig.gaps()
        if np.any(gaps < _GAP_FLOOR * scale):
            raise DegenerateGapError(f"vanishing gap at s={s!r}: gaps {gaps.tolist()}")
        g = eig.ground
        for n, ends in per_order.items():
            h_n = path.endpoint_deriv(s, n)
            terms = []
            for j in range(1, path.dim):
                element = complex(np.vdot(eig.vector(j), h_n @ g))
                term = element / gaps[j - 1] ** (n + 1)
                terms.append(LevelTerm(endpoint, j, float(gaps[j - 1]), element, term))
            ends.append(tuple(terms))
    return {n: (start, end) for n, (start, end) in per_order.items()}


def _norm(terms: Iterable[complex]) -> float:
    # A plain loop, not sum(): from Python 3.12 sum() compensates float
    # rounding, which would move the coefficients in the last digit.
    total = 0.0
    for term in terms:
        total += abs(term) ** 2
    return math.sqrt(total)


def switching_estimates(
    path: HamiltonianPath, orders: tuple[int, ...], window: tuple[float, float] = (0.0, 1.0)
) -> tuple[SwitchingEstimate, ...]:
    """The order-n asymptotic coefficient for each n in ``orders``, in that order.

    All orders come from one walk over the ends of ``window``.  Requires a
    non-degenerate ground level at both ends; a vanishing gap makes the
    estimates singular and raises DegenerateGapError.
    """
    for order in orders:
        if order < 1:
            raise ValueError(f"estimate order must be >= 1, got {order}")
    per_order = _endpoint_terms(path, orders, window)
    out = []
    for order in orders:
        start, end = per_order[order]
        b0 = _norm(lt.term for lt in start)
        b1 = _norm(lt.term for lt in end)
        out.append(SwitchingEstimate(order, b0, b1, math.hypot(b0, b1), start + end))
    return tuple(out)


def switching_estimate(
    path: HamiltonianPath, order: int, window: tuple[float, float] = (0.0, 1.0)
) -> SwitchingEstimate:
    """The order-n asymptotic coefficient at the ends of ``window``."""
    return switching_estimates(path, (order,), window)[0]


@dataclass(frozen=True)
class ReferenceScalingEstimate:
    """Shortcut coefficient for an order-n endpoint ramp on scale k.

    ``bracket`` is the base path's first-derivative bracket evaluated with
    the gap powers of the order-(n+1) estimate.  The shortcut treats the
    ramp as a bare n!/k^n rescaling of the first derivative, which gives
    ``substituted_coefficient``; ``sqrt_prefactor_coefficient`` is the
    sqrt(n!/k^n)-scaled variant often quoted for onset-timescale arguments.
    Both are labeled approximate wherever they are emitted.
    """

    ramp_order: int
    error_order: int
    k: float
    bracket: float
    sqrt_prefactor_coefficient: float
    substituted_coefficient: float


def reference_from_order1(
    base_order1: SwitchingEstimate, k: float, n: int
) -> ReferenceScalingEstimate:
    """The shortcut coefficient from the base path's order-1 estimate.

    ``base_order1`` is the unsmoothed path's order-1 estimate; its level
    terms, taken with the gap powers of the order-(n+1) estimate, give the
    bracket.  n = 0 means no smoothing and reduces to the exact first-order
    estimate.
    """
    if n < 0:
        raise ValueError(f"ramp order must be >= 0, got {n}")
    if n > 0 and k <= 0.0:
        raise ValueError("a positive k is required for ramp order n >= 1")
    error_order = n + 1
    bracket = _norm(lt.element / lt.gap ** (error_order + 1) for lt in base_order1.level_terms)
    boost = math.factorial(n) / k**n if n > 0 else 1.0
    return ReferenceScalingEstimate(
        ramp_order=n,
        error_order=error_order,
        k=k,
        bracket=bracket,
        sqrt_prefactor_coefficient=math.sqrt(boost) * bracket,
        substituted_coefficient=boost * bracket,
    )


def reference_scaling_estimate(
    path_base: HamiltonianPath, k: float, n: int, window: tuple[float, float] = (0.0, 1.0)
) -> ReferenceScalingEstimate:
    """Approximate order-(n+1) coefficient for ramp-smoothed versions of a path.

    ``path_base`` is the unsmoothed path (nonzero first endpoint derivative),
    evaluated at the ends of ``window``; see ``reference_from_order1``.
    """
    return reference_from_order1(switching_estimate(path_base, 1, window), k, n)


def loglog_slope(ts: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(values) against log(ts)."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape[0] < 2:
        raise ValueError("need at least two points for a slope")
    if np.any(values <= 0.0) or np.any(ts <= 0.0):
        raise ValueError("log-log slope needs positive data")
    return float(np.polyfit(np.log(ts), np.log(values), 1)[0])


def decade_slope(ts: np.ndarray, values: np.ndarray, t_lo: float, t_hi: float) -> float:
    """Least-squares log-log slope over grid points with t_lo <= t <= t_hi."""
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = (ts >= t_lo * (1.0 - 1e-9)) & (ts <= t_hi * (1.0 + 1e-9))
    if int(np.sum(mask)) < 3:
        raise ValueError(f"fewer than 3 grid points in [{t_lo}, {t_hi}]")
    return loglog_slope(ts[mask], values[mask])


SQRT2_BOUND_SLACK = 0.02


def sqrt2_bound_check(eps: float, eps_bar: float) -> bool:
    """True iff eps <= sqrt(2) * eps_bar * (1 + SQRT2_BOUND_SLACK)."""
    return eps <= math.sqrt(2.0) * eps_bar * (1.0 + SQRT2_BOUND_SLACK)


def crossover_time(
    ts: np.ndarray, ratios: np.ndarray, band: tuple[float, float] = (0.8, 1.25)
) -> float | None:
    """First t from which the ratio enters [band] and stays inside.

    Returns None when the tail never settles into the band.
    """
    ts = np.asarray(ts, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    lo, hi = band
    inside = (ratios >= lo) & (ratios <= hi)
    for i in range(ts.shape[0]):
        if np.all(inside[i:]):
            return float(ts[i])
    return None
