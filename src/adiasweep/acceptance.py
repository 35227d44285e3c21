"""Runnable acceptance suite: one pass/fail check per shipped guarantee.

Each criterion is a function of an AcceptanceContext that runs the real
pipeline (no shortcuts through private state) and returns a CriterionResult.
Sweep-shaped criteria (4-7) go through the normal cached sweep runner, so a
second invocation with the same cache directory skips their sweeps.  Within
one run each sweep config runs at most once, with or without the cache:
criterion 7 reads the records of criterion 4's k=1e-3 sweep.
Criteria 2, 3 and 8 measure single points with ``measure_errors`` and are
never cached: a warm run still pays for them, mostly criterion 3's long
point at t=3e4.

Integration tolerances follow one rule.  Every eps_bar a criterion reads is
held to RECORD_ACCURACY (1e-5) relative, far inside the margins of 1% or more
that the criteria decide on.  The propagator reads only ``atol + rtol``, and
``record_tolerances`` sets that sum to RECORD_ACCURACY * floor / 6, where the
floor is the smallest eps_bar the criterion reads, stated beside it.  The 6 is
EPS_BAR_ERROR_PER_TOL, the worst absolute eps_bar error per unit of
``atol + rtol`` measured: 0.9 to 6 against 30x tighter runs at t=3e3 and 3e4,
and at most 4.3 against 100x tighter runs on every builtin model at the
criteria's k for t from 50 to 5.6e3.  The law breaks for short, sharp ramps:
at k=1e-3 below t of about 50 (up to 16 per unit at t=10), where no criterion
reads.  Criterion 4's k=1e-2 sweep keeps a tighter hand-set
tolerance (see CROSSOVER_SWEEPS), and criterion 8(b) cross-checks the
integrators at their defaults.  The propagator is unitary by construction, so
the norm drift that criterion 8 audits against its 1e-9 budget stays at the
rounding level (1e-15 to 6e-13).  Criterion 8 also cross-checks the propagator
and the Dormand-Prince 5(4) oracle against fixed-step RK4.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .evolution import EvolutionConfig, evolve, evolve_dop54, evolve_fixed_step, ground_state
from .hamiltonians import ModelSpec, build
from .linalg import hermitian_eigensystem, jacobi_eigensystem
from .metrics import (
    TypicalErrorConfig,
    crossover_time,
    decade_slope,
    measure_errors,
    sqrt2_bound_check,
    switching_estimate,
    true_error,
)
from .sweep import SweepConfig, SweepRecord, load_or_run

SQRT2 = math.sqrt(2.0)

# Settling band for the order-2 estimate over the measured typical error.
CROSSOVER_BAND = (0.8, 1.25)

# Relative accuracy of every eps_bar a criterion reads.
RECORD_ACCURACY = 1e-5
# Worst absolute eps_bar error per unit of atol + rtol (see the module docstring).
EPS_BAR_ERROR_PER_TOL = 6.0


def record_tolerances(eps_bar_floor: float) -> dict[str, float]:
    """``rtol`` and ``atol`` that hold every eps_bar >= eps_bar_floor to RECORD_ACCURACY.

    The propagator reads only their sum; atol takes 1% of it.
    """
    tol = RECORD_ACCURACY * eps_bar_floor / EPS_BAR_ERROR_PER_TOL
    return {"rtol": 0.99 * tol, "atol": 0.01 * tol}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float = 0.0  # set by run_all


class AcceptanceContext:
    """Shared cache, the records of each sweep run so far, and a registry of
    every run's norm drift."""

    def __init__(self, cache_dir: str, use_cache: bool = True):
        self.cache_dir = cache_dir
        self.use_cache = use_cache
        self.drift_log: list[tuple[str, float]] = []
        self._swept: dict[SweepConfig, list[SweepRecord]] = {}

    def sweep(self, label: str, cfg: SweepConfig) -> list[SweepRecord]:
        """Records of ``cfg``, loaded or run once per context; each call logs
        their drift under its own label."""
        if cfg not in self._swept:
            self._swept[cfg] = load_or_run(cfg, self.cache_dir, self.use_cache)
        records = self._swept[cfg]
        for r in records:
            if r.ok:
                self.drift_log.append((f"{label} t={r.t:g}", r.norm_drift))
        return records

    def measure(self, label: str, spec: ModelSpec, t: float, te: TypicalErrorConfig, eps_bar_floor: float):
        """One point at the tolerances of ``record_tolerances(eps_bar_floor)``."""
        path = build(spec)
        lo, hi = spec.evolution_window()
        ev = EvolutionConfig(t_total=t, s_start=lo, s_end=hi, **record_tolerances(eps_bar_floor))
        m = measure_errors(path, t, te, ev)
        self.drift_log.append((f"{label} t={t:g}", m.norm_drift_max))
        return m


def criterion_1(ctx: AcceptanceContext) -> CriterionResult:
    """Analytic estimator values for the three reference models."""
    b1_two = switching_estimate(build(ModelSpec("two-level", k=0.0)), 1).coefficient
    b1_case1 = switching_estimate(build(ModelSpec("three-level-case1", k=0.0)), 1).coefficient
    b1_case2 = switching_estimate(build(ModelSpec("three-level-case2", k=1e-3)), 1).coefficient
    dev_two = abs(b1_two - SQRT2)
    dev_case1 = abs(b1_case1 - math.sqrt(34.0) / 4.0)
    passed = dev_two <= 1e-12 and dev_case1 <= 1e-12 and b1_case2 == 0.0
    details = (
        f"two-level b1={b1_two:.15f} (dev {dev_two:.2e}), "
        f"case1 b1={b1_case1:.15f} (dev {dev_case1:.2e}), "
        f"case2 b1={b1_case2!r} (must be exactly 0)"
    )
    return CriterionResult(1, "analytic estimator values", passed, details)


def criterion_2(ctx: AcceptanceContext) -> CriterionResult:
    """Unsmoothed two-level: measured eps_bar * t inside 5% of sqrt(2)."""
    spec = ModelSpec("two-level", k=0.0)
    te = TypicalErrorConfig(tau0=1.0, samples=64, reduction="rms")
    values = []
    ok = True
    # Floor: the smallest eps_bar this criterion passes, at t=1000.
    floor = SQRT2 * 0.95 / 1000.0
    for t in (200.0, 500.0, 1000.0):
        m = ctx.measure("c2", spec, t, te, floor)
        scaled = m.typical * t
        values.append(f"t={t:g}: {scaled:.4f}")
        ok = ok and SQRT2 * 0.95 <= scaled <= SQRT2 * 1.05
    details = f"eps_bar*t in [{SQRT2*0.95:.4f}, {SQRT2*1.05:.4f}]: " + ", ".join(values)
    return CriterionResult(2, "leading-order scaling (k=0)", ok, details)


def criterion_3(ctx: AcceptanceContext) -> CriterionResult:
    """Crossover shape at k=1e-3: order-1 wins at t=50, order-2 at t=3e4."""
    spec = ModelSpec("two-level", k=1e-3)
    path = build(spec)
    b1 = switching_estimate(build(spec.base()), 1).coefficient
    b2 = switching_estimate(path, 2).coefficient
    te = TypicalErrorConfig(tau0=1.0, samples=64, reduction="rms")

    # Floors: eps_bar is 2.67e-2 at t=50 and 3.18e-6 at t=3e4.
    m_small = ctx.measure("c3", spec, 50.0, te, 2.6e-2)
    dev1_small = abs((b1 / 50.0) / m_small.typical - 1.0)
    dev2_small = abs((b2 / 50.0**2) / m_small.typical - 1.0)

    t_large = 3e4
    m_large = ctx.measure("c3", spec, t_large, te, 3.1e-6)
    dev1_large = abs((b1 / t_large) / m_large.typical - 1.0)
    dev2_large = abs((b2 / t_large**2) / m_large.typical - 1.0)

    ok = dev1_small < dev2_small and dev2_large < 0.25 and dev1_large > 0.5
    details = (
        f"t=50: |r1-1|={dev1_small:.3f} < |r2-1|={dev2_small:.3f}; "
        f"t=3e4: |r2-1|={dev2_large:.3f} (<0.25), |r1-1|={dev1_large:.2f} (>0.5)"
    )
    return CriterionResult(3, "crossover reproduction (k=1e-3)", ok, details)


def _crossover_sweep_config(k: float, t_min: float, t_max: float, rtol: float, atol: float) -> SweepConfig:
    return SweepConfig(
        model=ModelSpec("two-level", k=k),
        t_min=t_min,
        t_max=t_max,
        points_per_decade=4,
        typical=TypicalErrorConfig(tau0=1.0, samples=48, reduction="rms"),
        rtol=rtol,
        atol=atol,
    )


# The two crossover grids cover the same span of k*t so the measured
# crossing times are directly comparable.  The k=1e-2 grid keeps its hand-set
# tolerance, 40x tighter than its floor (eps_bar 3.64e-5 at t=2.8e3) needs:
# the benchmark's sweep-2level workload is this config cut to t <= 500, gated
# against stored records.  The k=1e-3 floor is eps_bar 3.59e-6 at t=2.8e4.
CROSSOVER_SWEEPS = {
    1e-2: _crossover_sweep_config(1e-2, 50.0, 3.1e3, rtol=1.5e-12, atol=1e-14),
    1e-3: _crossover_sweep_config(1e-3, 500.0, 3.1e4, **record_tolerances(3.5e-6)),
}


def criterion_4(ctx: AcceptanceContext) -> CriterionResult:
    """Crossover time scales like 1/k between k=1e-2 and k=1e-3."""
    crossings = {}
    for k, cfg in CROSSOVER_SWEEPS.items():
        records = ctx.sweep(f"c4 k={k:g}", cfg)
        ts = np.array([r.t for r in records if r.ok])
        ratios = np.array([r.ratio2 for r in records if r.ok])
        crossings[k] = crossover_time(ts, ratios, CROSSOVER_BAND)
    ok = crossings[1e-2] is not None and crossings[1e-3] is not None
    ratio = crossings[1e-3] / crossings[1e-2] if ok else float("nan")
    ok = ok and 5.0 <= ratio <= 20.0
    details = (
        f"t_cross(k=1e-2)={crossings[1e-2]}, t_cross(k=1e-3)={crossings[1e-3]}, "
        f"ratio={ratio:.2f} (need 5..20)"
    )
    return CriterionResult(4, "crossover scaling with k", ok, details)


CASE_COMPARE_GRID = dict(t_min=300.0, t_max=6.5e3, points_per_decade=3)


def _case_sweep_config(model: str) -> SweepConfig:
    # Floor: eps_bar is 5.97e-5 (case2) and 6.04e-5 (case1) at t=6.5e3.
    return SweepConfig(
        model=ModelSpec(model, k=1e-3),
        typical=TypicalErrorConfig(tau0=1.0, samples=48, reduction="rms"),
        **record_tolerances(5.9e-5),
        **CASE_COMPARE_GRID,
    )


def criterion_5(ctx: AcceptanceContext) -> CriterionResult:
    """Three-level case 1 vs case 2 agree at the three largest sampled t."""
    rec1 = [r for r in ctx.sweep("c5 case1", _case_sweep_config("three-level-case1")) if r.ok]
    rec2 = [r for r in ctx.sweep("c5 case2", _case_sweep_config("three-level-case2")) if r.ok]
    pairs = list(zip(rec1, rec2))[-3:]
    ok = len(pairs) == 3
    parts = []
    for r1, r2 in pairs:
        rel = abs(r1.eps_bar_t / r2.eps_bar_t - 1.0)
        parts.append(f"t={r1.t:.0f}: {rel:.3f}")
        ok = ok and rel <= 0.25
    details = "relative gap (need <=0.25): " + ", ".join(parts)
    return CriterionResult(5, "three-level case1 vs case2", ok, details)


# Floor: eps_bar is 2.45e-7 at t=5.6e3.
EXPONENTIAL_SWEEP = SweepConfig(
    model=ModelSpec("two-level-exp", k=1e-2),
    t_min=10.0,
    t_max=5.7e3,
    points_per_decade=4,
    typical=TypicalErrorConfig(tau0=1.0, samples=48, reduction="rms"),
    **record_tolerances(2.4e-7),
)


def criterion_6(ctx: AcceptanceContext) -> CriterionResult:
    """Exponential pulse: decay steepens beyond any fixed power of 1/t."""
    records = [r for r in ctx.sweep("c6", EXPONENTIAL_SWEEP) if r.ok]
    ts = np.array([r.t for r in records])
    ebar = np.array([r.eps_bar_t for r in records])
    t_max = ts[-1]
    slopes = [
        decade_slope(ts, ebar, t_max / 10.0 ** (d + 1), t_max / 10.0**d) for d in (2, 1, 0)
    ]
    monotone = slopes[0] > slopes[1] > slopes[2]
    steep = slopes[2] < -3.0
    # eps_bar_1 is the unsmoothed order-1 curve at the sweep's window ends.
    small = [(r.t, r.eps_bar_t / r.eps_bar_1) for r in records if r.t <= 50.0]
    tracking = all(abs(x - 1.0) <= 0.30 for _, x in small)
    ok = monotone and steep and tracking and len(small) >= 2
    details = (
        f"decade slopes {slopes[0]:.2f} > {slopes[1]:.2f} > {slopes[2]:.2f}, "
        f"last < -3: {steep}; small-t tracking "
        + ", ".join(f"t={t:.0f}: {x:.3f}" for t, x in small)
    )
    return CriterionResult(6, "exponential pulse decay", ok, details)


def criterion_7(ctx: AcceptanceContext) -> CriterionResult:
    """Peak-to-average bound eps <= sqrt(2)*eps_bar past the crossover."""
    records = [r for r in ctx.sweep("c7", CROSSOVER_SWEEPS[1e-3]) if r.ok]
    ts = np.array([r.t for r in records])
    ratios = np.array([r.ratio2 for r in records])
    t_cross = crossover_time(ts, ratios, CROSSOVER_BAND)
    if t_cross is None:
        return CriterionResult(7, "sqrt(2) bound", False, "no crossover found")
    checked = [r for r in records if r.t >= t_cross]
    failures = [r.t for r in checked if not sqrt2_bound_check(r.eps, r.eps_bar_t)]
    ok = not failures and len(checked) >= 3
    details = (
        f"t_cross={t_cross:g}, {len(checked)} points checked"
        + (f", violations at t={failures}" if failures else ", no violations")
    )
    return CriterionResult(7, "sqrt(2) bound past crossover", ok, details)


def criterion_8(ctx: AcceptanceContext) -> CriterionResult:
    """Numerics hygiene: drift, integrator cross-check, eigensolver, tau0."""
    problems = []

    # (b) propagator and DOP5(4) oracle vs the fixed-step RK4 reference at t=50
    spec = ModelSpec("two-level", k=0.0)
    path = build(spec)
    psi0 = ground_state(path, 0.0)
    g_end = ground_state(path, 1.0)
    cfg = EvolutionConfig(t_total=50.0)
    eps_fixed = true_error(evolve_fixed_step(path, cfg, psi0, step=1e-5).final_state, g_end)
    devs = {}
    for label, integrator in (("propagator", evolve), ("dop54", evolve_dop54)):
        result = integrator(path, cfg, psi0)
        devs[label] = abs(true_error(result.final_state, g_end) - eps_fixed)
        if devs[label] >= 1e-8:
            problems.append(f"{label} vs fixed-step disagreement {devs[label]:.2e}")
        ctx.drift_log.append((f"c8 {label} t=50", result.norm_drift))

    # (c) the LAPACK eigensystem and the Jacobi oracle vs the 2x2 closed form
    h2 = np.array([[0.0, 0.25], [0.25, 1.0]], dtype=complex)
    lam_closed = np.array([0.5 - math.sqrt(1.25) / 2.0, 0.5 + math.sqrt(1.25) / 2.0])
    lam_jacobi = np.sort(jacobi_eigensystem(h2)[0])
    lam_public = hermitian_eigensystem(h2).eigenvalues
    eig_dev = max(
        float(np.max(np.abs(lam_jacobi - lam_closed))),
        float(np.max(np.abs(lam_public - lam_closed))),
    )
    if eig_dev >= 1e-12:
        problems.append(f"eigensolver deviation {eig_dev:.2e}")

    # (d) window-width independence at t=1e3; floor: eps_bar is 1.06e-3 at tau0=0.5
    spec_k = ModelSpec("two-level", k=1e-3)
    vals = {}
    for tau0 in (0.5, 2.0):
        te = TypicalErrorConfig(tau0=tau0, samples=64, reduction="rms")
        vals[tau0] = ctx.measure("c8", spec_k, 1000.0, te, 1.05e-3).typical
    tau_dev = abs(vals[0.5] / vals[2.0] - 1.0)
    if tau_dev >= 0.02:
        problems.append(f"tau0 sensitivity {tau_dev:.3f}")

    # (a) unitarity across everything this suite ran, (b)-(d) included
    worst_label, worst = max(ctx.drift_log, key=lambda kv: kv[1], default=("none", 0.0))
    if worst >= 1e-9:
        problems.append(f"norm drift {worst:.2e} at {worst_label}")

    ok = not problems
    details = (
        f"max drift {worst:.2e} ({len(ctx.drift_log)} runs), fixed-step dev "
        f"{devs['propagator']:.2e} (dop54 {devs['dop54']:.2e}), "
        f"eigensolver dev {eig_dev:.2e}, tau0 dev {tau_dev:.4f}"
        + ("; PROBLEMS: " + "; ".join(problems) if problems else "")
    )
    return CriterionResult(8, "numerics hygiene", ok, details)


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def run_all(
    cache_dir: str,
    use_cache: bool = True,
    numbers: tuple[int, ...] | None = None,
    printer=print,
) -> list[CriterionResult]:
    """Run the selected criteria in order, each once, printing one line per result.

    Criterion 8 audits the drift of everything that ran before it, so a full
    run must keep the natural order (run_all does).
    """
    ctx = AcceptanceContext(cache_dir, use_cache)
    picked = sorted(set(numbers)) if numbers else sorted(CRITERIA)
    results = []
    for n in picked:
        start = time.perf_counter()
        result = CRITERIA[n](ctx)
        result = replace(result, elapsed=time.perf_counter() - start)
        results.append(result)
        status = "PASS" if result.passed else "FAIL"
        printer(f"{status}  {result.number}. {result.name} [{result.elapsed:.1f}s] -- {result.details}")
    return results
