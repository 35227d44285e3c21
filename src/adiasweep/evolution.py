"""Schrodinger propagation i dpsi/ds = t_total * H(s) * psi over s in [0, 1].

``evolve`` and ``evolve_many`` use the fourth-order commutator-free Magnus
integrator CF4 (Blanes & Moan, Appl. Numer. Math. 56, 2006).  A cell
[s, s+h] applies, from left to right,

    exp(-i*t*h*(w0*H(s+c0*h) + w1*H(s+c1*h)))
    exp(-i*t*h*(w1*H(s+c0*h) + w0*H(s+c1*h)))

with Gauss nodes c0,1 = 1/2 -+ sqrt(3)/6 and weights w0,1 = 1/4 +- sqrt(3)/6.
Every factor is the exponential of a real symmetric matrix B times -i*t*h,
so a cell is unitary by construction and exact when H is frozen.  The
eigensystem of B does not depend on t: the batched ``np.linalg.eigh`` that
estimates a block of cells serves every member of a batch of total times.  A
member only adds its own phases exp(-i*t*h*(lambda - lambda_0)), relative to
each exponential's lowest level, and the real d x d basis changes between
consecutive eigenbases act on all members' (d, n) coefficients at once; the
common phase exp(-i*t*sum(h*lambda_0)) is restored once per block.  When the
members after the first are evenly spaced in t, as a ``measure_errors``
window is, their phases come from a coarse x fine table: about 2*sqrt(n)
complex exponentials per exponential and level instead of n.

The ODE is linear, so a cell's local error does not depend on the state.
It is estimated by step doubling at the batch's largest total time: the mesh
is built from pairs of cells, the two halves of each pair are propagated,
and the single CF4 step over the whole pair serves only as the reference.
For a fifth-order local error, the two halves together err by 1/15 of the
Frobenius norm of (pair propagator minus the product of the two half
propagators).  How that sum splits between the halves is not known from
the pair alone, so the contract is per pair: the pairs are equidistributed
until each pair's summed local error is within ``2 * (atol + rtol)``, i.e.
its two cells' mean is within ``atol + rtol``.  One batched ``eigh`` of six
exponents thus checks two propagated cells.  ``max_steps`` caps the number of
cells.  The mesh is built left to right and each block of accepted cells is
propagated as it comes; a block holds at most ``2 * _GROUP_CELLS`` cells, so
memory does not grow with t.

The propagation runs on H(s) - c*I with c the mean diagonal energy; the
global phase exp(-i*c*t_total*(s_end-s_start)) is restored on the final
state.

Two reference integrators are kept as independent cross-checks, each on a
single state: ``evolve_dop54`` (adaptive embedded Dormand-Prince 5(4) with a
PI step controller, whose truncation drift grows like 0.1 * t * rtol) and
``evolve_fixed_step`` (classic RK4 at a fixed step).  DOP5(4) assembles H
at one scalar s at a time, apart from ``HamiltonianPath.evaluate`` that CF4
and RK4 share, so a fault in that assembly still shows in the cross-check.
All three integrators trust a final state only if its norm has drifted by
at most ``NORM_DRIFT_LIMIT``.

RK4 on the linear y' = A(s) y with A = -i*t*H is a product of per-step
transfer matrices y -> (I + D_n) y, where with A_0, A_m, A_1 at s_n,
s_n + h/2 and s_n + h

    K1 = A_0,  K2 = A_m + (h/2) A_m K1,  K3 = A_m + (h/2) A_m K2,
    K4 = A_1 + h A_1 K3,  D_n = (h/6) (K1 + 2 K2 + 2 K3 + K4).

The D_n of a chunk of steps are formed in one batch, reduced by a pairwise
tree in increment form, (I + B)(I + A) = I + (A + B + B A), and applied to
the state once per chunk; no Python loop runs per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import HamiltonianPath
from .linalg import hermitian_eigensystem
from .schedules import Schedule

NORM_DRIFT_LIMIT = 1e-6

# CF4 Gauss nodes and exponent weights.
_SQRT3_6 = math.sqrt(3.0) / 6.0
_NODES = np.array((0.5 - _SQRT3_6, 0.5 + _SQRT3_6))
_W0 = 0.25 + _SQRT3_6
_W1 = 0.25 - _SQRT3_6
# Step doubling for a fifth-order local error C*h**5: a pair of width H
# gives U_H - U_{H/2}^2 = (1 - 2/32) C H**5, so the two halves together err
# by that difference over 15, and their mean, one half's share, over 30.
# Where C varies across the pair the halves' errors differ; only their sum
# is estimated.
_HALF_SHARE = 1.0 / 30.0

# Pairs per equidistribution group.  Every block of cells the mesh yields,
# and so every block ``_advance`` propagates, holds at most twice as many
# cells, which bounds the working arrays independently of t.
_GROUP_CELLS = 128
# Fewest evenly spaced members after the head of a batch for which
# ``_Phases`` builds their phases from a coarse x fine table.
_MIN_GRID = 16
# Fixed RK4 steps whose transfer matrices are formed and multiplied as one
# batch; bounds the working arrays independently of the step count.
_RK4_CHUNK_STEPS = 1024
# Trial pairs per unit of t * (s_end - s_start).
_TRIAL_RATE = 0.5
# Equidistributed pairs aim at tol / _MESH_SAFETY**5.
_MESH_SAFETY = 1.15
_MAX_DEPTH = 40
# An estimate from a difference U_H - U_{H/2}^2 below 1e-13, some hundreds of
# ulps of the unit-norm propagators, is rounding noise if a split does not
# halve it.
_ROUNDING_NOISE = _HALF_SHARE * 1e-13


class EvolutionFailure(RuntimeError):
    """Integration could not be completed or cannot be trusted."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

    def __str__(self) -> str:
        shown = [
            f"{key}={value:.6g}" if isinstance(value, float) else f"{key}={value}"
            for key, value in self.diagnostics.items()
            if key in ("s_reached", "steps_taken")
        ]
        message = super().__str__()
        return f"{message} ({', '.join(shown)})" if shown else message


@dataclass(frozen=True)
class EvolutionConfig:
    """Total time, tolerances and the scaled-time window of one propagation.

    For ``evolve``/``evolve_many``, ``atol + rtol`` bounds the mean local
    error of the two cells of each step-doubling pair (their sum is within
    ``2 * (atol + rtol)``; one cell may take more than its half) and
    ``max_steps`` caps the number of cells; for ``evolve_dop54`` they keep
    their per-step Dormand-Prince meaning.  The CF4 estimate resolves
    tolerances down to about 1e-16 (two levels) to 3e-16 (three levels);
    below its rounding floor, near 5e-17 and 1.5e-16, the propagation raises
    ``EvolutionFailure`` as soon as refinement stops lowering the estimate.
    """

    t_total: float
    rtol: float = 1e-10
    atol: float = 1e-12
    s_start: float = 0.0
    s_end: float = 1.0
    max_steps: int = 5_000_000

    def __post_init__(self):
        for name in ("t_total", "rtol", "atol", "s_start", "s_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t_total < 0.0:
            raise ValueError(f"t_total must be >= 0, got {self.t_total}")
        if not 0.0 <= self.s_start < self.s_end <= 1.0:
            raise ValueError(f"invalid window [{self.s_start}, {self.s_end}]")
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ValueError("rtol and atol must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class EvolutionResult:
    final_state: np.ndarray
    norm_drift: float
    steps_taken: int
    rejected_steps: int


@dataclass(frozen=True)
class BatchEvolutionResult:
    """One shared-mesh propagation of several total times over one path."""

    final_states: np.ndarray  # (n, dim)
    norm_drifts: np.ndarray  # (n,)
    steps_taken: int
    rejected_steps: int


def ground_state(path: HamiltonianPath, s: float) -> np.ndarray:
    """Instantaneous ground state of H(s), phase-fixed."""
    return hermitian_eigensystem(path.evaluate(s)).ground


def _check_normalized(psi0: np.ndarray, dim: int) -> np.ndarray:
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (dim,):
        raise ValueError(f"state shape {psi.shape} does not match dimension {dim}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state is not normalized")
    return psi


def _trusted(y: np.ndarray, diagnostics: dict) -> np.ndarray:
    """Norm drift of each row of y; raises EvolutionFailure unless all are within the limit.

    A non-finite state fails too.  ``diagnostics`` are attached to the failure.
    """
    drifts = np.abs(np.linalg.norm(y, axis=-1) - 1.0)
    worst = float(np.max(drifts))
    if not worst <= NORM_DRIFT_LIMIT:
        raise EvolutionFailure(
            f"norm drift {worst:.3e} exceeds {NORM_DRIFT_LIMIT:.1e}; integration untrusted",
            {"norm_drift": worst, **diagnostics},
        )
    return drifts


def fast_value(sched: Schedule):
    """``sched.value``; uncalled here, kept for the benchmark tracer that patches it."""
    return sched.value


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked tiny products a @ b, summed term by term over the inner index.

    Stacked complex ``@`` makes one BLAS call per matrix, several times the
    cost of these few broadcast products for 2x2 and 3x3 factors.
    """
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


class _Mesh:
    """CF4 cells over a window whose mean local error per pair at ``t_max`` is within ``tol``.

    The edges it refines mark off pairs of cells; a pair is accepted when its
    two cells' summed local error, estimated by step doubling, is within
    ``2 * tol``.  ``window`` and ``cells``
    yield accepted cells, the halves of the accepted pairs, left to right as
    blocks ``(h, lam, vec)``: widths (m,), and the eigenvalues (m, 2, d) and
    eigenvectors (m, 2, d, d) of each cell's two exponent matrices.
    ``estimated`` counts every half cell whose error was estimated.
    ``stack`` maps an array of s to the stack of H(s) - c*I, as ``path.evaluate``.
    """

    def __init__(self, stack, t_max: float, tol: float):
        self.stack = stack
        self.t_max = t_max
        self.tol = tol
        self.estimated = 0

    def _estimate(self, edges: np.ndarray):
        """Mean local error of each pair's two half cells, plus the halves' eigensystems.

        ``edges`` mark off pairs; each pair's halves are the accepted cells,
        left half first, and the full pair is only the Richardson reference.
        """
        a = edges[:-1]
        h = np.diff(edges)
        # (m, 3, 2) node grid: the full pair, then its two halves.
        starts = np.stack((a, a, a + 0.5 * h), axis=1)
        widths = np.stack((h, 0.5 * h, 0.5 * h), axis=1)
        hs = self.stack(starts[..., None] + widths[..., None] * _NODES)
        b = np.stack(
            (_W0 * hs[..., 0, :, :] + _W1 * hs[..., 1, :, :],
             _W1 * hs[..., 0, :, :] + _W0 * hs[..., 1, :, :]),
            axis=2,
        )
        lam, vec = np.linalg.eigh(b)
        phase = np.exp((-1j * self.t_max) * widths[..., None, None] * lam)
        e = _mul(vec * phase[..., None, :], vec.swapaxes(-1, -2))
        # cell propagators of the full pair, its left half and its right half
        cell = _mul(e[:, :, 1], e[:, :, 0])
        half = _mul(cell[:, 2], cell[:, 1])
        err = _HALF_SHARE * np.sqrt(np.sum(np.abs(cell[:, 0] - half) ** 2, axis=(-2, -1)))
        m, dim = h.shape[0], lam.shape[-1]
        self.estimated += 2 * m
        if not np.all(np.isfinite(err)):
            bad = int(np.argmin(np.isfinite(err)))
            raise EvolutionFailure(
                f"non-finite local error estimate in cell "
                f"[{float(a[bad])!r}, {float(edges[bad + 1])!r}]",
                {"s_bad": float(a[bad])},
            )
        return (
            err,
            np.repeat(0.5 * h, 2),
            lam[:, 1:].reshape(2 * m, 2, dim),
            vec[:, 1:].reshape(2 * m, 2, dim, dim),
        )

    def _need(self, err: np.ndarray) -> np.ndarray:
        """Pairs each estimated pair should become for an error of tol/_MESH_SAFETY**5.

        Floored above zero so that cumulative counts strictly increase.
        """
        return np.maximum(_MESH_SAFETY * (err / self.tol) ** 0.2, 1e-6)

    def window(self, lo: float, hi: float):
        """Accepted cells covering [lo, hi], refined from a uniform trial mesh of pairs.

        Trial pairs span about 1/(_TRIAL_RATE * t_max), short enough for the
        estimate to follow its h**5 law; they are made and refined one group
        at a time, so no array grows with t_max.
        """
        n = math.ceil(_TRIAL_RATE * self.t_max * (hi - lo))
        for first in range(0, n, _GROUP_CELLS):
            stop = min(first + _GROUP_CELLS, n)
            edges = lo + (hi - lo) / n * np.arange(first, stop + 1)
            if stop == n:
                edges[-1] = hi
            yield from self.cells(edges)

    def cells(self, edges: np.ndarray, depth: int = 0, parent: float = math.inf):
        """Accepted cells covering [edges[0], edges[-1]], refined from the trial pairs ``edges``.

        ``parent`` is the worst estimate of the coarser mesh this one refines.
        """
        if depth > _MAX_DEPTH:
            raise EvolutionFailure(
                f"local error tolerance {self.tol:.3e} not met after {_MAX_DEPTH} refinements",
                {"s_bad": float(edges[0])},
            )
        err, h, lam, vec = self._estimate(edges)
        ok = err <= self.tol
        if ok.all():
            yield h, lam, vec
            return
        worst = float(np.max(err))
        if parent < _ROUNDING_NOISE and worst > 0.5 * parent:
            raise EvolutionFailure(
                f"local error estimate {worst:.3e} stopped falling under refinement; "
                f"tolerance {self.tol:.3e} is below its rounding floor",
                {"s_bad": float(edges[0])},
            )
        need = self._need(err)
        n = err.shape[0]
        if 8 * np.count_nonzero(~ok) <= n:
            # A few stray pairs: keep the passing runs, split the failing pairs.
            start = 0
            for j in np.flatnonzero(~ok).tolist() + [n]:
                if j > start:
                    yield h[2 * start : 2 * j], lam[2 * start : 2 * j], vec[2 * start : 2 * j]
                if j < n:
                    split = min(max(2, math.ceil(need[j])), _GROUP_CELLS)
                    sub = np.linspace(edges[j], edges[j + 1], split + 1)
                    yield from self.cells(sub, depth + 1, float(err[j]))
                start = j + 1
            return
        # Equidistribute again, in groups of pairs whose predicted count fits
        # one group; a single pair that needs more starts a uniform trial mesh.
        first = 0
        total = 0.0
        for i in range(n + 1):
            if i == n or (total + need[i] > _GROUP_CELLS and i > first):
                count = math.ceil(total)
                if count > _GROUP_CELLS:
                    sub = np.linspace(edges[first], edges[i], _GROUP_CELLS + 1)
                else:
                    cum = np.concatenate(([0.0], np.cumsum(need[first:i])))
                    sub = np.interp(np.linspace(0.0, cum[-1], count + 1), cum, edges[first : i + 1])
                    sub[0], sub[-1] = edges[first], edges[i]
                yield from self.cells(sub, depth + 1, float(np.max(err[first:i])))
                first = i
                total = 0.0
            if i < n:
                total += need[i]


class _Phases:
    """Builds exp(-i * rates * t) for every member t of ``t_values``, one block of rates at a time.

    If ``t_values[1:]`` holds at least ``_MIN_GRID`` members, each within a
    few ulps of ``max(t_values)`` of the line through the first and last (a
    window of ``window_samples`` does), member ``q*fine + j`` of that grid
    is the product of exponentials at ``t_1 + q*fine*step`` and ``j*step``:
    with coarse * fine >= n, about 2*sqrt(n) complex exponentials per rate
    instead of n.  The head member ``t_values[0]`` keeps its own exponential.
    Any other batch gets one exponential per member, as ``np.exp`` gives it.
    """

    def __init__(self, t_values: np.ndarray):
        self.t_values = t_values
        self.table = None
        grid = t_values[1:]
        n = grid.shape[0]
        if n < _MIN_GRID:
            return
        step = (grid[-1] - grid[0]) / (n - 1)
        off_line = np.max(np.abs(grid - (grid[0] + step * np.arange(n))))
        if off_line <= 4.0 * np.spacing(np.max(t_values)):
            fine = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
            coarse = -(-n // fine)
            self.table = (grid[0] + (fine * step) * np.arange(coarse), step * np.arange(fine))

    def __call__(self, rates: np.ndarray) -> np.ndarray:
        """Phases of shape rates.shape + (members,)."""
        t = self.t_values
        if self.table is None:
            return np.exp(-1j * (rates[..., None] * t))
        coarse, fine = self.table
        out = np.empty(rates.shape + (1 + coarse.shape[0] * fine.shape[0],), dtype=complex)
        out[..., 0] = np.exp(-1j * (rates * t[0]))
        np.multiply(
            np.exp(-1j * (rates[..., None] * coarse))[..., None],
            np.exp(-1j * (rates[..., None] * fine))[..., None, :],
            out=out[..., 1:].reshape(rates.shape + (coarse.shape[0], fine.shape[0])),
        )
        return out[..., : t.shape[0]]


def _advance(y: np.ndarray, h, lam, vec, members: _Phases) -> np.ndarray:
    """Apply a block of CF4 cells to the row states y (n, d) of the total times ``members.t_values``.

    ``members`` builds every exponential's phases for all members at once.
    """
    m2 = 2 * h.shape[0]
    dim = y.shape[1]
    lam = lam.reshape(m2, dim)
    vec = vec.reshape(m2, dim, dim)
    widths = np.repeat(h, 2)
    # phases[e, level - 1, member] of exponential e in the eigenbasis of its B,
    # relative to its lowest level; the common phase is restored at the end.
    phases = members(widths[:, None] * (lam[:, 1:] - lam[:, :1]))
    # Real basis changes V_{e+1}^T V_e act on the float view of the
    # (levels, members) coefficients, whose (re, im) pairs share each entry.
    changes = vec[1:].swapaxes(1, 2) @ vec[:-1]
    c = vec[0].T @ y.T
    out = np.empty_like(c)
    c_f, out_f, c_up, out_up = c.view(float), out.view(float), c[1:], out[1:]
    for phase, change in zip(phases, changes):
        c_up *= phase
        change.dot(c_f, out=out_f)
        c_f, out_f, c_up, out_up = out_f, c_f, out_up, c_up
    c_up *= phases[-1]
    common = np.exp(-1j * np.dot(widths, lam[:, 0]) * members.t_values)
    return (vec[-1] @ c_f.view(complex) * common).T


def _propagate(
    path: HamiltonianPath,
    t_values: np.ndarray,
    psi0: np.ndarray,
    cfg: EvolutionConfig,
) -> BatchEvolutionResult:
    span = cfg.s_end - cfg.s_start
    shift = path.diagonal_mean()
    # t_max = 0 gives an empty mesh and returns psi0 for every member
    mesh = _Mesh(lambda s: path.evaluate(s, shift), float(np.max(t_values)), cfg.atol + cfg.rtol)
    y = np.tile(psi0, (t_values.shape[0], 1))
    members = _Phases(t_values)
    s = cfg.s_start
    steps = 0
    try:
        for h, lam, vec in mesh.window(cfg.s_start, cfg.s_end):
            take = min(h.shape[0], cfg.max_steps - steps)
            if take:
                y = _advance(y, h[:take], lam[:take], vec[:take], members)
                steps += take
                s += float(np.sum(h[:take]))
            if take < h.shape[0]:
                raise EvolutionFailure("step limit exceeded before reaching the end of the window")
    except EvolutionFailure as exc:
        exc.diagnostics.update(
            s_reached=s, steps_taken=steps, rejected_steps=mesh.estimated - steps
        )
        raise

    y *= np.exp(-1j * shift * t_values * span)[:, None]
    rejected = mesh.estimated - steps
    drifts = _trusted(y, {"steps_taken": steps, "rejected_steps": rejected})
    return BatchEvolutionResult(y, drifts, steps, rejected)


def evolve(path: HamiltonianPath, cfg: EvolutionConfig, psi0: np.ndarray) -> EvolutionResult:
    """Propagate one state over the configured window.

    Deterministic for fixed inputs; raises EvolutionFailure when the cell
    limit is hit, a local error estimate is not finite, or the final norm
    drift exceeds the trust threshold.
    """
    psi = _check_normalized(psi0, path.dim)
    if cfg.t_total == 0.0:
        return EvolutionResult(psi.copy(), 0.0, 0, 0)
    batch = _propagate(path, np.array([cfg.t_total]), psi, cfg)
    return EvolutionResult(
        batch.final_states[0], float(batch.norm_drifts[0]), batch.steps_taken, batch.rejected_steps
    )


def _check_t_values(t_values) -> np.ndarray:
    ts = np.asarray(t_values, dtype=float)
    if ts.ndim != 1 or ts.shape[0] == 0:
        raise ValueError("t_values must be a non-empty 1-d array")
    if not np.all(np.isfinite(ts)):
        raise ValueError("total times must be finite")
    if np.any(ts < 0.0):
        raise ValueError("total times must be >= 0")
    return ts


def evolve_many(
    path: HamiltonianPath,
    cfg: EvolutionConfig,
    t_values: np.ndarray,
    psi0: np.ndarray,
) -> BatchEvolutionResult:
    """Propagate the same initial state for several total times at once.

    ``cfg.t_total`` is ignored; each entry of ``t_values`` plays that role.
    All members share one mesh, built for the largest total time.
    """
    psi = _check_normalized(psi0, path.dim)
    return _propagate(path, _check_t_values(t_values), psi, cfg)


# ---------------------------------------------------------------------------
# reference integrators

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.17
_PI_BETA = 0.04

# Dormand-Prince 5(4) tableau.  The last coupling row doubles as the
# 5th-order weights (FSAL), so the 7th stage of an accepted step is the
# first stage of the next one.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    np.array(()),
    np.array((1 / 5,)),
    np.array((3 / 40, 9 / 40)),
    np.array((44 / 45, -56 / 15, 32 / 9)),
    np.array((19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    np.array((9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
# 5th-order weights minus the embedded 4th-order ones.
_ERR = np.array(
    (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
)


def _endpoint_spread(path: HamiltonianPath, s_start: float, s_end: float) -> float:
    spread = 0.0
    for s in (s_start, s_end):
        ev = hermitian_eigensystem(path.evaluate(s)).eigenvalues
        spread = max(spread, float(ev[-1] - ev[0]))
    return spread


def _initial_step(t_max: float, spread: float, span: float) -> float:
    rate = t_max * spread
    h = 1e-3 * (1.0 if rate <= 2.0 * math.pi else 2.0 * math.pi / rate)
    return min(h, span)


def evolve_dop54(path: HamiltonianPath, cfg: EvolutionConfig, psi0: np.ndarray) -> EvolutionResult:
    """Adaptive Dormand-Prince 5(4) with PI step control; a reference oracle.

    ``rtol``/``atol`` bound each step's embedded error estimate and
    ``max_steps`` caps step attempts.
    """
    psi = _check_normalized(psi0, path.dim)
    if cfg.t_total == 0.0:
        return EvolutionResult(psi.copy(), 0.0, 0, 0)
    dim = path.dim
    span = cfg.s_end - cfg.s_start
    shift = path.diagonal_mean()
    coeff = -1j * cfg.t_total

    # The Hamiltonian buffer is rebuilt in place on every evaluation; the
    # matmul consumes it immediately, so reuse is safe.
    h_buf = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        h_buf[i, i] = path.diagonal[i] - shift
    entries = tuple((c.i, c.j, c.amplitude, c.schedule.value) for c in path.couplings)

    kk = np.empty((7, dim), dtype=complex)

    def rhs_into(s: float, y_stage: np.ndarray, out: np.ndarray) -> None:
        for i, j, amp, value in entries:
            v = amp * value(s)
            h_buf[i, j] = v
            h_buf[j, i] = v
        np.dot(y_stage, h_buf, out=out)
        out *= coeff

    y = psi
    s = cfg.s_start
    h = _initial_step(cfg.t_total, _endpoint_spread(path, cfg.s_start, cfg.s_end), span)

    rhs_into(s, y, kk[0])
    err_old = 1.0
    steps = 0
    rejected = 0
    attempts = 0

    while s < cfg.s_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise EvolutionFailure(
                "step limit exceeded before reaching the end of the window",
                {"s_reached": s, "steps_taken": steps, "rejected_steps": rejected},
            )
        h = min(h, cfg.s_end - s)
        last = s + h >= cfg.s_end

        for i in range(1, 6):
            stage = np.dot(_A[i], kk[:i])
            stage *= h
            stage += y
            rhs_into(s + _C[i] * h, stage, kk[i])

        y5 = np.dot(_A[6], kk[:6])
        y5 *= h
        y5 += y
        rhs_into(s + h, y5, kk[6])

        err_vec = np.dot(_ERR, kk)
        err_vec *= h
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y5))
        ratio = np.abs(err_vec)
        ratio /= scale
        ratio *= ratio
        err = math.sqrt(ratio.sum() / dim)
        if not math.isfinite(err):
            raise EvolutionFailure(
                f"non-finite error estimate at s={s!r}",
                {"s_reached": s, "steps_taken": steps, "rejected_steps": rejected},
            )

        if err <= 1.0:
            s = cfg.s_end if last else s + h
            y = y5
            np.copyto(kk[0], kk[6])  # FSAL
            steps += 1
            if err == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_old ** (_PI_BETA)
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            h *= factor
            err_old = max(err, 1e-10)
        else:
            rejected += 1
            factor = max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            h *= min(1.0, factor)

    y = y * np.exp(-1j * shift * cfg.t_total * span)
    drift = _trusted(y, {"steps_taken": steps, "rejected_steps": rejected})
    return EvolutionResult(y, float(drift), steps, rejected)


def _rk4_increment(path: HamiltonianPath, t: float, s: np.ndarray, h: float) -> np.ndarray:
    """D with I + D the product of the RK4 steps of width h from each s, later steps on the left.

    For y' = A(s) y one step is y -> (I + D_n) y.  Steps are merged pairwise
    as (I + B)(I + A) = I + (A + B + B @ A): carrying only the increment keeps
    the rounding of the identity out of the product.
    """
    a = (-1j * t) * path.evaluate(np.stack((s, s + 0.5 * h, s + h), axis=1))
    a0, am, a1 = a[:, 0], a[:, 1], a[:, 2]
    k2 = am + (0.5 * h) * _mul(am, a0)
    k3 = am + (0.5 * h) * _mul(am, k2)
    k4 = a1 + h * _mul(a1, k3)
    d = (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    while d.shape[0] > 1:
        even = d.shape[0] & ~1
        earlier, later = d[0:even:2], d[1:even:2]
        d = np.concatenate((earlier + later + _mul(later, earlier), d[even:]))
    return d[0]


def evolve_fixed_step(
    path: HamiltonianPath,
    cfg: EvolutionConfig,
    psi0: np.ndarray,
    step: float = 1e-5,
) -> EvolutionResult:
    """Classic RK4 at a fixed step; the independent reference integrator.

    The step is shrunk to divide the window evenly.  Raises ValueError unless
    ``step`` is finite and positive, and EvolutionFailure when the window
    needs more than ``cfg.max_steps`` steps or the final norm drift exceeds
    the trust threshold.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    psi = _check_normalized(psi0, path.dim)
    if cfg.t_total == 0.0:
        return EvolutionResult(psi.copy(), 0.0, 0, 0)
    span = cfg.s_end - cfg.s_start
    if span / step > cfg.max_steps:
        raise EvolutionFailure(
            f"step {step!r} needs more than max_steps={cfg.max_steps} steps over the window",
            {"s_reached": cfg.s_start, "steps_taken": 0},
        )
    n_steps = max(1, math.ceil(span / step))
    h = span / n_steps
    y = psi.copy()
    for first in range(0, n_steps, _RK4_CHUNK_STEPS):
        n = np.arange(first, min(first + _RK4_CHUNK_STEPS, n_steps))
        y = y + _rk4_increment(path, cfg.t_total, cfg.s_start + n * h, h) @ y
    drift = _trusted(y, {"steps_taken": n_steps})
    return EvolutionResult(y, float(drift), n_steps, 0)
