"""Schrodinger propagation i dpsi/ds = t_total * H(s) * psi over s in [0, 1].

``evolve`` and ``evolve_many`` use the fourth-order commutator-free Magnus
integrator CF4 (Blanes & Moan, Appl. Numer. Math. 56, 2006).  A cell
[s, s+h] applies, from left to right,

    exp(-i*t*h*(w0*H(s+c0*h) + w1*H(s+c1*h)))
    exp(-i*t*h*(w1*H(s+c0*h) + w0*H(s+c1*h)))

with Gauss nodes c0,1 = 1/2 -+ sqrt(3)/6 and weights w0,1 = 1/4 +- sqrt(3)/6.
Every factor is the exponential of a real symmetric matrix B times -i*t*h,
so a cell is unitary by construction and exact when H is frozen.  The
eigensystem of B does not depend on t: one batched ``np.linalg.eigh`` per
chunk of cells serves every member of a batch of total times, and each
member only adds its own phases exp(-i*t*h*lambda) and (n, d) @ (d, d)
basis changes.

The ODE is linear, so a cell's local error does not depend on the state.
It is estimated as 16/15 times the Frobenius norm of (one-cell propagator
minus two half-cell propagators) at the batch's largest total time, and the
mesh is equidistributed until every cell's estimate is within
``atol + rtol``.  ``max_steps`` caps the number of cells.  The mesh is built
and consumed left to right in bounded chunks, so memory does not grow with t.

The propagation runs on H(s) - c*I with c the mean diagonal energy; the
global phase exp(-i*c*t_total*(s_end-s_start)) is restored on the final
state.

Two reference integrators are kept as independent cross-checks:
``evolve_dop54`` (adaptive embedded Dormand-Prince 5(4) with a PI step
controller, whose truncation drift grows like 0.1 * t * rtol) and
``evolve_fixed_step`` (classic RK4 at a fixed step).  DOP5(4) assembles H
at one scalar s at a time, apart from the vectorized assembly that CF4 and
RK4 share, so a fault in that assembly still shows in the cross-check.

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
# Local error of one cell from the one-cell/two-half-cell difference of a
# fourth-order method: err(h) = (U_h - U_{h/2}^2) * 2^4 / (2^4 - 1).
_RICHARDSON = 16.0 / 15.0

# Cells per equidistribution group and per propagation chunk; both bound the
# working arrays independently of t.
_GROUP_CELLS = 128
_CHUNK_CELLS = 32
# Fixed RK4 steps whose transfer matrices are formed and multiplied as one
# batch; bounds the working arrays independently of the step count.
_RK4_CHUNK_STEPS = 1024
# Trial cells per unit of t * (s_end - s_start).
_TRIAL_RATE = 0.5
# Equidistributed cells aim at tol / _MESH_SAFETY**5.
_MESH_SAFETY = 1.15
_MAX_DEPTH = 40
# Below this an estimate that a split does not halve is rounding noise.
_ROUNDING_NOISE = 1e-13


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

    For ``evolve``/``evolve_many``, ``atol + rtol`` bounds each cell's local
    error and ``max_steps`` caps the number of cells; for ``evolve_dop54``
    they keep their per-step Dormand-Prince meaning.
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

    def result(self, i: int) -> EvolutionResult:
        return EvolutionResult(
            self.final_states[i],
            float(self.norm_drifts[i]),
            self.steps_taken,
            self.rejected_steps,
        )


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


def fast_value(sched: Schedule):
    """The evaluator the CF4 propagator calls on arrays of s (a tracing hook)."""
    return sched.value


def _hamiltonian_stack(path: HamiltonianPath, shift: float):
    """Vectorized s -> H(s) - shift*I: an array of s gives real (..., d, d) stacks."""
    dim = path.dim
    diag = np.array(path.diagonal, dtype=float) - shift
    idx = np.arange(dim)
    entries = tuple((c.i, c.j, c.amplitude, fast_value(c.schedule)) for c in path.couplings)

    def stack(s: np.ndarray) -> np.ndarray:
        out = np.zeros(s.shape + (dim, dim))
        out[..., idx, idx] = diag
        for i, j, amp, value in entries:
            v = amp * value(s)
            out[..., i, j] = v
            out[..., j, i] = v
        return out

    return stack


class _Mesh:
    """CF4 cells over a window whose local error at ``t_max`` is within ``tol``.

    ``window`` and ``cells`` yield accepted cells left to right as blocks
    ``(h, lam, vec)``: widths (m,), and the eigenvalues (m, 2, d) and
    eigenvectors (m, 2, d, d) of each cell's two exponent matrices.
    ``estimated`` counts every cell whose error was estimated.
    """

    def __init__(self, stack, t_max: float, tol: float):
        self.stack = stack
        self.t_max = t_max
        self.tol = tol
        self.estimated = 0

    def _estimate(self, edges: np.ndarray):
        """Local error per cell, plus the full cell's eigensystems."""
        a = edges[:-1]
        h = np.diff(edges)
        # (m, 3, 2) node grid: the full cell, then its two halves.
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
        e = (vec * phase[..., None, :]) @ vec.swapaxes(-1, -2)
        full = e[:, 0, 1] @ e[:, 0, 0]
        half = e[:, 2, 1] @ e[:, 2, 0] @ e[:, 1, 1] @ e[:, 1, 0]
        err = _RICHARDSON * np.sqrt(np.sum(np.abs(full - half) ** 2, axis=(-2, -1)))
        self.estimated += h.shape[0]
        if not np.all(np.isfinite(err)):
            bad = int(np.argmin(np.isfinite(err)))
            raise EvolutionFailure(
                f"non-finite local error estimate in cell "
                f"[{float(a[bad])!r}, {float(edges[bad + 1])!r}]",
                {"s_bad": float(a[bad])},
            )
        return err, h, lam[:, 0], vec[:, 0]

    def _need(self, err: np.ndarray) -> np.ndarray:
        """Cells each estimated cell should become for an error of tol/_MESH_SAFETY**5.

        Floored above zero so that cumulative counts strictly increase.
        """
        return np.maximum(_MESH_SAFETY * (err / self.tol) ** 0.2, 1e-6)

    def window(self, lo: float, hi: float):
        """Accepted cells covering [lo, hi], refined from a uniform trial mesh.

        Trial cells span about 1/(_TRIAL_RATE * t_max), short enough for the
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
        """Accepted cells covering [edges[0], edges[-1]], refined from the trial mesh ``edges``.

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
        n = h.shape[0]
        if 8 * np.count_nonzero(~ok) <= n:
            # A few stray cells: keep the passing runs, split the failing cells.
            start = 0
            for j in np.flatnonzero(~ok).tolist() + [n]:
                if j > start:
                    yield h[start:j], lam[start:j], vec[start:j]
                if j < n:
                    split = min(max(2, math.ceil(need[j])), _GROUP_CELLS)
                    sub = np.linspace(edges[j], edges[j + 1], split + 1)
                    yield from self.cells(sub, depth + 1, float(err[j]))
                start = j + 1
            return
        # Equidistribute again, in groups of cells whose predicted count fits
        # one group; a single cell that needs more starts a uniform trial mesh.
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


def _rechunk(blocks, size: int):
    """Regroup a stream of (h, lam, vec) cell blocks into chunks of ``size`` cells."""
    pending = []
    count = 0
    for block in blocks:
        pending.append(block)
        count += block[0].shape[0]
        while count >= size:
            merged = [np.concatenate(parts) for parts in zip(*pending)]
            yield tuple(x[:size] for x in merged)
            count -= size
            pending = [tuple(x[size:] for x in merged)] if count else []
    if count:
        yield tuple(np.concatenate(parts) for parts in zip(*pending))


def _advance(y: np.ndarray, h, lam, vec, t_values: np.ndarray) -> np.ndarray:
    """Apply a chunk of CF4 cells to the row states y (n, d)."""
    m2 = 2 * h.shape[0]
    dim = y.shape[1]
    lam = lam.reshape(m2, dim)
    vec = vec.reshape(m2, dim, dim)
    # phases[e, member, level] of exponential e, in the eigenbasis of its B
    arg = (np.repeat(h, 2)[:, None] * lam)[:, None, :] * t_values[:, None]
    phases = np.exp(-1j * arg)
    # Real basis changes V_e^T V_{e+1}, laid out to act on the float view of
    # a complex row, whose (re, im) pairs share each coefficient.
    bridges = np.zeros((m2 - 1, dim, 2, dim, 2))
    w = vec[:-1].swapaxes(1, 2) @ vec[1:]
    bridges[:, :, 0, :, 0] = w
    bridges[:, :, 1, :, 1] = w
    bridges = bridges.reshape(m2 - 1, 2 * dim, 2 * dim)
    c = y @ vec[0]
    out = np.empty_like(c)
    c_f, out_f = c.view(float), out.view(float)
    for phase, bridge in zip(phases, bridges):
        c *= phase
        np.dot(c_f, bridge, out=out_f)
        c, out = out, c
        c_f, out_f = out_f, c_f
    c *= phases[-1]
    return c @ vec[-1].T


def _propagate(
    path: HamiltonianPath,
    t_values: np.ndarray,
    psi0: np.ndarray,
    cfg: EvolutionConfig,
) -> BatchEvolutionResult:
    n = t_values.shape[0]
    span = cfg.s_end - cfg.s_start
    t_max = float(np.max(t_values))

    if t_max == 0.0:
        states = np.tile(psi0, (n, 1))
        return BatchEvolutionResult(states, np.abs(np.ones(n) * np.linalg.norm(psi0) - 1.0), 0, 0)

    shift = path.diagonal_mean()
    mesh = _Mesh(_hamiltonian_stack(path, shift), t_max, cfg.atol + cfg.rtol)
    y = np.tile(psi0, (n, 1))
    s = cfg.s_start
    steps = 0
    try:
        for h, lam, vec in _rechunk(mesh.window(cfg.s_start, cfg.s_end), _CHUNK_CELLS):
            take = min(h.shape[0], cfg.max_steps - steps)
            if take:
                y = _advance(y, h[:take], lam[:take], vec[:take], t_values)
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
    drifts = np.abs(np.linalg.norm(y, axis=1) - 1.0)
    rejected = mesh.estimated - steps
    worst = float(np.max(drifts))
    if worst > NORM_DRIFT_LIMIT:
        raise EvolutionFailure(
            f"norm drift {worst:.3e} exceeds {NORM_DRIFT_LIMIT:.1e}; integration untrusted",
            {"norm_drift": worst, "steps_taken": steps, "rejected_steps": rejected},
        )
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
    return batch.result(0)


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


def _propagate_dop54(
    path: HamiltonianPath,
    t_values: np.ndarray,
    psi0: np.ndarray,
    cfg: EvolutionConfig,
) -> BatchEvolutionResult:
    """Batched DOP5(4) on one shared adaptive grid (the controller satisfies
    the tolerance for every member)."""
    n = t_values.shape[0]
    dim = path.dim
    span = cfg.s_end - cfg.s_start
    t_max = float(np.max(t_values))

    if t_max == 0.0:
        states = np.tile(psi0, (n, 1))
        return BatchEvolutionResult(states, np.abs(np.ones(n) * np.linalg.norm(psi0) - 1.0), 0, 0)

    shift = path.diagonal_mean()
    coeff = (-1j * t_values)[:, None]

    # The Hamiltonian buffer is rebuilt in place on every evaluation; the
    # matmul consumes it immediately, so reuse is safe.
    h_buf = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        h_buf[i, i] = path.diagonal[i] - shift
    entries = tuple((c.i, c.j, c.amplitude, c.schedule.value) for c in path.couplings)

    kk = np.empty((7, n, dim), dtype=complex)
    kk_flat = kk.reshape(7, n * dim)

    def rhs_into(s: float, y_stage: np.ndarray, out: np.ndarray) -> None:
        for i, j, amp, value in entries:
            v = amp * value(s)
            h_buf[i, j] = v
            h_buf[j, i] = v
        np.dot(y_stage, h_buf, out=out)
        out *= coeff

    y = np.tile(psi0, (n, 1))
    s = cfg.s_start
    h = _initial_step(t_max, _endpoint_spread(path, cfg.s_start, cfg.s_end), span)

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
        y_flat = y.reshape(-1)

        for i in range(1, 6):
            stage = np.dot(_A[i], kk_flat[:i])
            stage *= h
            stage += y_flat
            rhs_into(s + _C[i] * h, stage.reshape(n, dim), kk[i])

        y5_flat = np.dot(_A[6], kk_flat[:6])
        y5_flat *= h
        y5_flat += y_flat
        y5 = y5_flat.reshape(n, dim)
        rhs_into(s + h, y5, kk[6])

        err_flat = np.dot(_ERR, kk_flat)
        err_flat *= h
        scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y_flat), np.abs(y5_flat))
        ratio = np.abs(err_flat)
        ratio /= scale
        ratio *= ratio
        err = math.sqrt(ratio.reshape(n, dim).sum(axis=1).max() / dim)
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

    y = y * np.exp(-1j * shift * t_values * span)[:, None]
    drifts = np.abs(np.linalg.norm(y, axis=1) - 1.0)
    worst = float(np.max(drifts))
    if worst > NORM_DRIFT_LIMIT:
        raise EvolutionFailure(
            f"norm drift {worst:.3e} exceeds {NORM_DRIFT_LIMIT:.1e}; integration untrusted",
            {"norm_drift": worst, "steps_taken": steps, "rejected_steps": rejected},
        )
    return BatchEvolutionResult(y, drifts, steps, rejected)


def evolve_dop54(path: HamiltonianPath, cfg: EvolutionConfig, psi0: np.ndarray) -> EvolutionResult:
    """Adaptive Dormand-Prince 5(4) with PI step control; a reference oracle.

    ``rtol``/``atol`` bound each step's embedded error estimate and
    ``max_steps`` caps step attempts.
    """
    psi = _check_normalized(psi0, path.dim)
    if cfg.t_total == 0.0:
        return EvolutionResult(psi.copy(), 0.0, 0, 0)
    return _propagate_dop54(path, np.array([cfg.t_total]), psi, cfg).result(0)


def _rk4_increment(stack, t: float, s: np.ndarray, h: float) -> np.ndarray:
    """D with I + D the product of the RK4 steps of width h from each s, later steps on the left.

    For y' = A(s) y one step is y -> (I + D_n) y.  Steps are merged pairwise
    as (I + B)(I + A) = I + (A + B + B @ A): carrying only the increment keeps
    the rounding of the identity out of the product.
    """
    a = (-1j * t) * stack(np.stack((s, s + 0.5 * h, s + h), axis=1))
    a0, am, a1 = a[:, 0], a[:, 1], a[:, 2]
    k2 = am + (0.5 * h) * (am @ a0)
    k3 = am + (0.5 * h) * (am @ k2)
    k4 = a1 + h * (a1 @ k3)
    d = (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    while d.shape[0] > 1:
        even = d.shape[0] & ~1
        earlier, later = d[0:even:2], d[1:even:2]
        d = np.concatenate((earlier + later + later @ earlier, d[even:]))
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
    stack = _hamiltonian_stack(path, 0.0)
    y = psi.copy()
    for first in range(0, n_steps, _RK4_CHUNK_STEPS):
        n = np.arange(first, min(first + _RK4_CHUNK_STEPS, n_steps))
        y = y + _rk4_increment(stack, cfg.t_total, cfg.s_start + n * h, h) @ y
    drift = abs(float(np.linalg.norm(y)) - 1.0)
    if not drift <= NORM_DRIFT_LIMIT:  # also a NaN state
        raise EvolutionFailure(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.1e}; integration untrusted",
            {"norm_drift": drift, "steps_taken": n_steps},
        )
    return EvolutionResult(y, drift, n_steps, 0)
