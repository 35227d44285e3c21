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
each exponential's lowest level; the real d x d basis changes
V_{e+1}^T V_e between consecutive eigenbases are shared by all members.  A
block of m cells is propagated by a blocked scan: its 2m exponentials are cut
into G groups of L = ceil(sqrt(2m)) consecutive ones, and the L steps run
once for all groups together: the first group starts from the block's state,
the others from the identity.  A step is one phase multiply over every
group's members and one real product of the groups' basis changes with the
float view of their coefficients.  The G group propagators are then
multiplied pairwise by ``_mul``, so a block costs about 2*sqrt(2m) numpy
calls plus a few per halving of G, not two per exponential.  ``_mul``, the
one stacked small-matrix product, also serves the mesh estimate and RK4.  It
takes the matrix axes first and the stack last, so that each broadcast
multiply is one numpy loop over the contiguous stack, not over a matrix row.
The common phase exp(-i*t*sum(h*lambda_0)) is restored once per block.  The
members after the first split into runs at every descent in t.  A run
evenly spaced in t, as each window of a ``measure_errors`` batch is, takes
its phases from a coarse x fine table of its own: about 2*sqrt(n) complex
exponentials per exponential, level and window of n samples instead of n.

Every builtin path is mirror-symmetric, H(1-s) = H(s), as
``HamiltonianPath.mirror_symmetric`` derives from its schedules.  On such a
path and a window with s_start + s_end = 1 the mesh is built, and the chain
run, over the first half only, on the d columns of the identity: the chain
yields each member's propagator U over that half.  Mirroring a cell about
s = 1/2 swaps its two Gauss nodes and so the order of its two exponentials,
each of which is complex symmetric; the mirrored cell therefore propagates
by the transpose of the original cell's propagator, and the mirrored mesh of
the second half by U^T.  The final state is U^T U psi0, with no
approximation beyond that of the mirrored mesh.  Any other path or window is
propagated whole, on the single column psi0.  Either way ``steps_taken``,
``rejected_steps`` and the ``max_steps`` cap count the cells of the
propagated part only.

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
exponents thus checks two propagated cells.  The mesh is built left to
right, a group of at most ``_GROUP_CELLS`` pairs at a time, so the estimate's
arrays do not grow with t.  Its accepted cells are gathered in order and
propagated in blocks of the most cells whose phase table, group states and
real d x d matrices fit in ``_ADVANCE_BYTES`` (``_block_cells``, at least one
cell): a block is independent of the mesh's groups, so a narrow batch takes
a few large blocks and a wide one many small ones, and the propagation's
memory grows neither with t nor with the batch, beyond one cell's worth.
The cells count as taken, and against ``max_steps``, when the mesh yields
them, whether or not their block has been propagated yet.

The propagation runs on H(s) - c*I with c the mean diagonal energy; the
global phase exp(-i*c*t_total*(s_end-s_start)) is restored on the final
state.

Two reference integrators are kept as independent cross-checks, each on a
single state: ``evolve_dop54`` (adaptive embedded Dormand-Prince 5(4) with a
PI step controller, whose truncation drift grows like 0.1 * t * rtol) and
``evolve_fixed_step`` (classic RK4 at a fixed step).  DOP5(4) steps on
Python complex scalars, one per level, with no numpy call in its loop, and
applies H entry by entry from each distinct schedule's value at one scalar
s, apart from ``HamiltonianPath.evaluate`` that CF4 and RK4 share, so a
fault in that assembly still shows in the cross-check.
All three integrators trust a final state only if its norm has drifted by
at most ``NORM_DRIFT_LIMIT``.

RK4 on the linear y' = A(s) y with A = -i*t*H is a product of per-step
transfer matrices y -> (I + D_n) y, where with A_0, A_m, A_1 at s_n,
s_n + h/2 and s_n + h

    K1 = A_0,  K2 = A_m + (h/2) A_m K1,  K3 = A_m + (h/2) A_m K2,
    K4 = A_1 + h A_1 K3,  D_n = (h/6) (K1 + 2 K2 + 2 K3 + K4).

The D_n of a chunk of n steps are formed in one batch from the 2n + 1 nodes
s_0 + j*h/2 that its steps share, reduced by a pairwise tree in increment
form, (I + B)(I + A) = I + (A + B + B A), and applied to the state once per
chunk; no Python loop runs per step.  Expanded, D_n is

    (h/6) [A_0 + 4 A_m + A_1 + h (A_m A_0 + A_m^2 + A_1 A_m)
           + (h^2/2) (A_m^2 A_0 + A_1 A_m^2) + (h^3/4) A_1 A_m^2 A_0],

and A is complex symmetric, so the mirror image of a step, which sees its
nodes in reverse order, transfers by (I + D_n)^T exactly.  On a mirror-
symmetric window of N steps RK4 therefore takes, like CF4, only the first
N // 2 steps, on the columns of the identity, for their product U; when N is
odd the middle step M is its own mirror image, and the final state is
U^T M U psi0.  Unlike CF4's, RK4's ``steps_taken`` and ``max_steps`` check
count all N steps of the window.  DOP5(4) always runs the whole window: it
is the independent check that a path's ``mirror_symmetric()`` holds.
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

# Pairs per equidistribution group.  Every block of cells the mesh yields
# holds at most twice as many cells, which bounds the estimate's arrays
# independently of t; 256 pairs make few, large ``eigh`` batches.
_GROUP_CELLS = 256
# Bytes of the arrays one ``_advance`` call sizes by its cells and members:
# the phase table, the group states and the block's real d x d matrices
# (``_advance_bytes``).  The accepted cells are propagated in blocks of the
# most cells that fit (``_block_cells``), so the blocks grow for narrow
# batches and shrink for wide ones.
_ADVANCE_BYTES = 3 << 19  # 1.5 MiB
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
    ``max_steps`` caps the number of propagated cells: on a mirror-symmetric
    path and window (see the module docstring) only the first half's cells
    are propagated, and the second half's, their mirror images, are not
    counted.  For ``evolve_dop54`` they keep their per-step Dormand-Prince
    meaning over the whole window.  The CF4 estimate resolves
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


def _mirrored(path: HamiltonianPath, cfg: EvolutionConfig) -> bool:
    """Whether the window's second half is the mirror image of its first: H(1-s) = H(s)
    on the path and s_start + s_end = 1."""
    return path.mirror_symmetric() and cfg.s_start + cfg.s_end == 1.0


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
    """Stacked tiny products out[i, j, ...] = sum_k a[i, k, ...] b[k, j, ...], in order of k.

    Matrix axes first: each broadcast multiply is one numpy loop over the
    trailing stack, where stacked complex ``@`` makes a BLAS call per matrix.
    """
    out = a[:, :1] * b[:1]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1]
    return out


class _Mesh:
    """CF4 cells over a window whose mean local error per pair at ``t_max`` is within ``tol``.

    The edges it refines mark off pairs of cells; a pair is accepted when its
    two cells' summed local error, estimated by step doubling, is within
    ``2 * tol``.  ``window`` and ``cells`` yield accepted cells, the halves of
    the accepted pairs, left to right as blocks ``(h, lam, vec)``: widths
    (m,), and the eigenvalues (m, 2, d) and eigenvectors (m, 2, d, d) of each
    cell's two exponent matrices.
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
        h0, h1 = hs[..., 0, :, :], hs[..., 1, :, :]
        b = np.stack((_W0 * h0 + _W1 * h1, _W1 * h0 + _W0 * h1), axis=2)
        lam, vec = np.linalg.eigh(b)
        m, dim = h.shape[0], lam.shape[-1]
        v = np.ascontiguousarray(np.moveaxis(vec, (-2, -1), (0, 1)))  # (d, d, m, 3, 2)
        phase = np.exp((-1j * self.t_max) * widths[..., None] * np.moveaxis(lam, -1, 0))
        e = _mul(v * phase, v.swapaxes(0, 1))
        # cell propagators of the full pair, its left half and its right half
        cell = _mul(e[..., 1], e[..., 0])
        half = _mul(cell[..., 2], cell[..., 1])
        sq = (np.abs(cell[..., 0] - half) ** 2).reshape(dim * dim, m).T.copy()
        err = _HALF_SHARE * np.sqrt(np.sum(sq, axis=-1))  # summed in (m, d, d) order
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

    ``t_values[1:]`` splits into runs at every descent in t; a
    ``measure_errors`` batch holds one ascending run per window, each centred
    on the head ``t_values[0]``.  If every run holds at least ``_MIN_GRID``
    members, each within a few ulps of ``max(t_values)`` of the line through
    the run's first and last (a window of ``window_samples`` does), each run
    gets a table of its own: member ``q*fine + j`` of the run is the product
    of exponentials at ``t_first + q*fine*step`` and ``j*step``; with
    coarse * fine >= n, about 2*sqrt(n) complex exponentials per rate instead
    of n.  The head keeps its own exponential.  ``table`` then lists each
    run's (first member, coarse t, fine t).  Any other batch gets one
    exponential per member, as ``np.exp`` gives it, and ``table`` is None.

    The phases of a call, and the scan buffers ``_advance`` takes with
    ``buffer``, live in ``buffers``, arrays that consecutive blocks reuse
    until the caller clears them: arrays taken afresh for each block let the
    allocator hand their pages back to the system between blocks, and a
    513-member batch then page-faulted about 400 times per block, which
    doubled its time.  Each call's phases are valid until the next call.
    """

    def __init__(self, t_values: np.ndarray):
        self.t_values = t_values
        self.table = None
        self.buffers = {}
        grid = t_values[1:]
        cuts = [0, *(np.flatnonzero(np.diff(grid) < 0.0) + 1).tolist(), grid.shape[0]]
        limit = 4.0 * np.spacing(np.max(t_values))
        runs = []
        self.size = t_values.shape[0]  # members plus the last table's padding
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            run, n = grid[lo:hi], hi - lo
            if n < _MIN_GRID:
                return
            step = (run[-1] - run[0]) / (n - 1)
            if np.max(np.abs(run - (run[0] + step * np.arange(n)))) > limit:
                return
            fine = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
            coarse = -(-n // fine)
            runs.append((1 + lo, run[0] + (fine * step) * np.arange(coarse), step * np.arange(fine)))
            self.size = max(self.size, 1 + lo + coarse * fine)
        self.table = runs

    def buffer(self, name: str, shape: tuple) -> np.ndarray:
        """A complex array of ``shape``, its contents undefined, over the reused array ``name``."""
        size = math.prod(shape)
        flat = self.buffers.get(name)
        if flat is None or flat.shape[0] < size:
            flat = self.buffers[name] = np.empty(size, dtype=complex)
        return flat[:size].reshape(shape)

    def __call__(self, rates: np.ndarray) -> np.ndarray:
        """Phases of shape rates.shape + (members,)."""
        t = self.t_values
        if self.table is None:
            out = self.buffer("phases", rates.shape + t.shape)
            np.multiply(rates[..., None], -1j * t, out=out)
            return np.exp(out, out=out)
        out = self.buffer("phases", rates.shape + (self.size,))
        out[..., 0] = np.exp(-1j * (rates * t[0]))
        # Runs in order: a table's padding is overwritten by the next run.
        for first, coarse, fine in self.table:
            cells = (coarse.shape[0], fine.shape[0])
            np.multiply(
                np.exp(-1j * (rates[..., None] * coarse))[..., None],
                np.exp(-1j * (rates[..., None] * fine))[..., None, :],
                out=out[..., first : first + cells[0] * cells[1]].reshape(rates.shape + cells),
            )
        return out[..., : t.shape[0]]


def _advance(y: np.ndarray, h, lam, vec, members: _Phases) -> np.ndarray:
    """Apply a block of CF4 cells to the blocks y (n, d, k) of the total times ``members.t_values``.

    Each member's block holds k <= d column states.  ``members`` builds every
    exponential's phases for all members at once.  The block's 2m
    exponentials are cut into consecutive groups of ``steps`` =
    ceil(sqrt(2m)); the last group is padded with identity basis changes and
    zero rates, whose phases are 1.  All groups take their ``steps`` steps
    together, the first from y and the others from the identity, and the
    group propagators are then multiplied pairwise with ``_mul``, later groups
    on the left: about 2*sqrt(2m) numpy calls in the loop and a few per
    halving of the group count.
    """
    m2 = 2 * h.shape[0]
    n, dim, k = y.shape
    steps = math.isqrt(m2 - 1) + 1  # ceil(sqrt(m2))
    groups = -(-m2 // steps)
    slots = groups * steps
    lam = lam.reshape(m2, dim)
    widths = np.repeat(h, 2)
    # phases[j, level - 1, g, 0, member] of exponential g*steps + j in the eigenbasis
    # of its B, relative to its lowest level; the common phase is restored at the end.
    rates = np.zeros((groups, steps, dim - 1))
    rates.reshape(slots, dim - 1)[:m2] = widths[:, None] * (lam[:, 1:] - lam[:, :1])
    phases = members(rates.transpose(1, 2, 0))[:, :, :, None]
    # changes[j, g] = V_{e+1}^T V_e of exponential e = g*steps + j, real and
    # shared by the members: the last exponential's is V_e itself, the padding's I.
    basis = np.empty((slots + 1, dim, dim))
    basis[:m2] = vec.reshape(m2, dim, dim)
    basis[m2:] = np.eye(dim)
    changes = np.matmul(
        basis[1:].reshape(groups, steps, dim, dim).transpose(1, 0, 3, 2),
        basis[:-1].reshape(groups, steps, dim, dim).transpose(1, 0, 2, 3),
    )
    # Group states x[level, g, column, member]: the first group starts from
    # V_0^T y, zero-padded to d columns, the others from the identity.  The
    # member axis is innermost, so each step's phase multiply runs over
    # contiguous members, and a group's (levels, columns * members) float view
    # takes the basis change as one real product.
    x = members.buffer("x", (dim, groups, dim, n))
    x[:, 1:] = np.eye(dim)[:, None, :, None]
    x[:, 0, :k] = (basis[0].T @ y.transpose(1, 2, 0).reshape(dim, k * n)).reshape(dim, k, n)
    x[:, 0, k:] = 0.0
    out = members.buffer("out", x.shape)
    x_f, out_f = (a.view(float).reshape(dim, groups, -1).transpose(1, 0, 2) for a in (x, out))
    x_up, out_up = x[1:], out[1:]
    for phase, change in zip(phases, changes):
        x_up *= phase
        np.matmul(change, x_f, out=out_f)
        x_f, out_f, x_up, out_up = out_f, x_f, out_up, x_up
    # The last step's buffer viewed as the group propagators (levels, columns,
    # groups, members), multiplied pairwise with later groups on the left.
    u = (out if steps % 2 else x).transpose(0, 2, 1, 3)
    while u.shape[2] > 1:
        even = u.shape[2] & ~1
        u = np.concatenate((_mul(u[:, :, 1:even:2], u[:, :, 0:even:2]), u[:, :, even:]), axis=2)
    # Summed pairwise: a BLAS dot of the thousands of same-signed terms of a
    # large block rounded its phase by up to 2e-13, ten times the product's own.
    common = np.exp(-1j * np.sum(widths * lam[:, 0]) * members.t_values)
    return (u[:, :k, 0] * common).transpose(2, 0, 1)


def _advance_bytes(cells: int, members: _Phases, dim: int) -> int:
    """Bytes of the arrays a block of ``cells`` cells takes, as ``_advance`` sizes them by ``members``.

    Its ``slots`` padded exponentials in G groups hold the phase table
    (slots, levels - 1, members plus padding), complex, and about eight real
    d x d matrices per slot: the eigenvectors as the mesh yields them and as
    ``_propagate`` gathers them, the bases, their changes and the copies
    their product takes (measured with tracemalloc on single-member blocks).
    Its two scan buffers are the group states (levels, G, levels, members),
    complex.
    """
    steps = math.isqrt(2 * cells - 1) + 1
    groups = -(-2 * cells // steps)
    slots = groups * steps
    n = members.t_values.shape[0]
    return 16 * (slots * ((dim - 1) * members.size + 4 * dim * dim) + 2 * dim * groups * dim * n)


def _block_cells(members: _Phases, dim: int) -> int:
    """The most cells, at least one, whose ``_advance_bytes`` fit in ``_ADVANCE_BYTES``."""
    # Every cell holds at least two slots, so no block beyond ``hi`` fits.
    lo, hi = 1, _ADVANCE_BYTES // (32 * ((dim - 1) * members.size + 4 * dim * dim)) + 1
    while hi - lo > 1:  # _advance_bytes(lo) fits, or lo is 1; _advance_bytes(hi) does not
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _advance_bytes(mid, members, dim) <= _ADVANCE_BYTES else (lo, mid)
    return lo


def _propagate(
    path: HamiltonianPath,
    t_values: np.ndarray,
    psi0: np.ndarray,
    cfg: EvolutionConfig,
) -> BatchEvolutionResult:
    span = cfg.s_end - cfg.s_start
    shift = path.diagonal_mean()
    n, dim = t_values.shape[0], path.dim
    mirror = _mirrored(path, cfg)
    if mirror:
        # the chain yields each member's U over the first half
        hi = 0.5
        y = np.tile(np.eye(dim, dtype=complex), (n, 1, 1))
    else:
        hi = cfg.s_end
        y = np.tile(psi0, (n, 1))[..., None]
    # t_max = 0 gives an empty mesh and returns psi0 for every member
    mesh = _Mesh(lambda s: path.evaluate(s, shift), float(np.max(t_values)), cfg.atol + cfg.rtol)
    members = _Phases(t_values)
    block = _block_cells(members, dim)
    s = cfg.s_start
    steps = 0
    # Accepted cells count as taken when the mesh yields them, and are
    # propagated once ``block`` of them are held, in blocks of that size.
    pending, held = [], 0
    try:
        for h, lam, vec in mesh.window(cfg.s_start, hi):
            take = min(h.shape[0], cfg.max_steps - steps)
            if take:
                pending.append((h[:take], lam[:take], vec[:take]))
                held += take
                steps += take
                s += float(np.sum(h[:take]))
            if take < h.shape[0]:
                raise EvolutionFailure("step limit exceeded before reaching the end of the window")
            if held >= block:
                h, lam, vec = (np.concatenate(part) for part in zip(*pending))
                cut = held - held % block
                for first in range(0, cut, block):
                    end = first + block
                    y = _advance(y, h[first:end], lam[first:end], vec[first:end], members)
                pending, held = [(h[cut:], lam[cut:], vec[cut:])], held - cut
                members.buffers.clear()  # the mesh's estimate reuses their memory
    except EvolutionFailure as exc:
        exc.diagnostics.update(
            s_reached=s, steps_taken=steps, rejected_steps=mesh.estimated - steps
        )
        raise
    if held:
        y = _advance(y, *(np.concatenate(part) for part in zip(*pending)), members)

    if mirror:
        # the mirrored second half propagates by U^T
        y = y.swapaxes(1, 2) @ (y @ psi0[:, None])
    y = y[..., 0] * np.exp(-1j * shift * t_values * span)[:, None]
    rejected = mesh.estimated - steps
    drifts = _trusted(y, {"steps_taken": steps, "rejected_steps": rejected})
    return BatchEvolutionResult(y, drifts, steps, rejected)


def evolve(path: HamiltonianPath, cfg: EvolutionConfig, psi0: np.ndarray) -> EvolutionResult:
    """Propagate one state over the configured window: ``evolve_many`` of the one total time.

    Deterministic for fixed inputs; raises EvolutionFailure when the cell
    limit is hit, a local error estimate is not finite, or the final norm
    drift exceeds the trust threshold.
    """
    batch = evolve_many(path, cfg, np.array([cfg.t_total]), psi0)
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
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th-order weights minus the embedded 4th-order ones.
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _initial_step(path: HamiltonianPath, cfg: EvolutionConfig) -> float:
    """1e-3, less where t times the widest level spread at the window's ends exceeds 2*pi."""
    spread = 0.0
    for s in (cfg.s_start, cfg.s_end):
        ev = hermitian_eigensystem(path.evaluate(s)).eigenvalues
        spread = max(spread, float(ev[-1] - ev[0]))
    rate = cfg.t_total * spread
    h = 1e-3 * (1.0 if rate <= 2.0 * math.pi else 2.0 * math.pi / rate)
    return min(h, cfg.s_end - cfg.s_start)


def evolve_dop54(path: HamiltonianPath, cfg: EvolutionConfig, psi0: np.ndarray) -> EvolutionResult:
    """Adaptive Dormand-Prince 5(4) with PI step control; a reference oracle.

    ``rtol``/``atol`` bound each step's embedded error estimate and
    ``max_steps`` caps step attempts.  The steps run on lists of Python
    complex scalars, one per level, with no numpy call inside the loop.
    """
    psi = _check_normalized(psi0, path.dim)
    if cfg.t_total == 0.0:
        return EvolutionResult(psi.copy(), 0.0, 0, 0)
    shift = path.diagonal_mean()
    coeff = -1j * cfg.t_total
    rtol, atol, s_end = cfg.rtol, cfg.atol, cfg.s_end

    # -i*t*(H(s) - shift*I) y entry by entry: each distinct schedule is
    # evaluated once per stage.
    schedules, slots = path.schedule_slots
    values = [sched.value for sched in schedules]
    diagonal = [d - shift for d in path.diagonal]
    entries = [(c.i, c.j, c.amplitude, slot) for c, slot in zip(path.couplings, slots)]

    def rhs(s: float, y: list[complex]) -> list[complex]:
        f = [value(s) for value in values]
        out = [d * z for d, z in zip(diagonal, y)]
        for i, j, a, slot in entries:
            v = a * f[slot]
            out[i] += v * y[j]
            out[j] += v * y[i]
        return [coeff * o for o in out]

    _, c2, c3, c4, c5, _, _ = _C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54) = _A[1:5]
    (a61, a62, a63, a64, a65), (a71, _, a73, a74, a75, a76) = _A[5:]
    e1, _, e3, e4, e5, e6, e7 = _ERR

    y = psi.tolist()
    s = cfg.s_start
    h = _initial_step(path, cfg)

    k1 = rhs(s, y)
    err_old = 1.0
    steps = 0
    rejected = 0
    attempts = 0

    while s < s_end:
        attempts += 1
        if attempts > cfg.max_steps:
            raise EvolutionFailure(
                "step limit exceeded before reaching the end of the window",
                {"s_reached": s, "steps_taken": steps, "rejected_steps": rejected},
            )
        h = min(h, s_end - s)
        last = s + h >= s_end

        k2 = rhs(s + c2 * h, [z + h * (a21 * p) for z, p in zip(y, k1)])
        k3 = rhs(s + c3 * h, [z + h * (a31 * p + a32 * q) for z, p, q in zip(y, k1, k2)])
        ks = zip(y, k1, k2, k3)
        k4 = rhs(s + c4 * h, [z + h * (a41 * p + a42 * q + a43 * r) for z, p, q, r in ks])
        ks = zip(y, k1, k2, k3, k4)
        stage = [z + h * (a51 * p + a52 * q + a53 * r + a54 * u) for z, p, q, r, u in ks]
        k5 = rhs(s + c5 * h, stage)
        stage = [
            z + h * (a61 * p + a62 * q + a63 * r + a64 * u + a65 * v)
            for z, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)
        ]
        k6 = rhs(s + h, stage)
        y5 = [
            z + h * (a71 * p + a73 * r + a74 * u + a75 * v + a76 * w)
            for z, p, r, u, v, w in zip(y, k1, k3, k4, k5, k6)
        ]
        k7 = rhs(s + h, y5)

        total = 0.0
        try:
            for z, z5, p, r, u, v, w, x in zip(y, y5, k1, k3, k4, k5, k6, k7):
                e = abs(h * (e1 * p + e3 * r + e4 * u + e5 * v + e6 * w + e7 * x))
                ratio = e / (atol + rtol * max(abs(z), abs(z5)))
                total += ratio * ratio
        except OverflowError:  # abs() of a complex beyond the float range
            total = math.inf
        err = math.sqrt(total / path.dim)
        if not math.isfinite(err):
            raise EvolutionFailure(
                f"non-finite error estimate at s={s!r}",
                {"s_reached": s, "steps_taken": steps, "rejected_steps": rejected},
            )

        if err <= 1.0:
            s = s_end if last else s + h
            y = y5
            k1 = k7  # FSAL
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

    final = np.array(y) * np.exp(-1j * shift * cfg.t_total * (s_end - cfg.s_start))
    drift = _trusted(final, {"steps_taken": steps, "rejected_steps": rejected})
    return EvolutionResult(final, float(drift), steps, rejected)


def _rk4_increment(path: HamiltonianPath, t: float, s0: float, n: int, h: float) -> np.ndarray:
    """D with I + D the product of n RK4 steps of width h from s0, later steps on the left.

    For y' = A(s) y one step is y -> (I + D_n) y.  Neighbouring steps share
    their end nodes, so A is evaluated once at each s0 + j*h/2, j = 0..2n,
    into one (d, d, 2n + 1) stack, matrix axes first for ``_mul``.
    Steps are merged pairwise as (I + B)(I + A) = I + (A + B + B @ A):
    carrying only the increment keeps the rounding of the identity out of the
    product.
    """
    a = np.moveaxis((-1j * t) * path.evaluate(s0 + (0.5 * h) * np.arange(2 * n + 1)), 0, -1).copy()
    a0, am, a1 = a[..., :-1:2], a[..., 1::2], a[..., 2::2]
    k2 = am + (0.5 * h) * _mul(am, a0)
    k3 = am + (0.5 * h) * _mul(am, k2)
    k4 = a1 + h * _mul(a1, k3)
    d = (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    while d.shape[-1] > 1:
        even = d.shape[-1] & ~1
        earlier, later = d[..., 0:even:2], d[..., 1:even:2]
        d = np.concatenate((earlier + later + _mul(later, earlier), d[..., even:]), axis=-1)
    return d[..., 0]


def evolve_fixed_step(
    path: HamiltonianPath,
    cfg: EvolutionConfig,
    psi0: np.ndarray,
    step: float = 1e-5,
) -> EvolutionResult:
    """Classic RK4 at a fixed step; the independent reference integrator.

    The step is shrunk to divide the window evenly into N steps.  On a
    mirror-symmetric path and window (see ``_mirrored``) only the first
    N // 2 steps are taken, on the columns of the identity, giving their
    product U; the final state is U^T M U psi0, where M is the middle step,
    its own mirror image, when N is odd and I otherwise.  ``steps_taken`` and
    the ``max_steps`` check count all N steps of the window either way.
    Raises ValueError unless ``step`` is finite and positive, and
    EvolutionFailure when the window needs more than ``cfg.max_steps`` steps
    or the final norm drift exceeds the trust threshold.
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
    t = cfg.t_total
    mirror = _mirrored(path, cfg)
    taken = n_steps // 2 if mirror else n_steps
    y = np.eye(path.dim, dtype=complex) if mirror else psi.copy()
    for first in range(0, taken, _RK4_CHUNK_STEPS):
        n = min(_RK4_CHUNK_STEPS, taken - first)
        y = y + _rk4_increment(path, t, cfg.s_start + first * h, n, h) @ y
    if mirror:
        u, y = y, y @ psi
        if n_steps % 2:  # the middle step
            y = y + _rk4_increment(path, t, cfg.s_start + taken * h, 1, h) @ y
        # the mirrored second half propagates by U^T
        y = u.T @ y
    drift = _trusted(y, {"steps_taken": n_steps})
    return EvolutionResult(y, float(drift), n_steps, 0)
