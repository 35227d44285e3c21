"""Time-dependent model Hamiltonians: constant diagonal plus scheduled couplings.

A ``HamiltonianPath`` is H(s) = diag(d) + sum over couplings (i < j) of
E_ij * schedule(s) on entries (i, j) and (j, i).  All builtin models have
real couplings that vanish at s = 0 and s = 1, so the endpoint Hamiltonians
are diagonal and the endpoint eigenstates are basis vectors.

``HamiltonianPath.evaluate`` is the one assembly of H(s) - shift*I, for a
float s or an array of s, that ground states, the endpoint estimates and the
CF4 and RK4 propagators share.

Builtin models
--------------
two-level          [[0, E1*f], [E1*f, E0]] with the smoothed parabola f
two-level-exp      same layout, exponential pulse (clipped evolution window)
three-level-case1  diag(1,2,3), all three couplings smoothed with the same k
three-level-case2  diag(1,2,3), couplings (E1, E2, E3) = (1, 0, 1) by default,
                   only the (0,1) coupling smoothed
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import ExponentialPulse, Parabola, Schedule, rational_pulse

MODEL_NAMES = ("two-level", "two-level-exp", "three-level-case1", "three-level-case2")

# Evolution window for the exponential model; the pulse is numerically
# ill-defined exactly at the endpoints.
EXPONENTIAL_CLIP = 1e-6


@dataclass(frozen=True)
class Coupling:
    i: int
    j: int
    amplitude: float
    schedule: Schedule


@dataclass(frozen=True)
class HamiltonianPath:
    dim: int
    diagonal: tuple[float, ...]
    couplings: tuple[Coupling, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.diagonal) != self.dim:
            raise ValueError("diagonal length must equal dim")
        for c in self.couplings:
            if not 0 <= c.i < c.j < self.dim:
                raise ValueError(f"coupling indices ({c.i},{c.j}) out of range")

    def _assemble(self, shape: tuple, diagonal, coupling) -> np.ndarray:
        """Real symmetric shape + (d, d) stack: ``diagonal`` plus amplitude * coupling(schedule)."""
        out = np.zeros(shape + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = diagonal
        for c in self.couplings:
            v = c.amplitude * coupling(c.schedule)
            out[..., c.i, c.j] = v
            out[..., c.j, c.i] = v
        return out

    def evaluate(self, s, shift: float = 0.0) -> np.ndarray:
        """H(s) - shift*I, real symmetric: (d, d) for a float s, s.shape + (d, d) for an array."""
        diagonal = np.array(self.diagonal, dtype=float) - shift
        return self._assemble(np.shape(s), diagonal, lambda sched: sched.value(s))

    def endpoint_deriv(self, endpoint: int, order: int) -> np.ndarray:
        """d^order H/ds^order at s=endpoint; order 0 recovers H itself."""
        if order == 0:
            return self.evaluate(float(endpoint))
        return self._assemble((), 0.0, lambda sched: sched.endpoint_deriv(endpoint, order))

    def diagonal_mean(self) -> float:
        return float(sum(self.diagonal) / self.dim)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one builtin model.

    ``k`` is the endpoint-smoothing scale; the three-level models accept
    per-coupling overrides k1..k3.  ``energies`` means (E0, E1) for the
    two-level models and the coupling amplitudes (E1, E2, E3) for the
    three-level ones.  ``order`` is the number of endpoint derivatives the
    rational smoothing forces to zero (k = 0 switches smoothing off exactly).
    """

    model: str
    k: float = 0.0
    k1: float | None = None
    k2: float | None = None
    k3: float | None = None
    energies: tuple[float, ...] | None = None
    order: int = 1
    prefactor: str = "midpoint-normalized"

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        for name in ("k", "k1", "k2", "k3"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.energies is not None and not all(math.isfinite(e) for e in self.energies):
            raise ValueError(f"energies must be finite, got {self.energies}")
        if self.order < 1:
            raise ValueError(f"smoothing order must be >= 1, got {self.order}")

    def k_values(self) -> tuple[float, float, float]:
        """Per-coupling smoothing scales for the three-level models."""
        if self.model == "three-level-case2":
            defaults = (self.k, 0.0, 0.0)
        else:
            defaults = (self.k, self.k, self.k)
        picked = (self.k1, self.k2, self.k3)
        return tuple(d if p is None else p for d, p in zip(defaults, picked))

    def energy_values(self) -> tuple[float, ...]:
        if self.energies is not None:
            return self.energies
        if self.model in ("two-level", "two-level-exp"):
            return (1.0, 1.0)
        if self.model == "three-level-case1":
            return (1.0, 1.0, 1.0)
        return (1.0, 0.0, 1.0)

    def base(self) -> "ModelSpec":
        """The unsmoothed (k = 0) path this model deviates from."""
        model = "two-level" if self.model == "two-level-exp" else self.model
        return ModelSpec(
            model=model,
            k=0.0,
            energies=self.energy_values(),
            order=self.order,
            prefactor=self.prefactor,
        )

    def evolution_window(self) -> tuple[float, float]:
        if self.model == "two-level-exp":
            return (EXPONENTIAL_CLIP, 1.0 - EXPONENTIAL_CLIP)
        return (0.0, 1.0)


def build(spec: ModelSpec) -> HamiltonianPath:
    """Assemble the path for a builtin model."""
    energies = spec.energy_values()
    if spec.model in ("two-level", "two-level-exp"):
        if len(energies) != 2:
            raise ValueError(f"two-level models need (E0, E1), got {energies}")
        e0, e1 = energies
        if spec.model == "two-level-exp":
            sched: Schedule = ExponentialPulse(spec.k) if spec.k > 0.0 else Parabola()
        else:
            sched = rational_pulse(spec.k, spec.order, spec.prefactor)
        couplings = []
        if e1 != 0.0:
            couplings.append(Coupling(0, 1, e1, sched))
        return HamiltonianPath(2, (0.0, e0), tuple(couplings))

    if len(energies) != 3:
        raise ValueError(f"three-level models need (E1, E2, E3), got {energies}")
    ks = spec.k_values()
    pairs = ((0, 1), (0, 2), (1, 2))
    couplings = []
    for (i, j), amp, k in zip(pairs, energies, ks):
        if amp == 0.0:
            continue
        couplings.append(Coupling(i, j, amp, rational_pulse(k, spec.order, spec.prefactor)))
    return HamiltonianPath(3, (1.0, 2.0, 3.0), tuple(couplings))
