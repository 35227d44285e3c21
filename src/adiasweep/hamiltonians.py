"""Time-dependent model Hamiltonians: constant diagonal plus scheduled couplings.

A ``HamiltonianPath`` is H(s) = diag(d) + sum over couplings (i < j) of
E_ij * schedule(s) on entries (i, j) and (j, i).  All builtin models have
real couplings that vanish at s = 0 and s = 1, so the endpoint Hamiltonians
are diagonal and the endpoint eigenstates are basis vectors.  Every builtin
path is also mirror-symmetric, H(1-s) = H(s): the paper changes both
endpoints the same way, and ``HamiltonianPath.mirror_symmetric`` derives
this from the schedules.

``HamiltonianPath.evaluate`` is the one assembly of H(s) - shift*I, for a
float s or an array of s, that ground states, the endpoint estimates and the
CF4 and RK4 propagators share.

The builtin models are the rows of ``MODELS``: ``build``, ``ModelSpec``, the
config keys and the sweep's reference shortcut all read them, and no code
branches on a model's name or its pulse kind.  Which keys a model reads is
said once, in ``Model.reads``: its energy names, k1..k3 if it has several
couplings, and the fields its ``PULSES`` entry lists.  ``ModelSpec`` refuses
an unread field off its default; the config refuses its key even at the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .schedules import ExponentialPulse, Parabola, Schedule, rational_pulse


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

    @cached_property
    def schedule_slots(self) -> tuple[tuple[Schedule, ...], tuple[int, ...]]:
        """The distinct schedules of the couplings, and the index of each coupling's among them."""
        distinct: list[Schedule] = []
        for c in self.couplings:
            if c.schedule not in distinct:
                distinct.append(c.schedule)
        return tuple(distinct), tuple(distinct.index(c.schedule) for c in self.couplings)

    def _assemble(self, shape: tuple, diagonal, coupling) -> np.ndarray:
        """Real symmetric shape + (d, d) stack: ``diagonal`` plus amplitude * coupling(schedule),
        with ``coupling`` called once per distinct schedule."""
        out = np.zeros(shape + (self.dim, self.dim))
        idx = np.arange(self.dim)
        out[..., idx, idx] = diagonal
        distinct, slots = self.schedule_slots
        values = [coupling(sched) for sched in distinct]
        for c, slot in zip(self.couplings, slots):
            v = c.amplitude * values[slot]
            out[..., c.i, c.j] = v
            out[..., c.j, c.i] = v
        return out

    def evaluate(self, s, shift: float = 0.0) -> np.ndarray:
        """H(s) - shift*I, real symmetric: (d, d) for a float s, s.shape + (d, d) for an array."""
        diagonal = np.array(self.diagonal, dtype=float) - shift
        return self._assemble(np.shape(s), diagonal, lambda sched: sched.value(s))

    def endpoint_deriv(self, endpoint: float, order: int) -> np.ndarray:
        """d^order H/ds^order at s=endpoint, a window end; order 0 recovers H itself."""
        if order == 0:
            return self.evaluate(float(endpoint))
        return self._assemble((), 0.0, lambda sched: sched.endpoint_deriv(endpoint, order))

    def mirror_symmetric(self) -> bool:
        """True only if H(1-s) = H(s) holds by construction.

        The diagonal is constant and the amplitudes are real, so the path is
        symmetric when every coupling's schedule is.
        """
        return all(c.schedule.mirror_symmetric() for c in self.couplings)

    def diagonal_mean(self) -> float:
        return float(sum(self.diagonal) / self.dim)


# Coupling schedules by pulse kind, on one smoothing scale k (k = 0 gives the bare parabola):
# each builder, and the ModelSpec fields it takes by keyword besides k.
PULSES = {
    "rational": (rational_pulse, ("order", "prefactor")),
    "exponential": (lambda k: ExponentialPulse(k) if k > 0.0 else Parabola(), ()),
}
# The ModelSpec fields a model may leave unread: the per-coupling scales and every pulse's own.
PER_MODEL_FIELDS = ("k1", "k2", "k3", *dict.fromkeys(f for _, fs in PULSES.values() for f in fs))


@dataclass(frozen=True)
class Model:
    """One builtin model, a row of ``MODELS``."""

    energies: dict[str, float]  # its energy parameters, in order, with their defaults
    diagonal: tuple[float | str, ...]  # numbers or energy names
    couplings: tuple[tuple[int, int, str], ...]  # (i, j, energy name); a zero amplitude drops it
    takes_k: tuple[int, ...]  # indices of the couplings smoothed on k when k1..k3 is unset
    pulse: str = "rational"  # a kind of PULSES
    window: tuple[float, float] = (0.0, 1.0)  # the evolution window
    base: str | None = None  # the model whose k = 0 path this one deviates from, if not itself

    @cached_property
    def reads(self) -> frozenset[str]:
        """Its energy names, k1..k3 if it has several couplings, and its pulse's fields."""
        overrides = ("k1", "k2", "k3")[: len(self.couplings)] if len(self.couplings) > 1 else ()
        return frozenset((*self.energies, *overrides, *PULSES[self.pulse][1]))


_TWO_LEVEL = Model({"E0": 1.0, "E1": 1.0}, (0.0, "E0"), ((0, 1, "E1"),), (0,))
_THREE_LEVEL = Model(
    {"E1": 1.0, "E2": 1.0, "E3": 1.0},
    (1.0, 2.0, 3.0),
    ((0, 1, "E1"), (0, 2, "E2"), (1, 2, "E3")),
    (0, 1, 2),
)
MODELS = {
    "two-level": _TWO_LEVEL,
    "two-level-exp": replace(
        _TWO_LEVEL,
        pulse="exponential",
        window=(1e-6, 1.0 - 1e-6),  # the pulse is numerically ill-defined at s = 0 and 1
        base="two-level",
    ),
    "three-level-case1": _THREE_LEVEL,
    "three-level-case2": replace(
        _THREE_LEVEL, energies={"E1": 1.0, "E2": 0.0, "E3": 1.0}, takes_k=(0,)
    ),
}
MODEL_NAMES = tuple(MODELS)


@dataclass(frozen=True)
class ModelSpec:
    """Parameters selecting one builtin model, a row of ``MODELS``.

    ``k`` is the endpoint-smoothing scale; models with more than one coupling
    accept per-coupling overrides k1..k3.  ``energies`` lists the row's energy
    parameters in its order.  ``order`` is the number of endpoint derivatives
    the rational smoothing forces to zero (k = 0 switches smoothing off
    exactly).
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
        row = MODELS[self.model]
        # Fields the model does not read keep their defaults, so one path has one cache key.
        for name in PER_MODEL_FIELDS:
            if name not in row.reads and getattr(self, name) != getattr(ModelSpec, name):
                raise ValueError(f"model {self.model} does not read {name}")
        if self.energies is not None and len(self.energies) != len(row.energies):
            raise ValueError(f"model {self.model} takes {tuple(row.energies)}, got {self.energies}")
        if self.energies is not None and not all(math.isfinite(e) for e in self.energies):
            raise ValueError(f"energies must be finite, got {self.energies}")
        if self.order < 1:
            raise ValueError(f"smoothing order must be >= 1, got {self.order}")

    def k_values(self) -> tuple[float, ...]:
        """The smoothing scale of each coupling of the model."""
        row = MODELS[self.model]
        picked = (self.k1, self.k2, self.k3)[: len(row.couplings)]
        return tuple(
            (self.k if i in row.takes_k else 0.0) if p is None else p for i, p in enumerate(picked)
        )

    def energy_values(self) -> tuple[float, ...]:
        if self.energies is not None:
            return self.energies
        return tuple(MODELS[self.model].energies.values())

    def base(self) -> "ModelSpec":
        """The unsmoothed (k = 0) path this model deviates from."""
        return ModelSpec(
            model=MODELS[self.model].base or self.model,
            k=0.0,
            energies=self.energy_values(),
            order=self.order,
            prefactor=self.prefactor,
        )

    def evolution_window(self) -> tuple[float, float]:
        return MODELS[self.model].window


def build(spec: ModelSpec) -> HamiltonianPath:
    """Assemble the path of a builtin model from its row of ``MODELS``."""
    row = MODELS[spec.model]
    energy = dict(zip(row.energies, spec.energy_values()))
    diagonal = tuple(energy[d] if isinstance(d, str) else d for d in row.diagonal)
    pulse, fields = PULSES[row.pulse]
    options = {name: getattr(spec, name) for name in fields}
    couplings = tuple(
        Coupling(i, j, energy[name], pulse(k, **options))
        for (i, j, name), k in zip(row.couplings, spec.k_values())
        if energy[name] != 0.0
    )
    return HamiltonianPath(len(diagonal), diagonal, couplings)
