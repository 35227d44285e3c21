"""Property tests of the propagator: symmetries the Schrodinger equation has.

Derandomized so that every run draws the same examples.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adiasweep.evolution import EvolutionConfig, evolve, evolve_many, ground_state
from adiasweep.hamiltonians import MODEL_NAMES, Coupling, HamiltonianPath, ModelSpec, build
from adiasweep.metrics import true_error
from adiasweep.schedules import Parabola, PowerRamp, Product, Schedule, rational_pulse

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)

MODELS = st.sampled_from(MODEL_NAMES)
KS = st.sampled_from((1e-3, 1e-2, 5e-2))


def _spec(model: str, k: float) -> ModelSpec:
    return ModelSpec(model, k=k)


def _eps(path, cfg, psi0=None):
    lo, hi = cfg.s_start, cfg.s_end
    psi0 = ground_state(path, lo) if psi0 is None else psi0
    return true_error(evolve(path, cfg, psi0).final_state, ground_state(path, hi))


@PROPERTY_SETTINGS
@given(model=MODELS, k=KS, t=st.floats(10.0, 120.0))
def test_unitary_to_rounding(model, k, t):
    spec = _spec(model, k)
    lo, hi = spec.evolution_window()
    path = build(spec)
    result = evolve(path, EvolutionConfig(t_total=t, s_start=lo, s_end=hi), ground_state(path, lo))
    assert result.norm_drift < 1e-12


@PROPERTY_SETTINGS
@given(
    model=MODELS,
    k=KS,
    ts=st.lists(st.floats(10.0, 80.0), min_size=2, max_size=5, unique=True),
)
def test_batch_members_match_single_runs(model, k, ts):
    spec = _spec(model, k)
    lo, hi = spec.evolution_window()
    path = build(spec)
    psi0 = ground_state(path, lo)
    g_end = ground_state(path, hi)
    # Members share the mesh of the largest t, so each one is integrated more
    # finely than alone; both must sit within the global error of the tolerance.
    tolerances = dict(rtol=1e-12, atol=1e-14, s_start=lo, s_end=hi)
    batch = evolve_many(path, EvolutionConfig(t_total=1.0, **tolerances), np.array(ts), psi0)
    for i, t in enumerate(ts):
        solo = evolve(path, EvolutionConfig(t_total=t, **tolerances), psi0)
        assert abs(true_error(batch.final_states[i], g_end) - true_error(solo.final_state, g_end)) < 1e-9


class _Mirrored(Schedule):
    """f(1 - s) for a schedule f."""

    def __init__(self, inner: Schedule):
        self.inner = inner

    def value(self, s: float) -> float:
        return self.inner.value(1.0 - s)


def _two_level(schedule: Schedule) -> HamiltonianPath:
    return HamiltonianPath(2, (0.0, 1.0), (Coupling(0, 1, 1.0, schedule),))


@PROPERTY_SETTINGS
@given(
    k=KS,
    order=st.integers(1, 2),
    symmetric=st.booleans(),
    t=st.floats(10.0, 60.0),
)
def test_mirrored_schedule_keeps_error(k, order, symmetric, t):
    # For a real symmetric H the reversed path s -> 1-s has the transposed
    # propagator, so the endpoint-to-endpoint error is unchanged; for a
    # symmetric pulse the mirror is the same function evaluated at 1-s.
    if symmetric:
        pulse = rational_pulse(k, order)
    else:
        pulse = Product((Parabola(), PowerRamp(k, order)))
    cfg = EvolutionConfig(t_total=t)
    eps = _eps(_two_level(pulse), cfg)
    eps_mirrored = _eps(_two_level(_Mirrored(pulse)), cfg)
    assert abs(eps - eps_mirrored) < 1e-9


@PROPERTY_SETTINGS
@given(
    model=MODELS,
    k=KS,
    c=st.floats(0.25, 4.0),
    t=st.floats(20.0, 80.0),
)
def test_energy_time_rescaling_keeps_error(model, k, c, t):
    # i dpsi/ds = t * H * psi depends on t and H only through t * H
    spec = _spec(model, k)
    lo, hi = spec.evolution_window()
    path = build(spec)
    scaled = HamiltonianPath(
        path.dim,
        tuple(c * d for d in path.diagonal),
        tuple(Coupling(cp.i, cp.j, c * cp.amplitude, cp.schedule) for cp in path.couplings),
    )
    eps = _eps(path, EvolutionConfig(t_total=t, s_start=lo, s_end=hi))
    eps_scaled = _eps(scaled, EvolutionConfig(t_total=t / c, s_start=lo, s_end=hi))
    assert math.isclose(eps, eps_scaled, rel_tol=1e-7, abs_tol=1e-10)
