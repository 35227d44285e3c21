"""Adiabatic state-preparation simulator.

Integrates small time-dependent model Hamiltonians, measures the
state-preparation error against the total evolution time, and compares it
with asymptotic switching estimates computed from endpoint data.
"""

from .evolution import (
    BatchEvolutionResult,
    EvolutionConfig,
    EvolutionFailure,
    EvolutionResult,
    evolve,
    evolve_dop54,
    evolve_fixed_step,
    evolve_many,
    ground_state,
)
from .hamiltonians import (
    Coupling,
    HamiltonianPath,
    ModelSpec,
    MODEL_NAMES,
    build,
)
from .linalg import (
    Eigensystem,
    NonHermitianError,
    hermitian_eigensystem,
    hermiticity_defect,
    jacobi_eigensystem,
)
from .metrics import (
    DegenerateGapError,
    MeasuredError,
    ReferenceScalingEstimate,
    SwitchingEstimate,
    TypicalErrorConfig,
    crossover_time,
    decade_slope,
    measure_errors,
    reference_scaling_estimate,
    sqrt2_bound_check,
    switching_estimate,
    true_error,
    window_samples,
)
from .schedules import (
    Constant,
    ExponentialPulse,
    Parabola,
    PowerRamp,
    Product,
    Schedule,
    rational_pulse,
)
from .sweep import (
    SweepConfig,
    SweepRecord,
    cache_key,
    emit_csv,
    emit_json,
    load_or_run,
    run_sweep,
    t_grid,
)

__version__ = "0.1.0"
