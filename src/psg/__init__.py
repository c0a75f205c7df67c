"""Pseudo-spectral solver for the parabolic sine-Gordon and Allen-Cahn
equations on 1D/2D periodic tori, with energy-dissipation and
maximum-principle monitors and a 1D steady-state toolkit."""

from .grid import (
    Field,
    NonFiniteError,
    SpectralCoeffs,
    TorusGrid,
    first_derivative,
    forward_transform,
    helmholtz_solve,
    integrate,
    inverse_transform,
    laplacian,
)
from .models import (
    GeneralModelParams,
    ModelKind,
    ModelSpec,
    StandardForm,
    energy,
    modified_energy,
    nonlinearity,
    potential_values,
    rescale_general_to_standard,
)
from .schemes import (
    SchemeKind,
    SchemeState,
    StepRecord,
    run,
)
from .steady_states import (
    FirstIntegralError,
    PeriodicOrbit,
    Reflection,
    ReflectionError,
    Regime,
    RegimeError,
    SteadyStateCase,
    build_periodic_orbit,
    classify,
    first_integral,
    kink_derivative,
    kink_eval,
    reflect_extend,
    residual,
)
from .diagnostics import (
    MonitorKind,
    MonitorReport,
    SweepResult,
    convergence_order,
    energy_monitor,
    fit_order,
    max_principle_monitor,
    stability_sweep,
)
from .config import ExperimentConfig, INIT_PRESETS, initial_field
from .io import (
    SnapshotFormatError,
    emit_potential_table,
    read_snapshot,
    write_heatmap,
    write_profile_csv,
    write_series_csv,
    write_snapshot,
    write_sweep_csv,
)

__version__ = "0.1.0"
