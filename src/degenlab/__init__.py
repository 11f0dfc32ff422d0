"""Numerical laboratory for boundary-degenerate parabolic equations."""

from .geometry import Domain, make_domain, truncate
from .discretize import (
    Mesh,
    OperatorPair,
    assemble,
    boundary_flux,
    build_mesh,
    hardy_check,
    mass_1d,
    restrict_mesh,
    stiffness_1d,
    tensor_form,
)
from .spectral import Spectrum, compute_spectrum, expand
from .evolution import (
    SpaceTimeField,
    TimeGrid,
    energy_history,
    flux_history,
    solve_implicit,
    solve_spectral,
    theta_rows,
    time_reverse,
)
from .shape_design import ConvergenceReport, delta_sweep, solve_truncated
from .carleman import CarlemanWeights, FieldData, S0Fit, find_s0
from .observability import ObservabilityReport, estimate_constant, observability_ratio
from .rng import Lcg, random_admissible

__version__ = "0.1.0"
