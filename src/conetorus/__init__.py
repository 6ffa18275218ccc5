"""Determinant of the Laplacian on a genus-one surface with one 4*pi cone point.

The surface is the double cover of the sphere branched over {0, 1, inf, t},
carrying the pullback of the curvature-one conical metric; the determinant
of its Friedrichs Laplacian is computed in closed form (up to a universal
constant) and cross-checked spectrally.
"""

from .errors import (
    BranchConventionWarning,
    BranchCutError,
    ConvergenceError,
    DomainError,
    NormalizationError,
)
from .specialfn import (
    PeriodRatio,
    as_sigma,
    dedekind_eta,
    elliptic_K,
    reduce_to_fundamental_domain,
    theta,
)
from .moduli import (
    GOrbit,
    g_orbit,
    same_moduli_point,
    sigma_from_t,
    t_from_sigma,
    unimodular_equivalent,
    validate_t,
)
from .detformula import (
    DetValue,
    F,
    b_minus_inf_closed,
    b_minus_inf_from_AB,
    det_prelim,
    det_value,
    flat_det,
    schiffer_b0,
    tau_bergman,
)
from .geometry import (
    ConformalField,
    TorusCovering,
    conformal_factor_on_torus,
    conformal_map,
    conformal_map_prime,
    gauss_curvature,
    load_field,
    metric_rho,
    round_sphere_density,
    save_field,
)
from .spectral import (
    AssembledOperator,
    SpectrumResult,
    assemble,
    flat_operator,
    isospectral_orbit_check,
    lowest_eigenvalues,
    weyl_check,
    zeta_det_estimate,
)
from .verify import DEFAULT_TOLERANCES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "AssembledOperator",
    "BranchConventionWarning",
    "BranchCutError",
    "CheckResult",
    "ConformalField",
    "ConvergenceError",
    "DEFAULT_TOLERANCES",
    "DetValue",
    "DomainError",
    "F",
    "GOrbit",
    "NormalizationError",
    "PeriodRatio",
    "SpectrumResult",
    "TorusCovering",
    "as_sigma",
    "assemble",
    "b_minus_inf_closed",
    "b_minus_inf_from_AB",
    "conformal_factor_on_torus",
    "conformal_map",
    "conformal_map_prime",
    "dedekind_eta",
    "det_prelim",
    "det_value",
    "elliptic_K",
    "flat_det",
    "flat_operator",
    "g_orbit",
    "gauss_curvature",
    "isospectral_orbit_check",
    "load_field",
    "lowest_eigenvalues",
    "metric_rho",
    "reduce_to_fundamental_domain",
    "round_sphere_density",
    "run_suite",
    "same_moduli_point",
    "save_field",
    "schiffer_b0",
    "sigma_from_t",
    "t_from_sigma",
    "tau_bergman",
    "theta",
    "unimodular_equivalent",
    "validate_t",
    "weyl_check",
    "zeta_det_estimate",
    "__version__",
]
