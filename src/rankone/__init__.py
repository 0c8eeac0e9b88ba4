"""Harmonic analysis of ball averages on rank-one groups.

Spherical functions and their decay coefficients, Haar ball volumes,
ball-averaged spherical functions with their asymptotics, a synthetic
spectral model for mean and pointwise ergodic-average bounds, and Monte
Carlo sampling of averages on the modular surface.  The `rankone`
console script exposes everything as CSV/JSON emitting subcommands.
"""

from .errors import ConvergenceError, ValidationError
from .groups import (
    RankOneGroup,
    SpectralParam,
    check_param,
    complementary,
    make_group,
    parse_group,
    parse_param,
    principal,
    trivial,
)
from .spherical import (
    certify_decay_bound,
    hc_c_function,
    spherical_fn_many,
)
from .ballavg import (
    VolumeProfile,
    ball_volume,
    build_volume_profile,
    delta,
    psi_asymptotic_constant,
    psi_asymptotic_formula,
    psi_bound_check,
    psi_lipschitz_check,
    psi_on_grid,
    volume_regularity,
)
from .model import (
    DecayReport,
    PuritySpectrum,
    SeriesReport,
    SpectralVector,
    SummabilityReport,
    deviation_on_grid,
    direction_convergence,
    discrete_constant_report,
    finite_sum_check,
    load_spectrum,
    theorem_mean_report,
    time_grid,
)
from .surface import (
    ConstantObservable,
    CuspIndicator,
    DiskIndicator,
    HPoint,
    KSResult,
    MCRun,
    decay_scan,
    ks_radial_test,
    mc_average,
    parse_observable,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvergenceError",
    "ValidationError",
    "RankOneGroup",
    "SpectralParam",
    "check_param",
    "complementary",
    "make_group",
    "parse_group",
    "parse_param",
    "principal",
    "trivial",
    "certify_decay_bound",
    "hc_c_function",
    "spherical_fn_many",
    "VolumeProfile",
    "ball_volume",
    "build_volume_profile",
    "delta",
    "psi_asymptotic_constant",
    "psi_asymptotic_formula",
    "psi_bound_check",
    "psi_lipschitz_check",
    "psi_on_grid",
    "volume_regularity",
    "DecayReport",
    "PuritySpectrum",
    "SeriesReport",
    "SpectralVector",
    "SummabilityReport",
    "deviation_on_grid",
    "direction_convergence",
    "discrete_constant_report",
    "finite_sum_check",
    "load_spectrum",
    "theorem_mean_report",
    "time_grid",
    "ConstantObservable",
    "CuspIndicator",
    "DiskIndicator",
    "HPoint",
    "KSResult",
    "MCRun",
    "decay_scan",
    "ks_radial_test",
    "mc_average",
    "parse_observable",
]
