"""Fidelity susceptibility of a charged boson gas, two independent ways.

The boundary side computes ground-state overlaps of Landau-level Gaussians
and fits the susceptibility; the bulk side evaluates a regularized
maximal-volume integral in a Lifshitz-AdS geometry. A dictionary matcher
checks that the two closed forms agree identically under Qt <-> H.
"""

from .boundary import (
    FidelityFit,
    GroundState1D,
    fidelity,
    gaussian_overlap,
    ground_state,
    ground_state_wavefunction,
    oscillator_spectrum_oracle,
    overlap_quadrature,
    xi_f_analytic,
    xi_f_from_fit,
)
from .duality import DualityReport, consistency_flags, match_parameters, verify_duality
from .errors import (
    ConstraintError,
    ConvergenceError,
    DomainError,
    FitError,
    GridCoverageError,
    ImaginaryIntegrandError,
    LifshitzFidelityError,
    NonPositiveBlackeningError,
    SingularityError,
)
from .geometry import (
    SeriesCoeffsZ4,
    blackening,
    blackening_derivative,
    lifshitz_exponent,
    series_coeffs_z4,
)
from .params import BosonGasParams, BulkParams, QuadratureSpec
from .volume import (
    RegularizationSweep,
    VolumeResult,
    background_volume,
    complexity,
    fit_divergence_coefficient,
    series_divergent_part,
    series_finite_part,
    subtracted_susceptibility,
    volume_exact,
    volume_series_z4,
    volume_w_form,
    xi_f_holo_z4,
)

__version__ = "0.1.0"
