"""Distances between stationary stochastic processes from their power
spectra: the quadratic transport (Bures-type) distance, the matching
scatter-matrix lower bound, and the Hellinger distance, together with a
deliberately naive block-Toeplitz finite-horizon oracle that cross-checks
the spectral formulas by brute force.

The names below are what the command-line front end and the README use.
Independent references (the product-eigenvalue coupling trace, the scalar
closed form, a one-frequency rational evaluation) live with the tests.
"""

from .errors import (
    DimensionMismatch,
    FitDegenerateWarning,
    GridMismatch,
    GridTooCoarse,
    LagTooLarge,
    NegativeDistance,
    NonHermitianInput,
    NonRealResidue,
    NotPositiveDefinite,
    ParseError,
    SingularAr,
    SpecDistError,
    TooFewSegments,
    UnstableModel,
)
from .hermitian import (
    DEFAULT_POLICY,
    PsdPolicy,
    bures_w2_squared,
)
from .spectra import (
    Autocovariance,
    GridSpectrum,
    RationalSpectrum,
    autocov_to_spectrum,
    check_real_symmetry,
    estimate_welch,
    rational_grid,
    spectrum_to_autocov,
    stability_radius,
)
from .distances import (
    DistanceReport,
    gelbrich_lower_bound,
    hellinger,
    spectral_w2,
)
from .toeplitz import (
    ConvergenceDiagnostic,
    build_block_toeplitz,
    convergence_diagnostic,
)

__version__ = "0.1.0"

__all__ = [
    "Autocovariance",
    "ConvergenceDiagnostic",
    "DEFAULT_POLICY",
    "DimensionMismatch",
    "DistanceReport",
    "FitDegenerateWarning",
    "GridMismatch",
    "GridSpectrum",
    "GridTooCoarse",
    "LagTooLarge",
    "NegativeDistance",
    "NonHermitianInput",
    "NonRealResidue",
    "NotPositiveDefinite",
    "ParseError",
    "PsdPolicy",
    "RationalSpectrum",
    "SingularAr",
    "SpecDistError",
    "TooFewSegments",
    "UnstableModel",
    "autocov_to_spectrum",
    "build_block_toeplitz",
    "bures_w2_squared",
    "check_real_symmetry",
    "convergence_diagnostic",
    "estimate_welch",
    "gelbrich_lower_bound",
    "hellinger",
    "rational_grid",
    "spectral_w2",
    "spectrum_to_autocov",
    "stability_radius",
]
