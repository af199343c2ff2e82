"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` used by the command-line front end;
the size and shape errors share one.  Each input rule raises one class,
whoever applies it: the symmetry rule ``NonHermitianInput`` and every
definiteness rule ``NotPositiveDefinite``.
"""


class SpecDistError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class NonHermitianInput(SpecDistError):
    """Input matrix is not Hermitian within tolerance, not finite, or has
    an entry too large for its Hermitian part."""


class NotPositiveDefinite(SpecDistError):
    """A matrix or spectrum that must be positive (semi)definite is not,
    within the policy's tolerance."""

    exit_code = 5


class NegativeDistance(SpecDistError):
    """A squared distance came out negative beyond the round-off band;
    indicates a numerical bug, not an input problem."""


class DimensionMismatch(SpecDistError):
    """Operands have incompatible dimensions or sizes."""

    exit_code = 4


class GridMismatch(DimensionMismatch):
    """Two spectra do not share the same frequency grid."""


class GridTooCoarse(DimensionMismatch):
    """Frequency grid too short to resolve the requested lag band."""


class LagTooLarge(DimensionMismatch):
    """Requested lag exceeds what the frequency grid can resolve."""


class TooFewSegments(DimensionMismatch):
    """Time series too short for the requested segmentation."""


class SingularAr(SpecDistError):
    """The autoregressive polynomial is numerically singular at some
    evaluation frequency."""


class UnstableModel(SpecDistError):
    """Autoregressive part has a root on or inside the unit circle."""


class NonRealResidue(SpecDistError):
    """A grid spectrum's ``real_symmetry`` is False, so it does not describe
    a real-valued process and has no real autocovariances to give the oracle."""


class ParseError(SpecDistError):
    """An input file could not be parsed into the expected structure."""

    exit_code = 3


class FitDegenerateWarning(UserWarning):
    """The tail fit's input was non-monotone, or, on a monotone tail, the fit
    fell below a per-step value, a lower bound on the limit; one message per cause."""
