"""Exception hierarchy used across the package.

Two families matter for callers: :class:`InputError` means the caller handed
us something malformed (bad matrix, bad flag, basis mismatch) and maps to CLI
exit code 1; :class:`NumericalError` means the inputs were well-formed but a
numerical hypothesis failed (unstable drift, eigensolver breakdown, a range
that should have been invariant and was not) and maps to CLI exit code 2.
"""


class OUSpectraError(Exception):
    """Base class for everything raised on purpose by this package."""


class InputError(OUSpectraError):
    """Malformed or inconsistent input data."""


class NumericalError(OUSpectraError):
    """A numerical hypothesis needed by the requested computation failed."""


# --- input problems -------------------------------------------------------

class AsymmetricQ(InputError):
    """Diffusion matrix is not symmetric within tolerance."""


class NotPSD(InputError):
    """Matrix required to be positive semidefinite has a negative eigenvalue
    beyond tolerance."""


class DimensionMismatch(InputError):
    """Shapes of the supplied matrices or vectors are inconsistent."""


class NotContraction(InputError):
    """Operator norm exceeds 1 beyond tolerance where a contraction is
    required."""


class SizeCap(InputError):
    """A requested tensor construction would exceed the configured size cap
    or the float range."""


class EnumCap(InputError):
    """A requested enumeration (product set, lattice walk) would exceed its
    term cap."""


class EmptySet(InputError):
    """A set operation (Hausdorff distance, matching) received an empty
    spectrum."""


# --- numerical failures ---------------------------------------------------

class EigFailure(NumericalError):
    """Eigenvalue computation did not converge or returned non-finite
    values."""


class ExpmFailure(NumericalError):
    """Matrix exponential returned non-finite values."""


class Unstable(NumericalError):
    """A point that must lie in the open left half plane does not: the
    drift's spectral abscissa (no invariant measure exists) or a lattice
    walk's base point (the walk would not terminate)."""


class RangeNotInvariant(NumericalError):
    """The flow failed to map the reproducing-kernel space into itself within
    tolerance."""


class CriteriaDisagree(NumericalError):
    """Two independent rank criteria that must agree returned different
    answers; the result cannot be trusted."""


class DegenerateMeasure(NumericalError):
    """The invariant covariance is singular, so the requested construction
    (chaos expansion, density with respect to the invariant measure) is not
    available."""
