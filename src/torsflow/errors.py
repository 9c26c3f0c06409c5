"""Exception hierarchy shared by all torsflow modules."""

__all__ = [
    "AssumptionViolated", "BasisMismatch", "FastPathUnavailable", "IllegalConnection", "InvalidCW",
    "InvalidFiltration", "InvalidInput", "ModelOrderError", "NotAComplex", "NotExact", "ParseError",
    "TorsflowError", "TorsionError"
]


class TorsflowError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(TorsflowError):
    """Malformed numeric input: non-finite entries, bad shapes, bad parameters."""


class BasisMismatch(TorsflowError):
    """Supplied kernel / cokernel / cohomology bases do not span what they should."""


class NotAComplex(TorsflowError):
    """A differential fails d*d = 0 beyond tolerance."""


class NotExact(TorsflowError):
    """A claimed short exact sequence is not exact degreewise."""


class InvalidFiltration(TorsflowError):
    """A filtration is not decreasing, not coordinate-spanned, or not d-stable."""


class ModelOrderError(TorsflowError):
    """Critical blocks are not listed in the min/saddle/max tier order."""


class AssumptionViolated(TorsflowError):
    """Gradient connection between two saddle circles."""


class IllegalConnection(TorsflowError):
    """Gradient connection between a point pair no differential component may use."""


class FastPathUnavailable(TorsflowError):
    """Determinant-product shortcut requested for a model it does not cover."""


class InvalidCW(TorsflowError):
    """CW data whose twisted boundary fails del*del = 0, or structurally broken."""


class TorsionError(TorsflowError):
    """Internal consistency check of a torsion computation failed."""


class ParseError(TorsflowError):
    """Input document could not be read or does not match the schema."""
