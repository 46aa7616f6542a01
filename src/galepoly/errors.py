"""Exception types shared across the package."""


class GalepolyError(Exception):
    """Base class for all package-specific errors."""


class BadParametersError(GalepolyError, ValueError):
    """Arguments violate a documented precondition."""


class DimensionMismatchError(GalepolyError, ValueError):
    """Vectors or points of inconsistent ambient dimension."""


class EmptySelectionError(GalepolyError, ValueError):
    """An operation that needs a nonempty index selection received none."""


class DegenerateInputError(GalepolyError, ValueError):
    """Input points do not affinely span their ambient space."""


class NotTwoSpanningError(GalepolyError, ValueError):
    """A Gale operation requires a positively 2-spanning configuration."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnknownVertexError(GalepolyError, KeyError):
    """A vertex label does not occur in the polytope."""


class NotAFacetError(GalepolyError, ValueError):
    """The given vertex set is not a facet of the polytope."""


class NotASimplexFacetError(GalepolyError, ValueError):
    """Stacking requires a facet with exactly d vertices."""


class TooLargeForBruteForceError(GalepolyError, ValueError):
    """The polytope exceeds the brute-force vertex cap."""

    def __init__(self, message, cap=None):
        super().__init__(message)
        self.cap = cap


class NoEpsilonFoundError(GalepolyError, RuntimeError):
    """Apex placement failed to find a valid height within the halving budget."""


class NoCoverFoundError(GalepolyError, RuntimeError):
    """No admissible family of facet complements covers all vertices."""


class CheckFailedError(GalepolyError, RuntimeError):
    """A construction check came back false; carries the full result."""

    def __init__(self, check, result=None):
        super().__init__(f"construction check failed: {check}")
        self.check = check
        self.result = result


class CertificateError(GalepolyError, RuntimeError):
    """A computed certificate failed its re-check by direct arithmetic."""


class SchemaError(GalepolyError, ValueError):
    """A JSON document does not match any supported schema."""
