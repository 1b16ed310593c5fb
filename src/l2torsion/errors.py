"""Exception types shared across the library."""


class L2TorsionError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(L2TorsionError):
    """Morphism/object shapes are incompatible."""


class BackendMismatchError(L2TorsionError):
    """Operands live over different category backends."""


class NotSelfAdjointError(L2TorsionError):
    """Operator fails the self-adjointness check."""


class NotAChainComplexError(L2TorsionError):
    """Differentials do not satisfy d^2 = 0 within tolerance."""


class NotExactError(L2TorsionError):
    """A sequence claimed exact fails the numerical exactness test."""


class NotAcyclicError(L2TorsionError):
    """Complex has nontrivial cohomology where acyclicity is required."""


class NotAnIsomorphismError(L2TorsionError):
    """Morphism of extended objects is not an isomorphism (cone not acyclic)."""


class NotAChainMapError(L2TorsionError):
    """Map between complexes does not commute with the differentials."""


class NoCanonicalElementError(L2TorsionError):
    """Torsion object is not tau-trivial; its line has no canonical element."""


class InconclusiveVerdictError(L2TorsionError):
    """A spectral verdict was Inconclusive where a definite answer is needed."""


class NotUnimodularError(L2TorsionError):
    """Representation fails the unimodularity requirement."""


class UnsupportedCellError(L2TorsionError):
    """Requested cell operation is outside the supported complex family."""


class InputValidationError(L2TorsionError):
    """Malformed input file or configuration."""
