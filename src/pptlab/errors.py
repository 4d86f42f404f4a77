"""Exception types shared across the package."""


class PptlabError(Exception):
    """Base class for all package-specific errors."""


class NotHermitian(PptlabError):
    """A matrix expected to be Hermitian is not, exactly."""


class NotPsd(PptlabError):
    """A matrix expected to be positive semidefinite is not, exactly."""


class NotPPT(PptlabError):
    """A state expected to have a positive partial transpose does not."""


class RangeViolation(PptlabError):
    """A vector or operator falls outside the required range."""


class DimensionMismatch(PptlabError):
    """Operands live in incompatible spaces."""


class BoundsViolation(PptlabError):
    """An index or grid site lies outside the allowed bounds."""


class PreconditionViolation(PptlabError):
    """A documented precondition failed; the message names the condition."""


class DecompositionMismatch(PptlabError):
    """A claimed conic decomposition does not reproduce its target."""


class NotARealRangeBasis(PptlabError):
    """A named range basis is not one: its vectors are not real, or the
    edges it names are not a basis of the range."""


class InvalidK(PptlabError):
    """Family parameter k is out of range."""


class ConvergenceFailure(PptlabError):
    """An iterative numerical method did not reach its tolerance."""


class RankAmbiguity(PptlabError):
    """Floating-point rank decision is ambiguous near the tolerance."""


class MonomialOverflow(PptlabError):
    """A monomial degree exceeds the packed-monomial field width of its ring."""


class ScalarTooLarge(PptlabError):
    """An exact scalar has a part longer than Python converts to decimal text."""


class InternalInconsistency(PptlabError):
    """A computed result failed its own replay check: a defect, not bad input."""


class CriterionFailed(PptlabError):
    """An acceptance criterion's claim does not hold."""
