"""Exception hierarchy shared across the package."""


class KLStabError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateLeadingCoefficient(KLStabError):
    """Leading polynomial coefficient is below the trim tolerance."""


class InvalidOrder(KLStabError):
    """Boundary construction called with inconsistent order parameters."""


class RootAtZero(KLStabError):
    """A characteristic root sits at the origin, so negative powers are undefined."""


class OriginOnCurve(KLStabError):
    """The sampled curve passes through the origin; the winding index is undefined.

    Carries the partial :class:`~klstab.winding.WindingResult` in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class RefinementBudgetExceeded(KLStabError):
    """Adaptive curve refinement did not converge within its evaluation budget."""


class IllConditionedKernel(KLStabError):
    """The null space of the boundary operator is ambiguous at tolerance."""
