"""Exception types shared across the package."""


class CmpError(Exception):
    """Base class for all cmpbayes errors."""


class InvalidParamsError(CmpError, ValueError):
    """Parameter values outside the CMP family's domain."""


class TruncationError(CmpError, ArithmeticError):
    """Series term cap reached before the tail dropped below tolerance.

    Signals the near-geometric regime (small nu with lambda at or above 1)
    where the normalizing series diverges or decays too slowly to truncate.
    """


class NonpositiveDeterminantError(CmpError, ArithmeticError):
    """Fisher information determinant was not strictly positive.

    Reported rather than clamped: a nonpositive determinant means the
    Jeffreys density is undefined at that point.
    """


class EmptyDataError(CmpError, ValueError):
    """A dataset operation was given no observations."""


class DatasetParseError(CmpError, ValueError):
    """A dataset file could not be parsed; carries the offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class ImproperPosteriorError(CmpError, ValueError):
    """The requested posterior is improper; sampling is refused."""


class AllDivergentError(CmpError, RuntimeError):
    """Every post-warmup proposal of every chain was rejected: outside the support or non-finite."""


class ModeNotFoundError(AllDivergentError):
    """The sampler's mode search found no finite mode of the posterior.

    Raised before any draw, where the posterior has no mode the series can
    reach (say, counts near 10^6, whose posterior lies past e^709 in lambda),
    rather than sampling from a proposal with nothing to centre it on.
    """


class ZeroVarianceError(CmpError, ArithmeticError):
    """Chains are degenerate (zero within-chain variance); R-hat is undefined."""
