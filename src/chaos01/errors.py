"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`Chaos01Error`, so callers
can catch one base class at an API boundary.  Parameter problems also derive
from ``ValueError`` to stay friendly to generic validation code.
"""


class Chaos01Error(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(Chaos01Error, ValueError):
    """An argument is outside its documented domain."""


class AliasingError(InvalidParameterError):
    """A requested tone would violate the Nyquist limit for the sample rate."""


class SeriesTooShortError(Chaos01Error):
    """The series has too few samples for the requested analysis."""


class AllDegenerateError(Chaos01Error):
    """Every probed frequency produced a degenerate growth rate.

    This happens for identically-flat inputs, where no displacement is
    accumulated at any frequency and no statistic can be formed.
    """


class PathOverflowError(Chaos01Error):
    """The translation path of a series leaves the float range.

    Its running sums pass the largest float, so the trajectory has no finite
    value to return.  ``run_test`` is not affected: it scales the samples
    first, and its growth rates do not depend on their scale.
    """


class DivergenceError(Chaos01Error):
    """A map iteration left the basin of attraction and blew up."""


class SeriesFormatError(Chaos01Error):
    """An input file does not parse under the declared format.

    Attributes
    ----------
    line : int or None
        1-based line number of the offending record, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonUniformSamplingError(SeriesFormatError):
    """Timestamps in a two-column file are not evenly spaced."""


class MissingSampleRateError(Chaos01Error):
    """The operation needs a sample rate but the series does not carry one."""
