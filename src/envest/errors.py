"""Exception types raised across the package.

Everything derives from :class:`EnvestError` so callers can catch one base.
Input-validation failures additionally subclass ``ValueError``.
"""


class EnvestError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(EnvestError, ValueError):
    """An argument is malformed: of the wrong type or shape, non-finite, not
    symmetric, ...; ``convert`` holds the checks."""


class DimensionMismatch(InvalidInput):
    """Two arguments that must share a dimension do not."""


class InvalidDimension(InvalidInput):
    """A requested subspace dimension is out of range."""


class NotPositiveDefinite(EnvestError):
    """A matrix required to be positive definite is not.

    Carries the offending eigenvalue in ``eigenvalue`` when known.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class SingularGram(EnvestError):
    """A Gram matrix that must be invertible is singular to working precision."""


class NoConvergence(EnvestError):
    """The direction solver's winning start reached the iteration cap.

    The winner is the start with the lowest final D.  It converges when it
    meets the gradient criterion, when its Newton decrement falls below D's
    float64 resolution (``Resolved@k``) or when its line search finds no
    representable decrease (``Stalled@k``); CLI reports carry the message.

    Carries the winning iterate (``best``) and its smallest tangential
    gradient norm (``gradient_norm``).  When raised from the sequential fit
    it also carries the index of the failing step (``step_index``) and the
    fit of the directions accepted before it (``partial``).
    """

    def __init__(self, message, best=None, gradient_norm=None, step_index=None, partial=None):
        super().__init__(message)
        self.best = best
        self.gradient_norm = gradient_norm
        self.step_index = step_index
        self.partial = partial


class RankDeficientCandidates(EnvestError):
    """The eigenvector scan ran out of linearly independent candidates."""


class SingularCovariance(EnvestError):
    """A sample covariance block that must be invertible is singular."""


class InvalidUhat(EnvestError):
    """A constructed U-hat matrix has a materially negative eigenvalue."""


class AllFitsFailed(EnvestError):
    """Every candidate dimension failed during model selection."""


class BootstrapUnstable(EnvestError):
    """Too many bootstrap replicates failed to refit."""


class ParseError(EnvestError):
    """A CSV input could not be parsed; the message names row and column."""


class IoError(EnvestError):
    """A report or input file could not be read or written."""
