"""Exception hierarchy shared by all vacpol modules."""


class VacpolError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(VacpolError, ValueError):
    """Invalid input: domain violation, malformed boundary condition, or a
    boundary-condition family that does not yield a positive operator."""


class PoleError(ParameterError):
    """The regulator sits on a pole of the meromorphic continuation.

    Attributes
    ----------
    pole : float
        Location of the offending pole on the real regulator axis.
    """

    def __init__(self, message, pole):
        super().__init__(message)
        self.pole = pole


class InfraredDivergenceError(VacpolError):
    """The massless observable diverges in the infrared for these boundary
    conditions (low space dimension)."""


class NumericalFailureError(VacpolError):
    """A quadrature, a fit or a cancellation between parts could not reach
    the requested accuracy.

    Attributes
    ----------
    best_estimate : float
        The most accurate value obtained before giving up.
    error_bound : float
        Estimated absolute error of ``best_estimate``.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound

