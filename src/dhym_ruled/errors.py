"""Exception hierarchy shared by all solver and oracle modules."""


class DhymRuledError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DhymRuledError, ValueError):
    """Invalid input parameters (wrong sign, out of range, ...)."""


class DegenerateClassError(ValidationError):
    """Bundle class with k1 = 0 or k2 = 0: the solvers divide by both."""


class DegeneratePhaseError(DhymRuledError):
    """The phase numerator vanishes, or sin(theta) = 0 where 1/sin is needed."""


class NoSolutionError(DhymRuledError):
    """The stability inequality fails, so no solution exists.

    Carries the offending margin value.
    """

    def __init__(self, margin, message=None):
        self.margin = margin
        super().__init__(message or f"unstable class: stability margin = {margin!r}")


class DomainError(DhymRuledError, ValueError):
    """Evaluation point outside the profile interval."""


class PoleError(DhymRuledError):
    """Evaluation at (or too close to) a pole of a rational expression."""


class IntegrationError(DhymRuledError):
    """ODE integration or quadrature failed; carries the failure location."""

    def __init__(self, message, location=None, estimate=None):
        self.location = location
        self.estimate = estimate
        super().__init__(message)


class PositivityError(DhymRuledError):
    """A quantity required to be positive was found non-positive."""


class TkeNotFoundError(DhymRuledError):
    """No cone angle in (0, 1) realizes the twisted Kaehler-Einstein reduction.

    ``attained`` is the interval of values attained by the matching function
    on the searched cone-angle range.
    """

    def __init__(self, f_value, attained, message=None):
        self.f_value = f_value
        self.attained = attained
        super().__init__(
            message
            or f"target {f_value!r} not attained; range over (0,1) is {attained!r}"
        )
