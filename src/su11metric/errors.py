"""Exception types shared across the package."""


class Su11MetricError(Exception):
    """Base class for all library errors."""


class InvalidParams(Su11MetricError):
    """A parameter set violates a documented constraint."""


class TrigRegime(Su11MetricError):
    """theta^2 = epsilon^2 - 4|eta|^2 is negative; the hyperbolic closed
    forms used for metric construction do not apply there."""


class DecompositionSingular(Su11MetricError):
    """A Gauss factorization pivot vanishes."""


class ZOutOfDomain(Su11MetricError):
    """The family parameter z lies outside the admissible set."""


class NoConvergence(Su11MetricError):
    """An eigensolve failed to converge."""


class TruncationTooSmall(Su11MetricError):
    """The trusted block does not fit inside the truncated basis."""
