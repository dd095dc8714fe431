"""Exception types shared across the package, each with the exit code
(exit_code) that cli.main returns for it."""


class Su11MetricError(Exception):
    """Base class for all library errors; exit code 2."""

    exit_code = 2


class InvalidParams(Su11MetricError):
    """A parameter set violates a documented constraint; exit code 2."""


class TrigRegime(Su11MetricError):
    """theta^2 = epsilon^2 - 4|eta|^2 is negative; the hyperbolic closed
    forms used for metric construction do not apply there.  Exit code 2."""


class DecompositionSingular(Su11MetricError):
    """A Gauss factorization pivot vanishes; exit code 2."""


class ZOutOfDomain(Su11MetricError):
    """The family parameter z lies outside the admissible set; exit code 2."""


class NoConvergence(Su11MetricError):
    """An eigensolve failed to converge, or a PDM grid's lowest levels
    cannot be certified; exit code 3."""

    exit_code = 3


class TruncationTooSmall(Su11MetricError):
    """The trusted block does not fit inside the truncated basis, or a
    chain of h is too short to certify its harmonic law (raise --size);
    exit code 3."""

    exit_code = 3
