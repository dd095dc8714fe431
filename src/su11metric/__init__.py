"""Metric operators for su(1,1) oscillator Hamiltonians.

Constructs the one-parameter family of positive-definite metric operators
zeta_+(z) = rho^2 for non-Hermitian Hamiltonians of the form
H = 2*omega*K0 + 2*alpha*Km + 2*beta*Kp, together with the equivalent
Hermitian Hamiltonian h = rho H rho^{-1} and the observable commuting
with rho, and verifies every algebraic identity numerically on truncated
matrix realizations.
"""

from .core import (AlgebraElement, Factorization, adjoint_matrix, conjugate,
                   disentangle_closed_form)
from .errors import (DecompositionSingular, InvalidParams, NoConvergence,
                     Su11MetricError, TrigRegime, TruncationTooSmall,
                     ZOutOfDomain)
from .metric import (MetricSolution, SwansonParams, commuting_observable,
                     conjugated_coeffs, is_admissible, solve_metric,
                     spectrum_prediction, swanson_element, validate_params,
                     z_domain)


def __getattr__(name):
    """The matrix layer's public names (numpy), imported on first access (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import realizations, verification
    return globals().setdefault(
        name, getattr(realizations, name, None) or getattr(verification, name))


__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "Factorization", "adjoint_matrix", "conjugate",
    "disentangle_closed_form",
    "Su11MetricError", "InvalidParams", "TrigRegime", "DecompositionSingular",
    "ZOutOfDomain", "NoConvergence", "TruncationTooSmall",
    "MetricSolution", "SwansonParams", "commuting_observable",
    "conjugated_coeffs", "is_admissible", "solve_metric", "swanson_element",
    "validate_params", "z_domain",
    "RealizationMatrices", "conformal", "discrete_series", "from_descriptor",
    "multiboson", "oscillator_full", "oscillator_sector", "radial",
    "OperatorBundle", "build_bundle", "materialize_metric_root",
    "spectrum_prediction",
    "__version__",
]
