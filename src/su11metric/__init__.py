"""Metric operators for su(1,1) oscillator Hamiltonians.

Constructs the one-parameter family of positive-definite metric operators
zeta_+(z) = rho^2 for non-Hermitian Hamiltonians of the form
H = 2*omega*K0 + 2*alpha*Km + 2*beta*Kp, together with the equivalent
Hermitian Hamiltonian h = rho H rho^{-1} and the observable commuting
with rho, and verifies every algebraic identity numerically on truncated
matrix realizations.
"""

from .core import (AlgebraElement, Factorization, adjoint_matrix, conjugate,
                   defining_rep, disentangle_closed_form, exp_defining,
                   gauss_decompose, reconstruct_defining)
from .errors import (DecompositionSingular, InvalidParams, NoConvergence,
                     NotSymmetric, Su11MetricError, TrigRegime,
                     TruncationTooSmall, ZOutOfDomain)
from .metric import (MetricSolution, SwansonParams, commuting_observable,
                     conjugated_coeffs, hermitian_equivalent, is_admissible,
                     metric_exponent, mu_nu, power_base, solve_epsilon,
                     solve_metric, swanson_element, validate_params, z_domain)
from .pdm import (GridOperator, PdmConfig, PdmReport, pdm_generators,
                  pdm_spectrum, predicted_spectrum, run_pdm_check)
from .realizations import (RealizationMatrices, commutator_residuals, conformal,
                           discrete_series, from_descriptor, materialize,
                           multiboson, oscillator_full, oscillator_sector, radial,
                           radial_k0_grid, radial_k0_lowest, residue_matrix,
                           residue_root_of_unity)
from .verification import (OperatorBundle, build_bundle, eigvec_residuals,
                           exp_symmetric, materialize_metric_root,
                           metric_block_definite, spectrum_prediction,
                           symmetric_eigs)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "Factorization", "adjoint_matrix", "conjugate",
    "defining_rep", "disentangle_closed_form", "exp_defining",
    "gauss_decompose", "reconstruct_defining",
    "Su11MetricError", "InvalidParams", "TrigRegime", "DecompositionSingular",
    "ZOutOfDomain", "NotSymmetric", "NoConvergence", "TruncationTooSmall",
    "MetricSolution", "SwansonParams", "commuting_observable",
    "conjugated_coeffs", "hermitian_equivalent", "is_admissible",
    "metric_exponent", "mu_nu", "power_base", "solve_epsilon", "solve_metric",
    "swanson_element", "validate_params", "z_domain",
    "RealizationMatrices", "commutator_residuals", "conformal",
    "discrete_series", "from_descriptor", "materialize", "multiboson",
    "oscillator_full", "oscillator_sector", "radial", "radial_k0_grid",
    "radial_k0_lowest", "residue_matrix", "residue_root_of_unity",
    "OperatorBundle", "build_bundle", "eigvec_residuals", "exp_symmetric",
    "materialize_metric_root", "metric_block_definite", "spectrum_prediction",
    "symmetric_eigs",
    "GridOperator", "PdmConfig", "PdmReport", "pdm_generators",
    "pdm_spectrum", "predicted_spectrum", "run_pdm_check",
    "__version__",
]
