"""Position-dependent-mass realization on a finite-difference grid.

The generating function g(x) = -exp(-s*x)/s turns the oscillator ladder
operators into first-order differential operators with an exponentially
varying mass.  The Hermitian equivalent then reads

    h = -1/2 d/dx (1/m(x)) d/dx + V_eff(x)
    m(x) = exp(-2*s*x) / (2*mu*omega)
    V_eff(x) = -(3/4)*mu*omega*s^2*exp(2*s*x)
               + (nu/omega) * (-exp(-s*x)/(2*s) + tau)^2

whose low spectrum must follow sqrt(omega^2 - 4*alpha*beta) * (m + 1/2).
The operators live on the full line; here Dirichlet walls are imposed far
enough out that the low eigenfunctions decay below a threshold at both
walls, and a run whose decay check fails is reported INCONCLUSIVE rather
than passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import InvalidParams
from .metric import SwansonParams, mu_nu, validate_params
from .realizations import dense_from_bands

DECAY_TOL = 1e-8


@dataclass(frozen=True)
class PdmConfig:
    """Grid and model configuration for the exponential-mass realization."""

    params: SwansonParams
    z: float = 0.0
    s: float = 0.5
    tau: float = 3.0
    x_min: float = -4.0
    x_max: float = 14.0
    points: int = 2000


@dataclass
class GridOperator:
    """Dense finite-difference operator on the interior grid nodes."""

    matrix: np.ndarray
    grid: np.ndarray
    dx: float


@dataclass
class PdmReport:
    """Outcome of the spectral check with its refinement protocol."""

    config: PdmConfig
    points_used: tuple[int, ...]
    eigenvalues: np.ndarray
    predicted: np.ndarray
    rel_errors: np.ndarray
    refine_table: dict[int, np.ndarray] = field(default_factory=dict)
    convergence_ok: bool = False
    boundary_decay: float = float("nan")
    status: str = "FAIL"


def validate_config(cfg: PdmConfig) -> PdmConfig:
    validate_params(cfg.params)
    if not (cfg.s > 0.0):
        raise InvalidParams(f"mass exponent s must be positive (got {cfg.s:g})")
    if not (cfg.x_min < cfg.x_max):
        raise InvalidParams("x_min must be below x_max")
    if cfg.points < 100:
        raise InvalidParams(f"need at least 100 grid points (got {cfg.points})")
    return cfg


def _interior_grid(cfg: PdmConfig) -> tuple[np.ndarray, float]:
    dx = (cfg.x_max - cfg.x_min) / (cfg.points + 1)
    x = cfg.x_min + dx * np.arange(1, cfg.points + 1)
    return x, dx


def mass_profile(cfg: PdmConfig, x: np.ndarray) -> np.ndarray:
    """m(x) = exp(-2 s x) / (2 mu omega); positive on any grid."""
    mu, _ = mu_nu(cfg.params, cfg.z)
    if mu <= 0.0:
        raise InvalidParams(f"mass prefactor requires mu > 0 (got mu = {mu:g})")
    return np.exp(-2.0 * cfg.s * x) / (2.0 * mu * cfg.params.omega)


def effective_potential(cfg: PdmConfig, x: np.ndarray) -> np.ndarray:
    mu, nu = mu_nu(cfg.params, cfg.z)
    om = cfg.params.omega
    well = -np.exp(-cfg.s * x) / (2.0 * cfg.s) + cfg.tau
    v = -0.75 * mu * om * cfg.s ** 2 * np.exp(2.0 * cfg.s * x) + (nu / om) * well ** 2
    if not np.isfinite(v).all():
        raise InvalidParams("effective potential is not finite on the grid; "
                            "shrink the domain or the exponent s")
    return v


def _h_tridiag(cfg: PdmConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Diagonal and offdiagonal of the flux-form discretization.

    (T u)_i = -1/2 [ (u_{i+1}-u_i)/(m_{i+1/2} dx^2)
                     - (u_i-u_{i-1})/(m_{i-1/2} dx^2) ]  + V_i u_i

    with Dirichlet conditions at both walls; symmetric by construction.
    """
    validate_config(cfg)
    x, dx = _interior_grid(cfg)
    m_right = mass_profile(cfg, x + dx / 2.0)
    m_left = mass_profile(cfg, x - dx / 2.0)
    w_right = 1.0 / (2.0 * m_right * dx * dx)
    w_left = 1.0 / (2.0 * m_left * dx * dx)
    diag = w_right + w_left + effective_potential(cfg, x)
    off = -w_right[:-1]
    return diag, off, x, dx


def pdm_spectrum(cfg: PdmConfig, count: int = 3,
                 vectors: bool = False):
    """Lowest eigenvalues (and optionally eigenvectors) of the grid h."""
    diag, off, _, _ = _h_tridiag(cfg)
    if vectors:
        return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


def predicted_spectrum(p: SwansonParams, count: int = 3) -> np.ndarray:
    """Full-line law sqrt(omega^2 - 4*alpha*beta) * (m + 1/2).

    The exponential-mass realization carries the whole one-boson algebra
    (both parity sectors), hence the half-integer ladder.
    """
    validate_params(p)
    freq = np.sqrt(p.omega ** 2 - 4.0 * p.alpha * p.beta)
    return freq * (np.arange(count) + 0.5)


def boundary_decay(cfg: PdmConfig, count: int = 3) -> float:
    """Largest relative wall amplitude among the lowest eigenfunctions."""
    _, vecs = pdm_spectrum(cfg, count=count, vectors=True)
    worst = 0.0
    for i in range(vecs.shape[1]):
        v = np.abs(vecs[:, i])
        worst = max(worst, max(v[0], v[-1]) / v.max())
    return worst


def run_pdm_check(cfg: PdmConfig, count: int = 3, rtol: float = 0.01,
                  decay_tol: float = DECAY_TOL,
                  refine: tuple[int, ...] = (4, 2, 1)) -> PdmReport:
    """Run the documented refinement protocol and classify the outcome.

    The grid is solved at cfg.points divided by each refinement factor
    (coarse to fine); successive eigenvalue changes must shrink by at
    least 2x (or sit below an absolute floor), the finest eigenvalues
    must match the algebraic law within rtol, and the lowest
    eigenfunctions must decay below decay_tol at both walls.  A failed
    decay check yields INCONCLUSIVE regardless of the spectral match.
    """
    validate_config(cfg)
    points_used = tuple(max(100, cfg.points // f) for f in sorted(refine, reverse=True))
    refine_table: dict[int, np.ndarray] = {}
    for pts in points_used:
        refine_table[pts] = np.asarray(pdm_spectrum(replace(cfg, points=pts), count=count))

    levels = [refine_table[pts] for pts in points_used]
    convergence_ok = True
    for a, b, c in zip(levels, levels[1:], levels[2:]):
        d_coarse = np.abs(b - a)
        d_fine = np.abs(c - b)
        if not np.all(d_fine <= np.maximum(0.5 * d_coarse, 1e-10)):
            convergence_ok = False

    finest = levels[-1]
    predicted = predicted_spectrum(cfg.params, count=count)
    rel_errors = np.abs(finest - predicted) / np.abs(predicted)
    decay = boundary_decay(replace(cfg, points=points_used[-1]), count=count)

    if decay > decay_tol:
        status = "INCONCLUSIVE"
    elif np.all(rel_errors <= rtol) and convergence_ok:
        status = "PASS"
    else:
        status = "FAIL"
    return PdmReport(config=cfg, points_used=points_used, eigenvalues=finest,
                     predicted=predicted, rel_errors=rel_errors,
                     refine_table=refine_table, convergence_ok=convergence_ok,
                     boundary_decay=decay, status=status)


def pdm_generators(cfg: PdmConfig) -> tuple[GridOperator, GridOperator, GridOperator]:
    """Finite-difference (K0, Kp, Km) built from the generating function.

    K0 = 1/2 [ -d/dx (1/g'^2) d/dx + g'''/(2 g'^3) - (5/4) g''^2/g'^4
               + (g/2 + tau)^2 ]
    K+- = 1/2 [ +d/dx (1/g'^2) d/dx -+ (1/g')(g + 2 tau) d/dx
                - g'''/(2 g'^3) + (5/4) g''^2/g'^4
                +- (g''/g'^2)(g/2 + tau) + (g/2 + tau)^2 -+ 1/2 ]

    K0 is discretized with the symmetric flux stencil; the first-order
    terms use central differences, so discrete adjointness of Kp and Km
    holds only up to the grid resolution (checked under refinement).
    """
    validate_config(cfg)
    x, dx = _interior_grid(cfg)
    s = cfg.s
    e = np.exp(-s * x)
    g, gp, gpp, gppp = -e / s, e, -s * e, s * s * e
    half_g_tau = 0.5 * g + cfg.tau

    # flux operator F = -d/dx (1/g'^2) d/dx: f_diag, and -w on both sides
    w_right = np.exp(2.0 * s * (x + dx / 2.0)) / (dx * dx)
    f_diag = w_right + np.exp(2.0 * s * (x - dx / 2.0)) / (dx * dx)
    w = w_right[:-1]

    curv = gppp / (2.0 * gp ** 3) - 1.25 * gpp ** 2 / gp ** 4
    # drift times the central difference: +-step[i] on node i's neighbors
    step = ((g + 2.0 * cfg.tau) / gp) * (1.0 / (2.0 * dx))
    tilt = (gpp / gp ** 2) * half_g_tau

    def grid_op(lower, main, upper):
        return GridOperator(dense_from_bands(len(x), {-1: lower, 0: main, 1: upper}),
                            x, dx)

    return (grid_op(-0.5 * w, 0.5 * (f_diag + (curv + half_g_tau ** 2)), -0.5 * w),
            grid_op(0.5 * (w + step[1:]),
                    0.5 * (-f_diag + (-curv + tilt + half_g_tau ** 2 - 0.5)),
                    0.5 * (w - step[:-1])),
            grid_op(0.5 * (w - step[1:]),
                    0.5 * (-f_diag + (-curv - tilt + half_g_tau ** 2 + 0.5)),
                    0.5 * (w + step[:-1])))
