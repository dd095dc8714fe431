"""The z-parameterized family of metric solutions.

For H = 2*omega*K0 + 2*alpha*Km + 2*beta*Kp with alpha != beta and
omega**2 - 4*alpha*beta > 0, a one-parameter family of Hermitian
exponents A(z) = 2*eps*K0 + 2*eta*(Km + Kp), z in [-1, 1], makes
h = rho H rho^{-1} Hermitian for rho = exp(A).  This module solves the
Hermiticity condition for eps(z) (eta = z*eps/2), evaluates the
conjugated coefficients (U, V, W), the oscillator weights (mu, nu) of h,
the positive base Lambda of the power form of rho, and the commuting
observable fixed by rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AlgebraElement, adjoint_matrix, conjugate
from .errors import InvalidParams, ZOutOfDomain

# mu, nu and the power base are only reported at least this far from
# |z| = 1; the endpoint Hamiltonian is assembled by conjugation.
_EDGE = 1e-9


@dataclass(frozen=True)
class SwansonParams:
    """Oscillator frequency and the two non-Hermitian couplings."""

    omega: float
    alpha: float
    beta: float


@dataclass(frozen=True)
class MetricSolution:
    """All derived quantities of the metric family at one (params, z)."""

    params: SwansonParams
    z: float
    epsilon: float
    eta: float
    theta: float
    mu: float
    nu: float
    lambda_base: float
    u: float
    v: float
    w: float


def validate_params(p: SwansonParams) -> SwansonParams:
    """Check the constraints that keep the spectrum real and the family
    nontrivial; returns the parameters unchanged when valid."""
    if not (p.omega > 0.0):
        raise InvalidParams(f"omega must be positive (got omega = {p.omega:g})")
    if p.alpha == p.beta:
        raise InvalidParams(
            f"alpha and beta must differ (got alpha = beta = {p.alpha:g})")
    gap = p.omega * p.omega - 4.0 * p.alpha * p.beta
    if not (gap > 0.0):
        raise InvalidParams(
            f"omega^2 - 4*alpha*beta must be positive (got {gap:g})")
    return p


def swanson_element(p: SwansonParams) -> AlgebraElement:
    """H as an algebra element: (2*omega, 2*alpha, 2*beta)."""
    return AlgebraElement(2.0 * p.omega, 2.0 * p.alpha, 2.0 * p.beta)


def _stability_coeffs(p: SwansonParams) -> tuple[float, float, float]:
    """(a, b, c) of the stability polynomial a z^2 + b z + c."""
    a = p.omega * p.omega + (p.alpha - p.beta) ** 2
    b = -2.0 * (p.alpha + p.beta) * p.omega
    c = 4.0 * p.alpha * p.beta
    return a, b, c


def _stability_poly(p: SwansonParams, z: float) -> float:
    """(alpha+beta-omega*z)**2 - (alpha-beta)**2 (1-z**2), expanded.

    Positive exactly where the arctanh argument of eps(z) has modulus
    below one (equivalently where the mu/nu square root is real).
    """
    a, b, c = _stability_coeffs(p)
    return (a * z + b) * z + c


def _log_power_base(p: SwansonParams, z: float) -> tuple[float, float]:
    """(ln Lambda, Lambda), Lambda = (den + s) / (den - s) for s = (alpha-beta)
    sqrt(1-z^2) and den = alpha+beta-omega*z.  With big = |den| + |s| and the
    stability polynomial P = den^2 - s^2 = (|den| - |s|) big > 0, nothing
    cancels in ln Lambda = +-log1p(2 |s| big / P), Lambda = (big^2 / P)^(+-1)."""
    s = (p.alpha - p.beta) * math.sqrt(1.0 - z * z)
    den = p.alpha + p.beta - z * p.omega
    poly = _stability_poly(p, z)
    if poly <= 0.0:
        raise ZOutOfDomain(
            f"z = {z:g} is inadmissible: |arctanh argument| >= 1 "
            f"(alpha + beta - omega*z = {den:g})")
    big = abs(den) + abs(s)
    log_lam = math.log1p(2.0 * abs(s) * big / poly)
    if (s > 0.0) == (den > 0.0):
        return log_lam, big * big / poly
    return -log_lam, poly / (big * big)


def is_admissible(p: SwansonParams, z: float) -> bool:
    """True when z in [-1, 1] gives a finite real solution eps(z)."""
    validate_params(p)
    if abs(z) > 1.0:
        return False
    return _stability_poly(p, z) > 0.0


def z_domain(p: SwansonParams) -> list[tuple[float, float]]:
    """Admissible subset of [-1, 1] as a list of intervals.

    The excluded set is the closed band between the two real roots of the
    stability polynomial (the discriminant (alpha-beta)**2 (omega**2 -
    4 alpha beta) is positive for valid parameters).  Interval endpoints
    are the closure; use is_admissible for the strict pointwise test
    (relevant only at z = +-1 when omega = -+(alpha+beta)).
    """
    validate_params(p)
    a, b, c = _stability_coeffs(p)
    disc = b * b - 4.0 * a * c
    root = math.sqrt(disc)
    z1 = (-b - root) / (2.0 * a)
    z2 = (-b + root) / (2.0 * a)
    intervals = []
    if min(z1, 1.0) > -1.0:
        intervals.append((-1.0, min(z1, 1.0)))
    if max(z2, -1.0) < 1.0:
        intervals.append((max(z2, -1.0), 1.0))
    return intervals


def solve_epsilon(p: SwansonParams, z: float) -> float:
    """Scale eps of the metric exponent at family parameter z.

        eps = arctanh( (alpha-beta)*sqrt(1-z^2) / (alpha+beta-z*omega) )
              / (2*sqrt(1-z^2))

    on the principal real branch; at |z| = 1 the analytic limit
    (alpha-beta) / (2*(alpha+beta-z*omega)) is returned.  Computed as
    ln(Lambda) / (4*sqrt(1-z^2)), so an argument rounding to +-1 is harmless.
    """
    validate_params(p)
    if abs(z) > 1.0:
        raise ZOutOfDomain(f"z must lie in [-1, 1] (got z = {z:g})")
    if abs(z) == 1.0:
        den = p.alpha + p.beta - z * p.omega
        if den == 0.0:
            raise ZOutOfDomain(
                f"alpha + beta - omega*z vanishes at z = {z:g}")
        return (p.alpha - p.beta) / (2.0 * den)
    return _log_power_base(p, z)[0] / (4.0 * math.sqrt(1.0 - z * z))


def conjugated_coeffs(p: SwansonParams, epsilon: float,
                      eta: complex) -> tuple[complex, complex, complex]:
    """(U, V, W) with rho H rho^{-1} = 2U K0 + 2V Km + 2W Kp.

    The adjoint action of rho on (omega, alpha, beta); for eps solved by
    solve_epsilon (and eta = z*eps/2 real) U is real and W equals V.
    """
    validate_params(p)
    u, v, w = adjoint_matrix(epsilon, eta) @ (p.omega, p.alpha, p.beta)
    return complex(u), complex(v), complex(w)


def mu_nu(p: SwansonParams, z: float) -> tuple[float, float]:
    """Oscillator weights (mu, nu) of the Hermitian equivalent.

    mu scales the (2K0 - Kp - Km) part and nu the (2K0 + Kp + Km) part of
    2*omega*h.  Their product equals omega**2 - 4*alpha*beta for every
    admissible z.  mu = (g - term) / ((1 + z) omega) is 0/0 at z = -1 and
    nu = omega (g + term) / (1 - z) at z = +1; there the product law
    (g - term)(g + term) = (1 - z^2)(omega^2 - 4 alpha beta) replaces the
    cancelling factor.  Both are refused within 1e-9 of the endpoints.
    """
    validate_params(p)
    if abs(z) >= 1.0 - _EDGE:
        raise ZOutOfDomain(
            f"mu/nu formulas degenerate at |z| = 1 (got z = {z:g}); "
            "assemble the endpoint Hamiltonian by conjugation instead")
    if _stability_poly(p, z) <= 0.0:
        raise ZOutOfDomain(f"z = {z:g} is inadmissible")
    den = p.alpha + p.beta - z * p.omega
    diff = p.alpha - p.beta
    s = math.sqrt(1.0 - diff * diff * (1.0 - z * z) / (den * den))
    term = den * s
    g = p.omega - (p.alpha + p.beta) * z
    gap = p.omega * p.omega - 4.0 * p.alpha * p.beta
    if z >= 0.0:
        mu = (g - term) / ((1.0 + z) * p.omega)
        nu = p.omega * (1.0 + z) * gap / (g - term)
    else:
        mu = (1.0 - z) * gap / (p.omega * (g + term))
        nu = p.omega * (g + term) / (1.0 - z)
    return mu, nu


def hermitian_equivalent(p: SwansonParams, z: float) -> AlgebraElement:
    """Coefficients of h = rho H rho^{-1}, exactly symmetric in Kp/Km.

    Away from the endpoints h = ((nu + mu*omega^2)/omega) K0
    + ((nu - mu*omega^2)/(2*omega)) (Km + Kp), which shares no code with
    the adjoint closed form that build_bundle's r_eq10 compares it with.
    Within 1e-9 of |z| = 1 it is the Hermitian part of that conjugation.
    """
    if abs(z) < 1.0 - _EDGE:
        mu, nu = mu_nu(p, z)
        c0 = (nu + mu * p.omega * p.omega) / p.omega
        c = (nu - mu * p.omega * p.omega) / (2.0 * p.omega)
        return AlgebraElement(c0, c, c)
    conj = conjugate(metric_exponent(p, z), swanson_element(p))
    c0 = complex(conj.c0).real
    c = (complex(conj.cm) + complex(conj.cp)).real / 2.0
    return AlgebraElement(c0, c, c)


def metric_exponent(p: SwansonParams, z: float) -> AlgebraElement:
    """Exponent A with rho = exp(A): A = eps * (2 K0 + z Km + z Kp).

    A is proportional to the commuting observable, so [rho, O] = 0 holds
    at the coefficient level.
    """
    eps = solve_epsilon(p, z)
    return AlgebraElement(2.0 * eps, z * eps, z * eps)


def power_base(p: SwansonParams, z: float) -> float:
    """Positive base Lambda of the power form of rho.

    rho = Lambda ** (O / (4*sqrt(1-z^2))) with

        Lambda = (alpha+beta-omega*z + (alpha-beta)*sqrt(1-z^2))
               / (alpha+beta-omega*z - (alpha-beta)*sqrt(1-z^2)),

    equivalent to eps = ln(Lambda) / (4*sqrt(1-z^2)); degenerate (0/0)
    at |z| = 1.
    """
    validate_params(p)
    if abs(z) >= 1.0 - _EDGE:
        raise ZOutOfDomain(f"power base degenerates at |z| = 1 (got z = {z:g})")
    return _log_power_base(p, z)[1]


def commuting_observable(z: float) -> AlgebraElement:
    """O = 2 K0 + z (Kp + Km); Hermitian for real z, |z| <= 1."""
    if abs(z) > 1.0:
        raise InvalidParams(f"observable parameter z must lie in [-1, 1] (got {z:g})")
    return AlgebraElement(2.0, z, z)


def solve_metric(p: SwansonParams, z: float) -> MetricSolution:
    """Solve the full family at one z away from the endpoints."""
    eps = solve_epsilon(p, z)
    eta = z * eps / 2.0
    theta = abs(eps) * math.sqrt(max(0.0, 1.0 - z * z))
    mu, nu = mu_nu(p, z)
    lam = power_base(p, z)
    u, v, w = conjugated_coeffs(p, eps, eta)
    return MetricSolution(params=p, z=z, epsilon=eps, eta=eta, theta=theta,
                          mu=mu, nu=nu, lambda_base=lam,
                          u=u.real, v=v.real, w=w.real)
