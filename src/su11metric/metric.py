"""The z-parameterized family of metric solutions.

For H = 2*omega*K0 + 2*alpha*Km + 2*beta*Kp with alpha != beta and
omega**2 - 4*alpha*beta > 0, a one-parameter family of Hermitian
exponents A(z) = 2*eps*K0 + 2*eta*(Km + Kp), z in [-1, 1], makes
h = rho H rho^{-1} Hermitian for rho = exp(A).  solve_metric solves the
Hermiticity condition for eps(z) (eta = z*eps/2) once per (p, z) and
returns every quantity built on it in one MetricSolution record: the
conjugated coefficients (U, V, W), the oscillator weights (mu, nu) and
the coefficients of h, and the positive base Lambda of the power form of
rho.  commuting_observable gives the observable fixed by rho.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import AlgebraElement, _mat_vec, adjoint_matrix
from .errors import InvalidParams, ZOutOfDomain


class SwansonParams(NamedTuple):
    """Oscillator frequency and the two non-Hermitian couplings."""

    omega: float
    alpha: float
    beta: float


class MetricSolution(NamedTuple):
    """All derived quantities of the metric family at one admissible
    (params, z), |z| = 1 included; den = alpha + beta - omega z and s =
    (alpha-beta) sqrt(1-z^2).

    epsilon: eps = arctanh(s / den) / (2 sqrt(1-z^2)) on the principal real
        branch, taken as ln(Lambda) / (4 sqrt(1-z^2)), exact to rounding
        next to a root; at |z| = 1 its limit (alpha-beta) / (2 den).
    eta: z eps / 2.  The exponent of rho = exp(A) is A = 2 eps K0 + 2 eta
        (Km + Kp) = eps (2 K0 + z Km + z Kp), proportional to the
        commuting observable O, so [rho, O] = 0 at the coefficient level.
    theta: |eps| sqrt(1-z^2).
    mu, nu: the oscillator weights of h, 2 omega h = nu (2K0 + Kp + Km) +
        mu omega^2 (2K0 - Kp - Km), with mu nu = omega^2 - 4 alpha beta.
    lambda_base: the positive base Lambda of rho = Lambda^(O / (4
        sqrt(1-z^2))), Lambda = (den + s) / (den - s).  At |z| = 1 it takes
        its limit 1; it is eps's form that is 0/0 there, not Lambda's.
    u, v, w: rho H rho^{-1} = 2u K0 + 2v Km + 2w Kp, the adjoint action of
        rho on (omega, alpha, beta); Hermitian means w = v.
    c0, c: h = rho H rho^{-1} = c0 K0 + c (Km + Kp), exactly symmetric,
        c0 = (nu + mu omega^2) / omega, from _weights: no code shared with
        the adjoint form (u, v, w) that build_bundle's r_eq10 compares it with.
    gap: omega^2 - 4 alpha beta as _exact rounds it once.
    """

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
    c0: float
    c: float
    gap: float


def validate_params(p: SwansonParams) -> SwansonParams:
    """The parameters unchanged when they keep the spectrum real and the
    family nontrivial: the checks of p that open _exact."""
    _exact(p)
    return p


def swanson_element(p: SwansonParams) -> AlgebraElement:
    """H as an algebra element: (2*omega, 2*alpha, 2*beta)."""
    return AlgebraElement(2.0 * p.omega, 2.0 * p.alpha, 2.0 * p.beta)


def _double(name: str, num: int, scale: int) -> float:
    """num / scale rounded once; InvalidParams naming it past the doubles,
    or where a nonzero value rounds to 0, so that no sign is read off a 0."""
    try:
        if (out := num / scale) or not num:
            return out
    except OverflowError:
        raise InvalidParams(f"{name} is not a finite double") from None
    raise InvalidParams(f"{name} is nonzero but rounds to 0 as a double")


def _exact(p: SwansonParams, z: float = 0.0) -> tuple[float, float, float, float, float]:
    """(gap, den, 1 - z^2, P, g) at z in [-1, 1]: gap = omega^2 - 4 alpha
    beta, den = alpha + beta - omega z, the stability polynomial P = den^2 -
    (alpha-beta)^2 (1 - z^2) and g = omega - (alpha+beta) z, each exact on
    the float inputs (integers over one power of two) and rounded once.
    The one check of p and of z's range, p first: InvalidParams for omega
    <= 0, alpha = beta, a non-finite omega, alpha or beta, or a gap that is
    not a positive double; then ZOutOfDomain for z off [-1, 1]; then
    InvalidParams for the first of the other four that _double refuses.  z
    is admissible exactly where P > 0 (_admissible)."""
    if not (p.omega > 0.0):
        raise InvalidParams(f"omega must be positive (got omega = {p.omega:g})")
    if p.alpha == p.beta:
        raise InvalidParams(
            f"alpha and beta must differ (got alpha = beta = {p.alpha:g})")
    try:
        ratios = [x.as_integer_ratio() for x in (p.omega, p.alpha, p.beta)]
    except (OverflowError, ValueError):
        raise InvalidParams("omega, alpha and beta must be finite (got "
                            f"{p.omega:g}, {p.alpha:g}, {p.beta:g})") from None
    ratios.append(z.as_integer_ratio() if abs(z) <= 1.0 else (0, 1))
    d = max(m for _, m in ratios)
    w, a, b, t = (n * (d // m) for n, m in ratios)
    d2, den, one = d * d, (a + b) * d - w * t, d * d - t * t
    gap = _double("omega^2 - 4*alpha*beta", w * w - 4 * a * b, d2)
    if not gap > 0.0:
        raise InvalidParams(f"omega^2 - 4*alpha*beta must be positive (got {gap:g})")
    if not abs(z) <= 1.0:
        raise ZOutOfDomain(f"z must lie in [-1, 1] (got z = {z:g})")
    return (gap, *(_double(name.format(z), num, scale) for name, num, scale in (
        ("alpha + beta - omega*z at z = {:g}", den, d2), ("1 - z^2", one, d2),
        ("the stability polynomial at z = {:g}", den * den - (a - b) ** 2 * one, d2 * d2),
        ("omega - (alpha + beta)*z at z = {:g}", w * d - (a + b) * t, d2))))


def _admissible(p: SwansonParams, z: float) -> tuple[float, float, float, float, float]:
    """_exact(p, z) at an admissible z; ZOutOfDomain, the one refusal of an
    inadmissible z in [-1, 1], where P <= 0."""
    out = _exact(p, z)
    if not out[3] > 0.0:
        raise ZOutOfDomain(
            f"z = {z:g} is inadmissible: |arctanh argument| >= 1 "
            f"(alpha + beta - omega*z = {out[1]:g})")
    return out


def _power_form(p: SwansonParams, exact: tuple) -> tuple[float, float]:
    """(eps, Lambda) from _admissible(p, z)'s tuple: Lambda = (den + s) /
    (den - s) for s = (alpha-beta) sqrt(1-z^2), eps = ln Lambda / (4 sqrt(1-z^2))
    or, where 1 - z^2 = 0 (|z| = 1), its limit (alpha-beta) / (2 den).  With big
    = |den| + |s| and P = den^2 - s^2 = (|den| - |s|) big, ln Lambda = +-log1p(2
    |s| big / P) and Lambda = (big^2 / P)^(+-1) cancel nowhere, near a root too."""
    den, one, poly = exact[1:4]
    root = math.sqrt(one)
    s = (p.alpha - p.beta) * root
    big = abs(den) + abs(s)
    log_lam = math.log1p(2.0 * abs(s) * big / poly)
    same = (s > 0.0) == (den > 0.0)
    lam = big * big / poly if same else poly / (big * big)
    if not one:
        return (p.alpha - p.beta) / (2.0 * den), lam
    return (log_lam if same else -log_lam) / (4.0 * root), lam


def is_admissible(p: SwansonParams, z: float) -> bool:
    """True when z in [-1, 1] gives a finite real solution eps(z): P > 0.
    InvalidParams as _exact, for a bad p or a z whose terms _double refuses."""
    try:
        _admissible(p, z)
    except ZOutOfDomain:
        return False
    return True


def z_domain(p: SwansonParams) -> list[tuple[float, float]]:
    """Admissible subset of [-1, 1] as a list of intervals.

    The excluded set is the closed band between the roots of P = a z^2 +
    b z + c (a = omega^2 + (alpha-beta)^2, b = -2 (alpha+beta) omega, c =
    4 alpha beta, disc = 4 (alpha-beta)^2 (omega^2 - 4 alpha beta) > 0):
    q / a and c / q, q = -(b + sign(b) sqrt(disc)) / 2, neither cancelling.
    The intervals are closed; is_admissible is the strict pointwise test."""
    gap = _exact(p)[0]
    q = math.copysign(abs(p.alpha + p.beta) * p.omega
                      + abs(p.alpha - p.beta) * math.sqrt(gap), p.alpha + p.beta)
    z1, z2 = sorted((q / (p.omega * p.omega + (p.alpha - p.beta) ** 2),
                     4.0 * p.alpha * p.beta / q))
    return [iv for iv in ((-1.0, min(z1, 1.0)), (max(z2, -1.0), 1.0)) if iv[0] < iv[1]]


def conjugated_coeffs(p: SwansonParams, epsilon: float,
                      eta: complex) -> tuple[complex, complex, complex]:
    """(U, V, W) with rho H rho^{-1} = 2U K0 + 2V Km + 2W Kp.

    The adjoint action of rho on (omega, alpha, beta) at any (eps, eta); at
    a solve_metric record's (epsilon, eta) U is real and W equals V.
    """
    _exact(p)
    return _mat_vec(adjoint_matrix(epsilon, eta), (p.omega, p.alpha, p.beta))


def _weights(p: SwansonParams, z: float, exact: tuple) -> tuple[float, float, float, float]:
    """(mu, nu, c0, c) of h = c0 K0 + c (Km + Kp), c0 = (nu + mu omega^2)/omega,
    at every admissible z, |z| = 1 included, from _admissible(p, z)'s gap,
    den, P and g with t = sign(den) sqrt(P).  mu = (g - t)/((1 + z) omega) and nu =
    omega (g + t)/(1 - z); (g - t)(g + t) = (1 - z^2) gap replaces the
    factor that cancels, g - t where g and t share a sign and g + t where
    they do not, so neither cancels as gap -> 0.  At z = 1 t = -g and at
    z = -1 t = g, so the form taken never divides by 1 -+ z = 0 there.
    c = (t + z g)/(1 - z^2) = (P - z^2 gap)/(t - z g), by the sum that does
    not cancel, as (nu - mu omega^2)/(2 omega) does.  InvalidParams names
    a weight that is not a finite double."""
    gap, den, one, poly, g = exact
    t = math.copysign(math.sqrt(poly), den)
    if g < 0.0 < t or t < 0.0 < g:
        mu = (g - t) / (1.0 + z) / p.omega
        nu = (1.0 + z) * gap / (g - t) * p.omega
    else:
        mu = (1.0 - z) * gap / (g + t) / p.omega
        nu = (g + t) / (1.0 - z) * p.omega
    zg = z * g
    c = (poly - z * z * gap) / (t - zg) if t < 0.0 < zg or zg < 0.0 < t else (t + zg) / one
    out = (mu, nu, (nu + mu * p.omega * p.omega) / p.omega, c)
    for name, value in zip(("mu", "nu", "c0", "c"), out):
        if not math.isfinite(value):
            raise InvalidParams(f"{name} is not a finite double at z = {z:g} (got {value:g})")
    return out


def _harmonic_law(freq: float, k: float, count: int) -> tuple[float, ...]:
    """freq * (n + k) for n = 0, ..., count - 1: the lowest levels of
    freq K0 on the lowest-weight chain of weight k, and so of every
    element conjugate to it (the one definition of the harmonic law)."""
    return tuple(freq * (n + k) for n in range(count))


def spectrum_prediction(p: SwansonParams, k: float, count: int) -> tuple[float, ...]:
    """Closed-form spectrum 2*sqrt(omega^2 - 4*alpha*beta) * (n + k).

    A linear element with positive-definite Casimir form is conjugate to
    a multiple of K0, so its spectrum on a lowest-weight realization is
    harmonic with effective frequency sqrt(omega^2 - 4*alpha*beta).
    InvalidParams names a level that is not a finite double.
    """
    freq = 2.0 * math.sqrt(_exact(p)[0])
    if not 0.0 < k < math.inf:
        raise InvalidParams(f"lowest weight k must be positive and finite (got {k:g})")
    if count < 1:
        raise InvalidParams("count must be at least 1")
    levels = _harmonic_law(freq, k, count)
    if levels[-1] == math.inf:
        raise InvalidParams(f"level e{count - 1} is not a finite double (k = {k:g})")
    return levels


def commuting_observable(z: float) -> AlgebraElement:
    """O = 2 K0 + z (Kp + Km); Hermitian for real z, |z| <= 1."""
    if not abs(z) <= 1.0:
        raise InvalidParams(f"observable parameter z must lie in [-1, 1] (got {z:g})")
    return AlgebraElement(2.0, z, z)


def solve_metric(p: SwansonParams, z: float) -> MetricSolution:
    """Solve the full family at one admissible z, |z| = 1 too, from one _admissible."""
    exact = _admissible(p, z)
    eps, lam = _power_form(p, exact)
    eta = z * eps / 2.0
    theta = abs(eps) * math.sqrt(exact[2])  # |eps| sqrt(1 - z^2)
    mu, nu, c0, c = _weights(p, z, exact)
    u, v, w = _mat_vec(adjoint_matrix(eps, eta), p)  # conjugated_coeffs
    return MetricSolution(params=p, z=z, epsilon=eps, eta=eta, theta=theta,
                          mu=mu, nu=nu, lambda_base=lam,
                          u=u.real, v=v.real, w=w.real, c0=c0, c=c, gap=exact[0])
