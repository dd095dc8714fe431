"""Reference computations that the tests compare the library against.

They share no code with the paths under test: each one works on dense
matrices (the 2 x 2 representation of su(1,1) among them) or whole
tridiagonal chains with a general-purpose numpy, scipy or cmath routine,
or in mpmath or decimal.
"""

import cmath
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from su11metric import (AlgebraElement, DecompositionSingular, Factorization,
                        InvalidParams, RealizationMatrices, solve_metric)
from su11metric.core import PIVOT_TOL

SIGMA_K0 = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
SIGMA_KP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_KM = np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex)


def defining_rep(x: AlgebraElement) -> np.ndarray:
    """2x2 matrix sigma(x); linear in the coefficients."""
    return x.c0 * SIGMA_K0 + x.cm * SIGMA_KM + x.cp * SIGMA_KP


def exp_defining(x: AlgebraElement) -> np.ndarray:
    """exp(sigma(x)) in closed form.

    sigma(x) is traceless, so by Cayley-Hamilton

        exp(M) = cosh(theta) I + sinh(theta)/theta * M,
        theta**2 = -det(M).

    Both functions are even in theta, so the principal complex root
    serves for either sign of theta**2 (imaginary theta gives cos and
    sin(phi)/phi); sinh has no cancellation near 0, so only theta = 0
    itself needs its limit.
    """
    m = defining_rep(x)
    theta = cmath.sqrt(-(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    s = cmath.sinh(theta) / theta if theta else 1.0
    return cmath.cosh(theta) * np.eye(2, dtype=complex) + s * m


def reconstruct_defining(f: Factorization) -> np.ndarray:
    """Multiply the 2x2 factor matrices of a factorization back together."""
    e_half = cmath.exp(0.5 * f.q)
    upper = np.array([[1.0, f.p], [0.0, 1.0]], dtype=complex)
    mid = np.array([[e_half, 0.0], [0.0, 1.0 / e_half]], dtype=complex)
    lower = np.array([[1.0, 0.0], [-f.r, 1.0]], dtype=complex)
    if f.ordering == "normal":
        return upper @ mid @ lower
    if f.ordering == "antinormal":
        return lower @ mid @ upper
    raise InvalidParams(f"unknown ordering {f.ordering!r}")


def gauss_decompose(m: np.ndarray, ordering: str = "normal") -> Factorization:
    """Factor a 2x2 unimodular group matrix into ordered exponentials.

    Normal ordering pivots on m[1,1] (e^{-q/2} = m22, p = m12/m22,
    r = -m21/m22); antinormal ordering pivots on m[0,0] (e^{q'/2} = m11,
    p' = m12/m11, r' = -m21/m11).  The signs follow sigma(Km) having the
    entry -1.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise InvalidParams(f"expected a 2x2 matrix, got shape {m.shape}")
    if ordering == "normal":
        pivot = m[1, 1]
        if abs(pivot) < PIVOT_TOL:
            raise DecompositionSingular(
                f"normal-ordering pivot |m22| = {abs(pivot):.3e} is below {PIVOT_TOL:g}")
        return Factorization(p=m[0, 1] / pivot, q=-2.0 * cmath.log(pivot),
                             r=-m[1, 0] / pivot, ordering="normal")
    if ordering == "antinormal":
        pivot = m[0, 0]
        if abs(pivot) < PIVOT_TOL:
            raise DecompositionSingular(
                f"antinormal-ordering pivot |m11| = {abs(pivot):.3e} is below {PIVOT_TOL:g}")
        return Factorization(p=m[0, 1] / pivot, q=2.0 * cmath.log(pivot),
                             r=-m[1, 0] / pivot, ordering="antinormal")
    raise InvalidParams(f"unknown ordering {ordering!r}")


def materialize(x: AlgebraElement, r: RealizationMatrices) -> np.ndarray:
    """Dense N x N matrix of c0*K0 + cm*Km + cp*Kp, each entry, zeros too,
    summed as in the dense generators (same signed zeros and complex
    parts); a vanishing imaginary part is dropped."""
    zero = np.zeros(r.dim)
    off = zero[r.band:]

    def entries(k0, km, kp):
        return x.c0 * k0 + x.cm * km + x.cp * kp

    bands = {0: entries(r.k0_diag, zero, zero),
             r.band: entries(off, r.kp_band, off),
             -r.band: entries(off, off, r.kp_band)}
    fill = entries(zero[0], zero[0], zero[0])
    n = r.dim
    out = np.full((n, n), fill, dtype=np.result_type(fill, *bands.values()))
    flat = out.reshape(-1)
    for k, band in bands.items():
        # diagonal k starts at flat index k (-k n if k < 0); n - |k| entries never wrap
        flat[(k if k >= 0 else -k * n)::n + 1][:n - abs(k)] = band
    if np.iscomplexobj(out) and not out.imag.any():
        out = out.real.copy()
    return out


def commutator_residuals(r: RealizationMatrices,
                         trusted: int | None = None) -> dict[str, float]:
    """Normalized commutation-relation residuals on the trusted block.

    Spectral norms of [k0, k+-] -+ k+- and [kp, km] + 2 k0 restricted to
    the leading trusted x trusted block, each divided by the norm of the
    defining right-hand side on that block.  The generators move a state
    by at most the band, so only the leading trusted + band states enter.
    """
    t = r.dim - r.band if trusted is None else trusted
    if not (1 <= t <= r.dim):
        raise InvalidParams(f"trusted block {t} outside 1..{r.dim}")
    m = min(t + r.band, r.dim)
    block = replace(r, k0_diag=r.k0_diag[:m], kp_band=r.kp_band[:m - r.band])
    k0, km, kp = (materialize(AlgebraElement(*e), block) for e in np.eye(3))

    def _n(mat):
        return float(np.linalg.norm(mat[:t, :t], 2))

    res = {
        "k0_kp": _n(k0 @ kp - kp @ k0 - kp) / _n(kp),
        "k0_km": _n(k0 @ km - km @ k0 + km) / _n(km),
        "kp_km": _n(kp @ km - km @ kp + 2.0 * k0) / _n(2.0 * k0),
    }
    return res


def residue_root_of_unity(l: int, n: int) -> np.ndarray:
    """Residue eigenvalues from the finite root-of-unity sum.

        R(m) = (l-1)/2 + sum_{j=1}^{l-1} exp(-2 pi i j m / l)
                                         / (exp(2 pi i j / l) - 1)

    which equals m mod l for every integer m (l = 1 gives zero).
    """
    if l < 1:
        raise InvalidParams(f"period l must be a positive integer (got {l})")
    m = np.arange(n)
    if l == 1:
        return np.zeros(n, dtype=complex)
    vals = np.full(n, (l - 1) / 2.0, dtype=complex)
    for j in range(1, l):
        vals += np.exp(-2j * np.pi * j * m / l) / (np.exp(2j * np.pi * j / l) - 1.0)
    return vals


def exp_symmetric(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * m) of a real symmetric matrix via its eigensystem."""
    w, q = np.linalg.eigh(m)
    with np.errstate(over="ignore", under="ignore"):
        return (q * np.exp(scale * w)) @ q.T


def exp_raising(sub, band, coeff, n):
    """exp(coeff * B), n x n, for B holding the single lower diagonal `sub`
    at offset -band (a truncated raising operator), one diagonal per order."""
    out = np.eye(n)
    if coeff == 0.0 or sub.size == 0:
        return out
    d = coeff * sub
    order = 1
    while d.size > 0:
        out += np.diag(d, -band * order)
        order += 1
        new_len = n - band * order
        if new_len <= 0:
            break
        d = d[band:new_len + band] * (coeff * sub[:new_len]) / order
    return out


def metric_power_dense(p, z, realization, power=1, rows=None):
    """The leading `rows` rows (all N when not given) of exp(power A) on
    the whole truncated basis, rows x N, as the ordered product of the
    dense factors exp(a Kp), diag(e^{q k0}) and exp(a Km): the normal
    ordering for eps <= 0, the antinormal one otherwise, with the Gauss
    factors of the 2 x 2 exponential taken to 50 digits and rounded once
    (a float log of the pivot is off by a few ulps of q, which e^{q k0}
    multiplies by k0).  Only the asked rows are formed, so overflowed
    entries of the factors never meet zeros in the rows past them."""
    eps = power * solve_metric(p, z).epsilon
    a, q = (float(x) for x in _gauss_factors_mp(eps, z, 50))
    e = exp_raising(realization.kp_band, realization.band, a, realization.dim)
    mid = np.exp(q * realization.k0_diag)
    return (e[:rows] * mid) @ e.T if eps <= 0.0 else (e[:, :rows].T * mid) @ e


def _gauss_factors_mp(eps, z, dps):
    """(a, q) of exp(A), A = 2 eps K0 + z eps (Km + Kp), to `dps` digits:
    mpmath's expm of the 2 x 2 element, factored on the pivot of the
    ordering whose pivot is >= 1 (normal for eps <= 0, else antinormal)."""
    with mp.workdps(dps):
        eps, eta = mp.mpf(eps), mp.mpf(z) * mp.mpf(eps) / 2
        g = mp.expm(mp.matrix([[eps, 2 * eta], [-2 * eta, -eps]]))
        if eps <= 0:
            return g[0, 1] / g[1, 1], -2 * mp.log(g[1, 1])
        return g[0, 1] / g[0, 0], 2 * mp.log(g[0, 0])


def metric_power_mp(eps, z, kappa, size, depth, dps=50):
    """Leading size x size block of exp(A), A = 2 eps K0 + z eps (Km + Kp),
    on the discrete series of lowest weight kappa, to `dps` digits.

    The 2 x 2 group element comes from mpmath's expm, its Gauss factors
    from the pivot of the ordering whose pivot is >= 1, and each entry is
    the explicit sum over the middle index k < depth of the factor entries
    <i|exp(a Kp)|k> e^{q (k + kappa)} <j|exp(a Kp)|k> (normal) or
    <k|exp(a Kp)|i> e^{q (k + kappa)} <k|exp(a Kp)|j> (antinormal)."""
    with mp.workdps(dps):
        a, q = _gauss_factors_mp(eps, z, dps)
        kappa = mp.mpf(kappa)
        # e[k][j] = <k|exp(a Kp)|j>, K+|m> = sqrt((m + 1)(m + 2 kappa))|m + 1>
        e = [[mp.mpf(0)] * size for _ in range(depth)]
        for j in range(size):
            e[j][j] = mp.mpf(1)
            for k in range(j + 1, depth):
                e[k][j] = (e[k - 1][j] * a * mp.sqrt(k * (k - 1 + 2 * kappa))
                           / (k - j))
        mid = [mp.exp(q * (k + kappa)) for k in range(depth)]
        out = np.empty((size, size))
        for i in range(size):
            for j in range(size):
                if eps <= 0:
                    terms = (e[i][k] * mid[k] * e[j][k] for k in range(min(i, j) + 1))
                else:
                    terms = (e[k][i] * mid[k] * e[k][j] for k in range(depth))
                out[i, j] = float(mp.fsum(terms))
        return out


def stability_roots_mp(p, dps=50):
    """The roots of P(z) = (omega^2 + (alpha-beta)^2) z^2 - 2 (alpha+beta)
    omega z + 4 alpha beta, between which z is inadmissible, ascending, to
    `dps` digits; taken in the form that does not cancel, so that a small
    root keeps its digits."""
    with mp.workdps(dps):
        w, al, be = mp.mpf(p.omega), mp.mpf(p.alpha), mp.mpf(p.beta)
        a, b, c = w * w + (al - be) ** 2, -2 * (al + be) * w, 4 * al * be
        root = mp.sqrt(b * b - 4 * a * c)
        q = -(b + root if b >= 0 else b - root) / 2
        return tuple(sorted((q / a, c / q)))


def metric_family_mp(p, z, dps=50):
    """{P, epsilon, mu, nu, lam, c0, c} at (p, z) from the textbook forms,
    to `dps` digits: P = den^2 - (alpha-beta)^2 (1-z^2), eps = arctanh(s /
    den) / (2 sqrt(1-z^2)), s = (alpha-beta) sqrt(1-z^2), den = alpha+beta -
    omega z; mu = (g - term) / ((1+z) omega), nu = omega (g + term) / (1-z),
    term = den sqrt(1 - s^2/den^2), g = omega - (alpha+beta) z; Lambda =
    (den + s) / (den - s), c0 = (nu + mu omega^2) / omega and c = (nu - mu
    omega^2) / (2 omega).  Only P is defined where P <= 0.  At |z| = 1,
    where mu's or nu's form is 0/0, every form is taken at +-(1 - 1e-40)
    to at least 80 digits: its limit to about 1e-20 / |den|."""
    with mp.workdps(max(dps, 80) if abs(z) == 1 else dps):
        w, a, b, z = (mp.mpf(v) for v in (p.omega, p.alpha, p.beta, z))
        if abs(z) == 1:
            z *= 1 - mp.mpf(10) ** -40
        q, den = 1 - z * z, a + b - w * z
        s = (a - b) * mp.sqrt(q)
        out = {"P": den * den - s * s}
        if out["P"] <= 0:
            return out
        term, g = den * mp.sqrt(1 - s * s / (den * den)), w - (a + b) * z
        mu, nu = (g - term) / ((1 + z) * w), w * (g + term) / (1 - z)
        return dict(out, epsilon=mp.atanh(s / den) / (2 * mp.sqrt(q)), mu=mu, nu=nu,
                    lam=(den + s) / (den - s), c0=(nu + mu * w * w) / w,
                    c=(nu - mu * w * w) / (2 * w))


def metric_block_definite(rows: np.ndarray) -> float:
    """Smallest eigenvalue of the diagonally rescaled block R R^T for R the
    given leading rows of rho (with all the columns they reach).

    R R^T is the leading block of zeta_+ = rho^2, so it is positive-definite
    exactly when the rows are independent.  The square of the smallest
    singular value of the row-normalized R is the smallest eigenvalue of
    the correspondingly rescaled block (a congruence, so definiteness is
    preserved); going through the singular values of R avoids squaring the
    dynamic range, which would drown the small end in rounding.
    """
    norms = np.linalg.norm(rows, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        return float("-inf")
    sigma = np.linalg.svd(rows / norms[:, None], compute_uv=False)
    return float(sigma.min() ** 2)


def radial_k0_lowest(L: float, omega: float = 1.0, r_max: float = 14.0,
                     points: int = 4000, count: int = 1) -> np.ndarray:
    """Lowest `count` eigenvalues of the radial K0 operator
    (1/(4 omega)) (-d^2/dr^2 + L(L+1)/r^2 + omega^2 r^2), discretized by
    central differences on the interior nodes of (0, r_max) with
    Dirichlet walls: a check of the L -> k mapping that shares nothing
    with the ladder matrices."""
    dr = r_max / (points + 1)
    r = dr * np.arange(1, points + 1)
    diag = (2.0 / dr ** 2 + L * (L + 1.0) / r ** 2 + omega ** 2 * r ** 2) / (4.0 * omega)
    off = np.full(points - 1, -1.0 / dr ** 2 / (4.0 * omega))
    return eigh_tridiagonal(diag, off, select="i", select_range=(0, count - 1),
                            eigvals_only=True)


def mass_profile(cfg, x: np.ndarray) -> np.ndarray:
    """PDM mass m(x) = exp(-2 s x) / (2 mu omega), for a PdmConfig."""
    mu = solve_metric(cfg.params, cfg.z).mu
    return np.exp(-2.0 * cfg.s * x) / (2.0 * mu * cfg.params.omega)


def effective_potential(cfg, x: np.ndarray) -> np.ndarray:
    """PDM potential V_eff(x) = -(3/4) mu omega s^2 exp(2 s x)
    + (nu/omega) (-exp(-s x)/(2 s) + tau)^2, for a PdmConfig."""
    sol = solve_metric(cfg.params, cfg.z)
    mu, nu, om = sol.mu, sol.nu, cfg.params.omega
    well = -np.exp(-cfg.s * x) / (2.0 * cfg.s) + cfg.tau
    return -0.75 * mu * om * cfg.s ** 2 * np.exp(2.0 * cfg.s * x) + (nu / om) * well ** 2


def pdm_flux_form(cfg) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offdiagonal) of the mass form h = -1/2 d/dx (1/m) d/dx + V_eff
    on the interior nodes of a PdmConfig's grid, Dirichlet walls:

        (h u)_i = -1/2 [ (u_{i+1} - u_i)/m_{i+1/2} - (u_i - u_{i-1})/m_{i-1/2} ] / dx^2
                  + V_i u_i
    """
    dx = (cfg.x_max - cfg.x_min) / (cfg.points + 1)
    x = cfg.x_min + dx * np.arange(1, cfg.points + 1)
    half = cfg.x_min + dx * (np.arange(cfg.points + 1) + 0.5)
    w = 1.0 / (2.0 * mass_profile(cfg, half) * dx * dx)
    return w[1:] + w[:-1] + effective_potential(cfg, x), -w[1:-1]


def chain_spectrum(x, realization, count):
    """Lowest `count` eigenvalues (ascending) and eigenvectors of the
    symmetric element x = c0 K0 + c (Km + Kp) on the whole realization:
    every chain of states m = c mod band is bisected in full by
    eigh_tridiagonal, with the most accurate tolerance, 2 tiny."""
    n, band = realization.dim, realization.band
    w, q = [], []
    for c in range(band):
        d = x.c0.real * realization.k0_diag[c::band]
        k = min(count, d.size)
        wc, vc = eigh_tridiagonal(d, x.cm.real * realization.kp_band[c::band],
                                  select="i", select_range=(0, k - 1),
                                  tol=2.0 * np.finfo(float).tiny)
        full = np.zeros((n, k))
        full[c::band] = vc
        w.append(wc)
        q.append(full)
    w = np.concatenate(w)
    lowest = np.argsort(w, kind="stable")[:count]
    return w[lowest], np.hstack(q)[:, lowest]


@lru_cache(maxsize=64)
def _exact_chain(c0, c, k, n):
    # the diagonal c0 (i + k) and squared links c^2 i (i - 1 + 2k) of x =
    # c0 K0 + c (K+ + K-) on D+(k), in 40-digit decimals of the floats
    with localcontext() as ctx:
        ctx.prec = 40
        c0, c2, k = Decimal(c0), Decimal(c) * Decimal(c), Decimal(k)
        return ([c0 * (i + k) for i in range(n)],
                [c2 * i * (i - 1 + 2 * k) for i in range(n)])


@lru_cache(maxsize=8192)
def chain_count_mp(c0, c, k, n, x):
    """The count of eigenvalues below x of x = c0 K0 + c (K+ + K-) on the
    leading n states of the discrete series D+(k), with the floats c0, c,
    k and x taken exactly: a Sturm count at 40 significant digits (in
    decimal, which runs it about 20 times faster than mpmath here), whose
    pivots carry no rounding that a level 1e-25 relative away could flip."""
    diag, links = _exact_chain(c0, c, k, n)
    with localcontext() as ctx:
        ctx.prec = 40
        x, q, found = Decimal(x), Decimal(1), 0
        for d, e2 in zip(diag, links):
            q = d - x - e2 / q
            if not q:
                q = Decimal("1e-60")
            found += q < 0
    return found
