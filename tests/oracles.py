"""Reference computations that the tests compare the library against.

They share no code with the paths under test: each one works on dense
matrices (the 2 x 2 representation of su(1,1) among them) or whole
tridiagonal chains with a general-purpose numpy, scipy or cmath routine,
or in mpmath or decimal.
"""

import cmath
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


def casimir_defining(x: AlgebraElement) -> complex:
    """c0**2 - 4*cp*cm as -4 det sigma(x): the quadratic Casimir in the 2x2
    representation, invariant under conjugation."""
    m = defining_rep(x)
    return complex(-4.0 * (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))


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


def basis_bands(r: RealizationMatrices) -> tuple[np.ndarray, np.ndarray]:
    """K0's diagonal (N entries) and the band of K+ (N - band), kp[m] =
    <m + band|K+|m>, on the N states of the basis: state m is on chain
    m mod band, and each chain's bands are the realization's."""
    k0, kp = np.empty(r.dim), np.empty(r.dim - r.band)
    for c, m in enumerate(r.lengths()):
        k0[c::r.band], kp[c::r.band] = r.bands(c, m)
    return k0, kp


def materialize(x: AlgebraElement, r: RealizationMatrices) -> np.ndarray:
    """Dense N x N matrix of c0*K0 + cm*Km + cp*Kp, each entry, zeros too,
    summed as in the dense generators (same signed zeros and complex
    parts); a vanishing imaginary part is dropped."""
    zero = np.zeros(r.dim)
    off = zero[r.band:]
    k0_diag, kp_band = basis_bands(r)

    def entries(k0, km, kp):
        return x.c0 * k0 + x.cm * km + x.cp * kp

    bands = {0: entries(k0_diag, zero, zero),
             r.band: entries(off, kp_band, off),
             -r.band: entries(off, off, kp_band)}
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
    block = r._replace(dim=m)
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
    k0_diag, kp_band = basis_bands(realization)
    e = exp_raising(kp_band, realization.band, a, realization.dim)
    mid = np.exp(q * k0_diag)
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
    for c, m in enumerate(realization.lengths()):
        k0, kp = realization.bands(c, m)
        k = min(count, m)
        wc, vc = eigh_tridiagonal(x.c0.real * k0, x.cm.real * kp,
                                  select="i", select_range=(0, k - 1),
                                  tol=2.0 * np.finfo(float).tiny)
        full = np.zeros((n, k))
        full[c::band] = vc
        w.append(wc)
        q.append(full)
    w = np.concatenate(w)
    lowest = np.argsort(w, kind="stable")[:count]
    return w[lowest], np.hstack(q)[:, lowest]


# the longest chain whose terms are kept between counts: a longer one
# (millions of states) would hold gigabytes of decimals, so its terms are
# formed as the count runs
_KEPT_STATES = 1 << 16


def _chain_terms(c0, c, k, n):
    # the diagonal c0 (i + k) and squared links c^2 i (i - 1 + 2k) of x =
    # c0 K0 + c (K+ + K-) on D+(k), in 40-digit decimals of the floats;
    # the caller holds the 40-digit context
    c0, c2, k = Decimal(c0), Decimal(c) * Decimal(c), Decimal(k)
    return ((c0 * (i + k), c2 * i * (i - 1 + 2 * k)) for i in range(n))


@lru_cache(maxsize=64)
def _exact_chain(c0, c, k, n):
    with localcontext() as ctx:
        ctx.prec = 40
        return list(_chain_terms(c0, c, k, n))


@lru_cache(maxsize=8192)
def chain_count_mp(c0, c, k, n, x):
    """The count of eigenvalues below x of x = c0 K0 + c (K+ + K-) on the
    leading n states of the discrete series D+(k), with the floats c0, c,
    k and x taken exactly: a Sturm count at 40 significant digits (in
    decimal, which runs it about 20 times faster than mpmath here), whose
    pivots carry no rounding that a level 1e-25 relative away could flip."""
    with localcontext() as ctx:
        ctx.prec = 40
        terms = _exact_chain(c0, c, k, n) if n <= _KEPT_STATES else _chain_terms(c0, c, k, n)
        x, q, found = Decimal(x), Decimal(1), 0
        for d, e2 in terms:
            q = d - x - e2 / q
            if not q:
                q = Decimal("1e-60")
            found += q < 0
    return found


def tail_count_mp(ratio, a, tol):
    """(the least O whose bound on an antinormal sum's tail past term O is
    at most tol, the bound's log minus log tol there and at O - 1), at 40
    digits with the floats ratio and a taken exactly: t_O rbar / (1 - rbar)
    over the largest term up to O, r_o = ratio ((a + o) / (o + 1))^2 the
    bound on term o + 1 over term o, rbar = max(r_O, ratio) < 1 (see
    verification._tail_count)."""
    with mp.workdps(40):
        ratio, a, log_tol = mp.mpf(ratio), mp.mpf(a), mp.log(tol)
        log_t, peak, before, o = mp.mpf(0), mp.mpf(0), None, 0
        while True:
            r = ratio * ((a + o) / (o + 1)) ** 2
            rbar, peak = max(r, ratio), max(peak, log_t)
            over = log_t - peak + mp.log(rbar / (1 - rbar)) - log_tol if rbar < 1 else None
            if over is not None and over <= 0:
                return o, float(over), before
            before, log_t, o = None if over is None else float(over), log_t + mp.log(r), o + 1


def enclosure_mp(r2, gap, room, got):
    """The inequalities that core._kato_temple's result `got` for the
    floats r2, gap and room breaks, at 40 digits with the floats taken
    exactly; [] where it keeps them all.  A pair (below, above) must come
    only where gap > 0 and r2 < gap room, Kato's clause, and each width must
    be at or above its exact value, r2 / room and r2 / gap; None only where
    gap <= 0 or r2 >= gap room (1 - 2 eps), the clause's margin (1 - eps)
    less the rounding of its two products."""
    eps = np.finfo(float).eps
    with mp.workdps(40):
        r2, gap, room = mp.mpf(r2), mp.mpf(gap), mp.mpf(room)
        product = gap * room
        if got is None:
            return [] if not (gap > 0 and r2 < product * (1 - 2 * eps)) else ["refused inside"]
        below, above = map(mp.mpf, got)
        checks = {"gap > 0": gap > 0, "r2 < gap room": r2 < product,
                  "below >= r2 / room": room > 0 and below >= r2 / room,
                  "above >= r2 / gap": gap > 0 and above >= r2 / gap}
    return [name for name, holds in checks.items() if not holds]


# the relative error of solve_metric's epsilon that orbit_mp allows: the
# accuracy tests/test_metric.py pins it to against its 50-digit forms
ORBIT_EPS_REL = 1e-15


def orbit_mp(p, z, eps0, eps, dps=50):
    """The identities of the orbit zeta_+(z) = zeta_+(0) exp(t H) (alpha
    beta > 0) that the records' epsilon at 0 (eps0) and at z (eps) break,
    at `dps` digits with the floats taken exactly; [] where they keep both.

    In the 2 x 2 representation zeta_+ = exp(2 A) = exp(2 eps X_z), X_z =
    [[1, z], [-z, -1]], and M = zeta_+(0)^-1 zeta_+(z) must commute with
    sigma(H) = [[omega, 2 beta], [-2 alpha, -omega]] and equal exp(t
    sigma(H)) = cosh(W t) I + sinh(W t) / W sigma(H), W = sqrt(omega^2 - 4
    alpha beta), with

        sinh(W t) = W z eps sinh(2 theta) / (2 theta sgn(beta) sqrt(alpha beta)),

    theta = |eps| sqrt(1 - z^2).  exp(t sigma(H)) has the eigenvalues
    e^(+-W t) > 0, so log M = t sigma(H) exactly where M = exp(t sigma(H)).
    Each identity is exact at the exact epsilons; at the records' it is
    held to twice its first-order change for a relative error
    ORBIT_EPS_REL in each (d/d eps0 M = -2 X_0 M, d/d eps M = 2 M X_z and
    d/d eps t = z cosh(2 theta) / (sgn(beta) sqrt(alpha beta) cosh(W t))),
    in the Frobenius norm: the rest is second order in ORBIT_EPS_REL
    theta and ORBIT_EPS_REL |eps0|."""
    with mp.workdps(dps):
        w, a, b, z, eps0, eps = (mp.mpf(v) for v in (*p, z, eps0, eps))
        h = mp.matrix([[w, 2 * b], [-2 * a, -w]])
        x0, xz = mp.matrix([[1, 0], [0, -1]]), mp.matrix([[1, z], [-z, -1]])
        m = mp.expm(-2 * eps0 * x0) * mp.expm(2 * eps * xz)
        big_w, theta = mp.sqrt(w * w - 4 * a * b), abs(eps) * mp.sqrt(1 - z * z)
        sgn_root = mp.sign(b) * mp.sqrt(a * b)
        sinhc = mp.sinh(2 * theta) / (2 * theta) if theta else mp.mpf(1)
        t = mp.asinh(big_w * z * eps * sinhc / sgn_root) / big_w
        orbit = mp.cosh(big_w * t) * mp.eye(2) + mp.sinh(big_w * t) / big_w * h
        dt = z * mp.cosh(2 * theta) / (sgn_root * mp.cosh(big_w * t))
        rel0, rel = (ORBIT_EPS_REL / (1 - ORBIT_EPS_REL) * abs(e) for e in (eps0, eps))
        d0, d = -2 * x0 * m, 2 * m * xz

        def comm(y):
            return y * h - h * y

        checks = {
            "M commutes with sigma(H)": (comm(m), comm(d0) * rel0, comm(d) * rel),
            "log M = t sigma(H)": (m - orbit, d0 * rel0, (d - dt * h * orbit) * rel)}
        return [name for name, (got, by0, by) in checks.items()
                if mp.mnorm(got, "f") > 2 * (mp.mnorm(by0, "f") + mp.mnorm(by, "f"))]
