"""Reference computations that the tests compare the library against.

They share no code with the paths under test: each one works on dense
matrices or whole tridiagonal chains with a general-purpose numpy or
scipy routine, or in mpmath.
"""

import mpmath as mp
import numpy as np
from scipy.linalg import eigh_tridiagonal

from su11metric import AlgebraElement, exp_defining, gauss_decompose, solve_epsilon


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
    factors of the closed-form 2 x 2 exponential.  Only the asked rows are
    formed, so overflowed entries of the factors never meet zeros in the
    rows past them."""
    eps = power * solve_epsilon(p, z)
    g = exp_defining(AlgebraElement(2.0 * eps, z * eps, z * eps))
    f = gauss_decompose(g, "normal" if eps <= 0.0 else "antinormal")
    e = exp_raising(realization.kp_band, realization.band, f.p.real,
                    realization.dim)
    mid = np.exp(f.q.real * realization.k0_diag)
    return (e[:rows] * mid) @ e.T if eps <= 0.0 else (e[:, :rows].T * mid) @ e


def metric_power_mp(eps, z, kappa, size, depth, dps=50):
    """Leading size x size block of exp(A), A = 2 eps K0 + z eps (Km + Kp),
    on the discrete series of lowest weight kappa, to `dps` digits.

    The 2 x 2 group element comes from mpmath's expm, its Gauss factors
    from the pivot of the ordering whose pivot is >= 1, and each entry is
    the explicit sum over the middle index k < depth of the factor entries
    <i|exp(a Kp)|k> e^{q (k + kappa)} <j|exp(a Kp)|k> (normal) or
    <k|exp(a Kp)|i> e^{q (k + kappa)} <k|exp(a Kp)|j> (antinormal)."""
    with mp.workdps(dps):
        eps, eta = mp.mpf(eps), mp.mpf(z) * mp.mpf(eps) / 2
        g = mp.expm(mp.matrix([[eps, 2 * eta], [-2 * eta, -eps]]))
        if eps <= 0:
            a, q = g[0, 1] / g[1, 1], -2 * mp.log(g[1, 1])
        else:
            a, q = g[0, 1] / g[0, 0], 2 * mp.log(g[0, 0])
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
