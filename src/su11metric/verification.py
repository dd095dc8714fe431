"""Materialize the operator bundle and verify identities numerically.

Everything spectral goes through the Hermitian equivalent h: spectra of
the non-Hermitian H are never computed with a nonsymmetric eigensolver.
Hermiticity of rho H rho^{-1} and eq. (10) rest only on the su(1,1)
commutators, so they are checked on coefficient triples.  The matrix
diagnostics (intertwining, quasi-Hermiticity, metric/observable
commutation) are measured in the spectral norm of the leading trusted
block, normalized by the operand norms, because the metric amplifies
truncation error at the top of the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig_banded

from .core import AlgebraElement, _ordered_factor, conjugate
from .errors import InvalidParams, NoConvergence, NotSymmetric, TruncationTooSmall, ZOutOfDomain
from .metric import (SwansonParams, commuting_observable, hermitian_equivalent,
                     is_admissible, metric_exponent, solve_epsilon,
                     swanson_element, validate_params)
from .realizations import RealizationMatrices, dense_from_bands, materialize

DEFAULT_TRUSTED = 50


@dataclass
class OperatorBundle:
    """Materialized operators and their residual diagnostics.

    H (`hamiltonian`), h (`h_direct`) and O (`observable`) are N x N.  Of
    the metric only the rows the residuals read are kept: with
    R = trusted + band (at most N), `rho` is the leading R rows of rho,
    (R, N), and `zeta_plus` the leading R x R block of zeta_+ = rho^2.
    """

    params: SwansonParams
    z: float
    realization: RealizationMatrices
    trusted: int
    hamiltonian: np.ndarray
    rho: np.ndarray
    zeta_plus: np.ndarray
    h_direct: np.ndarray
    observable: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)
    spectrum_h: np.ndarray = field(default_factory=lambda: np.empty(0))


def symmetric_eigs(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthogonal eigenvectors of a real
    symmetric matrix; the reconstruction Q diag(w) Q^T reproduces the
    input to rounding."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    scale = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > 1e-10 * max(scale, 1e-300):
        raise NotSymmetric("symmetry residual exceeds 1e-10 of the matrix norm")
    try:
        w, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolve failed: {exc}") from exc
    return w, q


def _low_eigs(m: np.ndarray, band: int, count: int, vectors: bool = False):
    """Lowest `count` eigenvalues (ascending) of a real symmetric matrix
    with half-bandwidth `band`, with their eigenvectors as columns when
    `vectors` is set.

    Only the band reaches the solver, which computes only the selected
    pairs.  A count above the dimension yields all of them; zero yields
    none.  A non-square or asymmetric input, or one with nonzero entries
    outside the band, raises NotSymmetric, as in symmetric_eigs.
    """
    if count < 0:
        raise InvalidParams(f"eigenpair count must be nonnegative (got {count})")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if np.count_nonzero(m) != sum(np.count_nonzero(np.diagonal(m, k))
                                  for k in range(-band, band + 1)):
        raise NotSymmetric(f"nonzero entries outside the band of width {band}")
    # outside the band both triangles are zero, so the band alone gives
    # the same test as symmetric_eigs
    asym = sum(np.sum((np.diagonal(m, k) - np.diagonal(m, -k)) ** 2)
               for k in range(1, band + 1))
    if np.sqrt(2.0 * asym) > 1e-10 * max(np.linalg.norm(m), 1e-300):
        raise NotSymmetric("symmetry residual exceeds 1e-10 of the matrix norm")
    count = min(count, n)
    if count == 0:
        return (np.empty(0), np.empty((n, 0))) if vectors else np.empty(0)
    # upper storage: diagonal k of m sits in row band - k, from column k on
    upper = np.zeros((band + 1, n))
    for k in range(band + 1):
        upper[band - k, k:] = np.diagonal(m, k)
    try:
        return eig_banded(upper, eigvals_only=not vectors, select="i",
                          select_range=(0, count - 1))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"banded eigensolve failed: {exc}") from exc


def exp_symmetric(m: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * m) of a real symmetric matrix via its eigensystem."""
    w, q = symmetric_eigs(m)
    with np.errstate(over="ignore", under="ignore"):
        e = np.exp(scale * w)
        return (q * e) @ q.T


def _exp_raising(sub: np.ndarray, band: int, coeff: float, n: int) -> np.ndarray:
    """exp(coeff * B) for B holding the single lower diagonal `sub` at
    offset -band (a truncated raising operator).

    The series terminates after n // band orders; each diagonal follows
    from the previous one by a single multiplication, so every entry is
    a product of its path factors and carries full relative precision.
    The fill is bit-identical to summing np.diag(d, -band * order) over
    the orders onto the identity.
    """
    step = coeff * sub
    diags = {0: np.ones(n), -band: step}
    for order in range(2, (n - 1) // band + 1):
        prev = diags[-band * (order - 1)]
        diags[-band * order] = prev[band:] * step[:prev.size - band] / order
    out = dense_from_bands(n, diags)
    # a product of zeros can be -0.0; adding 0 gives +0.0, as adding each
    # order onto the zeros of the identity does
    out += 0.0
    return out


def materialize_metric_root(p: SwansonParams, z: float,
                            realization: RealizationMatrices,
                            sign: int = 1, rows: int | None = None) -> np.ndarray:
    """The leading `rows` rows (all N if not given, at most N) of rho
    (sign=+1) or rho^{-1} (sign=-1), through the ordered factorization.

    Exponentiating the materialized exponent through its eigensystem
    loses the far entries of the result once the eigenvalue spread is
    large, because eigenvector tails below rounding get amplified
    exponentially.  The factored product

        exp(a Kp) diag(e^{q k0}) exp(b Km)

    has no such failure mode: for fixed (i, j) every term of the entry
    contraction carries the same sign, and because the triangular factors
    close the sum below min(i, j) (decaying ordering) or make it converge
    geometrically (growing ordering), the truncated product reproduces
    the matrix elements of the untruncated operator itself.

    The decaying ordering is taken (normal for eps <= 0, antinormal
    otherwise); its pivot is >= 1, and only that pivot is checked.

    E = exp(p Kp) is lower triangular, so R rows cost R^2 N in the normal
    ordering and R N^2 in the antinormal one.  At p = 0 (every z = 0)
    the rows are those of diag(e^{q k0}), written with no product.
    """
    n = realization.dim
    rows = n if rows is None else min(rows, n)
    eps = sign * solve_epsilon(p, z)
    f = _ordered_factor(eps, z * eps / 2.0,
                        "normal" if eps <= 0.0 else "antinormal")
    with np.errstate(over="ignore", under="ignore"):
        mid = np.exp(f.q.real * realization.k0_diag)
        # eta = z eps / 2 is real, so r = p and both ladder factors are
        # the same matrix: exp(p Kp) = E and exp(p Km) = E^T
        assert f.r.real == f.p.real
        if f.p.real == 0.0:
            out = np.zeros((rows, n))
            np.fill_diagonal(out, mid[:rows])
            return out
        e = _exp_raising(realization.kp_band, realization.band, f.p.real, n)
        if eps <= 0.0:
            # exp(p Kp) exp(q K0) exp(p Km); row i of E ends at column i
            left, d, right = e[:rows, :rows], mid[:rows], e[:, :rows].T
        else:
            # exp(p Km) exp(q K0) exp(p Kp)
            left, d, right = e[:, :rows].T, mid, e
        return (left * d) @ right


def spectrum_prediction(p: SwansonParams, k: float, count: int) -> np.ndarray:
    """Closed-form spectrum 2*sqrt(omega^2 - 4*alpha*beta) * (n + k).

    A linear element with positive-definite Casimir form is conjugate to
    a multiple of K0, so its spectrum on a lowest-weight realization is
    harmonic with effective frequency sqrt(omega^2 - 4*alpha*beta).
    """
    validate_params(p)
    if k <= 0.0:
        raise InvalidParams(f"lowest weight k must be positive (got {k:g})")
    if count < 1:
        raise InvalidParams("count must be at least 1")
    freq = 2.0 * np.sqrt(p.omega ** 2 - 4.0 * p.alpha * p.beta)
    return freq * (np.arange(count) + k)


def _block_norm(m: np.ndarray, t: int) -> float:
    b = np.asarray(m)[:t, :t]
    if not np.isfinite(b).all():
        return float("inf")
    return float(np.linalg.norm(b, 2))


def _relative(diff: np.ndarray, operands: list[np.ndarray], t: int) -> float:
    d = _block_norm(diff, t)
    base = max(_block_norm(o, t) for o in operands)
    if not np.isfinite(d) or not np.isfinite(base):
        return float("inf")
    if base == 0.0:
        return d
    return d / base


def _largest(x: AlgebraElement) -> float:
    # nonzero for H and its conjugates: their Casimir is
    # 4 (omega^2 - 4 alpha beta) > 0
    return max(abs(x.c0), abs(x.cm), abs(x.cp))


def build_bundle(p: SwansonParams, z: float, realization: RealizationMatrices,
                 trusted: int = DEFAULT_TRUSTED,
                 spectrum_count: int | None = None) -> OperatorBundle:
    """Materialize H, h and O, the rows of rho and the block of zeta_+
    that the residuals read, and check them.

    Residuals.  r_herm and r_eq10 are coefficient-level, on the adjoint
    closed form y = core.conjugate(metric_exponent(p, z), H), relative to
    the largest coefficient, and independent of realization, N and T:

        r_herm        Hermiticity defect of y: |Im c0|, |cm - conj(cp)|
        r_eq10        y vs hermitian_equivalent(p, z) (the mu/nu formula)

    The rest are spectral norms of the leading trusted x trusted block,
    normalized by the operand norms:

        r_intertwine  h rho - rho H
        r_quasi       zeta_+ H - H^T zeta_+
        r_commute     rho O - O rho

    H, h and O vanish outside their band, so the leading T x T block of
    each product reads only the leading R = T + band rows and columns of
    rho and zeta_+.  rho is symmetric, so its leading R rows give both,
    and the R x R block of zeta_+ = rho rho is rho[:R] rho[:R]^T.  No
    N x N metric product is formed, and rho^{-1} not at all.

    The spectrum is the lowest `spectrum_count` eigenvalues (default
    trusted // 2, at least 1; all N if more are asked) of the exactly
    symmetric direct assembly, computed from its band alone.
    """
    validate_params(p)
    n = realization.dim
    if trusted >= n or trusted < 2:
        raise TruncationTooSmall(
            f"need 2 <= trusted < dim (got trusted = {trusted}, dim = {n})")
    if not is_admissible(p, z):
        raise ZOutOfDomain(f"z = {z:g} is not admissible for these parameters")

    t = trusted
    r = min(t + realization.band, n)
    h_coeffs = hermitian_equivalent(p, z)
    y = conjugate(metric_exponent(p, z), swanson_element(p))
    # the spectrum comes first, so that a negative count is rejected
    # before the dense work
    h_direct = materialize(h_coeffs, realization)
    count = spectrum_count if spectrum_count is not None else max(1, t // 2)
    spectrum = _low_eigs(h_direct, realization.band, count)

    h_mat = materialize(swanson_element(p), realization)
    o_mat = materialize(commuting_observable(z), realization)
    rho = materialize_metric_root(p, z, realization, sign=1, rows=r)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        zeta = rho @ rho.T
        lhs_i = h_direct[:t, :r] @ rho[:, :t]
        rhs_i = rho[:t] @ h_mat[:, :t]
        lhs_q = zeta[:t] @ h_mat[:r, :t]
        rhs_q = h_mat[:r, :t].T @ zeta[:, :t]
        lhs_c = rho[:t] @ o_mat[:, :t]
        rhs_c = o_mat[:t, :r] @ rho[:, :t]
        residuals = {
            "r_herm": max(abs(y.c0.imag), abs(y.cm - y.cp.conjugate()))
            / _largest(y),
            "r_eq10": max(abs(y.c0 - h_coeffs.c0), abs(y.cm - h_coeffs.cm),
                          abs(y.cp - h_coeffs.cp)) / _largest(h_coeffs),
            "r_intertwine": _relative(lhs_i - rhs_i, [lhs_i, rhs_i], t),
            "r_quasi": _relative(lhs_q - rhs_q, [lhs_q, rhs_q], t),
            "r_commute": _relative(lhs_c - rhs_c, [lhs_c, rhs_c], t),
        }

    return OperatorBundle(params=p, z=z, realization=realization,
                          trusted=t, hamiltonian=h_mat, rho=rho,
                          zeta_plus=zeta, h_direct=h_direct, observable=o_mat,
                          residuals=residuals, spectrum_h=spectrum)


def metric_block_definite(bundle: OperatorBundle) -> float:
    """Smallest eigenvalue of the diagonally rescaled trusted block of
    zeta_+, certified through the metric root.

    The block equals R R^T for R the leading trusted rows of rho, so it
    is positive-definite exactly when those rows are independent, which
    the invertibility of rho guarantees.  Quantitatively, the square of
    the smallest singular value of the row-normalized R is the smallest
    eigenvalue of the correspondingly rescaled block (a congruence, so
    definiteness is preserved); going through the singular values of R
    instead of the eigenvalues of R R^T avoids squaring the dynamic
    range, which would drown the small end in rounding.
    """
    t = bundle.trusted
    rows = bundle.rho[:t, :]
    norms = np.linalg.norm(rows, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        return float("-inf")
    sigma = np.linalg.svd(rows / norms[:, None], compute_uv=False)
    return float(sigma.min() ** 2)


def eigvec_residuals(bundle: OperatorBundle, count: int = 5) -> np.ndarray:
    """Certify reconstructed eigenvectors of H on the trusted block.

    Eigenvectors psi of h map to phi = rho^{-1} psi of H with the same
    eigenvalue; returns |((H - lambda) phi)[:T]| / |phi[:T]| for the
    lowest `count` pairs.  H vanishes outside its band, so this reads
    only phi[:R], R = T + band, and only those rows of rho^{-1} are
    materialized.  A pair whose phi[:R] or residual is not finite gets
    inf, never NaN.  Components of psi below the eigensolver's noise
    floor are zeroed first: they carry no information and rho^{-1} can
    amplify them exponentially.  The certificate degrades once the
    metric's dynamic range is such that even the retained rounding noise
    outruns the certified vector, which is a property of the similarity
    itself, not of the algorithm.
    """
    mats = bundle.realization
    t = bundle.trusted
    r = min(t + mats.band, mats.dim)
    w, q = _low_eigs(bundle.h_direct, mats.band, count, vectors=True)
    h = bundle.hamiltonian[:t, :r]
    floor = mats.dim * np.finfo(float).eps
    out = np.empty(count)
    # inf * 0 in the rows of rho^{-1} or in phi gives NaN; such a pair is inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rho_inv = materialize_metric_root(bundle.params, bundle.z, mats,
                                          sign=-1, rows=r)
        for i in range(count):
            psi = q[:, i].copy()
            psi[np.abs(psi) < floor * np.abs(psi).max()] = 0.0
            phi = rho_inv @ psi
            num = np.linalg.norm(h @ phi - w[i] * phi[:t])
            den = np.linalg.norm(phi[:t])
            finite = np.isfinite(phi).all() and np.isfinite(num) and np.isfinite(den)
            out[i] = num / den if finite and den > 0.0 else float("inf")
    return out
