"""Materialize the operator bundle and verify identities numerically.

Everything spectral goes through the Hermitian equivalent h: spectra of
the non-Hermitian H are never computed with a nonsymmetric eigensolver.
Hermiticity of rho H rho^{-1} and eq. (10) rest only on the su(1,1)
commutators, so they are checked on coefficient triples.  The matrix
diagnostics (intertwining, quasi-Hermiticity, metric/observable
commutation) are measured in the spectral norm of the leading trusted
block, normalized by the operand norms, because the metric amplifies
truncation error at the top of the basis.

No N x N matrix is formed but the ladder factor of materialize_metric_root:
H, h and O live on the leading R = trusted + band states, rho on its leading
R rows, and h's eigenpairs come from its coefficients and the bands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import AlgebraElement, _ordered_factor, conjugate
from .errors import InvalidParams, NoConvergence, TruncationTooSmall, ZOutOfDomain
from .metric import (SwansonParams, commuting_observable, hermitian_equivalent,
                     is_admissible, metric_exponent, solve_epsilon,
                     swanson_element, validate_params)
from .realizations import RealizationMatrices, dense_from_bands, materialize

DEFAULT_TRUSTED = 50


@dataclass
class OperatorBundle:
    """The metric blocks the residuals read, the residuals and the
    spectrum of h.

    Nothing is N x N: with R = trusted + band (at most N), `rho` is the
    leading R rows of rho, (R, N), and `zeta_plus` the leading R x R block
    of zeta_+ = rho^2.  H, h and O are not kept; their coefficients follow
    from `params` and `z`.
    """

    params: SwansonParams
    z: float
    realization: RealizationMatrices
    trusted: int
    rho: np.ndarray
    zeta_plus: np.ndarray
    residuals: dict[str, float] = field(default_factory=dict)
    spectrum_h: np.ndarray = field(default_factory=lambda: np.empty(0))


def _low_eigs(x: AlgebraElement, realization: RealizationMatrices,
              count: int, vectors: bool = False):
    """Lowest `count` eigenvalues (ascending) of the real symmetric
    operator x = c0 K0 + c (Km + Kp) on the realization, with their
    eigenvectors as columns when `vectors` is set.  The solver reads the
    coefficients and the bands and computes the selected pairs only.  A
    count above the dimension yields all of them; zero yields none.
    """
    if count < 0:
        raise InvalidParams(f"eigenpair count must be nonnegative (got {count})")
    if x.cm != x.cp or complex(x.c0).imag or complex(x.cm).imag:
        raise InvalidParams(f"operator is not real symmetric: {x}")
    n, band = realization.dim, realization.band
    count = min(count, n)
    diag = x.c0.real * realization.k0_diag
    off = x.cm.real * realization.kp_band
    if count == 0:
        return (np.empty(0), np.empty((n, 0))) if vectors else np.empty(0)
    # x couples state m to m +- band only, so the states of each class
    # modulo band form a tridiagonal chain; the selected pairs of a chain
    # need O(N) memory, where a banded solver's eigenvectors would need the
    # N x N matrix of its reduction to tridiagonal form.  Twice the safe
    # minimum is LAPACK's bisection tolerance for the most accurate values.
    w, q = [], []
    try:
        for c in range(min(band, n)):
            d = diag[c::band]
            wc = eigh_tridiagonal(d, off[c::band], eigvals_only=not vectors,
                                  select="i", tol=2.0 * np.finfo(float).tiny,
                                  select_range=(0, min(count, d.size) - 1))
            if vectors:
                wc, vc = wc
                q.append(np.zeros((n, wc.size)))
                q[-1][c::band] = vc
            w.append(wc)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"tridiagonal eigensolve failed: {exc}") from exc
    w = np.concatenate(w)
    lowest = np.argsort(w, kind="stable")[:count]
    return (w[lowest], np.hstack(q)[:, lowest]) if vectors else w[lowest]


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
    """Materialize the leading blocks of H, h and O, the rows of rho and
    the block of zeta_+ that the residuals read, and check them.

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
    H, h, O, rho and zeta_+; H, h and O are materialized on those R
    states alone.  rho is symmetric, so its leading R rows give both, and
    the R x R block of zeta_+ = rho rho is rho[:R] rho[:R]^T.  No N x N
    product is formed, and rho^{-1} not at all.

    The spectrum is the lowest `spectrum_count` eigenvalues (default
    trusted // 2, at least 1; all N if more are asked) of h, from its
    coefficients and the realization's bands.
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
    # before the metric rows are formed
    count = spectrum_count if spectrum_count is not None else max(1, t // 2)
    spectrum = _low_eigs(h_coeffs, realization, count)

    block = realization.leading(r)
    h_direct = materialize(h_coeffs, block)
    h_mat = materialize(swanson_element(p), block)
    o_mat = materialize(commuting_observable(z), block)
    rho = materialize_metric_root(p, z, realization, sign=1, rows=r)

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        zeta = rho @ rho.T
        lhs_i = h_direct[:t] @ rho[:, :t]
        rhs_i = rho[:t, :r] @ h_mat[:, :t]
        lhs_q = zeta[:t] @ h_mat[:, :t]
        rhs_q = h_mat[:, :t].T @ zeta[:, :t]
        lhs_c = rho[:t, :r] @ o_mat[:, :t]
        rhs_c = o_mat[:t] @ rho[:, :t]
        residuals = {
            "r_herm": max(abs(y.c0.imag), abs(y.cm - y.cp.conjugate()))
            / _largest(y),
            "r_eq10": max(abs(y.c0 - h_coeffs.c0), abs(y.cm - h_coeffs.cm),
                          abs(y.cp - h_coeffs.cp)) / _largest(h_coeffs),
            "r_intertwine": _relative(lhs_i - rhs_i, [lhs_i, rhs_i], t),
            "r_quasi": _relative(lhs_q - rhs_q, [lhs_q, rhs_q], t),
            "r_commute": _relative(lhs_c - rhs_c, [lhs_c, rhs_c], t),
        }
    # rho[:t, r:] meets only zeros of H and O, but where it overflows the
    # full products hold inf * 0 = NaN: r_intertwine and r_commute stay inf
    if not np.isfinite(rho[:t]).all():
        residuals["r_intertwine"] = residuals["r_commute"] = float("inf")

    return OperatorBundle(params=p, z=z, realization=realization,
                          trusted=t, rho=rho, zeta_plus=zeta,
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
    only phi[:R], R = T + band: H is materialized on those R states, only
    those rows of rho^{-1} are formed, (R, N), and psi comes from the
    band's tridiagonal chains.  A pair whose phi[:R] or residual is not
    finite gets inf, never NaN.  Components of psi below the
    eigensolver's noise floor are zeroed first: they carry no information
    and rho^{-1} can amplify them exponentially.  The certificate degrades
    once the metric's dynamic range is such that even the retained
    rounding noise outruns the certified vector, which is a property of
    the similarity itself, not of the algorithm.
    """
    mats = bundle.realization
    t = bundle.trusted
    r = min(t + mats.band, mats.dim)
    w, q = _low_eigs(hermitian_equivalent(bundle.params, bundle.z), mats,
                     count, vectors=True)
    h = materialize(swanson_element(bundle.params), mats.leading(r))[:t]
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
