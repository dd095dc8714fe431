"""Position-dependent-mass realization on a finite-difference grid.

The generating function g(x) = -exp(-s*x)/s turns the su(1,1) generators
into differential operators K0, K+- (pdm_generators).  The Hermitian
equivalent h = c0 K0 + c (K+ + K-) of a solve_metric record is the same
combination of the grid generators, whose drifts cancel:

    h = mu*omega * (F + curv) + (nu/omega) * (g/2 + tau)^2,
    F = -d/dx (1/g'^2) d/dx,  curv = -(3/4)*s^2*exp(2*s*x),

from the pointwise terms both share (_grid_terms).  Its mass form
-1/2 d/dx (1/m) d/dx + V_eff, m = exp(-2*s*x)/(2*mu*omega), is the tests'
oracle.  The low spectrum must follow sqrt(omega^2 - 4*alpha*beta)(n + 1/2).
run_pdm_check reads mu, nu and that gap from one solve_metric record.
Dirichlet walls stand far enough out that the low eigenfunctions decay
below a threshold at both; a run whose decay check fails is INCONCLUSIVE.

The grid is solved at three refinement levels, coarse to fine, each by
_grid_spectrum from seeds: the algebraic law's values at the coarsest
level, the coarser level's eigenvalues at each finer one.  Three
Rayleigh-quotient steps refine them, all three at once, with one
tridiagonal solve (dgtsv) a step.  Each level is certified on disjoint
intervals (_interval_top) from residuals that bound their own
rounding, and counted by LAPACK (dstebz).  A level whose seeds fail it
refines the bisection's values instead, and one not certified even then
raises NoConvergence.  No module imports scipy: each LAPACK call goes
through _lapack, which loads scipy's compiled wrappers alone.  Of the
package pdm imports only core, errors and metric, the algebra layer.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .core import _EPS, _TINY, _halves
from .errors import InvalidParams, NoConvergence
from .metric import SwansonParams, _exact, _harmonic_law, solve_metric

# run_pdm_check's protocol
COUNT = 3             # eigenvalues checked
RTOL = 0.01           # their tolerance against the law
DECAY_TOL = 1e-8      # the eigenfunctions' relative amplitude at the walls
REFINE = (4, 2, 1)    # the grid levels: points // factor, coarse to fine
LOG_MAX = math.log(sys.float_info.max)
_SQRT_EPS = math.sqrt(_EPS)


def _lapack():
    """scipy.linalg._flapack, scipy's compiled LAPACK wrappers: the loaded
    module, else its extension file next to scipy's package, loaded without
    scipy's Python packages and registered under its name, for a later
    scipy.linalg to reuse.  ImportError, naming the path, where it is missing."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("scipy is not installed: the tridiagonal solves need its "
                          "LAPACK wrappers", name=name)
    stem = os.path.join(os.path.dirname(spec.origin), "linalg", "_flapack")
    paths = [stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK wrappers are missing: no {paths[0]}",
                          name=name, path=paths[0])
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module


def _bisect(diag: np.ndarray, off: np.ndarray, count: int) -> np.ndarray:
    """The lowest `count` eigenvalues (ascending) of the finite symmetric
    tridiagonal (diag, off) of two or more rows (dstebz refuses a one-state
    T's empty off; the grid's have 100 or more), values alone, bisected by
    dstebz to 2 tiny absolute (at ulp ||T|| a wide diagonal's low values
    are noise) as scipy's eigh_tridiagonal does; NoConvergence, in its
    words, where it fails."""
    m, w, *_, info = _lapack().dstebz(diag, off, 2, 0.0, 1.0, 1, count, 2.0 * _TINY, "E")
    if info != 0:
        raise NoConvergence("tridiagonal eigensolve failed: stebz (eigh_tridiagonal) "
                            f"did not converge (LAPACK info={info})")
    return w[:m]


class PdmConfig(NamedTuple):
    """Grid and model configuration for the exponential-mass realization."""

    params: SwansonParams
    z: float = 0.0
    s: float = 0.5
    tau: float = 3.0
    x_min: float = -4.0
    x_max: float = 14.0
    points: int = 2000


class Tridiagonal:
    """A square tridiagonal operator held as scipy.sparse.dia_array holds
    one: data[k, j] is the entry at (j - k + 1, j), k = 0, 1, 2 for the
    lower, main and upper bands, so data[0, -1] and data[2, 0] lie outside
    it.  Products sum the lower, main and upper bands in that order from
    zero, as dia_array's do, so they are bitwise the same."""

    __array_ufunc__ = None  # np.float64 * op is an operator, not an object array

    def __init__(self, data: np.ndarray):
        self.data = data
        self.shape = (data.shape[1],) * 2

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        lower, main, upper = self.data.reshape(self.data.shape + (1,) * (x.ndim - 1))
        y = np.zeros(x.shape, np.result_type(self.data, x))
        y[1:] += lower[:-1] * x[:-1]
        y += main * x
        y[:-1] += upper[1:] * x[1:]
        return y

    def __mul__(self, c):
        return Tridiagonal(self.data * c) if np.isscalar(c) else NotImplemented

    __rmul__ = __mul__


class GridOperator(NamedTuple):
    """Tridiagonal finite-difference operator on the interior grid nodes."""

    matrix: Tridiagonal
    grid: np.ndarray
    dx: float


class PdmReport(NamedTuple):
    """Outcome of the spectral check with its refinement protocol."""

    points_used: tuple[int, ...]
    eigenvalues: np.ndarray
    predicted: np.ndarray
    rel_errors: np.ndarray
    refine_table: dict[int, np.ndarray]
    # ||T q - theta q|| per level, from its certificate
    refine_residuals: dict[int, np.ndarray]
    convergence_ok: bool
    boundary_decay: float
    status: str


def validate_config(cfg: PdmConfig) -> PdmConfig:
    _exact(cfg.params, cfg.z)
    if not (cfg.s > 0.0):
        raise InvalidParams(f"mass exponent s must be positive (got {cfg.s:g})")
    if not (cfg.x_min < cfg.x_max):
        raise InvalidParams("x_min must be below x_max")
    if cfg.points < 100:
        raise InvalidParams(f"need at least 100 grid points (got {cfg.points})")
    if not all(map(math.isfinite, (cfg.s, cfg.tau, cfg.x_min, cfg.x_max))):
        raise InvalidParams("s, tau, x_min and x_max must be finite")
    # the largest grid terms are e^(2 s |x|) over dx^2 (the flux weights)
    # and over (2 s)^2 (the well); refuse before any exp overflows
    dx = (cfg.x_max - cfg.x_min) / (cfg.points + 1)
    if not dx > 0.0:
        raise InvalidParams(f"grid spacing (x_max - x_min) / (points + 1) rounds to 0 "
                            f"(x_min = {cfg.x_min:g}, x_max = {cfg.x_max:g})")
    reach = 2.0 * cfg.s * max(abs(cfg.x_min), abs(cfg.x_max))
    if reach + max(0.0, -2.0 * math.log(dx), -2.0 * math.log(2.0 * cfg.s)) >= LOG_MAX:
        raise InvalidParams(f"grid terms overflow (2 s max|x| = {reach:g}, "
                            f"dx = {dx:g}, s = {cfg.s:g}); shrink the domain "
                            "or move s toward 1")
    return cfg


def _grid_terms(cfg: PdmConfig):
    """(x, dx, w, curv, well, gp): the pointwise terms of the grid generators
    for g(x) = -exp(-s x)/s, so g' = exp(-s x) and g'' = -s g', w, curv and
    g' finite for a validated cfg.  w, the flux weights of F = -d/dx
    (1/g'^2) d/dx, sits at the n + 1 half points x_min + dx (k + 1/2); the
    others at the n interior nodes x = x_min + dx k, k = 1, ..., n, where
    dx = (x_max - x_min) / (n + 1).

    w      1/(g'^2 dx^2)
    curv   g'''/(2 g'^3) - (5/4) g''^2/g'^4 = -(3/4) s^2 / g'^2
    well   g/2 + tau
    gp     g'
    """
    dx = (cfg.x_max - cfg.x_min) / (cfg.points + 1)
    x = cfg.x_min + dx * np.arange(1, cfg.points + 1)
    s = cfg.s
    half = cfg.x_min + dx * (np.arange(cfg.points + 1) + 0.5)
    w = np.exp(2.0 * s * half) / (dx * dx)
    gp = np.exp(-s * x)
    return x, dx, w, -0.75 * s * s / (gp * gp), -0.5 * gp / s + cfg.tau, gp


def _h_tridiag(cfg: PdmConfig, weights: tuple[float, float]):
    """(diag, off) of h = mu omega (F + curv) + (nu/omega) well^2,
    the grid generators' c0 K0 + c (K+ + K-) with Dirichlet walls (_grid_terms),
    for weights = (mu omega, nu / omega); refused where a term (tau's) overflows."""
    mw, nw = weights
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, w, curv, well, _ = _grid_terms(cfg)
        diag = mw * (w[1:] + w[:-1] + curv) + nw * well ** 2
    if not np.isfinite(diag).all():
        raise InvalidParams("effective potential is not finite on the grid; "
                            "shrink the domain or the exponent s")
    return diag, -mw * w[1:-1]


def _tri_mul(diag: np.ndarray, off: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """T v for each row v of the (k, n) stack vecs, T the symmetric
    tridiagonal (diag, off), diag one row or one row per vector: the main,
    upper and lower bands' products summed in that order."""
    out = diag * vecs
    out[:, :-1] += off * vecs[:, 1:]
    out[:, 1:] += off * vecs[:, :-1]
    return out


def _interval_top(theta: np.ndarray, resid: np.ndarray, count: int) -> float | None:
    """The top theta_count + rho_count of a count certificate's intervals
    theta_i +- rho_i, rho_i = max(resid_i, tau_i), tau_i = 2 tiny + 2 eps
    |theta_i| the width ?stebz bisects to, where the `count` of them are
    finite and disjoint and max resid <= sqrt(eps) max |theta| (theta is
    off by about resid^2 / gap); else None.  resid_i must bound a unit
    vector's true residual, its rounding included."""
    rho = np.maximum(resid, 2.0 * (_TINY + _EPS * np.abs(theta)))
    top = theta + rho
    if not (theta.size == count and np.isfinite(top).all()
            and np.all(theta[1:] - rho[1:] > top[:-1])
            and resid.max() <= _SQRT_EPS * np.abs(theta).max()):
        return None
    return float(top[-1])


def _rayleigh(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray):
    """(values, vectors, residuals) refined from `shifts` on the symmetric
    tridiagonal T = (diag, off); None where a solve fails or leaves the doubles.

    Three Rayleigh-quotient steps from a constant start, for all k shifts at
    once: the dgtsv call alone sees the systems (T - theta_j) x_j = q_j as
    the blocks of one tridiagonal with zero links between them, so each
    step is one call.  theta_j then moves to theta_j + x_j.q_j / x_j.x_j,
    the Rayleigh quotient of x_j, and q_j to x_j / ||x_j||.  The products
    run on the (k, n) rows q_j (_tri_mul), and the values returned are the
    Rayleigh quotients q.Tq of one product T q: the solves round
    d - theta_j alike on every row, which would move the last step's value
    by up to an ulp of the diagonal.

    Each residual ||r|| + 4 eps ||m|| bounds ||T q - theta q|| with its
    own rounding, row i of r = T q - theta q being off by at most 4 eps m_i,
    m = (|T| + |theta|) |q|.  Near a wall whose diagonal reaches 1e27 that
    is 1e-8 over a hundred rows, past the certificate's sqrt(eps) |theta|;
    so a row with 4 eps m_i > sqrt(eps) |theta| / (4 sqrt(n)) and factors
    below 2^996 is summed again by math.fsum, correctly rounded, from its
    products split error-free (Dekker, on Veltkamp halves): its error,
    eps |r_i| + tiny (tiny for products that underflow), replaces 4 eps m_i.
    """
    dgtsv = _lapack().dgtsv
    k, n = shifts.size, diag.size
    # row j holds block j, and a zero last link ends it.  dgtsv overwrites
    # the diagonal (main) and both link bands (links, the lower over the
    # upper), so each step fills them anew
    links, main, q, x = np.empty((2 * k, n)), *(np.empty((k, n)) for _ in range(3))
    q.fill(1.0 / math.sqrt(n))
    theta = shifts
    for _ in range(3):
        links[:, :-1], links[:, -1] = off, 0.0
        np.subtract(diag, theta[:, None], out=main)
        x[...] = q
        info = dgtsv(links[:k].ravel()[:-1], main.ravel(), links[k:].ravel()[:-1],
                     x.ravel(), 1, 1, 1, 1)[-1]
        xx = np.einsum("ij,ij->i", x, x)
        if info != 0 or not (min(sums := xx.tolist()) > 0.0 and math.isfinite(sum(sums))):
            return None
        theta = theta + np.einsum("ij,ij->i", x, q) / xx
        np.divide(x, np.sqrt(xx)[:, None], out=q)
    r = _tri_mul(diag, off, q)
    theta = np.einsum("ij,ij->i", q, r)
    r -= np.multiply(theta[:, None], q, out=x)
    resid = np.sqrt(np.einsum("ij,ij->i", r, r))
    del r  # freed before the second product, which would raise the peak
    np.add(np.abs(diag), np.abs(theta)[:, None], out=main)
    m = _tri_mul(main, np.abs(off), np.abs(q, out=x))
    bar = np.abs(theta) / (16.0 * math.sqrt(_EPS * n))  # 4 eps bar = sqrt(eps)|theta|/(4 sqrt n)
    if (m.max(axis=1) > bar).any():
        j, i = np.nonzero(m > bar[:, None])
        r = _tri_mul(diag, off, q) - theta[:, None] * q
        # row i reads e[i], e[i + 1] and q[j, i - 1:i + 2], zero past the ends
        e, qp = np.pad(off, 1), np.pad(q, ((0, 0), (1, 1)))
        a, b = np.stack((diag[i], e[i], e[i + 1], -theta[j])), qp[j, i + [[1], [0], [2], [1]]]
        with np.errstate(over="ignore", invalid="ignore"):
            h = a * b
            (ah, al), (bh, bl) = _halves(a), _halves(b)
            parts = np.concatenate((h, al * bl - (((h - ah * bh) - al * bh) - ah * bl)))
        ok = np.isfinite(parts).all(axis=0)
        exact = np.array([math.fsum(v) for v in parts[:, ok].T.tolist()])
        r[j[ok], i[ok]], m[j[ok], i[ok]] = exact, (_EPS * np.abs(exact) + _TINY) / (4.0 * _EPS)
        resid = np.sqrt(np.einsum("ij,ij->i", r, r))
    return theta, q.T, resid + 4.0 * _EPS * np.sqrt(np.einsum("ij,ij->i", m, m))


def _grid_spectrum(diag: np.ndarray, off: np.ndarray, near: np.ndarray):
    """(values, vectors, residuals) of the lowest COUNT eigenpairs of the
    grid's symmetric tridiagonal h = (diag, off) (_h_tridiag), certified,
    with residuals ||T q - theta q|| of the vectors q.

    _rayleigh refines `near`, approximate eigenvalues such as a coarser
    grid's or the algebraic law's, and the result is certified on
    _interval_top's intervals with dstebz's own count.  Seeds far
    off, such as the law on a grid whose walls cut the eigenfunctions,
    leave residuals well above its sqrt(eps) bound; the bisection's values
    are then refined and certified the same way.  NoConvergence, naming the
    grid's points, its diagonal's range and any failure of the bisection,
    where these do not certify either.
    """
    dstebz = _lapack().dstebz
    reason = ""
    for shifts in (near, None):
        if shifts is None:
            try:
                shifts = _bisect(diag, off, COUNT)
            except NoConvergence as exc:
                reason = f": {exc}"
                break
        got = _rayleigh(diag, off, shifts) if np.isfinite(shifts).all() else None
        top = None if got is None else _interval_top(got[0], got[2], COUNT)
        if top is not None:
            # range "V": the eigenvalues in (-inf, top]; an infinite abstol
            # stops the bisection at once, so only the count is formed
            found, *_, info = dstebz(diag, off, 1, -np.inf, top, 0, 0, np.inf, "E")
            if info == 0 and found == COUNT:
                return got
    raise NoConvergence(
        f"the {diag.size}-point grid's lowest {COUNT} eigenvalues cannot be certified "
        f"(its diagonal spans {diag.min():.3g} to {diag.max():.3g}){reason}")


def boundary_decay(vecs: np.ndarray) -> float:
    """Largest relative wall amplitude among the eigenfunctions that are
    the columns of `vecs` (grid values, walls at the first and last row)."""
    amp = np.abs(vecs)
    return float((amp[[0, -1]].max(axis=0) / amp.max(axis=0)).max())


def run_pdm_check(cfg: PdmConfig) -> PdmReport:
    """Run the documented refinement protocol and classify the outcome.

    The grid is solved at cfg.points divided by each factor of REFINE
    (coarse to fine); these levels must be distinct grids of at least 100
    points, so the check needs 400 points (else InvalidParams, refused
    before the rest of cfg is validated).  One
    solve_metric record gives the grid's weights (mu omega, nu / omega),
    refused where mu <= 0, and the law sqrt(gap) (n + 1/2).
    The coarsest level refines the algebraic law's values and each finer
    level those of the level before it (see _grid_spectrum); the certificate,
    not the seed, makes them the grid's own lowest eigenvalues, so their
    match with the law is not circular.  Every level is certified (else
    NoConvergence), each eigenvalue's successive changes must keep their
    sign and at least halve (or sit below an absolute floor), the finest
    COUNT eigenvalues must match the algebraic law within RTOL, and the
    lowest eigenfunctions must decay below DECAY_TOL at both walls.  A
    failed decay check yields INCONCLUSIVE regardless of the spectral match.
    """
    points_used = tuple(cfg.points // f for f in REFINE)
    if points_used[0] < 100:
        raise InvalidParams(f"the refinement check needs at least {100 * REFINE[0]} "
                            f"grid points (got {cfg.points}): its levels "
                            f"{', '.join(map(str, points_used))} must be distinct "
                            "grids of 100 points or more")
    validate_config(cfg)
    # cfg's validation covers the coarser levels, whose terms stay smaller
    sol = solve_metric(cfg.params, cfg.z)
    if sol.mu <= 0.0:
        raise InvalidParams(f"mass prefactor requires mu > 0 (got mu = {sol.mu:g})")
    weights = (sol.mu * cfg.params.omega, sol.nu / cfg.params.omega)
    refine_table: dict[int, np.ndarray] = {}
    refine_residuals: dict[int, np.ndarray] = {}
    near = predicted = np.array(_harmonic_law(math.sqrt(sol.gap), 0.5, COUNT))
    for pts in points_used:
        # the finest grid's vectors are the ones the decay check reads
        vals, vecs, refine_residuals[pts] = _grid_spectrum(
            *_h_tridiag(cfg._replace(points=pts), weights), near)
        near = refine_table[pts] = vals

    levels = [refine_table[pts] for pts in points_used]
    convergence_ok = all(
        np.all((np.abs(c - b) <= 1e-10)
               | (((c - b) * (b - a) > 0.0) & (np.abs(c - b) <= 0.5 * np.abs(b - a))))
        for a, b, c in zip(levels, levels[1:], levels[2:]))

    finest = levels[-1]
    rel_errors = np.abs(finest - predicted) / np.abs(predicted)
    decay = boundary_decay(vecs)

    if decay > DECAY_TOL:
        status = "INCONCLUSIVE"
    elif np.all(rel_errors <= RTOL) and convergence_ok:
        status = "PASS"
    else:
        status = "FAIL"
    return PdmReport(points_used=points_used, eigenvalues=finest, predicted=predicted,
                     rel_errors=rel_errors, refine_table=refine_table,
                     refine_residuals=refine_residuals, convergence_ok=convergence_ok,
                     boundary_decay=decay, status=status)


def pdm_generators(cfg: PdmConfig) -> tuple[GridOperator, GridOperator, GridOperator]:
    """Finite-difference (K0, Kp, Km) built from the generating function,
    each a Tridiagonal band: no N x N array is formed.

    K0 = 1/2 [ F + curv + well^2 ]
    K+- = 1/2 [ -F -+ drift d/dx - curv +- tilt + well^2 -+ 1/2 ]

    with F, curv and well the terms of _grid_terms, drift = (g + 2 tau)/g'
    and tilt = (g''/g'^2) well.  F is the symmetric flux stencil; d/dx is
    the central difference, so Kp and Km are adjoint only up to the grid
    resolution (checked under refinement).  A nonfinite entry is refused.
    """
    x, dx, w, curv, well, gp = _grid_terms(validate_config(cfg))

    def grid_op(name, lower, main, upper):
        # Tridiagonal's layout: data[k, j] is the entry at (j - k + 1, j)
        data = np.zeros((3, x.size))
        data[0, :-1], data[1], data[2, 1:] = lower, main, upper
        if not np.isfinite(data).all():
            raise InvalidParams(f"the grid generator {name} is not finite "
                                f"(tau = {cfg.tau:g}); shrink tau, the domain or s")
        return GridOperator(Tridiagonal(data), x, dx)

    with np.errstate(over="ignore", invalid="ignore"):
        # flux operator F: f_diag, and -w on both sides
        f_diag, w, sq = w[1:] + w[:-1], w[1:-1], well ** 2
        # drift times the central difference: +-step[i] on node i's neighbors
        step, tilt = 2.0 * well / gp * (1.0 / (2.0 * dx)), -cfg.s / gp * well
        return (grid_op("K0", -0.5 * w, 0.5 * (f_diag + (curv + sq)), -0.5 * w),
                grid_op("K+", 0.5 * (w + step[1:]),
                        0.5 * (-f_diag + (-curv + tilt + sq - 0.5)), 0.5 * (w - step[:-1])),
                grid_op("K-", 0.5 * (w - step[1:]),
                        0.5 * (-f_diag + (-curv - tilt + sq + 0.5)), 0.5 * (w + step[:-1])))
