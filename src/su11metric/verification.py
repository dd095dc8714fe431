"""Build the operator bundle and verify identities numerically.

Everything spectral goes through the Hermitian equivalent h: spectra of
the non-Hermitian H are never computed with a nonsymmetric eigensolver.
Hermiticity of rho H rho^{-1} and eq. (10) rest only on the su(1,1)
commutators, so they are checked on coefficient triples, read like eps
from the one record solve_metric forms per (p, z), not solved again.  The matrix
diagnostics (intertwining, quasi-Hermiticity, metric/observable
commutation) are measured in the spectral norm of the leading trusted
block, normalized by the left-hand side's, because the metric amplifies
truncation error at the top of the basis; each block's norm is its
chains' largest, one small SVD per chain (_relative_residuals).

No N x N matrix is formed, and no matrix of H, h or O at all: rho and
zeta_+ are R x R blocks (R = trusted + band) from one metric kernel whose
cost does not grow with N (materialize_metric_root), H, h and O act on
them as band shifts (realizations.apply), and h's lowest eigenvalues
come from its coefficients alone, for mu > 0 only, where h is a rotated
oscillator: on each chain, a discrete series D+(k), they are the harmonic
law Omega (n + k), certified in the chain's N states in closed form by
interlacing and a Kato-Temple bound from the one cut link (_low_eigs,
_chain_bracket).  A chain the bracket does not certify (a near-parabolic
h, or a chain too short for the law) has its values alone bisected whole
by LAPACK (_bisect; _lapack loads scipy's compiled wrappers, the one route
to LAPACK, without importing scipy).  So
build_bundle's cost does not grow with N; only building the realization,
which the caller does, still does.  Where a metric block does not exist
in the realization's basis (a divergent series, zeta_+ at z = 2 beta /
omega) it is inf, and so are the residuals that read it.  The rule is per
entry and strict: a block whose tail bound does not fit in the N states
is inf even where the spectral-norm residuals would not move.
Columns asked for past the block's rows (acceptance criterion 5 and the
tests' transport check phi = rho^{-1} psi read them) are summed to the N
states where their own bound does not fit, with no inf.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import AlgebraElement, _pivots
from .errors import InvalidParams, NoConvergence, TruncationTooSmall
from .metric import (MetricSolution, _harmonic_law, commuting_observable,
                     swanson_element)
from .realizations import RealizationMatrices, apply

DEFAULT_TRUSTED = 50
SPECTRUM_COUNT = 5   # h's levels in a bundle: e0 to e4, as verify and sweep print them


@dataclass
class OperatorBundle:
    """The metric blocks the residuals read, the residuals and the
    spectrum of h.

    Nothing is N x N: with R = trusted + band (at most N), `rho` and
    `zeta_plus` are the leading R x R blocks of rho = exp(A) and
    zeta_+ = exp(2A), each inf where its matrix elements do not exist.
    H, h and O are not kept; their coefficients follow from `solution`,
    the metric family's record at the bundle's (p, z) (solve_metric).
    """

    solution: MetricSolution
    realization: RealizationMatrices
    trusted: int
    rho: np.ndarray
    zeta_plus: np.ndarray
    residuals: dict[str, float]
    spectrum_h: np.ndarray


# _bisect's tolerance: 2 tiny absolute (LAPACK's value for the most
# accurate eigenvalues) and, inside LAPACK, 2 ulp relative
_TINY, _EPS = float(np.finfo(float).tiny), float(np.finfo(float).eps)


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
    tridiagonal (diag, off), values alone, bisected by dstebz to 2 tiny
    absolute (at ulp ||T|| a wide diagonal's low values are noise) as
    scipy's eigh_tridiagonal does; NoConvergence, in its words, where it
    fails.  A one-state T (dstebz refuses its empty off) is its own value."""
    if diag.size == 1:
        return diag.copy()
    m, w, *_, info = _lapack().dstebz(diag, off, 2, 0.0, 1.0, 1, count, 2.0 * _TINY, "E")
    if info != 0:
        raise NoConvergence("tridiagonal eigensolve failed: stebz (eigh_tridiagonal) "
                            f"did not converge (LAPACK info={info})")
    return w[:m]


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _chain_bracket(c0: float, c: float, k: float, n_states: int, want: int):
    """The law theta_n = Omega (n + k), n < want, as the lowest levels of
    x = c0 K0 + c (K+ + K-) (c0 > 2|c|) on the leading N = n_states states
    of D+(k), a chain as realizations._chains forms it, where each is
    certified within 4 tau_n, tau_n = 2 tiny + 2 eps theta_n, for the exact
    truncation with these c0, c and k (not its rounded bands); else None.
    k = 0 (a zero multiboson residue) is a decoupled 0 plus D+(1).

    x = Omega U K0 U^-1; Bargmann's elements bound psi_n = U|n> term by term
    at the cut and past it (log_bound).  The cut link l = |c| sqrt(N (N - 1
    + 2k)) alone leaves the kept states, so P psi_n's Rayleigh quotient rho
    is within l |psi_n(N-1) psi_n(N)| / |P psi_n|^2 of theta_n, its residual
    r <= l |psi_n(N)| / |P psi_n|.  Interlacing puts each level at or above
    the law; Kato-Temple puts lambda_0 <= rho and, where r^2 < (rho - a)
    (theta_(n+1) - rho), a the previous level's upper end, the one level in
    (a, theta_(n+1)) at most rho + r^2 / (rho - a).  Logarithms are raised
    by `err` over their rounding; both ends widen by the law's (2.25 eps)."""
    if k == 0.0:
        rest = _chain_bracket(c0, c, 1.0, n_states - 1, want - 1) if want > 1 else ()
        return None if rest is None else np.r_[0.0, rest]
    a, n_cut = abs(c), n_states
    square = (c0 - 2.0 * a) * (c0 + 2.0 * a)
    omega = math.sqrt(square)
    theta = _harmonic_law(omega, k, want + 1)
    # past k = 1 / eps the rounding of lgamma(2k) alone outgrows every bound
    if not (square >= _TINY and theta[-1] < math.inf and 0.0 < k < 1.0 / _EPS):
        return None
    if a == 0.0:
        return np.array(theta[:want])
    logs = [math.log(2.0 * a), math.log(2.0 * omega), math.log(c0 + omega)]
    log_t, log_u = logs[0] - logs[2], logs[1] - logs[2]
    log_link = math.log(a) + 0.5 * (math.log(n_cut) + math.log(n_cut - 1 + 2.0 * k))
    t2 = (2.0 * a / (c0 + omega)) ** 2 * (1.0 + 16.0 * _EPS)
    s = [t2 * (n_cut + 1.0) / (n_cut + 1.0 - j)
         * max(1.0, (n_cut + 2.0 * k) / (n_cut + 1.0 - j)) for j in range(want)]
    if max(s) >= 1.0:
        return None
    lg = [math.lgamma(i + 1.0) for i in range(want + 1)]
    lg2k = [math.lgamma(i + 2.0 * k) for i in range(want + 1)]
    near_cut = [math.lgamma(n_cut + 1.0 - i) for i in range(want + 1)]
    edge = {m: 0.5 * (math.lgamma(m + 1.0) + math.lgamma(m + 2.0 * k))
            for m in (n_cut - 1, n_cut)}
    # what a log term's rounding scales with: its logs and lgammas, Omega's 2.5 ulp
    size = ((2 * n_cut + 2 * want + k) * (sum(map(abs, logs)) + 1.0) + abs(log_link)
            + 8.0 * max(map(abs, lg + lg2k + near_cut + list(edge.values()))))
    err = (64.0 + 2.0 * want) * _EPS * (size + 16.0)

    def log_bound(m, n, tail=False):
        # log sum_(j <= n) T_j(m) >= log |psi_n(m)| (n < N: m = N - 1, N),
        # T_j(m) = t^(m+n-2j) (1 - t^2)^(j+k) sqrt(m! G(m+2k) n! G(n+2k)) /
        # ((m-j)! (n-j)! j! G(j+2k)), t = 2|c| / (c0 + Omega), 1 - t^2 =
        # 2 Omega / (c0 + Omega); or, with `tail`, >= log |(1 - P) psi_n|,
        # each T_j(N) over sqrt(1 - s_j), s_j >= T_j(m+1)^2 / T_j(m)^2, m >= N
        return err + np.logaddexp.reduce([
            (m + n - 2 * j) * log_t + (j + k) * log_u + edge[m] + 0.5 * (lg[n] + lg2k[n])
            - near_cut[n_cut - m + j] - lg[n - j] - lg[j] - lg2k[j]
            - (0.5 * math.log1p(-s[j]) if tail else 0.0) for j in range(n + 1)])

    law_err = [2.5 * _EPS * x + _TINY for x in theta]
    width = []
    for n in range(want):
        tail2 = _exp_or_inf(2.0 * log_bound(n_cut, n, tail=True))
        if not tail2 < 1.0:
            return None
        log_norm = math.log1p(-tail2)
        inside, outside = (min(0.0, log_bound(m, n)) for m in (n_cut - 1, n_cut))
        w = law_err[n] + _exp_or_inf(log_link + inside + outside - log_norm + err)
        if n:
            # rho - a and theta_(n+1) - rho, from below
            resid2 = _exp_or_inf(2.0 * (log_link + outside) - log_norm + err)
            gap = (theta[n] - theta[n - 1]) * (1.0 - _EPS) - (w + width[-1])
            room = (theta[n + 1] - theta[n]) * (1.0 - _EPS) - (law_err[n + 1] + w)
            if not (gap > 0.0 and resid2 < gap * room * (1.0 - _EPS)):
                return None
            w += resid2 / gap
        if not w <= 8.0 * (_TINY + _EPS * theta[n]):
            return None
        width.append(w)
    return np.array(theta[:want])


def _low_eigs(x: AlgebraElement, realization: RealizationMatrices,
              count: int) -> np.ndarray:
    """The lowest `count` eigenvalues (ascending) of the real symmetric
    x = c0 K0 + c (Km + Kp) on the realization, certified.  A count above
    the dimension yields all; zero none.

    x must be elliptic, c0 > 2|c| (for h, mu > 0, as c0 - 2c = 2 mu omega
    and c0^2 > 4 c^2): -K0 or a hyperbolic or parabolic x has no lowest
    levels on the infinite chain and is refused.  Each chain of states
    equal modulo band is a D+(k), k its lowest K0 (realizations._chains);
    it takes the law where _chain_bracket certifies it in the chain's
    states, else its values are bisected whole (_bisect).
    """
    if count < 0:
        raise InvalidParams(f"eigenvalue count must be nonnegative (got {count})")
    if x.cm != x.cp or complex(x.c0).imag or complex(x.cm).imag:
        raise InvalidParams(f"operator is not real symmetric: {x}")
    c0, c = x.c0.real, x.cm.real
    if not c0 > 2.0 * abs(c):
        raise InvalidParams(f"h = {c0:g} K0 + {c:g} (K+ + K-) is bounded below only for mu > 0")
    n, band = realization.dim, realization.band
    count = min(count, n)
    if count == 0:
        return np.empty(0)
    # LAPACK reads finite bands; |c| K+ <= c0 (K0 + 1/2) / 2 is finite with c0 K0
    k0_max = float(realization.k0_diag.max())
    if c0 * k0_max == math.inf:
        raise InvalidParams(f"h's diagonal overflows (c0 = {c0:g}, K0 up to {k0_max:g})")
    w = []
    for ch in range(min(band, n)):
        k0 = realization.k0_diag[ch::band]
        kp = realization.kp_band[ch::band]
        want = min(count, k0.size)
        law = _chain_bracket(c0, c, float(k0[0]), k0.size, want)
        w.append(_bisect(c0 * k0, c * kp, want) if law is None else law)
    return np.sort(np.concatenate(w), kind="stable")[:count]


# relative size of the neglected tail of an antinormal metric sum
_TAIL_TOL = np.finfo(float).eps / 4.0


def _ladder_exp(sub: np.ndarray, coeff: float, rows: int, cols: int) -> np.ndarray:
    """Leading rows x cols block of exp(coeff B), where B holds `sub` on its
    first subdiagonal (the raising operator along one chain of states):
    the metric kernel's factor G (materialize_metric_root).

    Row j + o of column j is coeff^o / o! sub[j] ... sub[j + o - 1], the
    running product down the column of the factors f[o, j] =
    coeff sub[j + o] / (o + 1), so every entry is a product of its path
    factors with full relative precision.
    """
    out = np.zeros((rows, cols))
    np.fill_diagonal(out, 1.0)
    if rows < 2:
        return out
    pad = np.concatenate((sub[:rows - 1], np.zeros(cols)))
    f = sliding_window_view(pad, cols)[:rows - 1] * (coeff / np.arange(1.0, rows)[:, None])
    # the product of f[:o + 1, j] lands in row j + o + 1
    target = np.arange(1, rows)[:, None] + np.arange(cols)
    keep = target < rows
    out[target[keep], np.nonzero(keep)[1]] = np.cumprod(f, axis=0)[keep]
    return out


def _tail_count(ratio: float, a: float, spare: int) -> int | None:
    """Terms past max(i, j) that complete the antinormal sum
    M[i, j] = sum_k G[k, i] G[k, j] of every entry of the block to
    _TAIL_TOL relative; None when the first `spare` + 1 terms do not.

    Along a chain k0 rises by 1 per step and K+ <= K0 + 1/2 (a D+(k) chain
    of realizations._chains), so the ratio of term o + 1 to term o is at
    most r_o = ratio ((a + o) / (o + 1))^2, with a = max k0 + 1/2 over the
    block and `ratio` = coeff^2 = p^2 e^q.  The terms share one sign, so
    the sum is at least its largest term, and the tail past term O is at
    most t_O rbar / (1 - rbar), rbar = sup_{o >= O} r_o = max(r_O, ratio).
    A ratio of 1 or more never meets the bound: the series diverges.
    """
    if not ratio < 1.0:
        return None
    # every quantity below at O depends on o <= O only, so the terms are
    # scanned on a prefix that doubles until it holds the count: the work
    # follows the count, not `spare`
    terms = 64
    while True:
        o = np.arange(float(min(terms, spare + 1)))
        r = ratio * ((a + o) / (o + 1.0)) ** 2
        rbar = np.maximum(r, ratio)
        with np.errstate(divide="ignore", invalid="ignore"):
            # log of the bound on t_O / t_0, and on t_O over the largest
            # earlier term
            log_t = np.concatenate(([0.0], np.cumsum(np.log(r[:-1]))))
            drop = log_t - np.maximum.accumulate(log_t)
            tail = drop + np.log(rbar / (1.0 - rbar))
        hits = np.flatnonzero((rbar < 1.0) & (tail <= np.log(_TAIL_TOL)))
        if hits.size:
            return int(hits[0])
        if terms > spare:
            return None
        terms *= 2


def _halves(v):
    """Veltkamp's split of v into 26-bit halves, whose products are exact; NaN past 2^996."""
    t = 134217729.0 * v     # 2^27 + 1
    high = t - (t - v)
    return high, v - high


def _exp_product(q: float, x: np.ndarray) -> np.ndarray:
    """e^{q x} with the argument q x carried to double length: Veltkamp
    halves make every partial product exact, so the |q x| ulps that
    rounding q x would cost e^{q x} are not lost."""
    qh, ql = _halves(q)
    xh, xl = _halves(x)
    return np.exp(qh * xh) * np.exp(qh * xl + ql * xh + ql * xl)


def _ordered_metric(sol: MetricSolution, sign: int) -> tuple[bool, float, float]:
    """(antinormal, q, c) for rho^sign = exp(sign A) = S M S, where
    S = e^{q K0 / 2} and M is built from G = exp(c K+): M = G G^T in the
    normal ordering (eps <= 0), G^T G in the antinormal one.

    K+ raises k0 by exactly 1, so e^{(q/2) K0} K+ e^{-(q/2) K0} = e^{q/2} K+
    and exp(p K+) S = S exp(p e^{-q/2} K+); the antinormal ordering moves
    S the other way.  So c = p e^{-q/2} (normal) or p e^{q/2}
    (antinormal), in both cases 2 eta sinh(theta)/theta, and q = -+2 ln C
    for the ordering's pivot C = cosh(theta) + |eps| sinh(theta)/theta >= 1;
    both are taken from core._pivots, so that neither carries the other's
    rounding.  eps is the record's (solve_metric), so nothing is solved.
    """
    eps = sign * sol.epsilon
    eta = sol.z * eps / 2.0
    s, scale, _, _, log_big = _pivots(eps, eta)
    antinormal = eps > 0.0
    q = 2.0 * log_big if antinormal else -2.0 * log_big
    return antinormal, q, 2.0 * eta * s * math.exp(scale)


def materialize_metric_root(sol: MetricSolution, realization: RealizationMatrices,
                            sign: int = 1, *, rows: int,
                            cols: int | None = None) -> np.ndarray:
    """The leading rows x cols block (cols = rows if not given; both at
    most N) of rho^sign = exp(sign A): rho^{-1}, rho, or zeta_+ = exp(2A)
    for sign = -1, 1, 2, at the record's (p, z) (solve_metric).

    The block is S[:rows] M S[:cols] (see _ordered_metric), with the scale
    S = e^{q k0 / 2} kept apart and M computed chain by chain (states
    m = c mod band), where G is a running product of band entries:

      normal      M = G G^T, a finite sum over k <= min(i, j): only the
                  leading block of G enters, and no N;
      antinormal  M = G^T G, a series over k >= max(i, j) whose terms
                  shrink like (p^2 e^q)^k.  It is cut after the count of
                  terms past the last row that _tail_count takes from a
                  closed-form bound, and never past the N states the
                  realization holds.  Where that count does not fit in
                  N states (p^2 e^q >= 1: the matrix elements do not
                  exist, e.g. zeta_+ at z = 2 beta / omega), the block is
                  inf, not a number that depends on N.  Columns past
                  `rows`, which acceptance criterion 5 and the tests'
                  transport check phi = rho^{-1} psi read, take the count
                  their own k0 needs; where that does not fit either,
                  their sums run to the N states (the leading rows of
                  the product on the truncated basis) and are not made
                  inf.

    For fixed (i, j) every term carries the same sign, so nothing cancels
    (exponentiating A through its eigensystem instead loses the far
    entries once the eigenvalue spread is large).  An entry out of range
    is inf, never NaN, and no warning is raised.
    At p = 0 (every z = 0) the block is diag(e^{q k0}).
    """
    n, band = realization.dim, realization.band
    rows = min(rows, n)
    cols = rows if cols is None else min(cols, n)
    size = max(rows, cols)
    antinormal, q, coeff = _ordered_metric(sol, sign)
    k0 = realization.k0_diag
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if coeff == 0.0:
            out = np.zeros((rows, cols))
            np.fill_diagonal(out, _exp_product(q, k0[:min(rows, cols)]))
            return out
        depth = size
        if antinormal:
            count = _tail_count(coeff * coeff, k0[:rows].max() + 0.5,
                                (n - rows) // band)
            if count is None:
                return np.full((rows, cols), np.inf)
            if cols > rows:
                # the columns past `rows` take the count their own k0 needs,
                # or run to the N states where that does not fit
                count = _tail_count(coeff * coeff, k0[:size].max() + 0.5,
                                    (n - size) // band)
                count = n if count is None else count
            depth = min(n, size + band * count)
        scale = _exp_product(0.5 * q, k0[:size])
        out = np.zeros((rows, cols))
        for c in range(min(band, size)):
            nr, nc = len(range(c, rows, band)), len(range(c, cols, band))
            sub = realization.kp_band[c::band]
            if antinormal:
                g = _ladder_exp(sub, coeff, len(range(c, depth, band)), max(nr, nc))
                m = g[:, :nr].T @ g[:, :nc]
            else:
                g = _ladder_exp(sub, coeff, max(nr, nc), min(nr, nc))
                m = g[:nr] @ g[:nc].T
            s = scale[c::band]
            out[c::band, c::band] = s[:nr, None] * m * s[:nc]
        out[np.isnan(out)] = np.inf
    return out


def _relative_residuals(products: dict[str, tuple[np.ndarray, np.ndarray]],
                        t: int, band: int) -> dict[str, float]:
    """{name: |lhs - rhs| / |lhs|} for products {name: (lhs, rhs)}, in the
    spectral norm of the leading t x t blocks.  This bounds the symmetric
    r = |lhs - rhs| / max(|lhs|, |rhs|) from above, and barely: |rhs| <=
    |lhs| + |lhs - rhs| gives r <= r' <= r / (1 - r), so at rounding-level
    residuals no printed digit moves, and it takes two norms per product,
    not three.  A vanishing lhs reads inf: for admissible input h rho,
    zeta_+ H and rho O are never zero in exact arithmetic, so a zero block
    underflowed, and a check that compares nothing must not pass.

    Every block is block-diagonal over the realization's chains (states
    c, c + band, ...): rho and zeta_+ are written chain by chain
    (materialize_metric_root), and K0 and K+- keep each state on its
    chain.  So a block's norm is exactly the largest of its chains',
    one stacked SVD per chain of at most ceil(t / band) states; chains
    past t are empty.  A block with a non-finite entry reads inf, and so
    does every residual that reads it."""
    blocks = np.stack([b[:t, :t] for lhs, rhs in products.values()
                       for b in (lhs - rhs, lhs)])
    finite = np.isfinite(blocks).all(axis=(1, 2))
    norms = np.full(len(blocks), np.inf)
    if finite.any():
        kept = blocks if finite.all() else blocks[finite]
        norms[finite] = np.max([np.linalg.svd(kept[:, c::band, c::band],
                                              compute_uv=False)[:, 0]
                                for c in range(min(band, t))], axis=0)
    return {name: d / base if base > 0.0 and math.isfinite(d + base) else math.inf
            for name, (d, base) in zip(products, norms.reshape(-1, 2).tolist())}


def _largest(x: AlgebraElement) -> float:
    # nonzero for H and its conjugates: their Casimir is
    # 4 (omega^2 - 4 alpha beta) > 0
    return max(abs(x.c0), abs(x.cm), abs(x.cp))


def build_bundle(sol: MetricSolution, realization: RealizationMatrices,
                 trusted: int = DEFAULT_TRUSTED) -> OperatorBundle:
    """Form the leading blocks of rho and zeta_+ that the residuals read,
    and check them, at the (p, z) of sol (solve_metric, which checked p
    and z; nothing here solves again).  T must satisfy 2 <= T < N.

    Residuals.  r_herm and r_eq10 are coefficient-level, on the adjoint
    closed form y = 2 (u, v, w) (real for real eps and eta), relative to
    the largest coefficient, and independent of realization, N and T:

        r_herm        Hermiticity defect of y: |cm - cp|
        r_eq10        y vs h = (c0, c, c) (mu, nu and c from the exact
                      stability polynomial, metric._weights)

    The rest are spectral norms of the leading trusted x trusted block,
    normalized by the left-hand side's (_relative_residuals):

        r_intertwine  h rho - rho H
        r_quasi       zeta_+ H - H^T zeta_+
        r_commute     rho O - O rho

    H, h and O vanish outside their band, so the leading T x T block of
    each product reads only the leading R = T + band rows and columns of
    rho and zeta_+, two R x R blocks of the same kernel; H, h and O act on
    them as band shifts (realizations.apply), all six products in one
    call.  No operator matrix is formed, and rho^{-1} not at all.  Where
    the zeta_+ series diverges r_quasi is inf while the other residuals
    stay finite.

    spectrum_h is h's lowest SPECTRUM_COUNT eigenvalues (all N if N is
    smaller), taken by _low_eigs before any metric block is formed: it
    refuses an admissible z where mu <= 0, whose h is unbounded below.
    The six spectral norms come from one stacked SVD per chain.
    """
    n = realization.dim
    if trusted >= n or trusted < 2:
        raise TruncationTooSmall(
            f"need 2 <= trusted < dim (got trusted = {trusted}, dim = {n})")

    t = trusted
    r = min(t + realization.band, n)
    h_coeffs = AlgebraElement(sol.c0, sol.c, sol.c)
    spectrum = _low_eigs(h_coeffs, realization, SPECTRUM_COUNT)
    y = AlgebraElement(2.0 * sol.u, 2.0 * sol.v, 2.0 * sol.w)

    rho = materialize_metric_root(sol, realization, sign=1, rows=r)
    zeta = materialize_metric_root(sol, realization, sign=2, rows=r)

    # the six products by one stacked band shift on the R states, cut to
    # T x T; a right product B X is (X^T B^T)^T, X^T swapping cm and cp
    h_mat, o_mat = swanson_element(sol.params), commuting_observable(sol.z)
    h_t, o_t = (AlgebraElement(x.c0, x.cp, x.cm) for x in (h_mat, o_mat))
    ops, operands = zip(
        (h_coeffs, rho[:, :t]), (h_t, rho[:t].T),      # h rho, (rho H)^T
        (h_t, zeta[:t].T), (h_t, zeta[:, :t]),          # (zeta H)^T, H^T zeta
        (o_t, rho[:t].T), (o_mat, rho[:, :t]))          # (rho O)^T, O rho
    coeffs = np.array([(x.c0, x.cm, x.cp) for x in ops]).T[..., None, None]
    # an inf block gives inf * 0 = NaN in the products, which read inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        prod = apply(AlgebraElement(*coeffs), realization, np.stack(operands))[:, :t]
        residuals = _relative_residuals({
            "r_intertwine": (prod[0], prod[1].T),
            "r_quasi": (prod[2].T, prod[3]),
            "r_commute": (prod[4].T, prod[5]),
        }, t, realization.band)
    residuals = {
        "r_herm": abs(y.cm - y.cp) / _largest(y),
        "r_eq10": max(abs(y.c0 - h_coeffs.c0), abs(y.cm - h_coeffs.cm),
                      abs(y.cp - h_coeffs.cp)) / _largest(h_coeffs),
        **residuals,
    }

    return OperatorBundle(solution=sol, realization=realization,
                          trusted=t, rho=rho, zeta_plus=zeta,
                          residuals=residuals, spectrum_h=spectrum)
