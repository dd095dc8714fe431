"""Build the operator bundle and verify identities numerically.

Everything spectral goes through the Hermitian equivalent h: spectra of
the non-Hermitian H are never computed with a nonsymmetric eigensolver.
Hermiticity of rho H rho^{-1} and eq. (10) rest only on the su(1,1)
commutators, so they are checked on coefficient triples of the record
solve_metric forms per (p, z).  The matrix checks (intertwining,
quasi-Hermiticity, metric/observable commutation) are spectral norms of
the leading trusted block relative to the left-hand side's, because the
metric amplifies truncation error at the top of the basis.  Every
operator keeps each state on its chain, a D+(k_c) of the realization, so
build_bundle works one chain at a time and nothing it does grows with N:
h's levels from the harmonic law that _chain_bracket certifies (else
TruncationTooSmall), the chain's blocks of rho and zeta_+ (_chain_root),
H, h and O on them as unit shifts (realizations.apply), and one SVD for
the chain's norms.  The bundle keeps no metric block:
materialize_metric_root, which forms the same chain blocks, alone
interleaves them into the basis.  A metric block that does not exist in
the basis (a divergent series, zeta_+ at z = 2 beta / omega) is inf, as
are the residuals that read it.  The rule is per entry and strict: a
block whose tail bound does not fit in the N states is inf even where
the spectral-norm residuals would not move.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import _EPS, _TINY, AlgebraElement, _halves, _kato_temple, _pivots
from .errors import InvalidParams, TruncationTooSmall
from .metric import (MetricSolution, _harmonic_law, commuting_observable,
                     swanson_element)
from .realizations import RealizationMatrices, _interleave, apply

DEFAULT_TRUSTED = 50
SPECTRUM_COUNT = 5   # h's levels in a bundle: e0 to e4, as verify and sweep print them


class OperatorBundle(NamedTuple):
    """The residuals and h's spectrum at one (p, z) and realization.  The
    residuals read the leading R x R blocks of rho = exp(A) and zeta_+ =
    exp(2A), R = trusted + band (at most N); materialize_metric_root(
    solution, realization, sign, rows=R), sign = 1, 2, gives them."""

    solution: MetricSolution
    realization: RealizationMatrices
    trusted: int
    residuals: dict[str, float]
    spectrum_h: np.ndarray


def _exp_or_inf(x: float) -> float:
    return math.exp(x) if x < 709.0 else math.inf


def _chain_bracket(c0: float, c: float, k: float, n_states: int, want: int):
    """The law theta_n = Omega (n + k), n < want <= n_states, as the lowest
    levels of x = c0 K0 + c (K+ + K-) (c0 > 2|c|) on the leading N =
    n_states states of D+(k), a chain of the realization, where each is
    certified within 4 tau_n, tau_n = 2 tiny + 2 eps theta_n, for the exact
    truncation with these c0, c and k (not its rounded bands); else None,
    which a longer chain lifts.  want <= 0 yields none; want > N, the walls
    no N lifts (Omega^2 < tiny, a level past the doubles, k >= 1/eps) and,
    for c != 0, lgamma(N + 1) or the bounds' rounding scale past the doubles
    raise InvalidParams.  k = 0 (a zero residue) is a 0 plus D+(1).

    x = Omega U K0 U^-1; Bargmann's elements bound psi_n = U|n> term by term
    at the cut and past it (log_bound).  The cut link l = |c| sqrt(N (N - 1
    + 2k)) alone leaves the kept states, so P psi_n's Rayleigh quotient rho
    is within l |psi_n(N-1) psi_n(N)| / |P psi_n|^2 of theta_n, its residual
    r <= l |psi_n(N)| / |P psi_n|.  Interlacing puts each level at or above
    the law, and lambda_0 <= rho; core._kato_temple, a the previous level's
    upper end, puts the one level in (a, theta_(n+1)) within its width above
    rho.  Logarithms are raised by `err` over their rounding; both ends widen
    by the law's (2.25 eps).  Kato-Temple can refuse level n where level n -
    1 passed (psi_n reaches the cut): Omega / c0 = 0.8, k = 2e5, N = 51 760."""
    if want <= 0:
        return np.empty(0)
    if want > n_states:
        raise InvalidParams(f"{want} levels asked of a chain of {n_states} states")
    if k == 0.0:
        rest = _chain_bracket(c0, c, 1.0, n_states - 1, want - 1)
        return None if rest is None else np.r_[0.0, rest]
    a, n_cut = abs(c), n_states
    square = (c0 - 2.0 * a) * (c0 + 2.0 * a)
    omega = math.sqrt(square)
    theta = _harmonic_law(omega, k, want + 1)
    # past k = 1 / eps the rounding of lgamma(2k) alone outgrows every bound
    if not (square >= _TINY and theta[-1] < math.inf and k < 1.0 / _EPS):
        wall = (f"Omega^2 = {square:g} is below the smallest normal double"
                if not square >= _TINY else f"level {want} of the law overflows the doubles"
                if theta[-1] == math.inf else f"k is past 1/eps = {1.0 / _EPS:g}")
        raise InvalidParams(f"h's levels on the chain of lowest weight k = {k:g} have "
                            f"no certified law at any --size: {wall}")
    if a == 0.0:
        return np.array(theta[:want])
    try:  # N + 1 and lgamma(N + 1), the bounds' largest term, as doubles
        math.lgamma(n_cut + 1.0)
    except OverflowError:
        raise InvalidParams(f"lgamma(N + 1) overflows the doubles at lowest weight k = "
                            f"{k:g}, N = {n_cut}") from None
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
    if size == math.inf:
        raise InvalidParams(f"the chain bounds' rounding scale overflows the doubles at "
                            f"lowest weight k = {k:g}, N = {n_cut}")
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
            kato = _kato_temple(resid2, gap, room)
            w += kato[1] if kato else math.inf  # refused: no width passes
        if not w <= 8.0 * (_TINY + _EPS * theta[n]):
            return None
        width.append(w)
    return np.array(theta[:want])


def _k0_max(realization: RealizationMatrices, m: int) -> float:
    """The largest K0 of the leading m states: each chain's last."""
    return max(float(l - 1) + k for k, l in zip(realization.weights, realization.lengths(m)) if l)


def _low_eigs(c0: float, c: float, realization: RealizationMatrices,
              count: int) -> np.ndarray:
    """The lowest `count` eigenvalues (ascending) of h = c0 K0 + c (Km + Kp)
    on the realization, certified: build_bundle's spectrum_h, count =
    SPECTRUM_COUNT.  A count above a chain's length asks for all its levels.

    h must be elliptic, c0 > 2|c| (mu > 0, as c0 - 2c = 2 mu omega and
    c0^2 > 4 c^2): a hyperbolic or parabolic h, or -K0, has no lowest
    levels on the infinite chain and is refused, naming c0 - 2|c| in
    doubles, which rounds to 0 for some h with mu > 0.  Each chain, a D+(k),
    takes the law that _chain_bracket certifies in its states, else ends in
    TruncationTooSmall, which admits that the bracket's overshoot refuses
    some chains a few states short that already hold the law."""
    if not c0 > 2.0 * abs(c):
        raise InvalidParams(f"h = {c0:g} K0 + {c:g} (K+ + K-) is not elliptic in doubles: "
                            f"c0 - 2|c| = {c0 - 2.0 * abs(c):g} is not > 0 (h is bounded "
                            "below only for mu > 0)")
    # c0 K0 past the doubles on any of the N states is refused by name
    k0_max = _k0_max(realization, realization.dim)
    if c0 * k0_max == math.inf:
        raise InvalidParams(f"h's diagonal overflows (c0 = {c0:g}, K0 up to {k0_max:g})")
    w = []
    for k, m in zip(realization.weights, realization.lengths()):
        law = _chain_bracket(c0, c, k, m, min(count, m))
        if law is None:
            raise TruncationTooSmall(
                f"h's levels on the chain of lowest weight k = {k:g}, {m} of the N = "
                f"{realization.dim} states, are not certified to follow the law: raise --size "
                "(the certificate is conservative, so a chain a few states short of it "
                "may already hold the law)")
        w.append(law)
    return np.sort(np.concatenate(w), kind="stable")[:count]


# relative size of the neglected tail of an antinormal metric sum
_TAIL_TOL = _EPS / 4.0


def _ladder_exp(sub: np.ndarray, coeff: float, rows: int, cols: int) -> np.ndarray:
    """Leading rows x cols block of exp(coeff B), where B holds `sub` on its
    first subdiagonal (the raising operator along one chain of states):
    the metric kernel's factor G (_chain_root).

    Row j + o of column j is coeff^o / o! sub[j] ... sub[j + o - 1], the
    running product down the column of the factors f[o, j] = coeff sub[j +
    o] / (o + 1): each entry is its path factors' product, to full precision.
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

    Along a chain k0 rises by 1 per step and K+ <= K0 + 1/2 (a D+(k)), so
    the ratio of term o + 1 to term o is at most r_o = ratio ((a + o) /
    (o + 1))^2, with a = max k0 + 1/2 over the block and `ratio` = coeff^2
    = p^2 e^q.  The terms share one sign, so the sum is at least its largest
    term, and the tail past term O is at most t_O rbar / (1 - rbar), rbar =
    sup_{o >= O} r_o = max(r_O, ratio).
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


def _root_plan(sol: MetricSolution, realization: RealizationMatrices, sign: int,
               rows: int, cols: int) -> tuple[bool, float, float, int | None]:
    """(antinormal, q, c, count) for the leading rows x cols block of rho^sign
    (_ordered_metric): count states past the block end each chain's sums, by
    _tail_count for the block's largest k0; None where they do not fit in N
    (p^2 e^q >= 1).  Columns past `rows` take their own, or run to the end."""
    n, band = realization.dim, realization.band
    antinormal, q, coeff = _ordered_metric(sol, sign)
    if not antinormal or coeff == 0.0:
        return antinormal, q, coeff, 0
    size, ratio = max(rows, cols), coeff * coeff
    count = _tail_count(ratio, _k0_max(realization, rows) + 0.5, (n - rows) // band)
    if count is not None and cols > rows:
        count = _tail_count(ratio, _k0_max(realization, size) + 0.5, (n - size) // band)
        count = n if count is None else count
    return antinormal, q, coeff, count


def _chain_root(plan: tuple[bool, float, float, int | None],
                realization: RealizationMatrices, ch: int, n_states: int,
                rows: int, cols: int) -> np.ndarray:
    """The leading rows x cols block of rho^sign on chain ch (n_states
    states) by its block's plan (_root_plan): S[:rows] M S[:cols] with
    S = e^{q k0 / 2}, G a running product of the chain's K+ band
    (_ladder_exp) and M = G G^T (normal: a finite sum over k <= min(i, j))
    or G^T G (antinormal: a series over k >= max(i, j) whose terms shrink
    like (p^2 e^q)^k, cut `count` states past the block; where the count
    does not fit, the block is inf, not a number that depends on N).
    For fixed (i, j) every term carries the same sign, so nothing cancels
    (exponentiating A through its eigensystem instead loses the far
    entries once the eigenvalue spread is large).  An entry out of range
    is inf, never NaN.  At p = 0 (every z = 0) the block is diag(e^{q k0})."""
    antinormal, q, coeff, count = plan
    size = max(rows, cols)
    if count is None:
        return np.full((rows, cols), np.inf)
    depth = min(n_states, size + count) if antinormal else size
    k0, kp = realization.bands(ch, depth)
    if coeff == 0.0:
        out = np.zeros((rows, cols))
        np.fill_diagonal(out, _exp_product(q, k0[:min(rows, cols)]))
        return out
    if antinormal:
        g = _ladder_exp(kp, coeff, depth, size)
        m = g[:, :rows].T @ g[:, :cols]
    else:
        g = _ladder_exp(kp, coeff, size, min(rows, cols))
        m = g[:rows] @ g[:cols].T
    scale = _exp_product(0.5 * q, k0[:size])
    out = scale[:rows, None] * m * scale[:cols]
    out[np.isnan(out)] = np.inf
    return out


def materialize_metric_root(sol: MetricSolution, realization: RealizationMatrices,
                            sign: int = 1, *, rows: int,
                            cols: int | None = None) -> np.ndarray:
    """The leading rows x cols block (cols = rows if not given; both at
    most N) of rho^sign = exp(sign A): rho^{-1}, rho, or zeta_+ = exp(2A)
    for sign = -1, 1, 2, at the record's (p, z) (solve_metric).

    The chains' blocks (_chain_root), inf where their matrix elements do
    not exist in the basis, are interleaved into it, 0 across chains.
    Columns past `rows` (acceptance criterion 5 and the transport check
    read them) take their own tail count, else run to the N states."""
    rows = min(rows, realization.dim)
    cols = rows if cols is None else min(cols, realization.dim)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        plan = _root_plan(sol, realization, sign, rows, cols)
        blocks = [_chain_root(plan, realization, ch, *shape) for ch, shape in enumerate(
            zip(*map(realization.lengths, (realization.dim, rows, cols))))]
    return _interleave(blocks, rows, cols)


def _chain_norms(pairs) -> np.ndarray:
    """[|lhs - rhs|, |lhs|, ...] of one chain's (lhs, rhs) blocks in the
    spectral norm, from one stacked SVD; inf for a non-finite block."""
    blocks = np.stack([b for lhs, rhs in pairs for b in (lhs - rhs, lhs)])
    finite = np.isfinite(blocks).all(axis=(1, 2))
    norms = np.full(len(blocks), np.inf)
    if finite.any():
        kept = blocks if finite.all() else blocks[finite]
        norms[finite] = np.linalg.svd(kept, compute_uv=False)[:, 0]
    return norms


def _relative_residuals(names, chain_norms) -> dict[str, float]:
    """{name: |lhs - rhs| / |lhs|} of the products `names` from each chain's
    _chain_norms.  Every product is block-diagonal over the chains: rho and
    zeta_+ are formed chain by chain, and K0 and K+- keep each state on its
    chain, so a product's norm is exactly the largest of its chains'.  This
    bounds the symmetric r = |lhs - rhs| / max(|lhs|, |rhs|) from above,
    and barely: |rhs| <= |lhs| + |lhs - rhs| gives r <= r' <= r / (1 - r),
    so at rounding-level residuals no printed digit moves, and it takes two
    norms per product, not three.  A vanishing lhs reads inf: h rho,
    zeta_+ H and rho O never vanish in exact arithmetic, so a zero block
    underflowed, and a check comparing nothing must fail."""
    norms = np.max(chain_norms, axis=0).reshape(-1, 2).tolist()
    return {name: d / base if base > 0.0 and math.isfinite(d + base) else math.inf
            for name, (d, base) in zip(names, norms)}


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

    One pass over the chains: h, H and O link neighbours only, so the
    T_c x T_c block of each product on chain c reads the R_c x R_c blocks
    of rho and zeta_+ alone (T_c of the T trusted states and R_c of the
    leading R = T + band are on it).  rho^{-1} is never formed.  Where the
    zeta_+ series diverges r_quasi is inf and the others stay finite.
    spectrum_h is h's lowest SPECTRUM_COUNT levels (all N if N is smaller);
    a z where mu <= 0, whose h is unbounded below, is refused first.
    """
    n = realization.dim
    if trusted >= n or trusted < 2:
        raise TruncationTooSmall(
            f"need 2 <= trusted < dim (got trusted = {trusted}, dim = {n})")

    t = trusted
    r = min(t + realization.band, n)
    h_coeffs = AlgebraElement(sol.c0, sol.c, sol.c)
    spectrum = _low_eigs(sol.c0, sol.c, realization, SPECTRUM_COUNT)
    y = AlgebraElement(2.0 * sol.u, 2.0 * sol.v, 2.0 * sol.w)

    # h rho, (rho H)^T, (zeta H)^T, H^T zeta, (rho O)^T and O rho in one
    # call; a right product B X is (X^T B^T)^T, X^T swapping cm and cp
    h_mat, o_mat = swanson_element(sol.params), commuting_observable(sol.z)
    h_t, o_t = (AlgebraElement(x.c0, x.cp, x.cm) for x in (h_mat, o_mat))
    ops = (h_coeffs, h_t, h_t, h_t, o_t, o_mat)
    six = AlgebraElement(*np.array([(x.c0, x.cm, x.cp) for x in ops]).T[..., None, None])
    norms = []
    # an inf block gives inf * 0 = NaN in the products, which read inf; a
    # tail ratio past the doubles is no count (_tail_count)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        plans = [_root_plan(sol, realization, sign, r, r) for sign in (1, 2)]
        for ch, (n_c, r_c, t_c) in enumerate(zip(*map(realization.lengths, (n, r, t)))):
            rho, zeta = (_chain_root(plan, realization, ch, n_c, r_c, r_c) for plan in plans)
            if t_c:
                prod = apply(six, *realization.bands(ch, r_c), np.stack((
                    rho[:, :t_c], rho[:t_c].T, zeta[:t_c].T, zeta[:, :t_c],
                    rho[:t_c].T, rho[:, :t_c])))[:, :t_c]
                norms.append(_chain_norms(((prod[0], prod[1].T), (prod[2].T, prod[3]),
                                           (prod[4].T, prod[5]))))
        residuals = _relative_residuals(("r_intertwine", "r_quasi", "r_commute"), norms)
    residuals = {
        "r_herm": abs(y.cm - y.cp) / _largest(y),
        "r_eq10": max(abs(y.c0 - h_coeffs.c0), abs(y.cm - h_coeffs.cm),
                      abs(y.cp - h_coeffs.cp)) / _largest(h_coeffs),
        **residuals,
    }

    return OperatorBundle(solution=sol, realization=realization, trusted=t,
                          residuals=residuals, spectrum_h=spectrum)
