"""Truncated matrix realizations of the su(1,1) generators.

Every constructor returns the diagonal of K0 and the one band of K+;
K- is its transpose.  No matrix of them is built: `apply` multiplies a
block by c0 K0 + cm K- + cp K+ as three shifts along the band.  Each
realization is a table of discrete series: chain c < band, the states
c + j band, is D+(k_c), K0 = j + k_c and K+ = sqrt((j + 1)(j + 2 k_c))
(_chains); oscillator_full alone forms K+ as the boson product a'a'/2,
its D+(1/4) + D+(3/4) table in exact arithmetic and within 2 ulp of it.
Truncating an infinite basis corrupts operator products only near the
top of the basis, so each realization has a trusted leading block (dim
minus the band) inside which the commutation relations hold to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import AlgebraElement
from .errors import InvalidParams
from .metric import SwansonParams


@dataclass(frozen=True)
class RealizationMatrices:
    """Truncated generators by their bands: k0_diag[m] = <m|K0|m> (N
    entries) and kp_band[m] = <m+band|K+|m> = <m|K-|m+band> (N - band);
    state m is on chain m mod band, a D+(k_c), k0_diag[c] = k_c (c < band)."""

    k0_diag: np.ndarray
    kp_band: np.ndarray
    band: int
    kind: str

    @property
    def dim(self) -> int:
        return len(self.k0_diag)


def apply(x: AlgebraElement, r: RealizationMatrices, b: np.ndarray) -> np.ndarray:
    """(c0 K0 + cm K- + cp K+) b on the leading m = b.shape[-2] <= N
    states, as three shifts: K0 scales row i of b, K+ moves it to row
    i + band and K- to row i - band; rows within band of m miss the states
    past m.  Coefficients of shape (s, 1, 1) act on a stack b of shape
    (s, m, k), one operand each.  A right product B X is (X^T B^T)^T, X^T
    swapping cm and cp.
    """
    m, band = b.shape[-2], r.band
    n = max(m - band, 0)
    k0, kp = r.k0_diag[:m, None], r.kp_band[:n, None]
    out = np.multiply(x.c0 * k0, b, dtype=np.result_type(x.c0, x.cm, x.cp, b))
    out[..., band:, :] += x.cp * kp * b[..., :n, :]
    out[..., :n, :] += x.cm * kp * b[..., band:, :]
    return out


def _chains(weights: Sequence[float], n: int, kind: str) -> RealizationMatrices:
    """The direct sum of D+(k_c), k_c = weights[c], on n states with band
    b = len(weights): column c of the ceil(n / b) x b table holds chain c,
    K0 = j + k_c and K+ = sqrt((j + 1)(j + 2 k_c)), raveled row by row.
    Refuses a K+ entry past the doubles."""
    w = np.asarray(weights, dtype=float)
    j = np.arange(-(-n // w.size), dtype=float)[:, None]
    with np.errstate(over="ignore"):
        kp = np.sqrt((j + 1.0) * (j + 2.0 * w)).ravel()[:n - w.size]
    if kp.max() == np.inf:
        k = w[int(np.argmax(kp == np.inf)) % w.size]
        raise InvalidParams(f"K+ overflows the doubles at lowest weight k = {k:g}, N = {n}")
    return RealizationMatrices((j + w).ravel()[:n], kp, w.size, kind)


def discrete_series(k: float, n: int) -> RealizationMatrices:
    """Lowest-weight realization with K0 eigenvalues m + k.

    K+|m> = sqrt((m+1)(m+2k))|m+1> and K- its adjoint; the positive
    weight k fixes the Casimir value k(k-1).
    """
    if not 0.0 < k < np.inf:
        raise InvalidParams(f"lowest weight k must be positive and finite (got {k:g})")
    if n < 2:
        raise InvalidParams(f"dimension must be at least 2 (got {n})")
    return _chains((k,), n, f"discrete:k={k:g}")


def oscillator_full(n: int) -> RealizationMatrices:
    """One-boson realization K0 = (a'a + 1/2)/2, Kp = a'a'/2, Km = aa/2."""
    if n < 4:
        raise InvalidParams(f"dimension must be at least 4 (got {n})")
    m = np.arange(n - 2, dtype=float)
    kp = 0.5 * (np.sqrt(m + 1.0) * np.sqrt(m + 2.0))
    return RealizationMatrices((2.0 * np.arange(n) + 1.0) / 4.0, kp, 2,
                               "oscillator:parity=full")


def oscillator_sector(parity: str, n: int) -> RealizationMatrices:
    """Single parity sector of the one-boson realization.

    Sector index m maps to Fock index 2m (even) or 2m+1 (odd); the even
    sector carries lowest weight 1/4 and the odd sector 3/4.
    """
    if parity not in ("even", "odd"):
        raise InvalidParams(f"parity must be 'even' or 'odd' (got {parity!r})")
    if n < 4:
        raise InvalidParams(f"dimension must be at least 4 (got {n})")
    return _chains((0.25 if parity == "even" else 0.75,), n, f"oscillator:parity={parity}")


def multiboson(l: int, residues: Sequence[float], n: int) -> RealizationMatrices:
    """l-boson realization K0 = a0(N), Km = am(N) a^l, Kp = a'^l am(N).

    With r = m mod l and j = (m - r)/l, a0(m) = j + residues[r] and
    am(m) = sqrt((j + 2 residues[r]) (j + 1) / ((m+1)(m+2)...(m+l))), whose
    Pochhammer factor cancels against a^l: chain r is D+(residues[r]).
    The residue values are free configuration; the two-boson choice
    (1/4, 3/4) reproduces the one-boson realization exactly.  Raises when a
    radicand turns negative, first at m = r for the first negative residue r.
    """
    if l < 1:
        raise InvalidParams(f"period l must be a positive integer (got {l})")
    residues = np.asarray(residues, dtype=float)
    if residues.shape != (l,):
        raise InvalidParams(f"need exactly l = {l} residue values (got {residues.size})")
    if not np.isfinite(residues).all():
        raise InvalidParams(f"residue values must be finite (got {residues.tolist()})")
    if n < l + 2:
        raise InvalidParams(f"dimension must exceed l + 1 (got {n})")
    if residues.min() < 0.0:
        raise InvalidParams(
            f"negative radicand in lowering coefficient at m = {int(np.argmax(residues < 0))}; "
            "choose residue values with (m-r)/l + 2*a0(r) >= 0")
    return _chains(residues, n, f"multiboson:l={l}")


def radial(L: float, n: int) -> RealizationMatrices:
    """d-dimensional radial oscillator sector, L = angmom + (d-3)/2.

    The differential realization (1/(4 omega)) (-d^2/dr^2 + L(L+1)/r^2
    + omega^2 r^2) for K0 is unitarily equivalent to the lowest-weight
    realization with k = (2L + 3)/4; the tests check the mapping against
    the lowest eigenvalues of a finite-difference grid rather than assume
    it.
    """
    k = (2.0 * L + 3.0) / 4.0
    if not 0.0 < k < np.inf:
        raise InvalidParams(f"L = {L:g} gives no positive finite weight (2L+3)/4")
    return replace(discrete_series(k, n), kind=f"radial:L={L:g}")


def conformal(k: float, c: float, omega: float,
              n: int) -> tuple[RealizationMatrices, SwansonParams]:
    """Conformal many-body sector: coupling c fixes alpha = -beta = c/4.

    Returns the lowest-weight matrices together with the matching
    parameter triple; omega**2 - 4*alpha*beta = omega**2 + c**2/4 is the
    squared effective frequency.
    """
    mats = replace(discrete_series(k, n), kind=f"conformal:k={k:g},c={c:g}")
    return mats, SwansonParams(omega, c / 4.0, -c / 4.0)


def from_descriptor(text: str, dim: int,
                    omega: float = 1.0) -> tuple[RealizationMatrices, SwansonParams | None]:
    """Build a realization from a textual descriptor.

    Supported forms:
        discrete:k=0.25
        oscillator            (or oscillator:parity=even|odd|full)
        multiboson:l=3,residues=0.25,0.5,0.75
        radial:L=1
        conformal:k=0.75,c=1

    The conformal form also returns the parameter triple implied by its
    coupling (alpha = -beta = c/4 at the given omega); every other form
    returns None for the parameters.
    """
    kind, _, argstr = text.partition(":")
    kind = kind.strip().lower()
    args: dict[str, list[str]] = {}
    last = None
    for tok in (argstr.split(",") if argstr else []):
        tok = tok.strip()
        if not tok:
            continue
        if "=" in tok:
            key, _, val = tok.partition("=")
            last = key.strip().lower()
            if last in args:
                raise InvalidParams(f"descriptor key {last!r} given twice in {text!r}")
            args[last] = [val.strip()]
        elif last is not None:
            args[last].append(tok)
        else:
            raise InvalidParams(f"malformed realization descriptor {text!r}")

    def _one(key: str, default: str | None = None) -> str:
        if key in args:
            if len(args[key]) != 1:
                raise InvalidParams(f"descriptor key {key!r} takes one value")
            return args[key][0]
        if default is None:
            raise InvalidParams(f"descriptor {text!r} is missing key {key!r}")
        return default

    known = {"discrete": {"k"}, "oscillator": {"parity"},
             "multiboson": {"l", "residues"}, "radial": {"l"},
             "conformal": {"k", "c"}}
    if kind not in known:
        raise InvalidParams(f"unknown realization kind {kind!r}")
    extra = set(args) - known[kind]
    if extra:
        raise InvalidParams(f"unknown descriptor keys {sorted(extra)} for {kind!r}")

    try:
        if kind == "discrete":
            return discrete_series(float(_one("k")), dim), None
        if kind == "oscillator":
            parity = _one("parity", "full")
            if parity == "full":
                return oscillator_full(dim), None
            return oscillator_sector(parity, dim), None
        if kind == "multiboson":
            l = int(_one("l"))
            residues = [float(v) for v in args.get("residues", [])]
            if not residues:
                raise InvalidParams("multiboson descriptor needs residues=...")
            return multiboson(l, residues, dim), None
        if kind == "radial":
            return radial(float(_one("l")), dim), None
        return conformal(float(_one("k")), float(_one("c")), omega, dim)
    except ValueError as exc:
        raise InvalidParams(f"bad numeric value in descriptor {text!r}: {exc}") from exc
