"""Truncated matrix realizations of the su(1,1) generators.

Every constructor returns the diagonal of K0 and the one band of K+;
K- is its transpose, and only `materialize` builds their dense matrices.
Truncating an infinite basis corrupts operator products only near the
top of the basis, so each realization has a trusted leading block (dim
minus the band) inside which the commutation relations hold to rounding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import AlgebraElement
from .errors import InvalidParams
from .metric import SwansonParams


@dataclass(frozen=True)
class RealizationMatrices:
    """Truncated generators by their bands: k0_diag[m] = <m|K0|m> (N
    entries) and kp_band[m] = <m+band|K+|m> = <m|K-|m+band> (N - band)."""

    k0_diag: np.ndarray
    kp_band: np.ndarray
    band: int
    kind: str

    @property
    def dim(self) -> int:
        return len(self.k0_diag)

    @property
    def trusted(self) -> int:
        return self.dim - self.band


def dense_from_bands(n: int, bands: dict[int, np.ndarray], fill=0.0) -> np.ndarray:
    """Dense n x n matrix holding bands[k] on diagonal k (k < 0 below the
    main diagonal) and `fill` everywhere else."""
    out = np.full((n, n), fill, dtype=np.result_type(fill, *bands.values()))
    flat = out.reshape(-1)
    for k, entries in bands.items():
        # diagonal k starts at flat index k (-k n if k < 0); n - |k| entries never wrap
        flat[(k if k >= 0 else -k * n)::n + 1][:n - abs(k)] = entries
    return out


def discrete_series(k: float, n: int) -> RealizationMatrices:
    """Lowest-weight realization with K0 eigenvalues m + k.

    K+|m> = sqrt((m+1)(m+2k))|m+1> and K- its adjoint; the positive
    weight k fixes the Casimir value k(k-1).
    """
    if k <= 0.0:
        raise InvalidParams(f"lowest weight k must be positive (got {k:g})")
    if n < 2:
        raise InvalidParams(f"dimension must be at least 2 (got {n})")
    m = np.arange(n, dtype=float)
    kp = np.sqrt((m[:-1] + 1.0) * (m[:-1] + 2.0 * k))
    return RealizationMatrices(m + k, kp, 1, f"discrete:k={k:g}")


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
    offset = 0 if parity == "even" else 1
    fock = 2 * np.arange(n) + offset
    # Kp between neighbors is half the a'^2 matrix element
    f = fock[1:].astype(float)
    kp = 0.5 * np.sqrt(f * (f - 1.0))
    return RealizationMatrices((2.0 * fock + 1.0) / 4.0, kp, 1,
                               f"oscillator:parity={parity}")


def residue_matrix(l: int, n: int) -> np.ndarray:
    """Diagonal residue operator R|m> = (m mod l)|m>."""
    if l < 1:
        raise InvalidParams(f"period l must be a positive integer (got {l})")
    return np.diag((np.arange(n) % l).astype(float))


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


def multiboson(l: int, residues: Sequence[float], n: int) -> RealizationMatrices:
    """l-boson realization K0 = a0(N), Km = am(N) a^l, Kp = a'^l am(N).

    a0(m) = (m - r)/l + residues[r] with r = m mod l, and

        am(m) = sqrt( ((m-r)/l + 2*residues[r]) ((m-r)/l + 1)
                      / ((m+1)(m+2)...(m+l)) ).

    The Pochhammer factor cancels against a^l in the band entries
    <m|Km|m+l> = sqrt( ((m-r)/l + 2*residues[r]) ((m-r)/l + 1) ).
    The residue values a0 on r = 0..l-1 are free configuration; the
    default two-boson choice (1/4, 3/4) reproduces the one-boson
    realization exactly.  Raises when a radicand turns negative.
    """
    if l < 1:
        raise InvalidParams(f"period l must be a positive integer (got {l})")
    residues = np.asarray(residues, dtype=float)
    if residues.shape != (l,):
        raise InvalidParams(
            f"need exactly l = {l} residue values (got {residues.size})")
    if n < l + 2:
        raise InvalidParams(f"dimension must exceed l + 1 (got {n})")
    m = np.arange(n)
    r = m % l
    whole = (m - r) // l
    radicand = (whole + 2.0 * residues[r]) * (whole + 1.0)
    if radicand.min() < 0.0:
        raise InvalidParams(
            f"negative radicand in lowering coefficient at m = {int(np.argmax(radicand < 0))}; "
            "choose residue values with (m-r)/l + 2*a0(r) >= 0")
    return RealizationMatrices(whole + residues[r], np.sqrt(radicand[:n - l]), l,
                               f"multiboson:l={l}")


def radial(L: float, n: int) -> RealizationMatrices:
    """d-dimensional radial oscillator sector, L = angmom + (d-3)/2.

    The differential realization (1/(4 omega)) (-d^2/dr^2 + L(L+1)/r^2
    + omega^2 r^2) for K0 is unitarily equivalent to the lowest-weight
    realization with k = (2L + 3)/4; the mapping is validated against a
    finite-difference grid oracle (radial_k0_grid) rather than assumed.
    """
    k = (2.0 * L + 3.0) / 4.0
    if k <= 0.0:
        raise InvalidParams(f"L = {L:g} gives nonpositive weight (2L+3)/4")
    base = discrete_series(k, n)
    return replace(base, kind=f"radial:L={L:g}")


def radial_k0_grid(L: float, omega: float = 1.0, r_max: float = 14.0,
                   points: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference discretization of the radial K0 operator.

    Returns (diagonal, offdiagonal) of the symmetric tridiagonal matrix
    of (1/(4 omega)) (-d^2/dr^2 + L(L+1)/r^2 + omega^2 r^2) on interior
    nodes of (0, r_max) with Dirichlet walls.  Independent of the
    ladder-matrix construction; used to validate the L -> k mapping.
    """
    if points < 10:
        raise InvalidParams("need at least 10 grid points")
    dr = r_max / (points + 1)
    r = dr * np.arange(1, points + 1)
    diag = (2.0 / dr ** 2 + L * (L + 1.0) / r ** 2 + omega ** 2 * r ** 2) / (4.0 * omega)
    off = np.full(points - 1, -1.0 / dr ** 2 / (4.0 * omega))
    return diag, off


def radial_k0_lowest(L: float, omega: float = 1.0, r_max: float = 14.0,
                     points: int = 4000, count: int = 1) -> np.ndarray:
    """Lowest K0 eigenvalues of the finite-difference radial operator."""
    from scipy.linalg import eigh_tridiagonal

    diag, off = radial_k0_grid(L, omega, r_max, points)
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, count - 1), eigvals_only=True)
    return vals


def conformal(k: float, c: float, omega: float,
              n: int) -> tuple[RealizationMatrices, SwansonParams]:
    """Conformal many-body sector: coupling c fixes alpha = -beta = c/4.

    Returns the lowest-weight matrices together with the matching
    parameter triple; omega**2 - 4*alpha*beta = omega**2 + c**2/4 is the
    squared effective frequency.
    """
    base = discrete_series(k, n)
    mats = replace(base, kind=f"conformal:k={k:g},c={c:g}")
    return mats, SwansonParams(omega, c / 4.0, -c / 4.0)


def materialize(x: AlgebraElement, r: RealizationMatrices) -> np.ndarray:
    """Dense N x N matrix of c0*K0 + cm*Km + cp*Kp, each entry, zeros too,
    summed as in the dense generators (same signed zeros and complex
    parts); a vanishing imaginary part is dropped."""
    zero = np.zeros(r.dim)
    off = zero[r.band:]

    def entries(k0, km, kp):
        return x.c0 * k0 + x.cm * km + x.cp * kp

    out = dense_from_bands(r.dim, {0: entries(r.k0_diag, zero, zero),
                                   r.band: entries(off, r.kp_band, off),
                                   -r.band: entries(off, off, r.kp_band)},
                           fill=entries(zero[0], zero[0], zero[0]))
    if np.iscomplexobj(out) and not out.imag.any():
        out = out.real.copy()
    return out


def commutator_residuals(r: RealizationMatrices,
                         trusted: int | None = None) -> dict[str, float]:
    """Normalized commutation-relation residuals on the trusted block.

    Spectral norms of [k0, k+-] -+ k+- and [kp, km] + 2 k0 restricted to
    the leading trusted x trusted block, each divided by the norm of the
    defining right-hand side on that block.
    """
    t = r.trusted if trusted is None else trusted
    if not (1 <= t <= r.dim):
        raise InvalidParams(f"trusted block {t} outside 1..{r.dim}")
    k0, km, kp = (materialize(AlgebraElement(*e), r) for e in np.eye(3))

    def _n(mat):
        return float(np.linalg.norm(mat[:t, :t], 2))

    res = {
        "k0_kp": _n(k0 @ kp - kp @ k0 - kp) / _n(kp),
        "k0_km": _n(k0 @ km - km @ k0 + km) / _n(km),
        "kp_km": _n(kp @ km - km @ kp + 2.0 * k0) / _n(2.0 * k0),
    }
    return res


_DESCRIPTOR_RE = re.compile(r"^[A-Za-z_]+")


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
        mats, params = conformal(float(_one("k")), float(_one("c")), omega, dim)
        return mats, params
    except ValueError as exc:
        raise InvalidParams(f"bad numeric value in descriptor {text!r}: {exc}") from exc
