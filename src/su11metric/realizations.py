"""Truncated matrix realizations of the su(1,1) generators.

Every realization is a direct sum of discrete series: on state j of
chain c, a D+(k_c), K0 = j + k_c and K+ = sqrt((j + 1)(j + 2 k_c)) leads
to state j + 1.  A realization enters only through its weights k_c; its
kind is only a label.  K0 and K+- keep every state on its chain, so
operators are worked one chain at a time: a realization stores only its
weights and size, gives a chain's leading bands on demand, and `apply`
acts on a chain's states by unit shifts.  The N states of the basis
(--size) interleave the chains, state m on chain m mod band (lengths,
_interleave).  Truncation corrupts operator products only at the top of
each chain, so the commutation relations hold to rounding on the leading
dim - band.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .core import AlgebraElement
from .errors import InvalidParams
from .metric import SwansonParams


class RealizationMatrices(NamedTuple):
    """The direct sum of D+(k_c), k_c = weights[c], over band = len(weights)
    chains, truncated to dim states in all: lengths(m) of the leading m
    states lie on each chain, and bands(c, m) are chain c's leading m."""

    weights: tuple[float, ...]
    dim: int
    kind: str

    @property
    def band(self) -> int:
        return len(self.weights)

    def lengths(self, m: int | None = None) -> list[int]:
        """How many of the leading m states (all dim if not given) lie on
        each chain: state i is state i // band of chain i mod band."""
        m = self.dim if m is None else m
        return [max(0, -((c - m) // self.band)) for c in range(self.band)]

    def bands(self, c: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """K0 and K+ (state j to j + 1: m - 1) on chain c's leading m states."""
        k, j = self.weights[c], np.arange(float(m))
        return j + k, np.sqrt((j[:-1] + 1.0) * (j[:-1] + 2.0 * k))


def _interleave(blocks: Sequence[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """The rows x cols block of the basis with blocks[c] on chain c's states
    (c, c + band, ...) and 0 across chains, which no operator here links."""
    band, out = len(blocks), np.zeros((rows, cols))
    for c, block in enumerate(blocks):
        out[c::band, c::band] = block
    return out


def apply(x: AlgebraElement, k0: np.ndarray, kp: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(c0 K0 + cm K- + cp K+) b on the leading m = b.shape[-2] states of a
    chain whose bands k0 and kp cover them: K0 scales row j of b, K+ moves
    it to row j + 1 and K- to row j - 1; the last row misses the state past
    m.  Coefficients of shape (s, 1, 1) act on a stack b of shape (s, m, k),
    one operand each.  A right product B X is (X^T B^T)^T, X^T swapping cm
    and cp."""
    m = b.shape[-2]
    n = max(m - 1, 0)
    k0, kp = k0[:m, None], kp[:n, None]
    out = np.multiply(x.c0 * k0, b, dtype=np.result_type(x.c0, x.cm, x.cp, b))
    out[..., 1:, :] += x.cp * kp * b[..., :n, :]
    out[..., :n, :] += x.cm * kp * b[..., 1:, :]
    return out


def _chains(weights: Sequence[float], n: int, kind: str) -> RealizationMatrices:
    """The direct sum of D+(k_c), k_c = weights[c], on n states.  Refuses a
    K+ entry past the doubles by the weight of the first in the basis."""
    r = RealizationMatrices(tuple(map(float, weights)), n, kind)

    def overflows(k, j):  # K+^2 on link j: it rises along the chain
        return j >= 2 ** 1023 or (j + 1.0) * (j + 2.0 * k) == math.inf

    first = []
    for c, (k, m) in enumerate(zip(r.weights, r.lengths())):
        lo, hi = 0, m - 2
        while lo < hi and overflows(k, hi):  # bisect for the first that overflows
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if overflows(k, mid) else (mid + 1, hi)
        first += [(lo, c, k)] if m > 1 and overflows(k, lo) else []
    if first:
        raise InvalidParams(f"K+ overflows the doubles at lowest weight k = {min(first)[2]:g}, N = {n}")
    return r


def _discrete(k: float, n: int, label: str = ""):
    """Lowest-weight realization D+(k): K0 = m + k, K+ = sqrt((m+1)(m+2k)) from
    |m> to |m+1>, K- its adjoint; the weight k > 0 fixes the Casimir k(k-1)."""
    if not 0.0 < k < math.inf:
        raise InvalidParams(f"lowest weight k must be positive and finite (got {k:g})")
    if n < 2:
        raise InvalidParams(f"dimension must be at least 2 (got {n})")
    return (k,), label or f"discrete:k={k:g}"


def _oscillator(one, args, n):
    """One-boson realization K0 = (a'a + 1/2)/2, Kp = a'a'/2, Km = aa/2: Fock
    state 2j + c is state j of D+((2c + 1)/4), as sqrt((2j + c + 1)(2j + c +
    2))/2 = sqrt((j + 1)(j + (2c + 1)/2)).  A parity sector keeps Fock states
    2m (even, lowest weight 1/4) or 2m + 1 (odd, 3/4)."""
    parity = one("parity", "full")
    weights = {"full": (0.25, 0.75), "even": (0.25,), "odd": (0.75,)}.get(parity)
    if weights is None:
        raise InvalidParams(f"parity must be 'full', 'even' or 'odd' (got {parity!r})")
    if n < 4:
        raise InvalidParams(f"dimension must be at least 4 (got {n})")
    return weights, f"oscillator:parity={parity}"


def _multiboson(one, args, n):
    """l-boson realization K0 = a0(N), Km = am(N) a^l, Kp = a'^l am(N): with
    r = m mod l and j = (m - r)/l, a0(m) = j + residues[r] and am(m) =
    sqrt((j + 2 residues[r]) (j + 1) / ((m+1)(m+2)...(m+l))), whose
    Pochhammer factor cancels against a^l: chain r is D+(residues[r]).
    The residue values are free configuration; the two-boson choice
    (1/4, 3/4) reproduces the one-boson realization exactly.  Raises when a
    radicand turns negative, first at m = r for the first negative residue r."""
    l, residues = int(one("l")), [float(v) for v in args.get("residues", [])]
    if not residues:
        raise InvalidParams("multiboson descriptor needs residues=...")
    if l < 1:
        raise InvalidParams(f"period l must be a positive integer (got {l})")
    if len(residues) != l:
        raise InvalidParams(f"need exactly l = {l} residue values (got {len(residues)})")
    if not all(map(math.isfinite, residues)):
        raise InvalidParams(f"residue values must be finite (got {residues})")
    if n < l + 2:
        raise InvalidParams(f"dimension must exceed l + 1 (got {n})")
    if negative := [r for r, a in enumerate(residues) if a < 0.0]:
        raise InvalidParams(f"negative radicand in lowering coefficient at m = {negative[0]}; "
                            "choose residue values with (m-r)/l + 2*a0(r) >= 0")
    return residues, f"multiboson:l={l}"


def _radial(one, args, n):
    """d-dimensional radial oscillator sector, L = angmom + (d-3)/2: the
    differential realization (1/(4 omega)) (-d^2/dr^2 + L(L+1)/r^2 + omega^2
    r^2) for K0 is unitarily equivalent to D+(k), k = (2L + 3)/4; the tests
    check the mapping against the lowest eigenvalues of a finite-difference
    grid rather than assume it."""
    L = float(one("l"))
    if not 0.0 < (k := (2.0 * L + 3.0) / 4.0) < math.inf:
        raise InvalidParams(f"L = {L:g} gives no positive finite weight (2L+3)/4")
    return _discrete(k, n, f"radial:L={L:g}")


def _conformal(one, args, n):
    """Conformal many-body sector D+(k): coupling c fixes alpha = -beta = c/4
    (from_descriptor's parameters), and omega**2 - 4*alpha*beta = omega**2 +
    c**2/4 is the squared effective frequency."""
    k, c = float(one("k")), float(one("c"))
    return _discrete(k, n, f"conformal:k={k:g},c={c:g}")


# kind: (its keys, builder(one, args, N) -> (weights, label)); one(key) is a key's value
_KINDS = {"discrete": ({"k"}, lambda one, args, n: _discrete(float(one("k")), n)),
          "oscillator": ({"parity"}, _oscillator), "multiboson": ({"l", "residues"}, _multiboson),
          "radial": ({"l"}, _radial), "conformal": ({"k", "c"}, _conformal)}


def from_descriptor(text: str, dim: int,
                    omega: float = 1.0) -> tuple[RealizationMatrices, SwansonParams | None]:
    """The realization of a descriptor on dim states: discrete:k=0.25,
    oscillator[:parity=even|odd|full], multiboson:l=3,residues=0.25,0.5,0.75,
    radial:L=1 or conformal:k=0.75,c=1, which also returns the parameters its
    coupling implies (alpha = -beta = c/4 at this omega); the others None."""
    kind, _, argstr = text.partition(":")
    kind = kind.strip().lower()
    args: dict[str, list[str]] = {}
    last = None
    for tok in filter(None, map(str.strip, argstr.split(","))):
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

    def one(key: str, default: str | None = None) -> str:
        values = args.get(key, [] if default is None else [default])
        if len(values) != 1:
            raise InvalidParams(f"descriptor key {key!r} takes one value" if values
                                else f"descriptor {text!r} is missing key {key!r}")
        return values[0]

    if kind not in _KINDS:
        raise InvalidParams(f"unknown realization kind {kind!r}")
    if extra := set(args) - _KINDS[kind][0]:
        raise InvalidParams(f"unknown descriptor keys {sorted(extra)} for {kind!r}")
    try:
        weights, label = _KINDS[kind][1](one, args, dim)
    except ValueError as exc:
        raise InvalidParams(f"bad numeric value in descriptor {text!r}: {exc}") from exc
    r, c = _chains(weights, dim, label), float(one("c")) if kind == "conformal" else None
    return r, None if c is None else SwansonParams(omega, c / 4.0, -c / 4.0)
