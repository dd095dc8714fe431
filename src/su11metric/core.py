"""su(1,1) coefficient algebra and the closed forms of its group elements.

The basis (K0, Km, Kp) obeys [K0, K+-] = +-K+- and [Kp, Km] = -2 K0, with
K0 Hermitian and Kp, Km mutual adjoints in any unitary realization.  An
element is stored as the complex coefficient triple of

    X = c0*K0 + cm*Km + cp*Kp

The closed forms are those of the faithful 2x2 representation
sigma(K0) = diag(1/2, -1/2), sigma(Kp) = [[0, 1], [0, 0]] and
sigma(Km) = [[0, 0], [-1, 0]].  For a Hermitian exponent
A = 2*eps*K0 + 2*eta*Km + 2*conj(eta)*Kp they reduce to hyperbolic
functions of theta, where theta**2 = eps**2 - 4*|eta|**2: the normally /
antinormally ordered (Gauss) factorizations of exp(A) and the adjoint
action rho X rho^{-1} with rho = exp(A).  No 2x2 matrix is formed here:
the matrices, their exponential and their Gauss decomposition are the
tests' independent check of these forms (tests/oracles.py).
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

from .errors import DecompositionSingular, InvalidParams, TrigRegime

# pivots smaller than this are treated as singular factorizations
PIVOT_TOL = 1e-14
# the rounding units of a double: the smallest normal one and eps
_TINY, _EPS = sys.float_info.min, sys.float_info.epsilon


def _halves(v):
    """Veltkamp's split of v into 26-bit halves, whose products are exact; NaN past 2^996."""
    t = 134217729.0 * v     # 2^27 + 1
    high = t - (t - v)
    return high, v - high


def _kato_temple(r2: float, gap: float, room: float) -> tuple[float, float] | None:
    """(below, above), each an ulp up: X's one level in (a, b) lies in [eta -
    r2 / room, eta + r2 / gap] (T. Kato, J. Phys. Soc. Japan 4, 334 (1949)),
    eta the Rayleigh quotient of a unit vector, r2 >= its squared residual,
    0 < gap <= eta - a and room <= b - eta; None unless r2 < gap room (1 -
    eps), by which (a, b) holds a level.  a = -inf, gap = inf: above 5e-324."""
    if not (gap > 0.0 and r2 < gap * room * (1.0 - _EPS)):
        return None
    return math.nextafter(r2 / room, math.inf), math.nextafter(r2 / gap, math.inf)


class AlgebraElement(NamedTuple):
    """Coefficient triple (c0, cm, cp) of c0*K0 + cm*Km + cp*Kp, any complex
    values.  The metric's exponent is never one: it is written in (eps, eta)
    (adjoint_matrix, conjugate), which makes it Hermitian by construction."""

    c0: complex
    cm: complex
    cp: complex

    # a tuple is a sequence, which numpy scalars would broadcast over:
    # None makes np.float64(2.0) * x defer to __rmul__
    __array_ufunc__ = None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return AlgebraElement(self.c0 + other.c0, self.cm + other.cm,
                              self.cp + other.cp)

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(scalar * self.c0, scalar * self.cm,
                              scalar * self.cp)

    __rmul__ = __mul__


class Factorization(NamedTuple):
    """Ordered-product parameters of a group element.

    ordering "normal":      exp(p Kp) exp(q K0) exp(r Km)
    ordering "antinormal":  exp(r Km) exp(q K0) exp(p Kp)
    """

    p: complex
    q: complex
    r: complex
    ordering: str = "normal"


# past this theta, _cosh_sinhc scales by e^-theta: cosh overflows near 710
_SCALE_FROM = 700.0


def _cosh_sinhc(theta_sq: float) -> tuple[float, float, float]:
    """(c, s, scale): cosh(theta) and sinh(theta)/theta as even functions of
    theta, each times e^-scale, where scale is theta past _SCALE_FROM and 0
    elsewhere.

    Takes a finite real theta**2 >= 0, as _pivots forms it; small
    arguments use a series to avoid cancellation near theta = 0.
    """
    if theta_sq < 1e-8:
        c = 1.0 + theta_sq * (0.5 + theta_sq * (1.0 / 24.0 + theta_sq / 720.0))
        s = 1.0 + theta_sq * (1.0 / 6.0 + theta_sq * (1.0 / 120.0 + theta_sq / 5040.0))
        return c, s, 0.0
    th = math.sqrt(theta_sq)
    if th > _SCALE_FROM:
        e2 = math.exp(-2.0 * th)
        return 0.5 * (1.0 + e2), 0.5 * (1.0 - e2) / th, th
    return math.cosh(th), math.sinh(th) / th, 0.0


def _pivots(epsilon: float, eta: complex) -> tuple[float, float, float, float, float]:
    """(s, scale, Cm, Cp, ln C): s = sinh(theta)/theta and Cmp = cosh(theta) -+
    eps s, times e^-scale (_cosh_sinhc), and ln C for the larger pivot C =
    cosh(theta) + |eps| s.  theta^2 = (|eps| - 2|eta|)(|eps| + 2|eta|) cannot
    round below 0 while |eps| >= 2|eta|; InvalidParams for a non-finite eps,
    eta, |eta| or theta^2, TrigRegime for theta^2 < 0.  The smaller pivot cancels
    where 2|eta| << |eps|: it is e^-theta - 4|eta|^2 s / (theta + |eps|).
    Below _SCALE_FROM, ln C = log1p(s (theta^2 s / (cosh(theta) + 1) + |eps|))
    is off by a rounding only, which e^{q k0} multiplies by k0."""
    if not (math.isfinite(epsilon) and cmath.isfinite(eta)):
        raise InvalidParams(f"epsilon and eta must be finite (got epsilon = {epsilon:g}, "
                            f"eta = {eta:g})")
    a = math.hypot(eta.real, eta.imag)  # abs(eta), but inf where that overflows
    if a == math.inf:
        raise InvalidParams(f"|eta| is not a finite double (got eta = {eta:g})")
    theta_sq = (abs(epsilon) - 2.0 * a) * (abs(epsilon) + 2.0 * a)
    if theta_sq == math.inf:
        raise InvalidParams(f"theta^2 = eps^2 - 4|eta|^2 overflows a double "
                            f"(epsilon = {epsilon:g}, eta = {eta:g})")
    if not theta_sq >= 0.0:
        raise TrigRegime(f"theta^2 = {theta_sq:.6g} is not >= 0; no real-theta factorization")
    c, s, scale = _cosh_sinhc(theta_sq)
    th = math.sqrt(theta_sq)
    big = c + abs(epsilon) * s
    small = (math.exp(-th - scale) - 4.0 * a * a / (th + abs(epsilon)) * s
             if epsilon else big)
    log_big = (math.log(big) + scale if scale
               else math.log1p(s * (theta_sq * s / (c + 1.0) + abs(epsilon))))
    return (s, scale, small, big, log_big) if epsilon > 0.0 else (s, scale, big, small, log_big)


def _ordered_factor(epsilon: float, eta: complex, ordering: str) -> Factorization:
    """One ordered factorization of exp(2 eps K0 + 2 eta Km + 2 conj(eta) Kp);
    only the pivot of the requested ordering is checked.  q = -+2 ln(pivot),
    the larger pivot's log from _pivots' ln C, the smaller's from itself."""
    eta = complex(eta)
    s, scale, cm, cp, log_big = _pivots(epsilon, eta)
    sign, op, pivot = (-1.0, "-", cm) if ordering == "normal" else (1.0, "+", cp)
    # the pivot times e^-scale, which cancels from p and r; past theta = 745
    # e^-scale is 0, and only a pivot of 0 is refused
    if abs(pivot) < PIVOT_TOL * math.exp(-scale) or pivot == 0.0:
        shown = f"e^{scale:.6g} * {pivot:.3e}" if scale else f"{pivot:.3e}"
        raise DecompositionSingular(
            f"cosh(theta) {op} eps*sinh(theta)/theta = {shown} vanishes")
    return Factorization(p=2.0 * eta.conjugate() * s / pivot,
                         q=sign * 2.0 * (log_big if pivot == max(cm, cp)
                                         else cmath.log(complex(pivot)) + scale),
                         r=2.0 * eta * s / pivot,
                         ordering=ordering)


def disentangle_closed_form(epsilon: float, eta: complex) -> tuple[Factorization, Factorization]:
    """Both ordered factorizations of exp(2 eps K0 + 2 eta Km + 2 conj(eta) Kp).

    Requires finite eps and eta with theta**2 = eps**2 - 4|eta|**2 >= 0.
    Past theta = _SCALE_FROM the pivots (_pivots) are taken times e^-theta,
    so that q = -+2 (theta + log(pivot e^-theta)).  With s = sinh(theta)/theta:

        normal:      e^{-q/2} = cosh(theta) - eps*s,  r = 2 eta s / e^{-q/2},  p = conj(r)-like
        antinormal:  e^{q'/2} = cosh(theta) + eps*s,  r' = 2 eta s / e^{q'/2}

    For real eps the factorized operators inherit Hermiticity: q is real
    and r = conj(p).
    """
    return (_ordered_factor(epsilon, eta, "normal"),
            _ordered_factor(epsilon, eta, "antinormal"))


def adjoint_matrix(epsilon: float, eta: complex) -> tuple[tuple[complex, ...], ...]:
    """Rows of the 3x3 matrix of the adjoint action of rho = exp(A) on coefficients.

    A = 2 eps K0 + 2 eta Km + 2 conj(eta) Kp with finite real eps and 0 <=
    theta**2 = eps**2 - 4|eta|**2.  Conjugating X = (c0, cm, cp) by rho gives
    coefficients M @ (c0, cm, cp), where with s = sinh(theta)/theta and Cmp =
    cosh(theta) -+ eps*s (from _pivots):

        rho K0 rho^-1 = (1 - 8|eta|^2 s^2) K0 + 2 eta s Cm Km - 2 conj(eta) s Cp Kp
        rho Km rho^-1 = -4 conj(eta) s Cm K0 + Cm^2 Km + 4 conj(eta)^2 s^2 Kp
        rho Kp rho^-1 =  4 eta s Cp K0 + 4 eta^2 s^2 Km + Cp^2 Kp

    Entries of size (cosh(theta) + |eps| s)^2, about e^(2 theta), pass the
    doubles from theta of about 355: InvalidParams there, naming theta.
    """
    eta = complex(eta)
    abs2 = (eta * eta.conjugate()).real
    s, scale, cm, cp, _ = _pivots(epsilon, eta)
    etc = eta.conjugate()
    rows = ((complex(1.0 - 8.0 * abs2 * s * s), -4.0 * etc * s * cm, 4.0 * eta * s * cp),
            (2.0 * eta * s * cm, complex(cm * cm), 4.0 * eta * eta * s * s),
            (-2.0 * etc * s * cp, 4.0 * etc * etc * s * s, complex(cp * cp)))
    # past _SCALE_FROM the pivots are taken times e^-theta, and the entries with them
    if scale or not all(cmath.isfinite(v) for row in rows for v in row):
        theta = math.sqrt((abs(epsilon) - 2.0 * abs(eta)) * (abs(epsilon) + 2.0 * abs(eta)))
        raise InvalidParams(f"theta = {theta:g}, eps = {epsilon:g}: the adjoint matrix's "
                            "entries pass the doubles")
    return rows


def _mat_vec(m, x) -> tuple[complex, complex, complex]:
    """m @ x for a 3x3 adjoint matrix m, in complex arithmetic."""
    x0, x1, x2 = (complex(v) for v in x)
    return tuple(r0 * x0 + r1 * x1 + r2 * x2 for r0, r1, r2 in m)


def conjugate(epsilon: float, eta: complex, x: AlgebraElement) -> AlgebraElement:
    """Coefficients of rho x rho^{-1} for rho = exp(2 eps K0 + 2 eta Km +
    2 conj(eta) Kp), real eps and complex eta: adjoint_matrix(eps, eta) on x."""
    return AlgebraElement(*_mat_vec(adjoint_matrix(epsilon, eta), (x.c0, x.cm, x.cp)))
