import math

import numpy as np
import pytest

from su11metric import (SwansonParams, build_bundle, conjugate, from_descriptor,
                        is_admissible, materialize_metric_root, solve_metric,
                        swanson_element)
from su11metric.realizations import apply


def realize(text, n):
    """The realization of descriptor text on n states."""
    return from_descriptor(text, n)[0]


def multiboson_text(residues):
    """The multiboson descriptor of these residues, each written by repr,
    which parses back to the same double."""
    return f"multiboson:l={len(residues)},residues={','.join(map(repr, residues))}"


@pytest.fixture(scope="session")
def params():
    return SwansonParams(1.0, 0.2, 0.1)


@pytest.fixture(scope="session")
def bundles():
    """Memoized operator bundles keyed by (k, z, dim, trusted)."""
    cache = {}

    def get(k=0.25, z=0.0, dim=200, trusted=50,
            omega=1.0, alpha=0.2, beta=0.1):
        key = (k, z, dim, trusted, omega, alpha, beta)
        if key not in cache:
            p = SwansonParams(omega, alpha, beta)
            cache[key] = build_bundle(solve_metric(p, z), realize(f"discrete:k={k!r}", dim),
                                      trusted=trusted)
        return cache[key]

    return get


def metric_block(bundle, sign):
    """The leading R x R block of rho^sign (rho, zeta_+ for sign 1, 2) that
    the bundle's residuals read, R = trusted + band (at most N)."""
    return materialize_metric_root(bundle.solution, bundle.realization, sign,
                                   rows=bundle.trusted + bundle.realization.band)


def halved_conjugate(p, eps, eta):
    """(U, V, W) of rho H rho^{-1} = 2U K0 + 2V Km + 2W Kp at any (eps, eta),
    imaginary parts kept: core.conjugate(eps, eta) on H, halved exactly.
    At a solve_metric record's (epsilon, eta) the real parts are its
    (u, v, w)."""
    y = conjugate(eps, eta, swanson_element(p))
    return y.c0 / 2.0, y.cm / 2.0, y.cp / 2.0


def admissible_samples(p, count=20, xmax=0.97):
    """Evenly spread admissible z values, away from the domain edges."""
    out = []
    for z in np.linspace(-0.995, 0.995, 399):
        z = float(z)
        if not is_admissible(p, z):
            continue
        den = p.alpha + p.beta - z * p.omega
        if abs((p.alpha - p.beta) * math.sqrt(1.0 - z * z) / den) <= xmax:
            out.append(z)
    assert len(out) >= count
    idx = np.linspace(0, len(out) - 1, count).astype(int)
    return [out[i] for i in idx]


def spectral_norm(m):
    return np.linalg.norm(np.asarray(m), 2)


def apply_basis(x, r, b):
    """realizations.apply, chain by chain, on an operand b over the leading
    m = b.shape[-2] states of the basis, state i on chain i mod band."""
    out = None
    for c, m in enumerate(r.lengths(b.shape[-2])):
        part = apply(x, *r.bands(c, m), b[..., c::r.band, :])
        if out is None:
            out = np.empty(part.shape[:-2] + b.shape[-2:], part.dtype)
        out[..., c::r.band, :] = part
    return out
