import numpy as np
import pytest

from su11metric import SwansonParams, build_bundle, discrete_series, solve_metric


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
            cache[key] = build_bundle(solve_metric(p, z), discrete_series(k, dim),
                                      trusted=trusted)
        return cache[key]

    return get


def spectral_norm(m):
    return np.linalg.norm(np.asarray(m), 2)
