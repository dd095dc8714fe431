import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from su11metric import (InvalidParams, NotSymmetric, SwansonParams,
                        TruncationTooSmall, ZOutOfDomain, build_bundle,
                        discrete_series, eigvec_residuals, exp_symmetric,
                        materialize, materialize_metric_root,
                        metric_block_definite, metric_exponent, power_base,
                        spectrum_prediction, symmetric_eigs)
from su11metric import commuting_observable, from_descriptor
from su11metric.verification import _exp_raising, _relative

P = SwansonParams(1.0, 0.2, 0.1)
Z_GRID = (-0.8, -0.4, 0.0, 0.4, 0.8)


class TestSymmetricEigs:
    def test_diagonal(self):
        w, q = symmetric_eigs(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [1.0, 2.0, 3.0])
        assert np.allclose(q @ q.T, np.eye(3), atol=1e-14)

    def test_two_by_two(self):
        w, _ = symmetric_eigs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(47)
        for n in (5, 40):
            a = rng.normal(size=(n, n))
            m = a + a.T
            w, q = symmetric_eigs(m)
            assert np.linalg.norm((q * w) @ q.T - m, 2) \
                <= 1e-10 * np.linalg.norm(m, 2)
            assert np.all(np.diff(w) >= 0.0)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            symmetric_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            symmetric_eigs(np.zeros((2, 3)))


class TestExpSymmetric:
    def test_zero(self):
        assert np.array_equal(exp_symmetric(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_metric(self):
        # z = 0 gives a diagonal metric root
        r = discrete_series(0.25, 10)
        a = materialize(metric_exponent(P, 0.0), r)
        eps = math.log(2.0) / 4.0
        expect = np.diag(np.exp(2.0 * eps * (np.arange(10) + 0.25)))
        assert np.allclose(exp_symmetric(a), expect, rtol=1e-14)

    def test_inverse_product(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=(30, 30))
        m = (a + a.T) / 2.0
        prod = exp_symmetric(m, 1.0) @ exp_symmetric(m, -1.0)
        assert np.linalg.norm(prod - np.eye(30), 2) < 1e-9


def _exp_raising_reference(sub, band, coeff, n):
    """The ladder exponential with each order added as a fresh np.diag."""
    out = np.eye(n)
    if coeff == 0.0 or sub.size == 0:
        return out
    d = coeff * sub
    order = 1
    while d.size > 0:
        out += np.diag(d, -band * order)
        order += 1
        new_len = n - band * order
        if new_len <= 0:
            break
        d = d[band:new_len + band] * (coeff * sub[:new_len]) / order
    return out


class TestExpRaising:
    def test_bitwise_reference(self):
        rng = np.random.default_rng(59)
        for n in (7, 60):
            for band in (1, 2, 3):
                sub = rng.normal(scale=3.0, size=n - band)
                sub[::4] = 0.0    # products of zeros carry a sign
                for coeff in (-0.3, 0.0, 0.7):
                    got = _exp_raising(sub, band, coeff, n)
                    ref = _exp_raising_reference(sub, band, coeff, n)
                    # int64 views also tell -0.0 from 0.0
                    assert np.array_equal(got.view(np.int64),
                                          ref.view(np.int64)), (n, band, coeff)


class TestMetricRoot:
    def test_matches_expm_moderate(self):
        # small dimension keeps the dense exponential trustworthy, but the
        # factored product reproduces the untruncated operator, so compare
        # on the leading block of a larger basis
        for z in Z_GRID:
            big = materialize_metric_root(P, z, discrete_series(0.25, 60))
            a_small = materialize(metric_exponent(P, z), discrete_series(0.25, 60))
            direct = expm(a_small)
            t = 20
            num = np.linalg.norm((big - direct)[:t, :t], 2)
            assert num <= 1e-9 * np.linalg.norm(direct[:t, :t], 2)

    def test_inverse_pair(self):
        # the product contraction is float-verifiable only while the
        # metric's dynamic range is moderate; the extreme-range identities
        # are covered by the bundle residuals, whose contractions are stable
        r = discrete_series(0.25, 120)
        for z in (-0.8, -0.4, 0.0, 0.8):
            rho = materialize_metric_root(P, z, r, 1)
            rho_inv = materialize_metric_root(P, z, r, -1)
            prod = rho @ rho_inv
            t = 40
            assert np.abs((prod - np.eye(120))[:t, :t]).max() < 1e-11

    def test_symmetry(self):
        r = discrete_series(0.25, 80)
        for z in Z_GRID:
            rho = materialize_metric_root(P, z, r, 1)
            t = 30
            blk = rho[:t, :t]
            assert np.abs(blk - blk.T).max() <= 1e-13 * np.abs(blk).max()


class TestSpectrumPrediction:
    def test_first_value(self):
        vals = spectrum_prediction(P, 0.25, 3)
        assert abs(vals[0] - 0.47958315233127197) < 1e-15
        assert abs(vals[0] - 2.0 * math.sqrt(0.92) * 0.25) < 1e-15

    def test_merged_sectors(self):
        even = spectrum_prediction(P, 0.25, 4)
        odd = spectrum_prediction(P, 0.75, 4)
        merged = np.sort(np.concatenate([even, odd]))
        expect = math.sqrt(0.92) * (np.arange(8) + 0.5)
        assert np.allclose(merged, expect, rtol=1e-14)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            spectrum_prediction(P, -0.5, 3)
        with pytest.raises(InvalidParams):
            spectrum_prediction(SwansonParams(1.0, 0.3, 0.3), 0.25, 3)


class TestBuildBundle:
    def test_z_zero_residuals(self, bundles):
        b = bundles(k=0.25, z=0.0)
        assert max(b.residuals.values()) <= 1e-8
        # diagonal metric commutes with the diagonal observable exactly
        assert b.residuals["r_commute"] == 0.0

    def test_grid_residuals(self, bundles):
        for k in (0.25, 0.75):
            for z in Z_GRID:
                b = bundles(k=k, z=z)
                for name, value in b.residuals.items():
                    assert value <= 1e-6, (k, z, name, value)

    def test_spectrum_matches_prediction(self, bundles):
        for k in (0.25, 0.75):
            pred = spectrum_prediction(P, k, 5)
            for z in Z_GRID:
                b = bundles(k=k, z=z)
                assert np.abs(b.spectrum_h - pred).max() <= 1e-6 * pred[0]

    def test_z_independence(self, bundles):
        specs = np.array([bundles(k=0.25, z=z).spectrum_h for z in Z_GRID])
        spread = (specs.max(axis=0) - specs.min(axis=0)) / specs.min(axis=0)
        assert spread.max() <= 1e-6

    def test_metric_positive_definite(self, bundles):
        for z in Z_GRID:
            assert metric_block_definite(bundles(k=0.25, z=z)) > 0.0

    def test_h_direct_exactly_symmetric(self, bundles):
        b = bundles(k=0.25, z=0.4)
        assert np.array_equal(b.h_direct, b.h_direct.T)

    def test_truncation_guard(self):
        r = discrete_series(0.25, 20)
        with pytest.raises(TruncationTooSmall):
            build_bundle(P, 0.0, r, trusted=20)
        with pytest.raises(TruncationTooSmall):
            build_bundle(P, 0.0, r, trusted=1)

    def test_inadmissible_z(self):
        r = discrete_series(0.25, 20)
        with pytest.raises(ZOutOfDomain):
            build_bundle(P, 0.3, r, trusted=5)

    def test_convergence_in_dimension(self):
        # doubling the basis leaves every residual below threshold
        for z in (-0.4, 0.8):
            small = build_bundle(P, z, discrete_series(0.25, 200), trusted=50)
            large = build_bundle(P, z, discrete_series(0.25, 400), trusted=50)
            for name in small.residuals:
                assert (large.residuals[name] <= small.residuals[name]
                        or large.residuals[name] < 1e-6)

    def test_power_base_matrix_form(self, bundles):
        # rho equals the power of the observable on the trusted block
        r = discrete_series(0.25, 200)
        for z in Z_GRID:
            b = bundles(k=0.25, z=z)
            lam = power_base(P, z)
            scale = math.log(lam) / (4.0 * math.sqrt(1.0 - z * z))
            o_mat = materialize(commuting_observable(z), r)
            alt = exp_symmetric(o_mat, scale)
            t = b.trusted
            num = np.linalg.norm((b.rho - alt)[:t, :t], 2)
            assert num <= 1e-9 * np.linalg.norm(b.rho[:t, :t], 2)

    def test_eigvec_certificates(self, bundles):
        # the transported eigenvectors certify the nonsymmetric operator
        # wherever the metric's dynamic range is representable
        for z in (-0.8, 0.0, 0.8):
            res = eigvec_residuals(bundles(k=0.25, z=z), count=5)
            assert res.max() <= 1e-5

    def test_block_products_match_full(self):
        # build_bundle contracts each residual product on the trusted
        # block only; its residuals must equal those of the full products
        t = 30
        for desc in ("oscillator:parity=full",
                     "multiboson:l=3,residues=0.25,0.5,0.75"):
            r, _ = from_descriptor(desc, 120)
            b = build_bundle(P, 0.4, r, trusted=t)
            h, rho, zeta, o = b.hamiltonian, b.rho, b.zeta_plus, b.observable
            for name, (lhs, rhs) in (
                    ("r_intertwine", (b.h_direct @ rho, rho @ h)),
                    ("r_quasi", (zeta @ h, h.T @ zeta)),
                    ("r_commute", (rho @ o, o @ rho))):
                want = _relative(lhs - rhs, [lhs, rhs], t)
                assert np.isfinite(want)
                # residuals are already relative to the products' norms
                assert abs(b.residuals[name] - want) <= 1e-12, (desc, name)

    def test_banded_spectrum_matches_dense(self):
        for desc in ("discrete:k=0.25", "oscillator:parity=full",
                     "oscillator:parity=odd",
                     "multiboson:l=3,residues=0.25,0.5,0.75", "radial:L=1",
                     "conformal:k=0.75,c=1"):
            r, implied = from_descriptor(desc, 60)
            p = implied if implied is not None else P
            b = build_bundle(p, 0.6, r, trusted=20, spectrum_count=60)
            w = np.linalg.eigh(b.h_direct)[0]
            assert np.abs(b.spectrum_h - w).max() \
                <= 1e-12 * np.abs(w).max(), desc

    def test_spectrum_count_edges(self):
        r = discrete_series(0.25, 10)
        none = build_bundle(P, 0.4, r, trusted=5, spectrum_count=0)
        assert none.spectrum_h.shape == (0,)
        every = build_bundle(P, 0.4, r, trusted=5, spectrum_count=12)
        w = np.linalg.eigh(every.h_direct)[0]
        assert every.spectrum_h.shape == (10,)
        assert np.abs(every.spectrum_h - w).max() <= 1e-12 * np.abs(w).max()
        with pytest.raises(InvalidParams):
            build_bundle(P, 0.4, r, trusted=5, spectrum_count=-1)

    def test_eigvec_residuals_rejects_asymmetric(self):
        b = build_bundle(P, 0.4, discrete_series(0.25, 10), trusted=5)
        h = b.h_direct.copy()
        h[0, 1] += 1.0
        with pytest.raises(NotSymmetric):
            eigvec_residuals(dataclasses.replace(b, h_direct=h))
        with pytest.raises(NotSymmetric):
            eigvec_residuals(dataclasses.replace(b, h_direct=h[:, :9]))

    def test_oscillator_realization_bundle(self):
        from su11metric import oscillator_full
        b = build_bundle(P, 0.4, oscillator_full(200), trusted=50,
                         spectrum_count=6)
        assert max(b.residuals.values()) <= 1e-6
        expect = math.sqrt(0.92) * (np.arange(6) + 0.5)
        assert np.abs(b.spectrum_h - expect).max() <= 1e-6
