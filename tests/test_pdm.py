import math
from dataclasses import replace

import numpy as np
import pytest

from su11metric import (InvalidParams, PdmConfig, SwansonParams,
                        pdm_generators, pdm_spectrum, predicted_spectrum,
                        run_pdm_check)
from su11metric.pdm import (_interior_grid, boundary_decay,
                            effective_potential, mass_profile)

P = SwansonParams(1.0, 0.2, 0.1)
CFG = PdmConfig(params=P)


class TestConfig:
    def test_defaults_valid(self):
        vals = pdm_spectrum(CFG)
        assert vals.shape == (3,) and np.isfinite(vals).all()

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            pdm_spectrum(replace(CFG, s=-0.5))
        with pytest.raises(InvalidParams):
            pdm_spectrum(replace(CFG, x_min=2.0, x_max=-2.0))
        with pytest.raises(InvalidParams):
            pdm_spectrum(replace(CFG, points=50))

    def test_mass_positive(self):
        x = np.linspace(CFG.x_min, CFG.x_max, 500)
        assert np.all(mass_profile(CFG, x) > 0.0)

    def test_potential_finite(self):
        x = np.linspace(CFG.x_min, CFG.x_max, 500)
        assert np.isfinite(effective_potential(CFG, x)).all()


class TestSpectralCheck:
    def test_default_run_passes(self):
        report = run_pdm_check(CFG)
        assert report.status == "PASS"
        assert report.rel_errors.max() <= 0.01
        assert report.boundary_decay <= 1e-8
        assert report.convergence_ok

    def test_half_integer_law(self):
        vals = pdm_spectrum(replace(CFG, points=1500), count=3)
        expect = math.sqrt(0.92) * (np.arange(3) + 0.5)
        assert np.abs(vals - expect).max() / expect[0] < 0.01

    def test_second_order_refinement(self):
        report = run_pdm_check(CFG)
        levels = [report.refine_table[pts] for pts in report.points_used]
        d1 = np.abs(levels[1] - levels[0])
        d2 = np.abs(levels[2] - levels[1])
        assert np.all(d2 <= 0.5 * d1)

    def test_z_independence(self):
        for z in (0.4, -0.4, 0.8):
            report = run_pdm_check(replace(CFG, z=z))
            assert report.status == "PASS", (z, report.status)

    def test_inconclusive_on_bad_walls(self):
        report = run_pdm_check(replace(CFG, x_min=-2.0, x_max=2.0))
        assert report.status == "INCONCLUSIVE"
        assert report.boundary_decay > 1e-8

    def test_constant_mass_limit(self):
        # s -> 0 with tau = 1/(2s) reduces to an ordinary oscillator
        s = 1e-4
        cfg = PdmConfig(params=P, s=s, tau=1.0 / (2.0 * s),
                        x_min=-9.0, x_max=9.0, points=2000)
        x = np.linspace(cfg.x_min, cfg.x_max, 200)
        m = mass_profile(cfg, x)
        assert m.max() / m.min() < 1.01
        report = run_pdm_check(cfg)
        assert report.status == "PASS"
        assert report.rel_errors.max() < 0.01

    def test_predicted_spectrum_values(self):
        vals = predicted_spectrum(P, 3)
        assert np.allclose(vals, [0.47958315233127197, 1.438749456993816,
                                  2.39791576165636], rtol=1e-14)


class TestGenerators:
    @staticmethod
    def _probe_residual(cfg):
        k0, kp, km = pdm_generators(cfg)
        x = k0.grid
        w = cfg.points // 8
        probes = [np.exp(-x ** 2), x * np.exp(-(x + 1.0) ** 2),
                  np.exp(-((x - 1.0) ** 2) / 2.0)]
        worst_comm = 0.0
        for u in probes:
            lhs = k0.matrix @ (kp.matrix @ u) - kp.matrix @ (k0.matrix @ u) \
                - kp.matrix @ u
            ref = kp.matrix @ u
            worst_comm = max(worst_comm, np.linalg.norm(lhs[w:-w])
                             / np.linalg.norm(ref[w:-w]))
        u, v = probes[0], probes[2]
        adjoint = abs(u @ (kp.matrix @ v) - (km.matrix @ u) @ v) * k0.dx
        return worst_comm, adjoint

    @staticmethod
    def _dense_reference(cfg):
        """(K0, Kp, Km) as sums and products of dense flux, drift and
        central-difference matrices."""
        x, dx = _interior_grid(cfg)
        s = cfg.s
        g = -np.exp(-s * x) / s
        gp = np.exp(-s * x)
        gpp = -s * np.exp(-s * x)
        gppp = s * s * np.exp(-s * x)
        half_g_tau = 0.5 * g + cfg.tau
        w_right = np.exp(2.0 * s * (x + dx / 2.0)) / (dx * dx)
        f_diag = w_right + np.exp(2.0 * s * (x - dx / 2.0)) / (dx * dx)
        flux = np.diag(f_diag) - np.diag(w_right[:-1], 1) - np.diag(w_right[:-1], -1)
        curv = gppp / (2.0 * gp ** 3) - 1.25 * gpp ** 2 / gp ** 4
        k0 = 0.5 * (flux + np.diag(curv + half_g_tau ** 2))
        drift = (g + 2.0 * cfg.tau) / gp
        d1 = (np.diag(np.full(len(x) - 1, 1.0), 1)
              - np.diag(np.full(len(x) - 1, 1.0), -1)) / (2.0 * dx)
        first = np.diag(drift) @ d1
        tilt = (gpp / gp ** 2) * half_g_tau
        kp = 0.5 * (-flux - first + np.diag(-curv + tilt + half_g_tau ** 2 - 0.5))
        km = 0.5 * (-flux + first + np.diag(-curv - tilt + half_g_tau ** 2 + 0.5))
        return k0, kp, km

    @pytest.mark.parametrize("tau", [3.0, 2.7])
    def test_equals_dense_reference(self, tau):
        cfg = replace(CFG, points=300, tau=tau, z=0.4)
        ops = pdm_generators(cfg)
        x, dx = _interior_grid(cfg)
        for op, ref in zip(ops, self._dense_reference(cfg)):
            assert type(op.matrix) is np.ndarray
            assert np.array_equal(op.matrix, ref)
            assert np.array_equal(op.grid, x) and op.dx == dx

    def test_k0_symmetric_exactly(self):
        k0, _, _ = pdm_generators(replace(CFG, points=300))
        assert np.array_equal(k0.matrix, k0.matrix.T)

    def test_commutator_refinement(self):
        cfg = replace(CFG, x_min=-4.0, x_max=6.0)
        comm = [self._probe_residual(replace(cfg, points=pts))[0]
                for pts in (400, 800, 1600)]
        assert comm[1] < comm[0] and comm[2] < comm[1]

    def test_adjointness_refinement(self):
        cfg = replace(CFG, x_min=-4.0, x_max=6.0)
        adj = [self._probe_residual(replace(cfg, points=pts))[1]
               for pts in (400, 800, 1600)]
        assert adj[1] < adj[0] and adj[2] < adj[1]
