import ast
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from su11metric import (InvalidParams, NoConvergence, Su11MetricError, SwansonParams,
                        TruncationTooSmall, from_descriptor, is_admissible,
                        solve_metric, spectrum_prediction, z_domain)
from su11metric import metric, pdm, verification
from su11metric.metric import _harmonic_law
from su11metric.pdm import (PdmConfig, _grid_spectrum, _grid_terms, _h_tridiag,
                            boundary_decay, pdm_generators, run_pdm_check,
                            validate_config)

from conftest import realize
from oracles import enclosure_mp, pdm_flux_form
from test_golden import GOLDEN, run
from test_metric import NEAR_PARABOLIC

P = SwansonParams(1.0, 0.2, 0.1)
BAND_12 = "multiboson:l=12,residues=" + ",".join(str(0.25 * k) for k in range(1, 13))
CFG = PdmConfig(params=P)
# the base point, strong non-Hermiticity both ways, a scaled omega with
# couplings of opposite sign, and negative couplings
COUPLINGS = [(1.0, 0.2, 0.1), (1.0, 0.45, 0.05), (1.0, 0.05, 0.45), (2.0, 0.5, -0.3),
             (1.0, -0.3, -0.2)]
ZS = (-0.9, -0.4, 0.0, 0.4, 0.8)


def mass_weights(cfg):
    """(mu omega, nu / omega) of cfg's h, as run_pdm_check reads them."""
    sol = solve_metric(cfg.params, cfg.z)
    return sol.mu * cfg.params.omega, sol.nu / cfg.params.omega


def h_tridiag(cfg):
    """The grid h of a valid cfg, as pdm's solves form it."""
    return _h_tridiag(cfg, mass_weights(cfg))


def grid_spectrum(cfg, near=None):
    """_grid_spectrum of cfg's h from `near`, or without it from the
    bisection's values."""
    diag, off = h_tridiag(validate_config(cfg))
    if near is None:
        near = pdm._bisect(diag, off, pdm.COUNT)
    return _grid_spectrum(diag, off, near)


def interior_grid(cfg):
    """(x, dx): the interior nodes x_min + k dx, k = 1, ..., points, and
    their spacing dx = (x_max - x_min) / (points + 1)."""
    dx = (cfg.x_max - cfg.x_min) / (cfg.points + 1)
    return cfg.x_min + dx * np.arange(1, cfg.points + 1), dx


def admissible_configs(points):
    for coupling in COUPLINGS:
        params = SwansonParams(*coupling)
        for z in ZS:
            if is_admissible(params, z):
                yield PdmConfig(params=params, z=z, points=points)


class TestConfig:
    def test_defaults_valid(self):
        vals = grid_spectrum(CFG)[0]
        assert vals.shape == (3,) and np.isfinite(vals).all()

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            validate_config(CFG._replace(s=-0.5))
        with pytest.raises(InvalidParams):
            validate_config(CFG._replace(x_min=2.0, x_max=-2.0))
        with pytest.raises(InvalidParams):
            validate_config(CFG._replace(points=50))
        # non-finite inputs, and grids whose e^(2 s max|x|) over dx^2 or
        # over (2 s)^2 leaves the double range, are refused before any exp
        for name, bad in (("s", math.inf), ("tau", math.nan), ("tau", math.inf),
                          ("x_min", -math.inf), ("x_max", math.inf)):
            with pytest.raises(InvalidParams, match="must be finite"):
                validate_config(CFG._replace(**{name: bad}))
        for bad in (dict(s=50.0), dict(x_max=2000.0), dict(x_min=-2000.0),
                    dict(s=1e-160)):
            with pytest.raises(InvalidParams, match="grid terms overflow"):
                validate_config(CFG._replace(**bad))

    def test_wide_domain_accepted(self):
        # 2 s max|x| = 600 is representable; the spectrum takes it
        wide = CFG._replace(x_min=-600.0)
        assert validate_config(wide) is wide
        assert np.isfinite(grid_spectrum(wide)[0]).all()

    def test_checked_once_per_call(self, monkeypatch):
        # run_pdm_check validates its config and solves (p, z) once, not
        # once per level; pdm_generators checks its own input once
        calls = []
        for name in ("validate_config", "solve_metric"):
            def counted(*args, _name=name, _f=getattr(pdm, name)):
                calls.append(_name)
                return _f(*args)
            monkeypatch.setattr(pdm, name, counted)
        for run, expected in ((run_pdm_check, ["validate_config", "solve_metric"]),
                              (pdm_generators, ["validate_config"])):
            calls.clear()
            run(CFG._replace(points=400))
            assert calls == expected, run.__name__

    def test_mass_positive(self):
        # a positive mass is a negative offdiagonal of h
        _, off = h_tridiag(CFG._replace(points=500))
        assert np.all(off < 0.0)

    def test_potential_finite(self):
        diag, _ = h_tridiag(CFG._replace(points=500))
        assert np.isfinite(diag).all()


class TestOneDiscretization:
    """h on the grid is the generators' combination c0 K0 + c (K+ + K-);
    the mass form -1/2 d/dx (1/m) d/dx + V_eff is its independent oracle."""

    @pytest.mark.parametrize("points", [500, 2000, 8000])
    def test_bands_match_the_mass_form(self, points):
        cases = 0
        for cfg in admissible_configs(points):
            diag, off = h_tridiag(cfg)
            ref_diag, ref_off = pdm_flux_form(cfg)
            assert np.abs(diag / ref_diag - 1.0).max() <= 1e-14, cfg
            assert np.abs(off / ref_off - 1.0).max() <= 1e-14, cfg
            cases += 1
        assert cases == 21

    @pytest.mark.parametrize("points", [500, 2000])
    def test_h_is_the_generators_combination(self, points):
        for cfg in admissible_configs(points):
            k0, kp, km = pdm_generators(cfg)
            sol = solve_metric(cfg.params, cfg.z)
            comb = sol.c0 * k0.matrix.data + sol.c * kp.matrix.data + sol.c * km.matrix.data
            diag, off = h_tridiag(cfg)
            scale = max(np.abs(diag).max(), np.abs(off).max())
            for got, want in ((comb[0, :-1], off), (comb[1], diag), (comb[2, 1:], off)):
                assert np.abs(got - want).max() <= 1e-14 * scale, cfg

    @pytest.mark.parametrize("tau", [3.0, 2.7])
    def test_terms_match_the_g_derivatives(self, tau, monkeypatch):
        cfg = CFG._replace(tau=tau, points=1000)
        x, dx, w, curv, well, gp_got = _grid_terms(cfg)
        # pdm_generators' own drift and tilt: with w and curv zeroed, K+ - K-
        # holds exactly +-drift/(2 dx) on its links and tilt - 1/2 on its
        # diagonal, up to well^2's rounding
        monkeypatch.setattr(pdm, "_grid_terms",
                            lambda _: (x, dx, 0.0 * w, 0.0 * curv, well, gp_got))
        _, kp, km = pdm_generators(cfg)
        diff = kp.matrix.data - km.matrix.data
        drift = np.append(-diff[2, 1:], diff[0, -2]) * (2.0 * dx)
        tilt = diff[1] + 0.5
        s = cfg.s
        half = cfg.x_min + dx * (np.arange(cfg.points + 1) + 0.5)
        g = -np.exp(-s * x) / s
        gp, gpp, gppp = np.exp(-s * x), -s * np.exp(-s * x), s * s * np.exp(-s * x)
        expect = {
            "w": (w, 1.0 / (np.exp(-s * half) ** 2 * dx * dx)),
            "curv": (curv, gppp / (2.0 * gp ** 3) - 1.25 * gpp ** 2 / gp ** 4),
            "well": (well, g / 2.0 + tau),
            "gp": (gp_got, gp),
            "drift": (drift, (g + 2.0 * tau) / gp),
            "tilt": (tilt, (gpp / gp ** 2) * (g / 2.0 + tau)),
        }
        for name, (got, ref) in expect.items():
            assert got.shape == ref.shape, name
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max(), name
        assert np.array_equal(x, interior_grid(cfg)[0]) and dx == interior_grid(cfg)[1]


class TestSpectralCheck:
    def test_default_run_passes(self):
        report = run_pdm_check(CFG)
        assert report.status == "PASS"
        assert report.rel_errors.max() <= 0.01
        assert report.boundary_decay <= 1e-8
        assert report.convergence_ok

    def test_half_integer_law(self):
        vals = grid_spectrum(CFG._replace(points=1500))[0]
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
            report = run_pdm_check(CFG._replace(z=z))
            assert report.status == "PASS", (z, report.status)

    def test_inconclusive_on_bad_walls(self):
        report = run_pdm_check(CFG._replace(x_min=-2.0, x_max=2.0))
        assert report.status == "INCONCLUSIVE"
        assert report.boundary_decay > 1e-8

    def test_boundary_decay_reads_the_walls(self):
        vecs = np.array([[0.5, 0.0], [1.0, -2.0], [0.25, -1.5]])
        assert boundary_decay(vecs) == 0.75
        report = run_pdm_check(CFG)
        finest = CFG._replace(points=report.points_used[-1])
        near = report.refine_table[report.points_used[-2]]
        _, vecs, _ = grid_spectrum(finest, near)
        assert boundary_decay(vecs) == report.boundary_decay

    def test_constant_mass_limit(self):
        # s -> 0 with tau = 1/(2s) reduces to an ordinary oscillator
        s = 1e-4
        cfg = PdmConfig(params=P, s=s, tau=1.0 / (2.0 * s),
                        x_min=-9.0, x_max=9.0, points=2000)
        # the flux weights of h, so the mass, vary by under 1%
        _, off = h_tridiag(cfg)
        assert off.min() / off.max() < 1.01
        report = run_pdm_check(cfg)
        assert report.status == "PASS"
        assert report.rel_errors.max() < 0.01

    def test_predicted_spectrum_values(self):
        vals = run_pdm_check(CFG._replace(points=400)).predicted
        assert np.allclose(vals, [0.47958315233127197, 1.438749456993816,
                                  2.39791576165636], rtol=1e-14)


def two_chain_law(p):
    """The law as the union of the one-boson algebra's two chains, k = 1/4
    and 3/4: the form run_pdm_check took before it read the gap."""
    return np.sort(np.concatenate(
        [spectrum_prediction(p, k, pdm.COUNT) for k in (0.25, 0.75)]))[:pdm.COUNT]


class TestOneSolve:
    """run_pdm_check reads mu, nu and the gap from one solve_metric record;
    metric._weights on its own metric._admissible and the two chains' laws,
    the forms it read before, are the reference."""

    @staticmethod
    def draws(count, seed=37):
        # omega = 10^U(-2, 2), alpha and beta in [-omega, omega], and z
        # uniform, at +-1, within 1e-6 of 1 or within 1e-6 of a stability root
        rng = np.random.default_rng(seed)
        for i in range(count):
            omega = 10.0 ** rng.uniform(-2.0, 2.0)
            p = SwansonParams(omega, *rng.uniform(-omega, omega, 2))
            kind = i % 4
            domain = TestOneSolve.outcome(z_domain, p)[0] if kind == 3 else None
            roots = [b for iv in domain or () for b in iv if abs(b) < 1.0]
            if roots:
                z = float(np.clip(rng.choice(roots) + rng.uniform(-1e-6, 1e-6), -1.0, 1.0))
            elif kind == 2:
                z = float(rng.uniform(0.999999, 1.0))
            elif kind == 1:
                z = float(rng.choice([-1.0, 1.0]))
            else:
                z = float(rng.uniform(-1.0, 1.0))
            yield p, z

    @staticmethod
    def outcome(f, *args):
        try:
            return f(*args), None
        except Su11MetricError as exc:
            return None, (type(exc), str(exc))

    def test_record_matches_the_separate_solves(self):
        accepted = 0
        for p, z in self.draws(4000):
            ref, ref_err = self.outcome(
                lambda p, z: metric._weights(p, z, metric._admissible(p, z))[:2], p, z)
            sol, err = self.outcome(solve_metric, p, z)
            assert err == ref_err, (p, z)
            if err is not None:
                continue
            accepted += 1
            mu, nu = ref
            assert (sol.mu * p.omega, sol.nu / p.omega) == (mu * p.omega, nu / p.omega), (p, z)
            assert sol.gap == metric._exact(p)[0], (p, z)
            law = np.array(_harmonic_law(math.sqrt(sol.gap), 0.5, pdm.COUNT))
            assert np.array_equal(law, two_chain_law(p)), (p, z)
        assert accepted > 2000

    def test_report_reads_the_law(self):
        for cfg in admissible_configs(400):
            sol = solve_metric(cfg.params, cfg.z)
            if sol.mu > 0.0:
                assert np.array_equal(run_pdm_check(cfg).predicted, two_chain_law(cfg.params))


class TestCertifiedChain:
    """The coarsest level refines the algebraic law's values by
    Rayleigh-quotient iteration, each finer level the coarser level's, and
    every level is certified; bisection seeds only a level whose
    certificate fails."""

    @pytest.mark.parametrize("z", [-0.9, 0.0, 0.8])
    def test_values_match_tight_bisection(self, z):
        # LAPACK's default bisection tolerance ulp*||T|| costs 1e-4 at 8000
        # points; the certified values match a bisection to 2*tiny.  On the
        # narrow walls the grid's values sit far above the law, so the seed
        # is poor, and the values must still be the grid's own, as must
        # those of the wide x_min = -600 grid, whose diagonal reaches 1e260
        for cfg in (CFG._replace(z=z, points=2000), CFG._replace(z=z, points=8000),
                    CFG._replace(z=z, x_min=-2.0, x_max=2.0, points=400),
                    CFG._replace(z=z, x_min=-600.0)):
            report = run_pdm_check(cfg)
            for pts in report.points_used:
                diag, off = h_tridiag(cfg._replace(points=pts))
                exact = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                         select_range=(0, 2),
                                         tol=2.0 * np.finfo(float).tiny)
                rel = np.abs(report.refine_table[pts] - exact) / exact
                assert rel.max() <= 1e-11, (z, pts, rel)
                resid = report.refine_residuals[pts]
                assert np.all(resid <= 1e-9 * exact), (z, pts, resid)

    @pytest.mark.parametrize("z", [-0.9, 0.0, 0.8])
    def test_default_protocol_never_bisects(self, monkeypatch, z):
        def refuse(*args, **kwargs):
            raise AssertionError("bisected although the law's values certify")

        monkeypatch.setattr(pdm, "_bisect", refuse)
        for points in (2000, 8000):
            report = run_pdm_check(CFG._replace(z=z, points=points))
            assert report.status == "PASS", (z, points, report.status)
            for resid in report.refine_residuals.values():
                assert np.isfinite(resid).all(), (z, points, resid)

    def test_coarser_values_skip_the_bisection(self, monkeypatch):
        near = grid_spectrum(CFG._replace(points=500))[0]

        def refuse(*args, **kwargs):
            raise AssertionError("bisected although the shifts certify")

        monkeypatch.setattr(pdm, "_bisect", refuse)
        vals, _, resid = grid_spectrum(CFG._replace(points=1000), near)
        assert np.all(resid <= 1e-9 * vals)

    def test_boundary_decay_matches_dense_eigh(self):
        cfg = CFG._replace(points=400)
        report = run_pdm_check(cfg)
        diag, off = h_tridiag(cfg)
        dense_h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        _, vecs = scipy.linalg.eigh(dense_h, subset_by_index=(0, 2))
        dense = boundary_decay(vecs)
        assert abs(report.boundary_decay - dense) <= 1e-10 * dense
        assert report.status == "PASS"

    def test_shifts_one_level_up_fail_the_certificate(self, monkeypatch):
        # the 2nd-4th eigenvalues, even with residuals 0, are three disjoint
        # intervals, but dstebz's count finds four up to them: the solve
        # falls back to bisection and still returns the lowest three
        cfg = CFG._replace(points=1000)
        diag, off = h_tridiag(cfg)
        lowest4 = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                   select_range=(0, 3),
                                   tol=2.0 * np.finfo(float).tiny)

        # the certificate counts up to half the top spacing above the top
        # value: four levels for the 2nd-4th, three for the lowest three
        zeros = np.zeros(3)
        assert pdm._enclosure(diag, off, lowest4[1:], zeros, zeros) is None
        assert pdm._enclosure(diag, off, lowest4[:3], zeros, zeros) is not None
        bisected = []

        def counted(*args, _f=pdm._bisect):
            bisected.append(args[2])
            return _f(*args)

        monkeypatch.setattr(pdm, "_bisect", counted)
        vals, _, resid = grid_spectrum(cfg, lowest4[1:])
        # the shifts' own refinement fails the certificate
        assert bisected == [3]
        assert np.allclose(vals, lowest4[:3], rtol=1e-11, atol=0.0)
        assert np.isfinite(resid).all()
        assert np.array_equal(vals, grid_spectrum(cfg)[0])

    def test_no_solve_calls_dstein(self, monkeypatch):
        # one dgtsv call per Rayleigh step solves for every shift at once;
        # with LAPACK's inverse iteration refused on the wrappers the solves
        # read, the statuses stand
        def refuse(*args, **kwargs):
            raise AssertionError("dstein called")

        monkeypatch.setattr(pdm._lapack(), "dstein", refuse)
        for cfg, status in ((CFG, "PASS"), (CFG._replace(points=8000), "PASS"),
                            (CFG._replace(x_min=-2.0, x_max=2.0, points=400), "INCONCLUSIVE"),
                            (CFG._replace(x_min=-600.0), "FAIL")):
            assert run_pdm_check(cfg).status == status, (cfg, status)

    @staticmethod
    def certified_levels(monkeypatch, cfg):
        """run_pdm_check(cfg), and the (diag, off, (theta, vecs, resid)) of
        each level, coarse to fine, as _grid_spectrum returned them; each
        residual must cover the 60-digit ||T q - theta q|| of its theta
        and q."""
        got = []
        solve = pdm._grid_spectrum

        def record(diag, off, near):
            out = solve(diag, off, near)
            got.append((diag, off, out))
            return out

        monkeypatch.setattr(pdm, "_grid_spectrum", record)
        report = run_pdm_check(cfg)
        assert [diag.size for diag, _, _ in got] == list(report.points_used)
        with mp.workdps(60):
            for diag, off, (theta, vecs, resid) in got:
                d, e = [mp.mpf(v) for v in diag], [mp.mpf(v) for v in off] + [mp.mpf(0)]
                for j, t in enumerate(theta):
                    q = [mp.mpf(v) for v in vecs[:, j]] + [mp.mpf(0)]
                    r = [(d[i] - t) * q[i] + e[i - 1] * q[i - 1] + e[i] * q[i + 1]
                         for i in range(diag.size)]
                    true = mp.sqrt(mp.fsum(v * v for v in r) / mp.fsum(v * v for v in q))
                    assert resid[j] >= true, (diag.size, j, resid[j], true)
        return report, got

    def test_residuals_bound_the_true_residual(self, monkeypatch):
        # on the wide grid the diagonal reaches 1e260, and a computed
        # ||T q - theta q|| fell below the true one (1.1e-17 against 4.7e-17
        # at 1000 points); with the bound on its own rounding, each residual
        # _grid_spectrum returns covers the 60-digit one of its theta and q
        self.certified_levels(monkeypatch, CFG._replace(z=0.8, x_min=-600.0))

    def test_wall_rows_taken_error_free(self, monkeypatch):
        # the diagonal reaches 1.6e27 at the 400-point level and 7.2e27 at
        # 800: the rounding bound 4 eps ||(|T| + |theta|) |q||| alone gave
        # 1.9e-8 and 8.4e-8 against the bar sqrt(eps) max theta = 1.3e-8.
        # With the rows near the wall summed by Dot2 every level certifies
        # and each residual still covers the 60-digit one.  The 200- and
        # 800-point levels, refined from the bisection's and from certified
        # values, keep every residual within half the bar; the 400-point
        # level, refined from the 200-point values, is left with residuals
        # of 2.2e-6, past the bar, and its Kato-Temple widths (3e-11)
        # certify it without the bisection
        cfg = PdmConfig(params=SwansonParams(0.5, 0.2978680309545344, 0.10774281255720841),
                        z=-0.11626529395105223, s=1.0, tau=1.4216797492124251,
                        x_min=-20.0, x_max=30.0, points=800)
        report, got = self.certified_levels(monkeypatch, cfg)
        assert report.status == "PASS"
        bar = [np.sqrt(np.finfo(float).eps) * theta.max() for _, _, (theta, _, _) in got]
        resid = [r.max() for _, _, (_, _, r) in got]
        assert all(diag.max() > 1e26 for diag, _, _ in got)
        assert resid[0] <= bar[0] / 2.0 and resid[2] <= bar[2] / 2.0, resid
        assert resid[1] > bar[1], resid

    @pytest.mark.parametrize("z, points", [(0.024908, 500), (0.0, 100)])
    def test_rounding_term_is_four_eps_m(self, z, points):
        # the returned bound is ||r|| + 4 eps ||m||, m = (|T| + |theta|) |q|,
        # recomputed row by row from the returned theta and q: m by
        # math.fsum, r in _rayleigh's order (main, upper, lower, then
        # - theta q), since a correctly rounded r moves ||r|| by up to 0.2%
        # of the bound.  No row of m passes the bar past which a row is
        # summed again error-free, and the a-priori term is most of each
        # bound on the 500-point level, so |T|'s off band, |theta| and the
        # factor 4 are each read
        cfg = CFG._replace(z=z, points=points)
        seeds = np.array(_harmonic_law(math.sqrt(solve_metric(P, z).gap), 0.5, pdm.COUNT))
        diag, off = h_tridiag(cfg)
        theta, vecs, bound, _ = pdm._rayleigh(diag, off, seeds)
        n, eps = diag.size, np.finfo(float).eps
        d, e = diag.tolist(), [0.0, *off.tolist(), 0.0]
        for t, q, b in zip(theta.tolist(), vecs.T.tolist(), bound.tolist()):
            qp = [0.0, *q, 0.0]
            r = [d[i] * q[i] + e[i + 1] * qp[i + 2] + e[i] * qp[i] - t * q[i]
                 for i in range(n)]
            m = [math.fsum((abs(d[i] * q[i]), abs(t * q[i]), abs(e[i + 1] * qp[i + 2]),
                            abs(e[i] * qp[i]))) for i in range(n)]
            # 4 eps bar = sqrt(eps) |theta| / (4 sqrt n)
            assert max(m) <= abs(t) / (16.0 * math.sqrt(eps * n)), (z, points, t)
            r_norm, m_norm = (math.sqrt(math.fsum(v * v for v in u)) for u in (r, m))
            assert abs(b - (r_norm + 4.0 * eps * m_norm)) <= 1e-12 * b, (z, points, t)
            if points == 500:
                assert 4.0 * eps * m_norm >= 0.9 * b, (z, points, t)

    @pytest.mark.parametrize("points", [1600, 3200, 6400])
    def test_wall_grid_reaches_a_verdict(self, points):
        # (0.5, 0.3, 0.1) at z = -0.1, s = 1, tau = 1.4 on [-20, 30]: the
        # finest level's residuals (2.0e-8 to 2.9e-7) pass no gate of
        # sqrt(eps) max theta = 1.35e-8 on the residual, and the check
        # ended in NoConvergence; its certified widths, offset and
        # Kato-Temple term together at most 8.1e-12, pass that gate, and
        # the check passes
        cfg = PdmConfig(params=SwansonParams(0.5, 0.3, 0.1), z=-0.1, s=1.0, tau=1.4,
                        x_min=-20.0, x_max=30.0, points=points)
        report = run_pdm_check(cfg)
        assert report.status == "PASS"
        assert report.refine_residuals[points].max() > 1.35e-8

    def test_offsets_bound_the_rayleigh_quotient(self):
        # each offset _rayleigh returns covers |theta - q.Tq / q.q| at 60
        # digits, for its theta and q: on the default grid, the wall grid
        # whose diagonal reaches 1e27 and the wide one that reaches 1e260
        wall = PdmConfig(params=SwansonParams(0.5, 0.3, 0.1), z=-0.1, s=1.0, tau=1.4,
                         x_min=-20.0, x_max=30.0, points=400)
        for cfg in (CFG._replace(points=400), wall, CFG._replace(z=0.8, x_min=-600.0,
                                                                 points=400)):
            diag, off = h_tridiag(cfg)
            theta, vecs, _, offset = pdm._rayleigh(diag, off, pdm._bisect(diag, off, 3))
            with mp.workdps(60):
                d, e = [mp.mpf(v) for v in diag], [mp.mpf(v) for v in off] + [mp.mpf(0)]
                for t, q, bound in zip(theta, vecs.T, offset):
                    q = [mp.mpf(v) for v in q] + [mp.mpf(0)]
                    tq = mp.fsum(q[i] * (d[i] * q[i] + e[i - 1] * q[i - 1] + e[i] * q[i + 1])
                                 for i in range(diag.size))
                    eta = tq / mp.fsum(v * v for v in q)
                    assert bound >= abs(eta - mp.mpf(t)), (cfg, t, bound)

    def test_uncertified_grid_is_no_convergence(self):
        # 2 s max|x| = 300: the 500-point level's diagonal spans 0.4 to
        # 4e130, the residuals' bound on their own rounding is about 1e14,
        # and the level cannot be certified; so nothing is reported
        with pytest.raises(NoConvergence, match="500-point grid"):
            run_pdm_check(CFG._replace(x_max=300.0))


class TestCertificate:
    # _enclosure, the grid's certificate, on diagonal matrices, whose levels
    # are their entries; offsets 0 unless given, as for exact Rayleigh
    # quotients

    @staticmethod
    def enclose(diag, theta, resid, offset=None):
        theta = np.asarray(theta, dtype=float)
        return pdm._enclosure(np.asarray(diag, dtype=float), np.zeros(len(diag) - 1), theta,
                              np.asarray(resid, dtype=float),
                              np.zeros(theta.size) if offset is None else np.asarray(offset))

    def test_overlapping_intervals_fail(self):
        # levels 1 and 1 + 1e-9: residuals 4e-10 separate them, 1e-9 do
        # not.  Where they certify, each Kato-Temple width r^2 / (distance
        # to the neighbour's interval) is below the residual
        d = [1.0, 1.0 + 1e-9, 3.0]
        widths = self.enclose(d, d[:2], [4e-10, 4e-10])
        assert widths is not None and max(widths) < 4e-10
        assert self.enclose(d, d[:2], [1e-9, 1e-9]) is None

    def test_disjointness_reads_both_radii(self):
        # theta_1 lies above theta_0 + rho_0 = 1 + 1e-9, but with residual
        # 2.5e-9 its interval starts below it; with 1.5e-9 it does not.
        # Intervals that touch, theta_1 - rho_1 = theta_0 + rho_0 in
        # doubles, could share one level, and are refused too
        d = [1.0, 1.0 + 3e-9, 5.0, 10.0]
        assert self.enclose(d, d[:3], [1e-9, 2.5e-9, 0.0]) is None
        assert self.enclose(d, d[:3], [1e-9, 1.5e-9, 0.0]) is not None
        touch = d[1] - (d[0] + 1e-9)
        assert d[1] - touch == d[0] + 1e-9
        assert self.enclose(d, d[:3], [1e-9, touch, 0.0]) is None

    def test_width_gate_is_sqrt_eps(self):
        # every certified width, not the residual, must be within sqrt(eps)
        # max |theta| = 4.47e-8 (levels 1, 2, 3): level 0's offset of 5e-8
        # is refused and 4e-8 is not, and its residual of 2e-4, far past
        # the gate, certifies, since its width r^2 / room is 4e-8; 2.2e-4
        # (4.84e-8) does not
        d = [1.0, 2.0, 3.0, 4.0]
        assert self.enclose(d, d[:3], [0.0] * 3, [5e-8, 0.0, 0.0]) is None
        assert self.enclose(d, d[:3], [0.0] * 3, [4e-8, 0.0, 0.0]) is not None
        assert self.enclose(d, d[:3], [2e-4, 0.0, 0.0]) is not None
        assert self.enclose(d, d[:3], [2.2e-4, 0.0, 0.0]) is None

    def test_bisected_values_certify_with_zero_residual(self):
        # the values of a chain's leading states, bisected to 2 tiny,
        # certify with residual and offset 0, as pdm certifies: the
        # intervals are at least as wide as the bisection's own tolerance,
        # and the count half a spacing above the top finds them all
        for r in (realize("discrete:k=0.25", 300), realize("oscillator", 300)):
            for z in (-0.8, -0.4, 0.0, 0.4, 0.8):
                sol = solve_metric(P, z)
                for count in (2, 5, 25):
                    m = 2 * count + 32
                    k0, kp = r.bands(0, m)
                    d, e = sol.c0 * k0, sol.c * kp
                    w = pdm._bisect(d, e, count)
                    zeros = np.zeros(count)
                    assert pdm._enclosure(d, e, w, zeros, zeros) is not None, (r.kind, z, count)

    def test_enclosure_oracle_on_golden_grids(self, monkeypatch):
        # every Kato-Temple call of every level of the golden file's pdm
        # calls keeps its one-sided inequalities at 40 digits
        calls = []

        def record(r2, gap, room, _f=pdm._kato_temple):
            calls.append((r2, gap, room, _f(r2, gap, room)))
            return calls[-1][-1]

        monkeypatch.setattr(pdm, "_kato_temple", record)
        records = [r for r in json.loads(GOLDEN.read_text()) if r["argv"][0] == "pdm"]
        for rec in records:
            assert run(rec["argv"])[0] == rec["code"], rec["argv"]
        assert len(records) == 94 and len(calls) > 3 * len(records)
        assert [(call[:3], broken) for call in calls
                if (broken := enclosure_mp(*call))] == []


class TestRayleighLayout:
    # the k systems joined by zero links into one flat tridiagonal are the
    # dgtsv call's alone; _rayleigh's products run on its (k, n) row stacks

    @staticmethod
    def module_and_rayleigh():
        tree = ast.parse(Path(pdm.__file__).read_text(encoding="utf-8"))
        return tree, next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "_rayleigh")

    def test_ravel_only_in_the_dgtsv_call(self):
        tree, rayleigh = self.module_and_rayleigh()
        ravels = {id(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) == "ravel"}
        (call,) = [node for node in ast.walk(rayleigh) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "dgtsv"]
        assert ravels and ravels <= {id(node) for arg in call.args for node in ast.walk(arg)}

    def test_rayleigh_defines_no_function(self):
        _, rayleigh = self.module_and_rayleigh()
        assert not [node for node in ast.walk(rayleigh) if node is not rayleigh and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]


class TestBisect:
    # pdm._bisect's values are byte for byte those of eigh_tridiagonal's
    # values-only bisection (stebz alone), on hard chains (the
    # near-parabolic pin's and the band-12 pin's), the grid levels that
    # reach it in the golden pins, and split chains

    @staticmethod
    def assert_same_values(d, e, count):
        want = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                             tol=2.0 * np.finfo(float).tiny)[0]
        got = pdm._bisect(d, e, count)
        assert got.shape == (count,) and got.tobytes() == want.tobytes(), (d.size, count)

    @pytest.mark.parametrize("p, z, desc", [(NEAR_PARABOLIC, 0.3, "discrete:k=0.25"),
                                            (P, 0.4, BAND_12)])
    def test_pinned_chains(self, p, z, desc):
        # the near-parabolic pin's chain and the band-12 pin's 12, at N = 200
        r, _ = from_descriptor(desc, 200)
        sol = solve_metric(p, z)
        for ch, m in enumerate(r.lengths()):
            k0, kp = r.bands(ch, m)
            d, e = sol.c0 * k0, sol.c * kp
            self.assert_same_values(d, e, min(verification.SPECTRUM_COUNT, d.size))

    @pytest.mark.parametrize("flags", [{"x_min": -2.0, "x_max": 6.0}, {"tau": 1.0}])
    def test_pinned_grid_levels(self, flags):
        # the three levels of the pdm pins that fall back to the bisection
        cfg = PdmConfig(params=P, **flags)
        for points in (500, 1000, 2000):
            d, e = h_tridiag(cfg._replace(points=points))
            self.assert_same_values(d, e, 3)

    def test_split_chains(self):
        # zero and negligible links split T into blocks, single states
        # among them; T itself has two states or more, as the grid's do
        rng = np.random.default_rng(3559)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            d = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            e = rng.normal(size=n - 1)
            e[rng.random(n - 1) < 0.3] = 0.0
            e[rng.random(n - 1) < 0.2] *= 1e-12
            self.assert_same_values(d, e, int(rng.integers(1, n + 1)))

    def test_values_only(self, monkeypatch):
        # the grid bisects by index (dstebz's range 2) for values alone, so
        # no dstein runs, and counts its levels by value (range 1); h's
        # chains never reach LAPACK: the near-parabolic pin's chain, whose
        # law 200 states do not certify, is refused before any solve
        lapack, ranges = pdm._lapack(), []
        exact = lapack.dstebz

        def record(d, e, select, *args):
            ranges.append(select)
            return exact(d, e, select, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("dstein ran")

        monkeypatch.setattr(lapack, "dstebz", record)
        monkeypatch.setattr(lapack, "dstein", refuse)
        sol = solve_metric(NEAR_PARABOLIC, 0.3)
        with pytest.raises(TruncationTooSmall, match="200 of the N = 200 states"):
            verification._low_eigs(sol.c0, sol.c, realize("discrete:k=0.25", 200), 5)
        assert ranges == []
        run_pdm_check(PdmConfig(params=P, x_min=-2.0, x_max=6.0))
        assert ranges.count(2) >= 1 and set(ranges) == {1, 2}, ranges


class TestTridiagonal:
    """pdm.Tridiagonal against scipy.sparse.dia_array on the same bands:
    every result byte for byte, as the generators' callers read them."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1001])
    def test_matches_dia_array(self, n):
        rng = np.random.default_rng(n)
        band = rng.standard_normal((3, n)) * 10.0 ** rng.uniform(-8, 8, (3, n))
        a, ref_a = pdm.Tridiagonal(band), sparse.dia_array((band, (-1, 0, 1)), shape=(n, n))
        x, xs = rng.standard_normal(n), rng.standard_normal((n, 4))
        c = rng.standard_normal()
        pairs = [(a @ x, ref_a @ x), (a @ xs, ref_a @ xs), (a @ xs[:, :1], ref_a @ xs[:, :1]),
                 ((c * a).data, (c * ref_a).data),
                 ((np.float64(c) * a).data, (np.float64(c) * ref_a).data),
                 ((a * c).data, (ref_a * c).data),
                 ((c * a) @ x, (c * ref_a) @ x)]
        assert a.shape == ref_a.shape == (n, n)
        for i, (got, want) in enumerate(pairs):
            assert got.shape == want.shape and got.dtype == want.dtype, i
            assert got.tobytes() == want.tobytes(), i

    def test_refuses_other_operands(self):
        a = pdm.Tridiagonal(np.ones((3, 4)))
        for other in (np.ones((3, 4)), 1.0):
            with pytest.raises(TypeError):
                a + other
            with pytest.raises(TypeError):
                a - other
        with pytest.raises(TypeError):
            a * np.ones(4)


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
        x, dx = interior_grid(cfg)
        s = cfg.s
        gp = np.exp(-s * x)
        half_g_tau = -0.5 * gp / s + cfg.tau
        half = cfg.x_min + dx * (np.arange(cfg.points + 1) + 0.5)
        w = np.exp(2.0 * s * half) / (dx * dx)
        flux = np.diag(w[1:] + w[:-1]) - np.diag(w[1:-1], 1) - np.diag(w[1:-1], -1)
        curv = -0.75 * s * s / (gp * gp)
        k0 = 0.5 * (flux + np.diag(curv + half_g_tau ** 2))
        drift = 2.0 * half_g_tau / gp
        d1 = (np.diag(np.full(len(x) - 1, 1.0), 1)
              - np.diag(np.full(len(x) - 1, 1.0), -1)) / (2.0 * dx)
        first = np.diag(drift) @ d1
        tilt = -s / gp * half_g_tau
        kp = 0.5 * (-flux - first + np.diag(-curv + tilt + half_g_tau ** 2 - 0.5))
        km = 0.5 * (-flux + first + np.diag(-curv - tilt + half_g_tau ** 2 + 0.5))
        return k0, kp, km

    @pytest.mark.parametrize("tau", [3.0, 2.7])
    def test_equals_dense_reference(self, tau):
        cfg = CFG._replace(points=300, tau=tau, z=0.4)
        ops = pdm_generators(cfg)
        x, dx = interior_grid(cfg)
        for op, ref in zip(ops, self._dense_reference(cfg)):
            assert isinstance(op.matrix, pdm.Tridiagonal)
            data = op.matrix.data
            for k, band in ((-1, data[0, :-1]), (0, data[1]), (1, data[2, 1:])):
                assert np.array_equal(band, np.diagonal(ref, k)), k
            assert np.array_equal(op.grid, x) and op.dx == dx

    def test_k0_symmetric_exactly(self):
        k0, _, _ = pdm_generators(CFG._replace(points=300))
        data = k0.matrix.data
        assert np.array_equal(data[0, :-1], data[2, 1:])

    def test_generators_stay_banded_in_memory(self):
        # three dense 4000 x 4000 operators would take 384 MB; the bands
        # take 0.3 MB (a first small call runs numpy's one-time setup
        # outside the trace)
        pdm_generators(CFG._replace(points=100))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracemalloc.start()
            try:
                ops = pdm_generators(CFG._replace(points=4000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 4 * 2 ** 20, peak / 2 ** 20
        assert all(op.matrix.shape == (4000, 4000) for op in ops)

    def test_generators_finite_at_the_widest_domain(self):
        # 2 s max|x| = 700 is just inside the double range; the closed-form
        # curvature -(3/4) s^2/g'^2 never forms g'^4 = e^(-4 s x) = e^1400
        cfg = CFG._replace(x_min=-700.0)
        assert validate_config(cfg) is cfg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ops = pdm_generators(cfg)
        for op in ops:
            assert np.isfinite(op.matrix.data).all()

    def test_overflowing_tau_is_refused_by_name(self):
        # well^2 overflows at tau = 1e160: the refusal is the only report
        cfg = PdmConfig(SwansonParams(1, 0.2, 0.1), tau=1e160, points=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match="generator K0 is not finite"):
                pdm_generators(cfg)

    def test_commutator_refinement(self):
        cfg = CFG._replace(x_min=-4.0, x_max=6.0)
        comm = [self._probe_residual(cfg._replace(points=pts))[0]
                for pts in (400, 800, 1600)]
        assert comm[1] < comm[0] and comm[2] < comm[1]

    def test_adjointness_refinement(self):
        cfg = CFG._replace(x_min=-4.0, x_max=6.0)
        adj = [self._probe_residual(cfg._replace(points=pts))[1]
               for pts in (400, 800, 1600)]
        assert adj[1] < adj[0] and adj[2] < adj[1]
