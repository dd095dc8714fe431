"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s to see them).  Derived
reference values come from independent oracles: the 2x2 scaling-and-
squaring exponential, dense parameter scans, the closed harmonic law,
finite-difference grids, and algebraic identities, never from the code
path under test.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import su11metric as sm
from su11metric.cli import SWEEP_COLUMNS, main as cli_main
from su11metric.pdm import PdmConfig, run_pdm_check

from conftest import admissible_samples, halved_conjugate, metric_block
from oracles import (defining_rep, exp_symmetric, materialize,
                     metric_block_definite, radial_k0_lowest,
                     reconstruct_defining, residue_root_of_unity)

P = sm.SwansonParams(1.0, 0.2, 0.1)
Z_GRID = (-0.8, -0.4, 0.0, 0.4, 0.8)

PARAM_SETS = [sm.SwansonParams(om, al, be)
              for om in (0.8, 1.0, 1.3, 1.7)
              for (al, be) in ((0.2, 0.1), (0.3, -0.15), (-0.25, 0.4),
                               (0.05, 0.35), (0.6, -0.3))]


def report(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def coefficient_grid():
    """20 parameter sets x 20 admissible z values."""
    grid = []
    for p in PARAM_SETS:
        zs = admissible_samples(p)
        assert len(zs) == 20
        grid.append((p, zs))
    return grid


@pytest.fixture(scope="module")
def bundle_grid(bundles):
    return {(k, z): bundles(k=k, z=z)
            for k in (0.25, 0.75) for z in Z_GRID}


def test_criterion_1_disentanglement_reconstruction():
    # 1e4 random Hermitian exponents with theta real, pivots away from the
    # singular factorization set, both orderings rebuilt against the
    # scaling-and-squaring oracle to 1e-12 in the spectral norm
    rng = np.random.default_rng(20250810)
    worst = 0.0
    n_checked = 0
    while n_checked < 10_000:
        eps = rng.uniform(-3.0, 3.0)
        amp = 0.5 * abs(eps) * math.sqrt(rng.uniform())
        eta = amp * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        theta = math.sqrt(eps * eps - 4.0 * abs(eta) ** 2)
        c, s = np.cosh(theta), (np.sinh(theta) / theta if theta else 1.0)
        if min(abs(c - eps * s), abs(c + eps * s)) < 0.1:
            continue
        n_checked += 1
        element = sm.AlgebraElement(2 * eps, 2 * eta, 2 * np.conj(eta))
        target = expm(defining_rep(element))
        scale = np.linalg.norm(target, 2)
        normal, anti = sm.disentangle_closed_form(eps, eta)
        for f in (normal, anti):
            err = np.linalg.norm(reconstruct_defining(f) - target, 2)
            worst = max(worst, err / scale)
    report(1, "disentanglement reconstruction", worst <= 1e-12,
           f"worst {worst:.2e} over {n_checked} draws, |theta| <= 3")


def test_criterion_2_hermiticity_conditions(coefficient_grid):
    worst_im = worst_wv = 0.0
    for p, zs in coefficient_grid:
        for z in zs:
            sol = sm.solve_metric(p, z)
            u, v, w = halved_conjugate(p, sol.epsilon, sol.eta)
            worst_im = max(worst_im, abs(u.imag))
            worst_wv = max(worst_wv, abs(w - v))
    ok = worst_im <= 1e-10 and worst_wv <= 1e-10
    report(2, "Hermiticity conditions", ok,
           f"|Im U| {worst_im:.2e}, |W - V| {worst_wv:.2e} on 20x20 grid")


def test_criterion_3_invariant_products(coefficient_grid):
    worst_mn = worst_cas = 0.0
    for p, zs in coefficient_grid:
        target = p.omega ** 2 - 4.0 * p.alpha * p.beta
        for z in zs:
            sol = sm.solve_metric(p, z)
            worst_mn = max(worst_mn, abs(sol.mu * sol.nu - target) / target)
            u, v, w = halved_conjugate(p, sol.epsilon, sol.eta)
            cas = (u * u - 4.0 * v * w).real
            worst_cas = max(worst_cas, abs(cas - target) / target)
    ok = worst_mn <= 1e-10 and worst_cas <= 1e-10
    report(3, "invariant products", ok,
           f"mu*nu {worst_mn:.2e}, U^2-4VW {worst_cas:.2e} relative")


def test_criterion_4_family_consistency(coefficient_grid, bundle_grid):
    # coefficient level: direct assembly equals conjugation
    worst_h = 0.0
    for p, zs in coefficient_grid:
        for z in zs:
            sol = sm.solve_metric(p, z)
            y = sm.conjugate(sol.epsilon, sol.eta, sm.swanson_element(p))
            worst_h = max(worst_h, abs(sol.c0 - y.c0), abs(sol.c - y.cm),
                          abs(sol.c - y.cp))
    # matrix level: the metric root equals the power of the observable,
    # and commutes with it, on the trusted block
    realization = sm.from_descriptor("discrete:k=0.25", 200)[0]
    worst_pow = worst_comm = 0.0
    for z in Z_GRID:
        b = bundle_grid[(0.25, z)]
        lam = sm.solve_metric(P, z).lambda_base
        scale = math.log(lam) / (4.0 * math.sqrt(1.0 - z * z))
        o_mat = materialize(sm.commuting_observable(z), realization)
        alt = exp_symmetric(o_mat, scale)
        t, rho = b.trusted, metric_block(b, 1)
        num = np.linalg.norm(rho[:t, :t] - alt[:t, :t], 2)
        worst_pow = max(worst_pow, num / np.linalg.norm(rho[:t, :t], 2))
        worst_comm = max(worst_comm, b.residuals["r_commute"])
    ok = worst_h <= 1e-10 and worst_pow <= 1e-9 and worst_comm <= 1e-10
    report(4, "h / power form / commutation consistency", ok,
           f"coeff {worst_h:.2e}, power {worst_pow:.2e}, commute {worst_comm:.2e}")


def test_criterion_5_matrix_bundle(bundle_grid):
    worst_res = 0.0
    worst_spec = 0.0
    min_posdef = float("inf")
    spreads = []
    for k in (0.25, 0.75):
        pred = sm.spectrum_prediction(P, k, 5)
        specs = []
        for z in Z_GRID:
            b = bundle_grid[(k, z)]
            for name in ("r_herm", "r_eq10", "r_quasi", "r_intertwine"):
                worst_res = max(worst_res, b.residuals[name])
            # the trusted rows of rho with every column they reach
            rows = sm.materialize_metric_root(b.solution, b.realization,
                                              rows=b.trusted,
                                              cols=b.realization.dim)
            min_posdef = min(min_posdef, metric_block_definite(rows))
            worst_spec = max(worst_spec,
                             (np.abs(b.spectrum_h - pred) / pred).max())
            specs.append(b.spectrum_h)
        specs = np.array(specs)
        spreads.append(((specs.max(0) - specs.min(0)) / specs.min(0)).max())
    spread = max(spreads)
    ok = (worst_res <= 1e-6 and min_posdef > 0.0
          and worst_spec <= 1e-6 and spread <= 1e-6)
    report(5, "matrix bundle at N=200, T=50", ok,
           f"residuals {worst_res:.2e}, spectra {worst_spec:.2e}, "
           f"z-spread {spread:.2e}, posdef {min_posdef:.1e}")


def test_criterion_6_realization_equivalences():
    mb = sm.from_descriptor("multiboson:l=2,residues=0.25,0.75", 60)[0]
    osc = sm.from_descriptor("oscillator", 60)[0]
    basis = [sm.AlgebraElement(*c) for c in np.eye(3)]
    worst = max(np.abs(materialize(x, mb) - materialize(x, osc)).max()
                for x in basis)
    worst_r = 0.0
    for l in (2, 3, 4, 5):
        vals = residue_root_of_unity(l, 50)
        direct = np.arange(50) % l
        worst_r = max(worst_r, np.abs(vals - direct).max())
    ok = worst <= 1e-12 and worst_r <= 1e-12
    report(6, "realization equivalences", ok,
           f"two-boson vs oscillator {worst:.2e}, residue formula {worst_r:.2e}")


def test_criterion_7_radial_and_conformal():
    worst = 0.0
    for L in (0.0, 1.0, 2.0):
        val = radial_k0_lowest(L, 1.0, 14.0, 4000, 1)[0]
        worst = max(worst, abs(val - (2.0 * L + 3.0) / 4.0))
    _, cp = sm.from_descriptor("conformal:k=0.75,c=1", 10, omega=1.0)
    freq_sq = cp.omega ** 2 - 4.0 * cp.alpha * cp.beta
    exact = freq_sq == 1.0 ** 2 + 1.0 ** 2 / 4.0
    cut = 1.0 / (2.0 * math.sqrt(1.25))
    ivs = sm.z_domain(cp)
    band_ok = (abs(ivs[0][1] + cut) < 1e-12 and abs(ivs[1][0] - cut) < 1e-12
               and not any(sm.is_admissible(cp, float(z))
                           for z in np.linspace(-cut + 1e-9, cut - 1e-9, 101)))
    ok = worst <= 1e-3 and exact and band_ok
    report(7, "radial / conformal mapping", ok,
           f"grid-oracle error {worst:.2e}, effective frequency exact: {exact}")


def test_criterion_8_pdm_spectral_check():
    cfg = PdmConfig(params=P)
    rep = run_pdm_check(cfg)
    if rep.status == "INCONCLUSIVE":
        report(8, "PDM spectral check", False,
               f"INCONCLUSIVE: boundary decay {rep.boundary_decay:.2e}")
    ok = rep.status == "PASS" and rep.rel_errors.max() <= 0.01
    report(8, "PDM spectral check", ok,
           f"rel errors {rep.rel_errors.max():.2e}, "
           f"decay {rep.boundary_decay:.1e}, points {rep.points_used}")


def test_criterion_9_cli(capsys):
    # metric example
    code = cli_main(["metric", "--omega", "1", "--alpha", "0.2",
                     "--beta", "0.1", "--z", "0"])
    out = capsys.readouterr().out
    values = {}
    for line in out.strip().splitlines():
        name, _, value = line.partition("  ")
        values[name.strip()] = float(value)
    metric_ok = (code == 0
                 and abs(values["epsilon"] - 0.1732868) < 1e-6
                 and abs(values["mu"] - 0.7171573) < 1e-6
                 and abs(values["nu"] - 1.2828427) < 1e-6)

    # validate example: exit 2 and the violated constraint named
    code = cli_main(["validate", "--omega", "1", "--alpha", "0.3",
                     "--beta", "0.3"])
    err = capsys.readouterr().err
    validate_ok = code == 2 and "alpha" in err and "beta" in err

    # sweep example: nine rows, constant product, byte-reproducible
    args = ["sweep", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
            "--z-from", "-0.8", "--z-to", "0.8", "--steps", "9"]
    cli_main(args)
    first = capsys.readouterr().out
    cli_main(args)
    second = capsys.readouterr().out
    lines = first.strip().split("\n")
    products = [float(line.split(",")[4]) for line in lines[1:]]
    sweep_ok = (lines[0] == ",".join(SWEEP_COLUMNS)
                and len(lines) == 10
                and max(abs(v - 0.92) for v in products) <= 1e-10
                and first == second)

    ok = metric_ok and validate_ok and sweep_ok
    report(9, "CLI examples and reproducibility", ok,
           f"metric {metric_ok}, validate {validate_ok}, sweep {sweep_ok}")
