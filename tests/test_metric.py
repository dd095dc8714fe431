import contextlib
import math
import re

import mpmath as mp
import numpy as np
import pytest

from su11metric import (AlgebraElement, InvalidParams, MetricSolution,
                        SwansonParams, ZOutOfDomain, adjoint_matrix, build_bundle,
                        commuting_observable, conjugate, is_admissible, metric, solve_metric, spectrum_prediction,
                        swanson_element, z_domain)

from su11metric import cli, core, pdm, verification

from conftest import admissible_samples, halved_conjugate, realize
from oracles import casimir_defining, metric_family_mp, orbit_mp, stability_roots_mp
from test_census import KINDS, draws
from test_golden import RECORDS, run

P = SwansonParams(1.0, 0.2, 0.1)

# the single-field wrappers that solve_metric's record replaced, by name,
# each with the reading of the record that its callers take in its place
RECORD_READINGS = {
    "solve_epsilon": lambda sol: sol.epsilon,
    "power_base": lambda sol: sol.lambda_base,
    "mu_nu": lambda sol: (sol.mu, sol.nu),
    "hermitian_equivalent": lambda sol: AlgebraElement(sol.c0, sol.c, sol.c),
    "metric_exponent": lambda sol: AlgebraElement(2.0 * sol.epsilon, 2.0 * sol.eta,
                                                  2.0 * sol.eta),
    "conjugated_coeffs": lambda sol: (sol.u, sol.v, sol.w),
}


def _reading(name):
    """pytest.param of the reading that replaced `name`, from a fresh solve."""
    return pytest.param(lambda p, z: RECORD_READINGS[name](solve_metric(p, z)), id=name)


# parameters with both stability roots inside (-1, 1): weak and strong
# coupling, the two near-root points reported for eps(z) (alpha = 0 at
# |beta|/omega = 158, with its root at z = 0, and a root 1.8e-9 inside z = 1)
# and a third (a root 3.8e-8 inside z = -1)
NEAR_ROOT_PARAMS = [SwansonParams(*t) for t in (
    (1.0, 0.2, 0.1), (1.0, 0.45, 0.05), (1.0, 0.5, 0.001), (1.0, 0.001, 0.5),
    (0.03162277660168379, 0.0, 5.0), (1.0, 0.25, -0.25), (2.76, 0.977, -4.66),
    (1.0, -2.003654464483188, 3.003956316645997),
    (1.0, 0.8215410721214909, -1.822265625))]

# near-parabolic: omega^2 - 4 alpha beta = 2e-11, where mu, nu and c0 of
# the form picked by the sign of z cancelled (5.1e-6 off at z = 0.3), and
# 4e-11, where the float expansion of the gap cancels (1.9e-7 off)
NEAR_PARABOLIC = SwansonParams(1.0, 0.5, 0.49999999999)
FLOAT_GAP_OFF = SwansonParams(1.0, 0.3, 0.8333333333)

PARAM_SETS = [SwansonParams(om, al, be)
              for om in (0.8, 1.0, 1.3, 1.7)
              for (al, be) in ((0.2, 0.1), (0.3, -0.15), (-0.25, 0.4),
                               (0.05, 0.35), (0.6, -0.3))]


class TestRecords:
    def test_fields_in_order(self):
        assert SwansonParams._fields == ("omega", "alpha", "beta")
        assert MetricSolution._fields == ("params", "z", "epsilon", "eta", "theta",
                                          "mu", "nu", "lambda_base", "u", "v", "w",
                                          "c0", "c", "gap")

    def test_repr(self):
        assert repr(SwansonParams(1.0, 0.2, 0.1)) == \
            "SwansonParams(omega=1.0, alpha=0.2, beta=0.1)"
        sol = solve_metric(P, 0.0)
        assert repr(sol).startswith(
            "MetricSolution(params=SwansonParams(omega=1.0, alpha=0.2, beta=0.1), z=0.0, ")
        assert repr(sol).endswith(f", c0={sol.c0!r}, c={sol.c!r}, gap={sol.gap!r})")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            P.alpha = 0.3
        with pytest.raises(AttributeError):
            solve_metric(P, 0.4).epsilon = 0.0


# the public entry points that take p, each at a z and k that it accepts
# for P; each checks p first and refuses a bad p with the same error
CHECKS_P = (lambda p: solve_metric(p, 0.0), lambda p: is_admissible(p, 0.0), z_domain,
            lambda p: spectrum_prediction(p, 0.25, 1))


class TestValidateParams:
    """The checks of p, which open every public entry point that takes it."""

    def test_valid(self):
        assert solve_metric(P, 0.0).params is P
        assert is_admissible(P, 0.0)
        for check in CHECKS_P:
            check(P)

    def test_equal_couplings(self):
        for check in CHECKS_P:
            with pytest.raises(InvalidParams, match="alpha and beta"):
                check(SwansonParams(1.0, 0.3, 0.3))

    def test_gap_violation(self):
        for check in CHECKS_P:
            with pytest.raises(InvalidParams, match="4\\*alpha\\*beta"):
                check(SwansonParams(1.0, 2.0, 2.5))

    def test_nonpositive_omega(self):
        for check in CHECKS_P:
            with pytest.raises(InvalidParams, match="omega"):
                check(SwansonParams(-1.0, 0.2, 0.1))


class TestZDomain:
    def test_reference_intervals(self):
        ivs = z_domain(P)
        assert len(ivs) == 2
        assert ivs[0][0] == -1.0 and ivs[1][1] == 1.0
        assert abs(ivs[0][1] - 0.20206274211261938) < 1e-14
        assert abs(ivs[1][0] - 0.39199666382797477) < 1e-14
        # the singular point alpha + beta = omega*z sits inside the gap
        assert ivs[0][1] < 0.3 < ivs[1][0]
        assert not is_admissible(P, 0.3)

    def test_dense_scan_oracle(self):
        # admissibility must agree with |arctanh argument| < 1 pointwise
        for p in (P, SwansonParams(1.0, 0.25, -0.25), SwansonParams(1.3, 0.6, -0.3)):
            ivs = z_domain(p)
            for z in np.linspace(-1.0, 1.0, 2001):
                z = float(z)
                den = p.alpha + p.beta - z * p.omega
                if den == 0.0:
                    direct = False
                else:
                    arg = (p.alpha - p.beta) * math.sqrt(max(0.0, 1 - z * z)) / den
                    direct = abs(arg) < 1.0
                inside = any(lo <= z <= hi for lo, hi in ivs)
                if direct != is_admissible(p, z):
                    pytest.fail(f"scan mismatch at z={z} for {p}")
                # interval representation may disagree only on the boundary
                if direct != inside:
                    assert min(abs(z - b) for lo, hi in ivs for b in (lo, hi)) < 2e-3

    def test_conformal_threshold(self):
        p = SwansonParams(1.0, 0.25, -0.25)  # coupling c = 1
        ivs = z_domain(p)
        cut = 1.0 / (2.0 * math.sqrt(1.25))
        assert len(ivs) == 2
        assert abs(ivs[0][1] + cut) < 1e-12
        assert abs(ivs[1][0] - cut) < 1e-12

    @pytest.mark.parametrize("p", [SwansonParams(1.0, 1e-9, 0.5),
                                   SwansonParams(2.0, -1e-8, 0.7), *NEAR_ROOT_PARAMS],
                             ids=str)
    def test_roots_against_mpmath(self, p):
        # (-b -+ sqrt(disc)) / (2a) cancelled in the smaller root: 1.999999989e-9
        # for 2.000000001e-9 at (1, 1e-9, 0.5), 2.7e-9 relative at (2, -1e-8,
        # 0.7); each endpoint is the 50-digit root to an ulp or so, and
        # admissibility changes sign within four ulps of it
        (lo, z1), (z2, hi) = z_domain(p)
        assert (lo, hi) == (-1.0, 1.0)
        for end, root in zip((z1, z2), stability_roots_mp(p)):
            assert abs(end - root) <= 2.0 * math.ulp(float(root)), (end, root)
        for end, inside in ((z1, 1.0), (z2, -1.0)):
            step = 4.0 * math.ulp(end)
            assert is_admissible(p, end - inside * step), end
            assert not is_admissible(p, end + inside * step), end

    def test_endpoints(self):
        # z = 1 admissible iff omega != alpha + beta, which the exact P
        # reads on the doubles: 0.2 + 0.1 is not the double 0.3, so the
        # border takes couplings whose sum is exact
        assert is_admissible(P, 1.0) and is_admissible(P, -1.0)
        assert is_admissible(SwansonParams(0.3, 0.2, 0.1), 1.0)
        border = SwansonParams(0.75, 0.5, 0.25)
        assert not is_admissible(border, 1.0)
        assert is_admissible(border, -1.0)


class TestOneGate:
    """metric._exact checks p and then z's range; metric._admissible is the
    one refusal of a z where the stability polynomial P is not positive."""

    # den = alpha + beta - omega z = 0 exactly at z = 1, where P = den^2
    DEN_ZERO = SwansonParams(1.0, 0.75, 0.25)

    @pytest.mark.parametrize("f", [_reading(name) for name in (
        "solve_epsilon", "mu_nu", "power_base", "hermitian_equivalent")])
    def test_den_zero_at_endpoint(self, f):
        with pytest.raises(ZOutOfDomain) as exc:
            f(self.DEN_ZERO, 1.0)
        assert str(exc.value) == ("z = 1 is inadmissible: |arctanh argument| >= 1 "
                                  "(alpha + beta - omega*z = 0)")
        assert not is_admissible(self.DEN_ZERO, 1.0)

    @pytest.mark.parametrize("p, z, message", [
        (SwansonParams(float("nan"), 0.2, 0.1), 2.0, "omega must be positive"),
        (SwansonParams(-1.0, 0.2, 0.1), float("nan"), "omega must be positive"),
        (SwansonParams(1.0, 0.3, 0.3), 2.0, "alpha and beta must differ"),
        (SwansonParams(float("inf"), 0.2, 0.1), -3.0, "omega, alpha and beta must be finite"),
        (SwansonParams(1.0, 2.0, 2.5), float("inf"), "omega^2 - 4*alpha*beta must be positive"),
        (SwansonParams(1.0, 1e300, -1e300), 2.0, "omega^2 - 4*alpha*beta is not a finite"),
    ])
    @pytest.mark.parametrize("f", [pytest.param(is_admissible, id="is_admissible")] + [
        _reading(name) for name in ("solve_epsilon", "mu_nu", "power_base")])
    def test_bad_p_before_bad_z(self, f, p, z, message):
        with pytest.raises(InvalidParams, match=f"^{re.escape(message)}"):
            f(p, z)

    def test_nonzero_rounded_to_zero_is_refused(self):
        # P = den^2 = 7.4e-332 > 0 exactly at z = 1, and a gap of 2^-1080,
        # round to 0: z = 1 read as inadmissible, the gap as not positive
        w = 2.0 ** -500
        tiny_p = SwansonParams(w, 0.75 * w, 0.25 * w + 2.0 ** -550)
        message = "the stability polynomial at z = 1 is nonzero but rounds to 0 as a double"
        for f in (is_admissible, solve_metric):
            with pytest.raises(InvalidParams, match=f"^{re.escape(message)}$"):
                f(tiny_p, 1.0)
        assert is_admissible(tiny_p, 0.5)
        for check in CHECKS_P:
            with pytest.raises(InvalidParams, match=r"^omega\^2 - 4\*alpha\*beta is nonzero"):
                check(SwansonParams(2.0 ** -540, 2.0 ** -600, 2.0 ** -601))

    @pytest.mark.parametrize("z", [2.0, -1.5, float("nan"), float("inf")])
    def test_z_off_the_range(self, z):
        assert not is_admissible(P, z)
        with pytest.raises(ZOutOfDomain, match="z must lie in"):
            solve_metric(P, z)

    @staticmethod
    def counter(monkeypatch, home, name):
        """Calls of home's private function `name`, under every su11metric
        module name bound to it."""
        calls, original = [], getattr(home, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (core, metric, verification, cli, pdm):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("z", [0.0, 0.4])
    def test_exact_at_most_five_times(self, monkeypatch, z):
        # each step checked p and z again: 5 _exact evaluations per
        # solve_metric and 5 per build_bundle; the record is solved once,
        # and build_bundle reads it
        calls = self.counter(monkeypatch, metric, "_exact")
        sol = solve_metric(P, z)
        assert len(calls) == 1, calls
        build_bundle(sol, realize("discrete:k=0.25", 200), trusted=50)
        assert len(calls) == 1, calls

    @pytest.mark.parametrize("argv, exact, pivots", [
        # verify at z = 0.4: one solve, and the pivots of the adjoint form,
        # rho and zeta_+ (5 _exact when build_bundle solved again)
        (["verify", "--z", "0.4"], 1, 3),
        # the 9-row sweep at N = 400: two range checks of its ends and one
        # solve per row (101 _exact and 36 _pivots when each row was solved
        # twice and the adjoint form formed twice)
        (["sweep", "--z-from", "-0.8", "--z-to", "0.8", "--steps", "9",
          "--size", "400"], 11, 27),
        # pdm at z = 0.4: validate_config's check and one solve, whose
        # adjoint form pdm does not read (4 _exact when mu, nu and the law
        # were each taken apart)
        (["pdm", "--z", "0.4"], 2, 1),
    ])
    def test_cli_solves_each_z_once(self, monkeypatch, capsys, argv, exact, pivots):
        exact_calls = self.counter(monkeypatch, metric, "_exact")
        pivot_calls = self.counter(monkeypatch, core, "_pivots")
        cli.main(argv[:1] + ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"] + argv[1:])
        assert capsys.readouterr().out.count("\n") > 5
        assert (len(exact_calls), len(pivot_calls)) == (exact, pivots)


class TestSolveEpsilon:
    def test_z_zero_value(self):
        # (1/2) arctanh(1/3) = ln(2)/4
        assert abs(solve_metric(P, 0.0).epsilon - math.log(2.0) / 4.0) < 1e-15

    def test_endpoint_limit(self):
        val = solve_metric(P, 1.0).epsilon
        assert abs(val - 0.1 / (2.0 * (0.3 - 1.0))) < 1e-15
        # agrees with the interior formula approached from below
        assert abs(val - solve_metric(P, 1.0 - 1e-8).epsilon) < 1e-7

    def test_singular_z(self):
        with pytest.raises(ZOutOfDomain):
            solve_metric(P, 0.3)
        with pytest.raises(ZOutOfDomain):
            solve_metric(P, 1.5)

    def test_argument_rounding_to_one_against_mpmath(self):
        # (alpha - beta) / (alpha + beta) rounds to 1; the stability
        # polynomial 4 alpha beta = 4e-18 does not
        p = SwansonParams(1.0, 1.0, 1e-18)
        with mp.workdps(60):
            a, b = mp.mpf(p.alpha), mp.mpf(p.beta)
            eps = mp.atanh((a - b) / (a + b)) / 2
            lam = (a + b + (a - b)) / (a + b - (a - b))
            sol = solve_metric(p, 0.0)
            assert abs((sol.epsilon - eps) / eps) <= 1e-15
            assert abs((sol.lambda_base - lam) / lam) <= 1e-15
            # the mirrored couplings give -eps and 1 / Lambda
            sol = solve_metric(SwansonParams(1.0, 1e-18, 1.0), 0.0)
            assert abs((sol.epsilon + eps) / eps) <= 1e-15
            assert abs((sol.lambda_base * lam - 1)) <= 1e-15

    def test_hermiticity_residual(self):
        # tanh(2 theta)/theta == (alpha-beta) / ((alpha+beta) eps - 2 omega eta)
        for p in PARAM_SETS:
            for z in admissible_samples(p, count=8):
                eps = solve_metric(p, z).epsilon
                eta = z * eps / 2.0
                theta = abs(eps) * math.sqrt(1.0 - z * z)
                lhs = math.tanh(2.0 * theta) / theta if theta else 2.0
                rhs = (p.alpha - p.beta) / ((p.alpha + p.beta) * eps
                                            - 2.0 * p.omega * eta)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestConjugatedCoeffs:
    """rho's adjoint action on H: the record's (u, v, w) at its solved
    (eps, eta), core.conjugate at any other."""

    def test_z_zero_values(self):
        eps = solve_metric(P, 0.0).epsilon
        u, v, w = halved_conjugate(P, eps, 0.0)
        assert abs(u - 1.0) < 1e-14
        assert abs(v - 0.2 * math.exp(-2.0 * eps)) < 1e-14
        assert abs(w - 0.1 * math.exp(2.0 * eps)) < 1e-14
        assert abs(v - math.sqrt(2.0) / 10.0) < 1e-14

    def test_identity_transform(self):
        u, v, w = halved_conjugate(P, 0.0, 0.0)
        assert (u, v, w) == (P.omega, P.alpha, P.beta)

    def test_casimir_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            eps = rng.uniform(-1.5, 1.5)
            eta = rng.uniform(-0.49, 0.49) * abs(eps)
            u, v, w = halved_conjugate(P, eps, eta)
            target = P.omega ** 2 - 4.0 * P.alpha * P.beta
            assert abs((u * u - 4.0 * v * w) - target) < 1e-10 * target

    def test_matches_conjugate(self):
        for z in (-0.7, -0.2, 0.0, 0.5, 0.9):
            sol = solve_metric(P, z)
            u, v, w = sol.u, sol.v, sol.w
            y = conjugate(sol.epsilon, sol.eta, swanson_element(P))
            assert abs(y.c0 - 2.0 * u) < 1e-12 * max(1.0, abs(u))
            assert abs(y.cm - 2.0 * v) < 1e-12 * max(1.0, abs(v))
            assert abs(y.cp - 2.0 * w) < 1e-12 * max(1.0, abs(w))


def _bits(values):
    """The IEEE bits of complex values, signed zeros included."""
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


class TestNumpyOracle:
    """The pure-Python algebra layer equals numpy's arithmetic bit for bit."""

    def test_adjoint_action_matches_numpy_matvec(self):
        rng = np.random.default_rng(2918)
        draws = 0
        while draws < 2000:
            omega = float(rng.uniform(0.05, 3.0))
            alpha, beta = (float(c) for c in rng.uniform(-2.0, 2.0, size=2))
            z = float(rng.uniform(-1.0, 1.0))
            p = SwansonParams(omega, alpha, beta)
            if omega * omega - 4.0 * alpha * beta <= 0.0 or not is_admissible(p, z):
                continue
            draws += 1
            sol = solve_metric(p, z)
            m = np.array(adjoint_matrix(sol.epsilon, sol.eta))
            assert _bits(core._mat_vec(adjoint_matrix(sol.epsilon, sol.eta), p)) \
                == _bits(m @ (omega, alpha, beta)), (p, z)
            assert _bits((sol.u, sol.v, sol.w)) == _bits((m @ (omega, alpha, beta)).real), \
                (p, z)
            y = conjugate(sol.epsilon, sol.eta, swanson_element(p))
            assert _bits((y.c0, y.cm, y.cp)) \
                == _bits(m @ (2.0 * omega, 2.0 * alpha, 2.0 * beta)), (p, z)


class TestGap:
    def test_spectrum_prediction_from_the_rounded_gap(self):
        # the law's frequency is 2 sqrt(gap) of the 60-digit gap rounded
        # once, bit for bit; at FLOAT_GAP_OFF the float expansion of the
        # gap is 1.9e-7 off it
        for p in (*PARAM_SETS, NEAR_PARABOLIC, FLOAT_GAP_OFF):
            with mp.workdps(60):
                gap = float(mp.mpf(p.omega) ** 2 - 4 * mp.mpf(p.alpha) * mp.mpf(p.beta))
            for k in (0.25, 0.5, 0.75, 1.3):
                got = spectrum_prediction(p, k, 9)
                assert got == tuple(2.0 * math.sqrt(gap) * (n + k) for n in range(9)), p
        p = FLOAT_GAP_OFF
        assert abs((p.omega ** 2 - 4.0 * p.alpha * p.beta) / gap - 1) > 1e-7


class TestMuNu:
    def test_z_zero_values(self):
        sol = solve_metric(P, 0.0)
        mu, nu = sol.mu, sol.nu
        assert abs(mu - (1.0 - math.sqrt(0.08))) < 1e-15
        assert abs(nu - (1.0 + math.sqrt(0.08))) < 1e-15

    def test_product_law_grid(self):
        for p in PARAM_SETS:
            target = p.omega ** 2 - 4.0 * p.alpha * p.beta
            for z in admissible_samples(p, count=50):
                sol = solve_metric(p, z)
                assert abs(sol.mu * sol.nu - target) < 1e-10 * target

    def test_consistency_with_uvw(self):
        sol = solve_metric(P, 0.0)
        mu, nu = sol.mu, sol.nu
        u, v = sol.u, sol.v
        assert abs((nu + mu * P.omega ** 2) / P.omega - 2.0 * u) < 1e-12
        assert abs((nu - mu * P.omega ** 2) / (2.0 * P.omega) - 2.0 * v) < 1e-12

    def test_positive_on_grid(self):
        for p in PARAM_SETS:
            for z in admissible_samples(p, count=20):
                sol = solve_metric(p, z)
                assert sol.mu > 0.0 and sol.nu > 0.0

    def test_near_endpoints_against_mpmath(self):
        # the textbook forms are 0/0 at z = -1 (mu) and z = +1 (nu); a
        # 50-digit evaluation of them at the same float z is the oracle,
        # down to |z| = 1 itself, where it takes them 1e-40 inside
        for p in (P, SwansonParams(2.76, 0.977, -4.66),
                  SwansonParams(1.0, 0.45, 0.05), SwansonParams(0.7, -0.2, 0.3)):
            for z in (s * (1.0 - d) for s in (-1.0, 1.0)
                      for d in (1e-4, 1e-7, 2e-9, 1e-12, 1e-15, 0.0)):
                want = metric_family_mp(p, z)
                sol = solve_metric(p, z)
                for got, name, tol in ((sol.mu, "mu", 1e-15), (sol.nu, "nu", 1e-15),
                                       (sol.c, "c", 1e-13)):
                    assert abs(got - want[name]) <= tol * abs(want[name]), (p, z, name)

    def test_endpoint_values(self):
        # at |z| = 1 the closed forms hold as elsewhere: mu = g/omega and
        # nu = omega gap/g at z = 1, mu = gap/(omega g) and nu = omega g at
        # z = -1 (g = omega - (alpha+beta) z), within an ulp of their limit
        for p in (P, SwansonParams(2.76, 0.977, -4.66), SwansonParams(0.7, -0.2, 0.3)):
            for z in (-1.0, 1.0):
                want = metric_family_mp(p, z)
                sol = solve_metric(p, z)
                for name in ("mu", "nu", "c0", "c"):
                    value = getattr(sol, name)
                    assert abs(value - want[name]) <= 1e-15 * abs(want[name]), (p, z, name)


def _near_root_points(p):
    """z from 1e-15 to 1e-6 on both sides of each stability root of p, in
    [-1, 1], and the endpoints +-1."""
    with mp.workdps(50):
        zs = [float(root + side * mp.mpf(10) ** k) for root in stability_roots_mp(p)
              for k in range(-15, -5) for side in (-1, 1)]
    return [z for z in zs if abs(z) <= 1.0] + [-1.0, 1.0]


class TestNearRoot:
    # against 50 digits of the textbook forms (oracles.metric_family_mp).
    # The stability polynomial P and alpha + beta - omega z are exact, so
    # nothing cancels: at the alpha = 0 root z = 0 c was 100% off, at the
    # upper root of (1, 0.45, 0.05) eps 3.7e-3 and Lambda 0.13 (P from
    # its float expansion; mu from sqrt(1 - (alpha-beta)^2 (1-z^2)/den^2);
    # c = (nu - mu omega^2) / (2 omega)).  Inside the band z is refused;
    # where mu <= 0 h is unbounded below, and only eps is checked.
    @staticmethod
    def _check(p, z):
        want = metric_family_mp(p, z)
        assert is_admissible(p, z) == (want["P"] > 0), (p, z)
        if want["P"] <= 0:
            with pytest.raises(ZOutOfDomain):
                solve_metric(p, z)
            return
        sol = solve_metric(p, z)
        got = {"epsilon": sol.epsilon}
        if want["mu"] > 0:
            got.update(mu=sol.mu, nu=sol.nu, lam=sol.lambda_base, c0=sol.c0, c=sol.c)
        for name, value in got.items():
            assert abs(value - want[name]) <= 1e-15 * abs(want[name]), (p, z, name)

    @pytest.mark.parametrize("p", NEAR_ROOT_PARAMS, ids=str)
    def test_against_mpmath(self, p):
        for z in _near_root_points(p):
            self._check(p, z)

    @pytest.mark.parametrize("p, z", [(NEAR_ROOT_PARAMS[-2], 0.9999999981864903),
                                      (NEAR_ROOT_PARAMS[4], -1e-12),
                                      (NEAR_ROOT_PARAMS[-1], -0.9999999624443531)])
    def test_reported_points(self, p, z):
        # eps was 7.2e-7 and 1.4e-6 off at the first and third (mu < 0 at
        # both), and at the second c 4.7e-3
        self._check(p, z)


class TestNearParabolic:
    # gap = omega^2 - 4 alpha beta from 1e-12 to 1e-1 at omega = 1, with both
    # signs of z and of den = alpha + beta - omega z: the mu/nu form picked
    # by the sign of z cancelled where g and t share a sign, and mu and c0
    # were up to 1.2e-4 off; the form picked by the sign of g t and the
    # exact gap keep mu, nu, c0 and c within 1e-15 of 60 digits
    def test_against_mpmath(self):
        rng = np.random.default_rng(2007)
        seen, draws = set(), 0
        while draws < 300:
            alpha = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.7))
            beta = (1.0 - 10.0 ** rng.uniform(-12.0, -1.0)) / (4.0 * alpha)
            p, z = SwansonParams(1.0, alpha, beta), float(rng.uniform(-0.9, 0.9))
            if not is_admissible(p, z):
                continue
            draws += 1
            seen.add((z > 0.0, alpha + beta - z > 0.0))
            want = metric_family_mp(p, z, 60)
            sol = solve_metric(p, z)
            for name in ("mu", "nu", "c0", "c"):
                value = getattr(sol, name)
                assert abs(value - want[name]) <= 1e-15 * abs(want[name]), (p, z, name)
        assert len(seen) == 4


class TestHermitianEquivalent:
    @staticmethod
    def h_and_conjugation(p, z):
        """h = c0 K0 + c (Km + Kp) of the record and rho H rho^{-1} by
        core.conjugate with the record's (eps, eta)."""
        sol = solve_metric(p, z)
        return (AlgebraElement(sol.c0, sol.c, sol.c),
                conjugate(sol.epsilon, sol.eta, swanson_element(p)))

    def test_z_zero_coefficients(self):
        sol = solve_metric(P, 0.0)
        assert abs(sol.c0 - 2.0) < 1e-14
        assert abs(sol.c - math.sqrt(0.08)) < 1e-14

    def test_casimir_value(self):
        h, _ = self.h_and_conjugation(P, 0.0)
        assert abs(casimir_defining(h) - 4.0 * 0.92) < 1e-13

    def test_matches_conjugation_everywhere(self):
        for p in PARAM_SETS[:8]:
            for z in admissible_samples(p, count=10):
                h, y = self.h_and_conjugation(p, z)
                for a, b in ((h.c0, y.c0), (h.cm, y.cm), (h.cp, y.cp)):
                    assert abs(a - b) < 1e-10

    def test_endpoint_falls_back_to_conjugation(self):
        # at |z| = 1 the closed form (TestMuNu.test_endpoint_values) and
        # the conjugation agree
        h, y = self.h_and_conjugation(P, 1.0)
        assert abs(h.c0 - y.c0.real) < 1e-13
        assert abs(h.cm - y.cm.real) < 1e-13


class TestMetricExponent:
    def test_z_zero(self):
        sol = solve_metric(P, 0.0)
        assert abs(2.0 * sol.epsilon - math.log(2.0) / 2.0) < 1e-15
        assert sol.eta == 0.0

    def test_proportional_to_observable(self):
        # A = 2 eps K0 + 2 eta (Km + Kp) is eps O bit for bit: 2 eta = z eps
        for z in (-0.9, -0.5, 0.0, 0.45, 0.99):
            sol = solve_metric(P, z)
            o = commuting_observable(z)
            assert 2.0 * sol.epsilon == sol.epsilon * o.c0
            assert 2.0 * sol.eta == sol.epsilon * o.cm == sol.epsilon * o.cp

    def test_power_base_consistency(self):
        for z in (-0.9, -0.5, 0.0, 0.45, 0.99):
            sol = solve_metric(P, z)
            lam, eps = sol.lambda_base, sol.epsilon
            assert lam > 0.0
            assert abs(eps - math.log(lam) / (4.0 * math.sqrt(1 - z * z))) \
                < 1e-12 * max(1.0, abs(eps))

    def test_power_base_value_at_zero(self):
        assert abs(solve_metric(P, 0.0).lambda_base - 2.0) < 1e-14

    def test_power_base_endpoint_limit(self):
        # s = (alpha-beta) sqrt(1-z^2) vanishes at |z| = 1, and Lambda =
        # (den + s)/(den - s) takes its limit 1; eps's form is the 0/0 one
        for p in (P, SwansonParams(2.76, 0.977, -4.66), SwansonParams(0.7, -0.2, 0.3)):
            for z in (-1.0, 1.0):
                assert abs(solve_metric(p, z).lambda_base
                           - metric_family_mp(p, z)["lam"]) <= 2.3e-16, (p, z)

    def test_endpoint_exponent_reported(self):
        # at z = 1, A = eps (2 K0 + Km + Kp) with eps at its 50-digit limit
        sol = solve_metric(P, 1.0)
        eps = metric_family_mp(P, 1.0)["epsilon"]
        assert abs(sol.epsilon - eps) <= 1e-15 * abs(eps)
        assert 2.0 * sol.eta == sol.epsilon


class TestCommutingObservable:
    def test_z_zero(self):
        o = commuting_observable(0.0)
        assert (o.c0, o.cm, o.cp) == (2.0, 0.0, 0.0)

    def test_z_one(self):
        o = commuting_observable(1.0)
        assert (o.c0, o.cm, o.cp) == (2.0, 1.0, 1.0)

    def test_casimir_form(self):
        for z in np.linspace(-1.0, 1.0, 21):
            q = casimir_defining(commuting_observable(float(z)))
            assert abs(q - 4.0 * (1.0 - z * z)) < 1e-14
            assert q.imag == 0.0 and q.real >= 0.0

    def test_out_of_range(self):
        with pytest.raises(InvalidParams):
            commuting_observable(1.2)


class TestSolveMetric:
    def test_full_solution(self):
        sol = solve_metric(P, 0.5)
        assert sol.eta == 0.5 * sol.epsilon / 2.0
        assert abs(sol.theta - abs(sol.epsilon) * math.sqrt(0.75)) < 1e-15
        assert abs(sol.mu * sol.nu - 0.92) < 1e-12
        assert abs(sol.w - sol.v) < 1e-12
        assert abs(sol.epsilon - (-0.2676588313787481)) < 1e-14

    @staticmethod
    def record_points():
        """Seeded admissible (p, z): omega from 1e-2 to 1e2, alpha and beta
        in [-1, 1], z in [-1, 1]; STRONG next to its stability roots; |z|
        at 1 and next to it."""
        rng = np.random.default_rng(2007)
        points = []
        while len(points) < 2000:
            p = SwansonParams(10.0 ** rng.uniform(-2.0, 2.0), *rng.uniform(-1.0, 1.0, 2))
            z = rng.uniform(-1.0, 1.0)
            if p.omega ** 2 > 4.0 * p.alpha * p.beta and is_admissible(p, z):
                points.append((p, z))
        strong = SwansonParams(1.0, 0.45, 0.05)
        for edge in (x for iv in z_domain(strong) for x in iv):
            points += [(strong, z) for z in np.nextafter(edge, 0.0) + 2e-16 * np.arange(-20, 21)
                       if is_admissible(strong, z)]
        for p in NEAR_ROOT_PARAMS:
            points += [(p, s * (1.0 - 2.0 ** -k)) for k in range(1, 54) for s in (-1, 1)
                       if is_admissible(p, s * (1.0 - 2.0 ** -k))]
            points += [(p, z) for z in (-1.0, 1.0) if is_admissible(p, z)]
        return points

    def test_record_matches_the_separate_paths(self):
        # the record is the one solve build_bundle reads: its y = 2 (u, v, w)
        # is core.conjugate's adjoint form bit for bit, with imaginary parts
        # exactly 0, and (mu, nu, c0, c) is _weights' on its own _admissible
        for p, z in self.record_points():
            sol = solve_metric(p, z)
            y = conjugate(sol.epsilon, sol.eta, swanson_element(p))
            assert _bits([2.0 * sol.u, 2.0 * sol.v, 2.0 * sol.w]) == \
                _bits([y.c0.real, y.cm.real, y.cp.real]), (p, z)
            assert [y.c0.imag, y.cm.imag, y.cp.imag] == [0.0] * 3, (p, z)
            # the imaginary parts that the record's u, v and w drop
            coeffs = core._mat_vec(adjoint_matrix(sol.epsilon, sol.eta), p)
            assert [x.imag for x in coeffs] == [0.0] * 3, (p, z)
            assert _bits([sol.mu, sol.nu, sol.c0, sol.c]) == \
                _bits(metric._weights(p, z, metric._admissible(p, z))), (p, z)

    def test_hermiticity_across_grid(self):
        for p in PARAM_SETS:
            for z in admissible_samples(p, count=20):
                sol = solve_metric(p, z)
                assert abs(sol.w - sol.v) <= 1e-10 * max(1.0, abs(sol.v) + abs(sol.w))


class TestOrbit:
    """zeta_+(z) = zeta_+(0) exp(t H) where alpha beta > 0 (ROADMAP item
    25): oracles.orbit_mp, whose tolerance it states, on every record that
    the golden metric, verify and sweep calls solve and on the census draws."""

    @staticmethod
    def _check(sols):
        checked = 0
        for sol in sols:
            p = sol.params
            if p.alpha * p.beta > 0.0:
                eps0 = solve_metric(p, 0.0).epsilon
                assert orbit_mp(p, sol.z, eps0, sol.epsilon) == [], (p, sol.z)
                checked += 1
        return checked

    def test_golden_records(self, monkeypatch):
        sols = []
        monkeypatch.setattr(cli, "solve_metric",
                            lambda p, z: sols.append(solve_metric(p, z)) or sols[-1])
        for record in RECORDS:
            if record["argv"][0] in ("metric", "verify", "sweep"):
                run(record["argv"])
        # 45 of them at z != 0; the two with alpha and beta below 0 are at z = 0
        assert self._check(sols) == 57

    def test_census_draws(self):
        # p and z are the draw's on every kind but conformal, whose own
        # alpha = -beta; 15 of the 23 have alpha and beta below 0, where the
        # closed form needs its sgn(beta)
        sols = []
        for argv, p, desc in draws():
            if desc == KINDS[0]:
                with contextlib.suppress(InvalidParams, ZOutOfDomain):
                    sols.append(solve_metric(p, float(argv[argv.index("--z") + 1])))
        assert self._check(sols) == 23

    def test_a_moved_epsilon_breaks_the_orbit(self):
        # a relative 1e-13 off either epsilon is far beyond the tolerance
        z = 0.4
        eps0, eps = solve_metric(P, 0.0).epsilon, solve_metric(P, z).epsilon
        assert orbit_mp(P, z, eps0, eps) == []
        assert orbit_mp(P, z, eps0 * (1.0 + 1e-13), eps) != []
        assert orbit_mp(P, z, eps0, eps * (1.0 + 1e-13)) != []
