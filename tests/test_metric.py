import math

import mpmath as mp
import numpy as np
import pytest

from su11metric import (AlgebraElement, InvalidParams, SwansonParams,
                        ZOutOfDomain, commuting_observable, conjugate,
                        conjugated_coeffs, hermitian_equivalent, is_admissible,
                        metric_exponent, mu_nu, power_base, solve_epsilon,
                        solve_metric, swanson_element, validate_params,
                        z_domain)

P = SwansonParams(1.0, 0.2, 0.1)

PARAM_SETS = [SwansonParams(om, al, be)
              for om in (0.8, 1.0, 1.3, 1.7)
              for (al, be) in ((0.2, 0.1), (0.3, -0.15), (-0.25, 0.4),
                               (0.05, 0.35), (0.6, -0.3))]


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


class TestValidateParams:
    def test_valid(self):
        assert validate_params(P) is P

    def test_equal_couplings(self):
        with pytest.raises(InvalidParams, match="alpha and beta"):
            validate_params(SwansonParams(1.0, 0.3, 0.3))

    def test_gap_violation(self):
        with pytest.raises(InvalidParams, match="4\\*alpha\\*beta"):
            validate_params(SwansonParams(1.0, 2.0, 2.5))

    def test_nonpositive_omega(self):
        with pytest.raises(InvalidParams, match="omega"):
            validate_params(SwansonParams(-1.0, 0.2, 0.1))


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

    def test_endpoints(self):
        # z = 1 admissible iff omega != alpha + beta
        assert is_admissible(P, 1.0) and is_admissible(P, -1.0)
        border = SwansonParams(0.3, 0.2, 0.1)
        assert not is_admissible(border, 1.0)
        assert is_admissible(border, -1.0)


class TestSolveEpsilon:
    def test_z_zero_value(self):
        # (1/2) arctanh(1/3) = ln(2)/4
        assert abs(solve_epsilon(P, 0.0) - math.log(2.0) / 4.0) < 1e-15

    def test_endpoint_limit(self):
        val = solve_epsilon(P, 1.0)
        assert abs(val - 0.1 / (2.0 * (0.3 - 1.0))) < 1e-15
        # agrees with the interior formula approached from below
        assert abs(val - solve_epsilon(P, 1.0 - 1e-8)) < 1e-7

    def test_singular_z(self):
        with pytest.raises(ZOutOfDomain):
            solve_epsilon(P, 0.3)
        with pytest.raises(ZOutOfDomain):
            solve_epsilon(P, 1.5)

    def test_argument_rounding_to_one_against_mpmath(self):
        # (alpha - beta) / (alpha + beta) rounds to 1; the stability
        # polynomial 4 alpha beta = 4e-18 does not
        p = SwansonParams(1.0, 1.0, 1e-18)
        with mp.workdps(60):
            a, b = mp.mpf(p.alpha), mp.mpf(p.beta)
            eps = mp.atanh((a - b) / (a + b)) / 2
            lam = (a + b + (a - b)) / (a + b - (a - b))
            assert abs((solve_epsilon(p, 0.0) - eps) / eps) <= 1e-15
            assert abs((power_base(p, 0.0) - lam) / lam) <= 1e-15
            # the mirrored couplings give -eps and 1 / Lambda
            q = SwansonParams(1.0, 1e-18, 1.0)
            assert abs((solve_epsilon(q, 0.0) + eps) / eps) <= 1e-15
            assert abs((power_base(q, 0.0) * lam - 1)) <= 1e-15

    def test_hermiticity_residual(self):
        # tanh(2 theta)/theta == (alpha-beta) / ((alpha+beta) eps - 2 omega eta)
        for p in PARAM_SETS:
            for z in admissible_samples(p, count=8):
                eps = solve_epsilon(p, z)
                eta = z * eps / 2.0
                theta = abs(eps) * math.sqrt(1.0 - z * z)
                lhs = math.tanh(2.0 * theta) / theta if theta else 2.0
                rhs = (p.alpha - p.beta) / ((p.alpha + p.beta) * eps
                                            - 2.0 * p.omega * eta)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestConjugatedCoeffs:
    def test_z_zero_values(self):
        eps = solve_epsilon(P, 0.0)
        u, v, w = conjugated_coeffs(P, eps, 0.0)
        assert abs(u - 1.0) < 1e-14
        assert abs(v - 0.2 * math.exp(-2.0 * eps)) < 1e-14
        assert abs(w - 0.1 * math.exp(2.0 * eps)) < 1e-14
        assert abs(v - math.sqrt(2.0) / 10.0) < 1e-14

    def test_identity_transform(self):
        u, v, w = conjugated_coeffs(P, 0.0, 0.0)
        assert (u.real, v.real, w.real) == (P.omega, P.alpha, P.beta)

    def test_casimir_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            eps = rng.uniform(-1.5, 1.5)
            eta = rng.uniform(-0.49, 0.49) * abs(eps)
            u, v, w = conjugated_coeffs(P, eps, eta)
            target = P.omega ** 2 - 4.0 * P.alpha * P.beta
            assert abs((u * u - 4.0 * v * w) - target) < 1e-10 * target

    def test_matches_conjugate(self):
        for z in (-0.7, -0.2, 0.0, 0.5, 0.9):
            eps = solve_epsilon(P, z)
            eta = z * eps / 2.0
            u, v, w = conjugated_coeffs(P, eps, eta)
            y = conjugate(metric_exponent(P, z), swanson_element(P))
            assert abs(y.c0 - 2.0 * u) < 1e-12 * max(1.0, abs(u))
            assert abs(y.cm - 2.0 * v) < 1e-12 * max(1.0, abs(v))
            assert abs(y.cp - 2.0 * w) < 1e-12 * max(1.0, abs(w))


class TestMuNu:
    def test_z_zero_values(self):
        mu, nu = mu_nu(P, 0.0)
        assert abs(mu - (1.0 - math.sqrt(0.08))) < 1e-15
        assert abs(nu - (1.0 + math.sqrt(0.08))) < 1e-15

    def test_product_law_grid(self):
        for p in PARAM_SETS:
            target = p.omega ** 2 - 4.0 * p.alpha * p.beta
            for z in admissible_samples(p, count=50):
                mu, nu = mu_nu(p, z)
                assert abs(mu * nu - target) < 1e-10 * target

    def test_consistency_with_uvw(self):
        mu, nu = mu_nu(P, 0.0)
        eps = solve_epsilon(P, 0.0)
        u, v, _ = conjugated_coeffs(P, eps, 0.0)
        assert abs((nu + mu * P.omega ** 2) / P.omega - 2.0 * u) < 1e-12
        assert abs((nu - mu * P.omega ** 2) / (2.0 * P.omega) - 2.0 * v) < 1e-12

    def test_positive_on_grid(self):
        for p in PARAM_SETS:
            for z in admissible_samples(p, count=20):
                mu, nu = mu_nu(p, z)
                assert mu > 0.0 and nu > 0.0

    def test_near_endpoints_against_mpmath(self):
        # the textbook forms are 0/0 at z = -1 (mu) and z = +1 (nu); a
        # 50-digit evaluation of them at the same float z is the oracle
        for p in (P, SwansonParams(2.76, 0.977, -4.66),
                  SwansonParams(1.0, 0.45, 0.05), SwansonParams(0.7, -0.2, 0.3)):
            for z in (s * (1.0 - d) for s in (-1.0, 1.0) for d in (1e-4, 1e-7, 2e-9)):
                with mp.workdps(50):
                    w, a, b, zz = (mp.mpf(v) for v in (p.omega, p.alpha, p.beta, z))
                    den = a + b - zz * w
                    term = den * mp.sqrt(1 - (a - b) ** 2 * (1 - zz * zz) / den ** 2)
                    g = w - (a + b) * zz
                    want = ((g - term) / ((1 + zz) * w), w * (g + term) / (1 - zz))
                    errs = [abs((got - ref) / ref) for got, ref in zip(mu_nu(p, z), want)]
                assert max(errs) <= 1e-11, (p, z)

    def test_endpoint_refused(self):
        with pytest.raises(ZOutOfDomain):
            mu_nu(P, 1.0)
        with pytest.raises(ZOutOfDomain):
            mu_nu(P, -1.0 + 1e-12)


class TestHermitianEquivalent:
    def test_z_zero_coefficients(self):
        h = hermitian_equivalent(P, 0.0)
        assert abs(h.c0 - 2.0) < 1e-14
        assert abs(h.cm - math.sqrt(0.08)) < 1e-14
        assert h.cm == h.cp

    def test_casimir_value(self):
        h = hermitian_equivalent(P, 0.0)
        assert abs(h.casimir() - 4.0 * 0.92) < 1e-13

    def test_matches_conjugation_everywhere(self):
        for p in PARAM_SETS[:8]:
            for z in admissible_samples(p, count=10):
                h = hermitian_equivalent(p, z)
                y = conjugate(metric_exponent(p, z), swanson_element(p))
                for a, b in ((h.c0, y.c0), (h.cm, y.cm), (h.cp, y.cp)):
                    assert abs(a - b) < 1e-10

    def test_endpoint_falls_back_to_conjugation(self):
        h = hermitian_equivalent(P, 1.0)
        y = conjugate(metric_exponent(P, 1.0), swanson_element(P))
        assert abs(h.c0 - y.c0.real) < 1e-13
        assert h.cm == h.cp


class TestMetricExponent:
    def test_z_zero(self):
        a = metric_exponent(P, 0.0)
        assert abs(a.c0 - math.log(2.0) / 2.0) < 1e-15
        assert a.cm == 0.0 and a.cp == 0.0

    def test_proportional_to_observable(self):
        for z in (-0.9, -0.5, 0.0, 0.45, 0.99):
            a = metric_exponent(P, z)
            eps = solve_epsilon(P, z)
            o = commuting_observable(z)
            assert a.c0 == eps * o.c0
            assert a.cm == eps * o.cm and a.cp == eps * o.cp

    def test_power_base_consistency(self):
        for z in (-0.9, -0.5, 0.0, 0.45, 0.99):
            lam = power_base(P, z)
            assert lam > 0.0
            eps = solve_epsilon(P, z)
            assert abs(eps - math.log(lam) / (4.0 * math.sqrt(1 - z * z))) \
                < 1e-12 * max(1.0, abs(eps))

    def test_power_base_value_at_zero(self):
        assert abs(power_base(P, 0.0) - 2.0) < 1e-14

    def test_power_base_endpoint_refused(self):
        with pytest.raises(ZOutOfDomain):
            power_base(P, 1.0)

    def test_endpoint_exponent_reported(self):
        a = metric_exponent(P, 1.0)
        eps = solve_epsilon(P, 1.0)
        assert (a.c0, a.cm, a.cp) == (2.0 * eps, eps, eps)


class TestCommutingObservable:
    def test_z_zero(self):
        o = commuting_observable(0.0)
        assert (o.c0, o.cm, o.cp) == (2.0, 0.0, 0.0)

    def test_z_one(self):
        o = commuting_observable(1.0)
        assert (o.c0, o.cm, o.cp) == (2.0, 1.0, 1.0)

    def test_casimir_form(self):
        for z in np.linspace(-1.0, 1.0, 21):
            q = commuting_observable(float(z)).casimir()
            assert abs(q - 4.0 * (1.0 - z * z)) < 1e-14
            assert q >= 0.0

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

    def test_hermiticity_across_grid(self):
        for p in PARAM_SETS:
            for z in admissible_samples(p, count=20):
                sol = solve_metric(p, z)
                assert abs(sol.w - sol.v) <= 1e-10 * max(1.0, abs(sol.v) + abs(sol.w))
