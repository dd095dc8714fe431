import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from su11metric import (AlgebraElement, DecompositionSingular, Factorization,
                        InvalidParams, SwansonParams, TrigRegime, adjoint_matrix,
                        conjugate, disentangle_closed_form, solve_metric)
from su11metric import core, pdm

from oracles import (SIGMA_K0, SIGMA_KM, SIGMA_KP, casimir_defining, defining_rep,
                     exp_defining, gauss_decompose, reconstruct_defining,
                     stability_roots_mp)

# expm-oracle values for eps = 1, eta = 0.25 (theta^2 = 0.75)
EXP_A_ORACLE = np.array([[2.528803433906753, 0.564886041630807],
                         [-0.564886041630807, 0.269259267383527]])
NORMAL_PQR = (2.097926088561312, 2.624161088572488, 2.097926088561312)
ANTI_PQR = (0.2233807634301228, 1.8554924796756358, 0.2233807634301228)


def metric_element(eps, eta):
    return AlgebraElement(2.0 * eps, 2.0 * eta, 2.0 * np.conj(eta))


def random_metric_pair(rng, eps_max=3.0):
    eps = rng.uniform(-eps_max, eps_max)
    amp = 0.5 * abs(eps) * np.sqrt(rng.uniform())
    eta = amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return eps, eta


class TestRecords:
    def test_fields_in_order(self):
        assert AlgebraElement._fields == ("c0", "cm", "cp")
        assert Factorization._fields == ("p", "q", "r", "ordering")
        assert Factorization(1.0, 2.0, 3.0).ordering == "normal"
        assert repr(Factorization(1.0, 2.0, 3.0)) == \
            "Factorization(p=1.0, q=2.0, r=3.0, ordering='normal')"

    def test_frozen(self):
        x = AlgebraElement(1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            x.c0 = 4.0
        with pytest.raises(AttributeError):
            Factorization(1.0, 2.0, 3.0).ordering = "antinormal"

    def test_numpy_scalar_scales_the_element(self):
        # a numpy scalar must defer to the element, not broadcast over it
        x = AlgebraElement(1.0, 2.0 - 1j, 3.0)
        for product in (np.float64(2.0) * x, x * np.float64(2.0)):
            assert type(product) is AlgebraElement
            assert product == 2.0 * x == AlgebraElement(2.0, 4.0 - 2j, 6.0)

    def test_sum_is_the_coefficient_sum(self):
        x, y = AlgebraElement(1.0, 2.0, 3.0), AlgebraElement(0.5j, -1.0, 4.0)
        total = x + y
        assert type(total) is AlgebraElement
        assert total == AlgebraElement(1.0 + 0.5j, 1.0, 7.0)


class TestDefiningRep:
    def test_k0(self):
        m = defining_rep(AlgebraElement(1.0, 0.0, 0.0))
        assert np.array_equal(m, np.diag([0.5, -0.5]))

    def test_zero(self):
        assert np.array_equal(defining_rep(AlgebraElement(0, 0, 0)),
                              np.zeros((2, 2)))

    def test_metric_exponent_matrix(self):
        # eps = 1, eta = 0.25 gives [[1, 0.5], [-0.5, -1]]
        m = defining_rep(metric_element(1.0, 0.25))
        assert np.array_equal(m.real, np.array([[1.0, 0.5], [-0.5, -1.0]]))
        assert not m.imag.any()

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = AlgebraElement(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        y = AlgebraElement(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        assert np.allclose(defining_rep(x + y),
                           defining_rep(x) + defining_rep(y), atol=1e-15)

    def test_commutators_exact(self):
        # the 2x2 matrices satisfy the algebra exactly
        def comm(a, b):
            return a @ b - b @ a

        assert np.array_equal(comm(SIGMA_K0, SIGMA_KP), SIGMA_KP)
        assert np.array_equal(comm(SIGMA_K0, SIGMA_KM), -SIGMA_KM)
        assert np.array_equal(comm(SIGMA_KP, SIGMA_KM), -2.0 * SIGMA_K0)


class TestExpDefining:
    def test_diagonal(self):
        m = exp_defining(metric_element(0.5, 0.0))
        assert np.allclose(m, np.diag([np.exp(0.5), np.exp(-0.5)]), rtol=1e-15)

    def test_identity(self):
        assert np.allclose(exp_defining(AlgebraElement(0, 0, 0)), np.eye(2))

    def test_oracle_value(self):
        m = exp_defining(metric_element(1.0, 0.25))
        assert np.allclose(m, EXP_A_ORACLE, rtol=0, atol=1e-14)

    def test_matches_expm_randomly(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = AlgebraElement(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            direct = expm(defining_rep(x))
            closed = exp_defining(x)
            assert np.allclose(closed, direct, rtol=0,
                               atol=1e-12 * np.linalg.norm(direct, 2))

    def test_oscillatory_regime(self):
        # theta^2 < 0 evaluates through cos / sinc
        x = metric_element(0.0, 0.5)
        assert np.allclose(exp_defining(x), expm(defining_rep(x)), atol=1e-14)

    def test_unit_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = AlgebraElement(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            m = exp_defining(x)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(det - 1.0) < 1e-12 * max(1.0, abs(m).max() ** 2)


class TestGaussDecompose:
    def test_identity(self):
        f = gauss_decompose(np.eye(2), "normal")
        assert (f.p, f.q, f.r) == (0.0, 0.0, 0.0)

    def test_oracle_normal(self):
        f = gauss_decompose(expm(defining_rep(metric_element(1.0, 0.25))))
        assert np.allclose([f.p, f.q, f.r], NORMAL_PQR, rtol=1e-12)

    def test_oracle_antinormal(self):
        f = gauss_decompose(expm(defining_rep(metric_element(1.0, 0.25))),
                            "antinormal")
        assert np.allclose([f.p, f.q, f.r], ANTI_PQR, rtol=1e-12)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = AlgebraElement(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            m = exp_defining(x)
            for ordering in ("normal", "antinormal"):
                pivot = m[1, 1] if ordering == "normal" else m[0, 0]
                if abs(pivot) < 1e-3:
                    continue
                f = gauss_decompose(m, ordering)
                assert np.linalg.norm(reconstruct_defining(f) - m, 2) \
                    <= 1e-12 * np.linalg.norm(m, 2)

    def test_singular_pivot(self):
        m = np.array([[2.0, 1.0], [-1.0, 0.0]])  # unimodular, m22 = 0
        with pytest.raises(DecompositionSingular):
            gauss_decompose(m, "normal")
        with pytest.raises(DecompositionSingular):
            gauss_decompose(m[::-1, ::-1], "antinormal")  # m11 = 0

    def test_bad_ordering(self):
        with pytest.raises(InvalidParams):
            gauss_decompose(np.eye(2), "sideways")


class TestDisentangleClosedForm:
    def test_pure_diagonal(self):
        normal, anti = disentangle_closed_form(0.5, 0.0)
        assert np.allclose([normal.p, normal.q, normal.r], [0.0, 1.0, 0.0],
                           atol=1e-15)
        assert np.allclose([anti.p, anti.q, anti.r], [0.0, 1.0, 0.0],
                           atol=1e-15)

    def test_identity(self):
        normal, anti = disentangle_closed_form(0.0, 0.0)
        assert (normal.p, normal.q, normal.r) == (0.0, 0.0, 0.0)
        assert (anti.p, anti.q, anti.r) == (0.0, 0.0, 0.0)

    def test_oracle_values(self):
        normal, anti = disentangle_closed_form(1.0, 0.25)
        assert np.allclose([normal.p, normal.q, normal.r], NORMAL_PQR,
                           rtol=1e-12)
        assert np.allclose([anti.p, anti.q, anti.r], ANTI_PQR, rtol=1e-12)

    def test_agrees_with_gauss_route(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 300:
            eps, eta = random_metric_pair(rng)
            try:
                normal, anti = disentangle_closed_form(eps, eta)
            except DecompositionSingular:
                continue
            m = expm(defining_rep(metric_element(eps, eta)))
            gn = gauss_decompose(m, "normal")
            ga = gauss_decompose(m, "antinormal")
            for a, b in ((normal, gn), (anti, ga)):
                # q is defined through its exponential; a negative pivot
                # flips the log branch depending on rounding
                pairs = ((a.p, b.p), (a.r, b.r),
                         (cmath.exp(a.q / 2), cmath.exp(b.q / 2)))
                for lhs, rhs in pairs:
                    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))
            checked += 1

    def test_hermitian_closure(self):
        # real eps keeps r = conj(p) in both orderings, and q real wherever
        # the pivot is positive (a negative pivot forces a complex diagonal
        # factor even though the product stays Hermitian)
        rng = np.random.default_rng(17)
        for _ in range(200):
            eps, eta = random_metric_pair(rng)
            theta = np.sqrt(eps * eps - 4.0 * abs(eta) ** 2)
            c, s = np.cosh(theta), (np.sinh(theta) / theta if theta else 1.0)
            normal, anti = disentangle_closed_form(eps, eta)
            for f, pivot in ((normal, c - eps * s), (anti, c + eps * s)):
                assert abs(f.r - np.conj(f.p)) <= 1e-12 * max(1.0, abs(f.p))
                if pivot > 0.0:
                    assert abs(f.q.imag) <= 1e-12 * max(1.0, abs(f.q))

    def test_trig_regime(self):
        with pytest.raises(TrigRegime):
            disentangle_closed_form(0.1, 1.0)

    @pytest.mark.parametrize("eps, eta", [(np.inf, 0.1), (-np.inf, 0.0), (np.nan, 0.0),
                                          (0.3, complex(0.1, np.inf))])
    def test_non_finite_refused(self, eps, eta):
        with pytest.raises(InvalidParams, match="must be finite"):
            disentangle_closed_form(eps, eta)
        with pytest.raises(InvalidParams, match="must be finite"):
            adjoint_matrix(eps, eta)

    @pytest.mark.parametrize("eps, eta", [(720.0, 0.3), (-720.0, 0.3j), (1e5, 2e4)])
    def test_scaled_against_mpmath(self, eps, eta):
        # past theta = 700 the pivots are taken times e^-theta; at (720, 0.3)
        # the normal pivot cancels to 3e-7 of cosh(theta), as it would below
        # 700, which costs p, r and log(pivot) their last 9 digits
        with mp.workdps(50):
            theta = mp.sqrt(mp.mpf(eps) ** 2 - 4 * abs(mp.mpc(eta)) ** 2)
            c, s = mp.cosh(theta), mp.sinh(theta) / theta
            for f, sign in zip(disentangle_closed_form(eps, eta), (-1, 1)):
                pivot = c + sign * eps * s
                r = 2 * mp.mpc(eta) * s / pivot
                q = sign * 2 * mp.log(mp.mpc(pivot))
                assert abs(f.r - r) <= 1e-8 * abs(r) and abs(f.p - mp.conj(r)) <= 1e-8 * abs(r)
                assert abs(f.q - q) <= 1e-12 * abs(q)

    @pytest.mark.parametrize("eps, eta", [(1000.0, 0.1), (400.0, 0.1), (-400.0, 0.1),
                                          (-1000.0, 0.1j), (30.0, 0.01), (2.0, 1e-6)])
    def test_small_eta_against_mpmath(self, eps, eta):
        # where 2|eta| << |eps| the pivot cosh(theta) - |eps| s of the normal
        # (eps > 0) or antinormal (eps < 0) ordering is about 2|eta|^2/eps^2
        # of cosh(theta); p, r and q keep every digit, below theta = 700
        # and past it (disentangle --epsilon 1000 --eta 0.1 printed
        # p = -9999.99992771 for -9999.9999)
        with mp.workdps(50):
            theta = mp.sqrt(mp.mpf(eps) ** 2 - 4 * abs(mp.mpc(eta)) ** 2)
            c, s = mp.cosh(theta), mp.sinh(theta) / theta
            for f, sign in zip(disentangle_closed_form(eps, eta), (-1, 1)):
                pivot = c + sign * eps * s
                r = 2 * mp.mpc(eta) * s / pivot
                q = sign * 2 * mp.log(mp.mpc(pivot))
                assert abs(f.r - r) <= 1e-15 * abs(r) and abs(f.p - mp.conj(r)) <= 1e-15 * abs(r)
                assert abs(f.q - q) <= 1e-15 * abs(q)

    @pytest.mark.parametrize("eps, eta", [(1e-5, 0.0), (-1e-5, 0.0), (1e-3, 4e-4j),
                                          (-3e-8, 1e-8), (0.5, 0.1), (-2.0, 0.3j),
                                          (40.0, 7.0), (-1000.0, 0.1)])
    def test_larger_pivot_q_against_mpmath(self, eps, eta):
        # the ordering whose pivot is C = cosh(theta) + |eps| s takes q = +-2
        # ln C from _pivots' log1p, as metric roots do: 2 log of the rounded
        # C lost the digits of C - 1 (q_prime 1.99999999998e-05 at (1e-5, 0))
        with mp.workdps(50):
            theta = mp.sqrt(mp.mpf(eps) ** 2 - 4 * abs(mp.mpc(eta)) ** 2)
            q = 2 * mp.log(mp.cosh(theta) + abs(eps) * mp.sinh(theta) / theta)
        normal, anti = disentangle_closed_form(eps, eta)
        f, sign = (anti, 1) if eps > 0.0 else (normal, -1)
        assert f.q.imag == 0.0
        assert abs(f.q - sign * q) <= 2e-16 * abs(q), (f.q, q)

    def test_scaled_pivot_that_vanishes(self):
        # eta = 0: the normal pivot is e^-theta, below PIVOT_TOL
        with pytest.raises(DecompositionSingular, match="e\\^1000"):
            disentangle_closed_form(1000.0, 0.0)


def test_rounding_units_are_numpys():
    # core's units and pdm.LOG_MAX, ln of the largest double, come from
    # sys.float_info, so that no module calls np.finfo
    assert core._TINY.hex() == float(np.finfo(float).tiny).hex()
    assert core._EPS.hex() == float(np.finfo(float).eps).hex()
    assert pdm.LOG_MAX.hex() == math.log(np.finfo(float).max).hex()


class TestAdjointMatrix:
    def test_past_the_overflow_is_typed(self):
        with pytest.raises(InvalidParams,
                           match="theta = 1000, eps = 1000: the adjoint matrix's entries"):
            adjoint_matrix(1000.0, 0.1)

    @pytest.mark.parametrize("eps, eta", [(360.0, 0.0), (360.0, 0.1), (400.0, 0.0)])
    def test_entries_past_the_doubles_are_typed(self, eps, eta):
        # (cosh(theta) + eps s)^2 passes the doubles from theta of about 355,
        # far below the e^-theta scaling from 700: conjugate used to return
        # inf and NaN coefficients here without a word
        x = AlgebraElement(2.0, 0.4, 0.2)
        with pytest.raises(InvalidParams, match=f"theta = {eps:g}"):
            conjugate(eps, eta, x)

    def test_entries_below_the_overflow_are_finite(self):
        y = conjugate(300.0, 0.0, AlgebraElement(2.0, 0.4, 0.2))
        assert all(cmath.isfinite(v) for v in y) and y.cp.real > 1e259

    def test_diagonal_case(self):
        for eps in (0.3, -0.7, 1.5):
            m = adjoint_matrix(eps, 0.0)
            assert np.allclose(m, np.diag([1.0, np.exp(-2.0 * eps),
                                           np.exp(2.0 * eps)]), rtol=1e-14)

    def test_identity(self):
        assert np.allclose(adjoint_matrix(0.0, 0.0), np.eye(3))

    def test_matches_matrix_conjugation(self):
        # oracle: conjugate in the 2x2 representation and re-expand
        rng = np.random.default_rng(19)
        for _ in range(100):
            eps, eta = random_metric_pair(rng, eps_max=2.0)
            m = adjoint_matrix(eps, eta)
            rho = expm(defining_rep(metric_element(eps, eta)))
            rho_inv = expm(-defining_rep(metric_element(eps, eta)))
            for basis, vec in ((AlgebraElement(1, 0, 0), [1, 0, 0]),
                               (AlgebraElement(0, 1, 0), [0, 1, 0]),
                               (AlgebraElement(0, 0, 1), [0, 0, 1])):
                conj_mat = rho @ defining_rep(basis) @ rho_inv
                # coefficients from the matrix: c0 = 2*m11, cp = m12, cm = -m21
                got = m @ np.array(vec)
                ref = np.array([2.0 * conj_mat[0, 0], -conj_mat[1, 0],
                                conj_mat[0, 1]])
                assert np.allclose(got, ref, rtol=0,
                                   atol=1e-11 * max(1.0, abs(ref).max()))

    def test_casimir_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            eps, eta = random_metric_pair(rng, eps_max=2.5)
            m = adjoint_matrix(eps, eta)
            x = rng.normal(size=3) + 1j * rng.normal(size=3)
            y = m @ x
            qx = x[0] ** 2 - 4.0 * x[2] * x[1]
            qy = y[0] ** 2 - 4.0 * y[2] * y[1]
            assert abs(qy - qx) <= 1e-10 * max(1.0, abs(qx))

    def test_group_inverse(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            eps, eta = random_metric_pair(rng, eps_max=2.0)
            m = np.array(adjoint_matrix(eps, eta))
            m_inv = np.array(adjoint_matrix(-eps, -eta))
            assert np.allclose(m @ m_inv, np.eye(3), rtol=0,
                               atol=1e-10 * np.linalg.norm(m, 2))

    def test_trig_regime(self):
        with pytest.raises(TrigRegime):
            adjoint_matrix(0.0, 0.3)

    @pytest.mark.parametrize("below", [1e-12, 1e-9])
    @pytest.mark.parametrize("alpha, beta", [(0.5, 0.001), (0.001, 0.5)])
    def test_near_root_against_mpmath(self, alpha, beta, below):
        # just below the lower stability root eps = +-6.9 and 2|eta| << |eps|,
        # so cosh(theta) - |eps| s cancels: formed directly, Cm^2 (alpha >
        # beta) or Cp^2 was 9.8e-8 off at 1e-12 below the root and 3.5e-12 at
        # 1e-9.  At 1e-12 that pivot, -5.0e-7, is the difference of parts of
        # 1e-3, so its entries move by 4e-13 when eps or eta moves by an ulp:
        # each entry is held to 1e-14 plus what 4 ulps of eps and of eta move
        # it, all from 60 digits
        p = SwansonParams(1.0, alpha, beta)
        with mp.workdps(50):
            z = float(stability_roots_mp(p)[0] - below)
        sol = solve_metric(p, z)
        eps, eta = sol.epsilon, sol.eta
        got = [x for row in adjoint_matrix(eps, eta) for x in row]
        with mp.workdps(60):
            def entries(e, h):
                theta = mp.sqrt(e * e - 4 * h * h)
                c, s = mp.cosh(theta), mp.sinh(theta) / theta
                cm, cp = c - e * s, c + e * s
                return (1 - 8 * h * h * s * s, -4 * h * s * cm, 4 * h * s * cp,
                        2 * h * s * cm, cm * cm, 4 * h * h * s * s,
                        -2 * h * s * cp, 4 * h * h * s * s, cp * cp)
            e, h = mp.mpf(eps), mp.mpf(eta)
            for k, (x, w) in enumerate(zip(got, entries(e, h))):
                moved = (abs(e * mp.diff(lambda t: entries(t, h)[k], e))
                         + abs(h * mp.diff(lambda t: entries(e, t)[k], h)))
                assert abs(x - w) <= 1e-14 * abs(w) + 4 * 2.0 ** -52 * moved, (k, x, w)


class TestConjugate:
    def test_identity_exponent(self):
        x = AlgebraElement(1.2, 0.3 - 0.1j, -0.2 + 0.5j)
        y = conjugate(0.0, 0.0, x)
        assert np.allclose([y.c0, y.cm, y.cp], [x.c0, x.cm, x.cp])

    def test_diagonal_fixes_k0(self):
        y = conjugate(0.8, 0.0, AlgebraElement(1, 0, 0))
        assert np.allclose([y.c0, y.cm, y.cp], [1.0, 0.0, 0.0])

    def test_casimir_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            eps, eta = random_metric_pair(rng, eps_max=2.0)
            x = AlgebraElement(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
            y = conjugate(eps, eta, x)
            assert abs(casimir_defining(y) - casimir_defining(x)) \
                <= 1e-10 * max(1.0, abs(casimir_defining(x)))


class TestReconstructionProperty:
    def test_bulk_random_reconstruction(self):
        # smaller-scale version of the acceptance sweep
        rng = np.random.default_rng(37)
        checked = 0
        while checked < 1000:
            eps, eta = random_metric_pair(rng)
            try:
                normal, anti = disentangle_closed_form(eps, eta)
            except DecompositionSingular:
                continue
            if min(abs(cmath.exp(-normal.q / 2)), abs(cmath.exp(anti.q / 2))) < 0.1:
                continue
            m = expm(defining_rep(metric_element(eps, eta)))
            scale = np.linalg.norm(m, 2)
            for f in (normal, anti):
                err = np.linalg.norm(reconstruct_defining(f) - m, 2)
                assert err <= 1e-12 * scale
            checked += 1
