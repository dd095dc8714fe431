import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from su11metric import (AlgebraElement, InvalidParams, SwansonParams,
                        commutator_residuals, commuting_observable, conformal,
                        discrete_series, from_descriptor, materialize,
                        multiboson, oscillator_full, oscillator_sector, radial,
                        radial_k0_lowest, residue_matrix,
                        residue_root_of_unity, swanson_element, z_domain)

ALL_CONSTRUCTORS = [
    lambda n: discrete_series(0.25, n),
    lambda n: discrete_series(0.75, n),
    lambda n: discrete_series(1.6, n),
    lambda n: oscillator_full(n),
    lambda n: oscillator_sector("even", n),
    lambda n: oscillator_sector("odd", n),
    lambda n: multiboson(2, (0.25, 0.75), n),
    lambda n: multiboson(3, (0.3, 0.6, 0.9), n),
    lambda n: radial(1.0, n),
]


def dense(r):
    """Dense (K0, Kp, Km) of a realization."""
    return tuple(materialize(AlgebraElement(*c), r)
                 for c in ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0)))


# Dense references for every constructor in ALL_CONSTRUCTORS and for
# conformal, built with diagonal matrices, boson ladders and matrix powers
def _annihilation(n):
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def _ref_discrete(k, n):
    m = np.arange(n, dtype=float)
    kp = np.diag(np.sqrt((m[:-1] + 1.0) * (m[:-1] + 2.0 * k)), -1)
    return np.diag(m + k), kp, kp.T.copy()


def _ref_oscillator_full(n):
    a = _annihilation(n)
    km = 0.5 * (a @ a)
    return np.diag((2.0 * np.arange(n) + 1.0) / 4.0), km.T.copy(), km


def _ref_sector(parity, n):
    fock = 2 * np.arange(n) + (0 if parity == "even" else 1)
    f = fock[1:].astype(float)
    km = np.diag(0.5 * np.sqrt(f * (f - 1.0)), 1)
    return np.diag((2.0 * fock + 1.0) / 4.0), km.T.copy(), km


def _ref_multiboson(l, residues, n):
    residues = np.asarray(residues, dtype=float)
    m = np.arange(n)
    r = m % l
    whole = (m - r) // l
    poch = np.ones(n)
    for j in range(1, l + 1):
        poch *= m + j
    am = np.sqrt((whole + 2.0 * residues[r]) * (whole + 1.0) / poch)
    km = np.diag(am) @ np.linalg.matrix_power(_annihilation(n), l)
    return np.diag(whole + residues[r]), km.T.copy(), km


REFERENCES = [
    lambda n: _ref_discrete(0.25, n),
    lambda n: _ref_discrete(0.75, n),
    lambda n: _ref_discrete(1.6, n),
    _ref_oscillator_full,
    lambda n: _ref_sector("even", n),
    lambda n: _ref_sector("odd", n),
    lambda n: _ref_multiboson(2, (0.25, 0.75), n),
    lambda n: _ref_multiboson(3, (0.3, 0.6, 0.9), n),
    lambda n: _ref_discrete(1.25, n),
]


class TestDiscreteSeries:
    def test_reference_entries(self):
        r = discrete_series(0.25, 3)
        assert r.band == 1
        assert np.array_equal(r.k0_diag, [0.25, 1.25, 2.25])
        sub = r.kp_band
        assert abs(sub[0] - math.sqrt(0.5)) < 1e-15
        assert abs(sub[1] - math.sqrt(3.0)) < 1e-15

    def test_casimir_constant(self):
        for k in (0.25, 0.75, 1.3):
            r = discrete_series(k, 60)
            t = r.trusted
            k0, kp, km = dense(r)
            cas = k0 @ k0 - 0.5 * (kp @ km + km @ kp)
            target = k * (k - 1.0) * np.eye(60)
            assert np.abs((cas - target)[:t, :t]).max() < 1e-10

    def test_defining_commutator(self):
        r = discrete_series(0.25, 40)
        t = r.trusted
        k0, kp, km = dense(r)
        comm = kp @ km - km @ kp
        assert np.abs((comm + 2.0 * k0)[:t, :t]).max() < 1e-12

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            discrete_series(0.0, 10)
        with pytest.raises(InvalidParams):
            discrete_series(0.5, 1)


class TestRealizationInvariants:
    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_adjoint_pair(self, make):
        r = make(30)
        assert r.k0_diag.shape == (30,) and r.kp_band.shape == (30 - r.band,)
        k0, kp, km = dense(r)
        assert np.array_equal(km, kp.T)
        assert np.array_equal(k0, k0.T)

    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_commutators_on_trusted_block(self, make):
        res = commutator_residuals(make(60))
        assert max(res.values()) < 1e-12

    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_k0_strictly_increasing(self, make):
        d = make(30).k0_diag
        assert np.all(np.diff(d) > 0.0)


class TestOscillator:
    def test_k0_diagonal(self):
        r = oscillator_full(10)
        assert np.allclose(r.k0_diag, (2.0 * np.arange(10) + 1.0) / 4.0)

    def test_even_sector_lowering_element(self):
        r = oscillator_sector("even", 6)
        # sector index 1 is Fock state 2; a^2/2 sends it to index 0 with sqrt(2)/2
        assert abs(dense(r)[2][0, 1] - math.sqrt(2.0) / 2.0) < 1e-15

    def test_sectors_equal_discrete_series(self):
        for parity, k in (("even", 0.25), ("odd", 0.75)):
            sec = oscillator_sector(parity, 25)
            ref = discrete_series(k, 25)
            assert sec.band == ref.band
            assert np.abs(sec.k0_diag - ref.k0_diag).max() < 1e-14
            assert np.abs(sec.kp_band - ref.kp_band).max() < 1e-14

    def test_parity_block_diagonalization(self):
        n = 12
        full = oscillator_full(2 * n)
        perm = np.concatenate([np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)])
        even = oscillator_sector("even", n)
        odd = oscillator_sector("odd", n)
        for f, e, o in zip(dense(full), dense(even), dense(odd)):
            sorted_full = f[np.ix_(perm, perm)]
            blocks = block_diag(e, o)
            # the last sector rows touch truncated Fock states
            assert np.abs((sorted_full - blocks)[:2 * n - 2, :2 * n - 2]).max() \
                < 1e-14


class TestMultiboson:
    def test_two_boson_equals_oscillator(self):
        mb = multiboson(2, (0.25, 0.75), 40)
        osc = oscillator_full(40)
        for a, b in zip(dense(mb), dense(osc)):
            assert np.abs(a - b).max() <= 1e-12

    def test_lowering_element(self):
        mb = multiboson(2, (0.25, 0.75), 8)
        assert abs(dense(mb)[2][0, 2] - math.sqrt(2.0) / 2.0) < 1e-15

    def test_residue_values(self):
        r = residue_matrix(3, 10)
        assert r[7, 7] == 1.0
        assert np.array_equal(np.diag(r), [0, 1, 2, 0, 1, 2, 0, 1, 2, 0])

    def test_root_of_unity_formula(self):
        for l in (2, 3, 4, 5):
            vals = residue_root_of_unity(l, 50)
            assert np.abs(vals.imag).max() < 1e-12
            assert np.abs(vals.real - (np.arange(50) % l)).max() <= 1e-12

    def test_negative_radicand(self):
        with pytest.raises(InvalidParams, match="radicand"):
            multiboson(2, (-3.0, 0.75), 10)

    def test_band_structure(self):
        mb = multiboson(3, (0.3, 0.6, 0.9), 12)
        km = dense(mb)[2]
        off_band = km - np.diag(np.diag(km, 3), 3)
        assert not off_band.any()


class TestRadial:
    def test_weight_mapping(self):
        assert np.allclose(radial(0.0, 5).k0_diag, np.arange(5) + 0.75)
        assert np.allclose(radial(1.0, 5).k0_diag, np.arange(5) + 1.25)

    def test_grid_oracle(self):
        # finite differences on the half-line reproduce the lowest weight
        for L, k in ((0.0, 0.75), (1.0, 1.25), (2.0, 1.75)):
            val = radial_k0_lowest(L, 1.0, 14.0, 4000, 1)[0]
            assert abs(val - k) < 1e-3

    def test_grid_oracle_level_spacing(self):
        vals = radial_k0_lowest(0.0, 1.0, 14.0, 3000, 3)
        assert np.allclose(np.diff(vals), 1.0, atol=1e-3)

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            radial(-2.0, 10)


class TestConformal:
    def test_coupling_mapping(self):
        mats, p = conformal(0.75, 1.0, 1.0, 10)
        assert (p.alpha, p.beta) == (0.25, -0.25)
        assert p.omega ** 2 - 4.0 * p.alpha * p.beta == 1.0 + 1.0 / 4.0
        assert mats.dim == 10

    def test_admissible_band_excluded(self):
        _, p = conformal(0.75, 1.0, 1.0, 10)
        cut = 1.0 / (2.0 * math.sqrt(1.25))
        ivs = z_domain(p)
        assert abs(ivs[0][1] + cut) < 1e-12 and abs(ivs[1][0] - cut) < 1e-12

    def test_h_symmetric_in_ladder(self):
        from su11metric import hermitian_equivalent
        _, p = conformal(0.75, 1.0, 1.0, 10)
        h = hermitian_equivalent(p, 0.6)
        assert h.cm == h.cp


class TestMaterialize:
    def test_observable_at_z_zero(self):
        r = discrete_series(0.25, 12)
        assert np.array_equal(materialize(commuting_observable(0.0), r),
                              np.diag(2.0 * r.k0_diag))

    def test_swanson_structure(self):
        p = SwansonParams(1.0, 0.2, 0.1)
        r = discrete_series(0.25, 12)
        h = materialize(swanson_element(p), r)
        assert not np.iscomplexobj(h)
        assert np.abs(h - h.T).max() > 0.0  # genuinely nonsymmetric
        off_band = h - np.diag(np.diag(h)) \
            - np.diag(np.diag(h, 1), 1) - np.diag(np.diag(h, -1), -1)
        assert not off_band.any()

    def test_linearity(self):
        rng = np.random.default_rng(43)
        r = discrete_series(0.5, 15)
        x = AlgebraElement(*rng.normal(size=3))
        y = AlgebraElement(*rng.normal(size=3))
        assert np.allclose(materialize(x + y, r),
                           materialize(x, r) + materialize(y, r), atol=1e-13)


    @pytest.mark.parametrize(
        "make, reference",
        list(zip(ALL_CONSTRUCTORS, REFERENCES))
        + [(lambda n: conformal(0.75, 1.0, 1.0, n)[0],
            lambda n: _ref_discrete(0.75, n))])
    def test_generators_match_dense_reference(self, make, reference):
        for n in (7, 60, 200):
            r = make(n)
            for got, ref in zip(dense(r), reference(n)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                if r.kind.startswith("multiboson"):
                    # the closed form replaces a product of l square roots
                    assert np.array_equal(got == 0.0, ref == 0.0)
                    assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
                else:
                    assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make, reference", [
        (lambda n: discrete_series(0.25, n), lambda n: _ref_discrete(0.25, n)),
        (oscillator_full, _ref_oscillator_full)])
    def test_equals_dense_sum(self, make, reference):
        # signed zeros and complex parts as in c0 K0 + cm Km + cp Kp
        k0, kp, km = reference(9)
        for c in ((-2.0, -1.0, -1.0), (-1.0, 0.0, -0.0), (0.3, -1.2, 0.7),
                  (1 + 2j, 0.5 - 1j, -0.3j), (2.0 + 0j, 0.3 + 0j, 0.3 + 0j)):
            want = c[0] * k0 + c[1] * km + c[2] * kp
            if np.iscomplexobj(want) and not want.imag.any():
                want = want.real
            got = materialize(AlgebraElement(*c), make(9))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestDescriptors:
    def test_discrete(self):
        r, p = from_descriptor("discrete:k=0.25", 20)
        assert p is None and r.kind == "discrete:k=0.25" and r.dim == 20

    def test_oscillator_forms(self):
        assert from_descriptor("oscillator", 12)[0].kind == "oscillator:parity=full"
        assert from_descriptor("oscillator:parity=even", 12)[0].trusted == 11

    def test_multiboson(self):
        r, _ = from_descriptor("multiboson:l=3,residues=0.25,0.5,0.75", 15)
        assert r.trusted == 12

    def test_radial(self):
        r, _ = from_descriptor("radial:L=1", 15)
        assert np.isclose(r.k0_diag[0], 1.25)

    def test_conformal_returns_params(self):
        r, p = from_descriptor("conformal:k=0.75,c=1", 15, omega=1.0)
        assert p == SwansonParams(1.0, 0.25, -0.25)

    def test_errors(self):
        with pytest.raises(InvalidParams):
            from_descriptor("hyperbolic:k=1", 10)
        with pytest.raises(InvalidParams):
            from_descriptor("discrete", 10)
        with pytest.raises(InvalidParams):
            from_descriptor("discrete:k=abc", 10)
        with pytest.raises(InvalidParams):
            from_descriptor("discrete:k=0.25,junk=1", 10)
