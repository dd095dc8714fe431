import math

import numpy as np
import pytest
from scipy.linalg import block_diag

from su11metric import (AlgebraElement, InvalidParams, SwansonParams,
                        commuting_observable, conformal, discrete_series,
                        from_descriptor, multiboson, oscillator_full,
                        oscillator_sector, radial, solve_metric, swanson_element,
                        z_domain)
from su11metric.realizations import apply

from oracles import (commutator_residuals, materialize, metric_family_mp,
                     radial_k0_lowest, residue_root_of_unity)

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


# real and complex coefficients, signed zeros among them
COEFFICIENTS = ((-2.0, -1.0, -1.0), (-1.0, 0.0, -0.0), (0.3, -1.2, 0.7),
                (0.7, -1.3, 0.4), (1 + 2j, 0.5 - 1j, -0.3j), (2.0 + 0j, 0.3 + 0j, 0.3 + 0j))


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


def _ref_chains(weights, n):
    """The band-b direct sum of _ref_discrete(k_c) blocks, b = len(weights):
    chain c on the states c, c + b, c + 2b, ..."""
    out = tuple(np.zeros((n, n)) for _ in range(3))
    for c, k in enumerate(weights):
        states = np.arange(c, n, len(weights))
        for o, block in zip(out, _ref_discrete(k, states.size)):
            o[np.ix_(states, states)] = block
    return out


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
BAND_12 = tuple(0.25 * k for k in range(1, 13))
# (constructor, its dense reference, its D+(k_c) weights): ALL_CONSTRUCTORS,
# then conformal and multibosons with a zero residue and with band 12
DENSE_CASES = list(zip(ALL_CONSTRUCTORS, REFERENCES, [
    (0.25,), (0.75,), (1.6,), (0.25, 0.75), (0.25,), (0.75,), (0.25, 0.75),
    (0.3, 0.6, 0.9), (1.25,)])) + [
    (lambda n: conformal(0.75, 1.0, 1.0, n)[0], lambda n: _ref_discrete(0.75, n), (0.75,)),
    (lambda n: multiboson(3, (0.0, 0.5, 0.25), n),
     lambda n: _ref_multiboson(3, (0.0, 0.5, 0.25), n), (0.0, 0.5, 0.25)),
    (lambda n: multiboson(12, BAND_12, n), lambda n: _ref_multiboson(12, BAND_12, n), BAND_12)]
CHAIN_WEIGHTS = {make: weights for make, _, weights in DENSE_CASES}


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
            t = r.dim - r.band
            k0, kp, km = dense(r)
            cas = k0 @ k0 - 0.5 * (kp @ km + km @ kp)
            target = k * (k - 1.0) * np.eye(60)
            assert np.abs((cas - target)[:t, :t]).max() < 1e-10

    def test_defining_commutator(self):
        r = discrete_series(0.25, 40)
        t = r.dim - r.band
        k0, kp, km = dense(r)
        comm = kp @ km - km @ kp
        assert np.abs((comm + 2.0 * k0)[:t, :t]).max() < 1e-12

    def test_invalid(self):
        with pytest.raises(InvalidParams):
            discrete_series(0.0, 10)
        with pytest.raises(InvalidParams):
            discrete_series(0.5, 1)
        for k in (math.nan, math.inf):
            with pytest.raises(InvalidParams, match="finite"):
                discrete_series(k, 10)


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
    def test_commutators_match_full_dense(self, make):
        # the leading-block products against the full N x N ones
        r = make(60)
        k0, kp, km = dense(r)

        def norm(m, t):
            return float(np.linalg.norm(m[:t, :t], 2))

        for t in (None, 5, 60 - r.band - 1, 60):
            b = r.dim - r.band if t is None else t
            want = {
                "k0_kp": norm(k0 @ kp - kp @ k0 - kp, b) / norm(kp, b),
                "k0_km": norm(k0 @ km - km @ k0 + km, b) / norm(km, b),
                "kp_km": norm(kp @ km - km @ kp + 2.0 * k0, b) / norm(2.0 * k0, b),
            }
            assert commutator_residuals(r, t) == want, (r.kind, t)

    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_leading_block(self, make):
        # apply on the leading m states is the leading m x m block of the
        # dense sum c0 K0 + cm Km + cp Kp, exactly
        r = make(40)
        k0, kp, km = dense(r)
        for c in COEFFICIENTS:
            x = AlgebraElement(*c)
            want = c[0] * k0 + c[1] * km + c[2] * kp
            for m in (r.band + 1, 17, 40, 55):
                m = min(m, 40)
                got = apply(x, r, np.eye(m))
                assert np.array_equal(got, want[:m, :m]), (r.kind, c, m)

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

    def test_root_of_unity_formula(self):
        for l in (2, 3, 4, 5):
            vals = residue_root_of_unity(l, 50)
            assert np.abs(vals.imag).max() < 1e-12
            assert np.abs(vals.real - (np.arange(50) % l)).max() <= 1e-12

    def test_negative_radicand(self):
        with pytest.raises(InvalidParams, match="radicand"):
            multiboson(2, (-3.0, 0.75), 10)

    def test_non_finite_residue(self):
        # a NaN radicand compares false with 0, so the radicand check
        # alone lets it through
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidParams, match="finite"):
                multiboson(2, (0.25, bad), 10)

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
        for L in (math.nan, math.inf):
            with pytest.raises(InvalidParams, match="finite"):
                radial(L, 10)


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
        # h = c0 K0 + c (Km + Kp) at the realization's parameters: one c
        # for both ladders, and c0 and c at their 50-digit forms
        _, p = conformal(0.75, 1.0, 1.0, 10)
        sol, want = solve_metric(p, 0.6), metric_family_mp(p, 0.6)
        for name in ("c0", "c"):
            assert abs(getattr(sol, name) - want[name]) <= 1e-15 * abs(want[name]), name


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


    @pytest.mark.parametrize("make, reference", [case[:2] for case in DENSE_CASES])
    def test_generators_match_dense_reference(self, make, reference):
        # the Fock-space reference, and the D+(k_c) chains byte for byte
        weights = CHAIN_WEIGHTS[make]

        def close(got, ref):
            assert np.array_equal(got == 0.0, ref == 0.0)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))

        for n in (7, 14, 60, 200):
            if n < len(weights) + 2:
                continue  # below multiboson's smallest dimension, l + 2
            r = make(n)
            for got, ref, chain in zip(dense(r), reference(n), _ref_chains(weights, n)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                if r.kind.startswith("multiboson"):
                    # the closed form replaces a product of l square roots
                    close(got, ref)
                else:
                    assert got.tobytes() == ref.tobytes()
                if r.kind == "oscillator:parity=full":
                    # the boson product sqrt(m+1) sqrt(m+2) / 2, within 2 ulp
                    # of its D+(1/4) + D+(3/4) chains
                    close(got, chain)
                else:
                    assert got.tobytes() == chain.tobytes(), r.kind

    @pytest.mark.parametrize("make, reference", [
        (lambda n: discrete_series(0.25, n), lambda n: _ref_discrete(0.25, n)),
        (oscillator_full, _ref_oscillator_full)])
    def test_equals_dense_sum(self, make, reference):
        # the dense oracle: signed zeros and complex parts as in
        # c0 K0 + cm Km + cp Kp
        k0, kp, km = reference(9)
        for c in COEFFICIENTS:
            want = c[0] * k0 + c[1] * km + c[2] * kp
            if np.iscomplexobj(want) and not want.imag.any():
                want = want.real
            got = materialize(AlgebraElement(*c), make(9))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # apply on the leading m states: the unit matrix gives the block
        # of the reference sum exactly, a random block the oracle's product
        rng = np.random.default_rng(2868)
        r = make(60)
        k0, kp, km = reference(60)
        for c in COEFFICIENTS:
            x = AlgebraElement(*c)
            want = c[0] * k0 + c[1] * km + c[2] * kp
            for m in (r.band + 1, 17, 60):
                assert np.array_equal(apply(x, r, np.eye(m)), want[:m, :m]), (c, m)
                b = rng.normal(size=(m, 7))
                ref = materialize(x, r)[:m, :m] @ b
                assert np.abs(apply(x, r, b) - ref).max() \
                    <= 1e-14 * np.abs(ref).max(), (c, m)
        # a stack of operands, one coefficient triple each, in one call
        bs = rng.normal(size=(len(COEFFICIENTS), 17, 7))
        stacked = AlgebraElement(*np.array(COEFFICIENTS).T[..., None, None])
        for c, b, got in zip(COEFFICIENTS, bs, apply(stacked, r, bs)):
            assert np.array_equal(got, apply(AlgebraElement(*c), r, b)), c


class TestDescriptors:
    def test_discrete(self):
        r, p = from_descriptor("discrete:k=0.25", 20)
        assert p is None and r.kind == "discrete:k=0.25" and r.dim == 20

    def test_oscillator_forms(self):
        assert from_descriptor("oscillator", 12)[0].kind == "oscillator:parity=full"
        r = from_descriptor("oscillator:parity=even", 12)[0]
        assert r.dim - r.band == 11

    def test_multiboson(self):
        r, _ = from_descriptor("multiboson:l=3,residues=0.25,0.5,0.75", 15)
        assert r.dim - r.band == 12

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
        with pytest.raises(InvalidParams, match="twice"):
            from_descriptor("discrete:k=0.25,k=0.75", 10)
