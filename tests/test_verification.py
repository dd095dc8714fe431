import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm
from scipy.linalg.lapack import dstebz

import mpmath as mp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su11metric import (AlgebraElement, DecompositionSingular, InvalidParams,
                        SwansonParams, TruncationTooSmall, ZOutOfDomain,
                        build_bundle, conjugated_coeffs, discrete_series,
                        disentangle_closed_form, is_admissible,
                        materialize_metric_root, solve_metric,
                        spectrum_prediction, swanson_element, z_domain)
from su11metric import (RealizationMatrices, commuting_observable,
                        from_descriptor, multiboson, oscillator_full)
from su11metric import verification
from su11metric.cli import RESIDUAL_TOLS, main
from su11metric.pdm import PdmConfig, run_pdm_check
from su11metric.realizations import apply

from conftest import spectral_norm
from oracles import (chain_count_mp, chain_spectrum, commutator_residuals,
                     exp_raising, exp_symmetric, materialize,
                     metric_block_definite, metric_family_mp,
                     metric_power_dense, metric_power_mp, stability_roots_mp)
from test_pdm import h_tridiag
from test_realizations import ALL_CONSTRUCTORS

P = SwansonParams(1.0, 0.2, 0.1)
STRONG = SwansonParams(1.0, 0.45, 0.05)
NEAR_PARABOLIC = SwansonParams(1.0, 0.5, 0.49999999999)
BAND_12 = "multiboson:l=12,residues=" + ",".join(str(0.25 * k) for k in range(1, 13))
Z_GRID = (-0.8, -0.4, 0.0, 0.4, 0.8)


class TestSymmetricEigs:
    # the library's symmetric eigensolver works from the coefficients of
    # c0 K0 + c (Km + Kp) and the realization's bands

    def test_diagonal(self):
        # k0 = 0.25, 1.25, 2.25: K0 takes them in order, the law that its
        # chain's bracket certifies with no link to cut, and -K0, minus an
        # oscillator, is refused
        r = discrete_series(0.25, 3)
        w = verification._low_eigs(AlgebraElement(1.0, 0.0, 0.0), r, 3)
        assert np.array_equal(w, [0.25, 1.25, 2.25])
        assert np.array_equal(verification._chain_bracket(1.0, 0.0, 0.25, 3, 3), w)
        with pytest.raises(InvalidParams, match="mu > 0"):
            verification._low_eigs(AlgebraElement(-1.0, 0.0, 0.0), r, 3)

    def test_two_by_two(self):
        # K+ + K- alone is hyperbolic and refused; with K0 added it is an
        # oscillator whose two levels the 2 x 2 block gives
        r = discrete_series(0.25, 2)
        kp = r.kp_band[0]
        with pytest.raises(InvalidParams, match="mu > 0"):
            verification._low_eigs(AlgebraElement(0.0, 1.0, 1.0), r, 2)
        w = verification._low_eigs(AlgebraElement(1.0, 0.3, 0.3), r, 2)
        assert np.allclose(w, np.linalg.eigvalsh([[0.25, 0.3 * kp], [0.3 * kp, 1.25]]),
                           rtol=1e-14, atol=0.0)

    def test_reconstruction(self):
        # each draw is refused where it is not elliptic, and its elliptic
        # counterpart (c0 -> |c0| + 2|c|) has the dense operator's spectrum
        from su11metric import oscillator_full
        rng = np.random.default_rng(47)
        for n in (5, 40):
            for r in (discrete_series(0.25, n), oscillator_full(n)):
                c0, c = rng.normal(size=2)
                if not c0 > 2.0 * abs(c):
                    with pytest.raises(InvalidParams, match="mu > 0"):
                        verification._low_eigs(AlgebraElement(c0, c, c), r, n)
                x = AlgebraElement(abs(c0) + 2.0 * abs(c), c, c)
                m = materialize(x, r)
                w = verification._low_eigs(x, r, n)
                assert np.abs(w - np.linalg.eigvalsh(m)).max() \
                    <= 1e-10 * np.linalg.norm(m, 2)
                assert np.all(np.diff(w) >= 0.0)

    def test_not_symmetric(self):
        r = discrete_series(0.25, 4)
        for x in (AlgebraElement(0.0, 1.0, 0.0),
                  AlgebraElement(1.0j, 1.0, 1.0),
                  AlgebraElement(1.0, 1.0j, 1.0j)):
            with pytest.raises(InvalidParams):
                verification._low_eigs(x, r, 2)


def _cut_cases():
    """Real symmetric elements c0 K0 + c (Km + Kp) for the chain cut: h at
    the base, strong and mirrored strong points, h within 5e-4 of each
    root of the stability polynomial, and near-parabolic draws with
    2|c|/c0 in [0.95, 0.999]."""
    mirror = SwansonParams(1.0, 0.05, 0.45)
    points = [(P, -0.8), (P, 0.0), (P, 0.4), (P, 0.8), (STRONG, 0.77),
              (STRONG, 0.9), (mirror, -0.89393), (mirror, 0.8)]
    for p in (P, STRONG, mirror):
        (_, z1), (z2, _) = z_domain(p)
        points += [(p, z1 - 5e-4), (p, z2 + 5e-4)]
    cases = [AlgebraElement(sol.c0, sol.c, sol.c)
             for sol in (solve_metric(p, z) for p, z in points)]
    rng = np.random.default_rng(2868)
    for _ in range(3):
        c0 = rng.uniform(0.5, 3.0)
        c = rng.choice((-0.5, 0.5)) * rng.uniform(0.95, 0.999) * c0
        cases.append(AlgebraElement(c0, c, c))
    return cases


def law_holds_mp(c0, c, k, n_states, law):
    """Whether the exact chain on D+(k)'s leading n_states states has n
    levels below theta_n - 4 tau_n and n + 1 below theta_n + 4 tau_n for
    each theta_n of `law`, tau_n = 2 tiny + 2 eps theta_n (chain_count_mp)."""
    tau = 2.0 * (np.finfo(float).tiny + np.finfo(float).eps * np.asarray(law))
    return all(chain_count_mp(c0, c, k, n_states, float(theta - 4.0 * t)) == n
               and chain_count_mp(c0, c, k, n_states, float(theta + 4.0 * t)) == n + 1
               for n, (theta, t) in enumerate(zip(law, tau)))


def one_chain(r, ch):
    """Chain ch of r (states ch, ch + band, ...) as a realization of its own."""
    return RealizationMatrices(r.k0_diag[ch::r.band], r.kp_band[ch::r.band], 1, r.kind)


class TestChainBracket:
    # verification._chain_bracket against the 40-digit count of the exact
    # chain: where it returns the law, every level is within 4 tau of it

    @pytest.mark.parametrize("p, z, k", [(P, 0.4, 0.25), (STRONG, 0.8, 0.25),
                                         (SwansonParams(1.0, 0.5, 0.3), 0.0, 0.75)])
    def test_law_only_where_it_holds(self, p, z, k):
        # h on chains of every length from 12 to 60 states, across the one
        # where the law starts to hold: the bracket returns the law only
        # where the exact levels hold it, and does return it on 60 states
        sol = solve_metric(p, z)
        omega = math.sqrt((sol.c0 - 2.0 * abs(sol.c)) * (sol.c0 + 2.0 * abs(sol.c)))
        law = omega * (np.arange(5) + k)
        for n_states in range(12, 61):
            got = verification._chain_bracket(sol.c0, sol.c, k, n_states, 5)
            holds = law_holds_mp(sol.c0, sol.c, k, n_states, law)
            assert got is None or (holds and np.array_equal(got, law)), n_states
            assert got is not None or n_states < 60, n_states

    def test_first_length_that_takes_the_law(self):
        # each cut case on three lowest weights: the shortest chain whose
        # bracket returns the law, where the exact levels lie nearest the
        # edge of 4 tau, holds it
        for x in _cut_cases():
            c0, c = x.c0.real, x.cm.real
            for k in (0.25, 0.75, 1.6):
                for want in (1, 5):
                    first = next(n for n in range(want, 400)
                                 if verification._chain_bracket(c0, c, k, n, want) is not None)
                    law = verification._chain_bracket(c0, c, k, first, want)
                    assert law_holds_mp(c0, c, k, first, law), (x, k, want, first)

    def test_zero_residue_chain(self):
        # k = 0: the state of K0 = 0 is decoupled (its link is 0), and the
        # rest is D+(1); the exact chain and the dense operator agree
        sol = solve_metric(P, 0.4)
        x = AlgebraElement(sol.c0, sol.c, sol.c)
        omega = math.sqrt((sol.c0 - 2.0 * abs(sol.c)) * (sol.c0 + 2.0 * abs(sol.c)))
        law = verification._chain_bracket(sol.c0, sol.c, 0.0, 40, 5)
        assert np.array_equal(law, np.r_[0.0, omega * (np.arange(4) + 1.0)])
        assert law_holds_mp(sol.c0, sol.c, 0.0, 40, law)
        assert verification._chain_bracket(sol.c0, sol.c, 0.0, 1, 1).tolist() == [0.0]
        r = multiboson(3, (0.0, 0.5, 0.75), 120)
        w = np.linalg.eigvalsh(materialize(x, r))[:5]
        assert np.abs(verification._low_eigs(x, r, 5) - w).max() <= 1e-12 * w.max()

    def test_one_state_chain(self):
        # one state holds c0 k, not the law, unless c = 0
        sol = solve_metric(P, 0.4)
        assert verification._chain_bracket(sol.c0, sol.c, 0.75, 1, 1) is None
        assert verification._chain_bracket(sol.c0, 0.0, 0.75, 1, 1).tolist() == [sol.c0 * 0.75]

    def test_no_coupling(self):
        # c = 0: the chain is diagonal, and the law is its levels at every
        # length, up to the count of states
        for c0, k in ((1.0, 0.25), (2.5, 1.6), (1e-3, 3.0)):
            for n_states in (1, 5, 40):
                got = verification._chain_bracket(c0, 0.0, k, n_states, n_states)
                assert np.array_equal(got, c0 * (np.arange(n_states) + k))
                assert law_holds_mp(c0, 0.0, k, n_states, got)


class TestSturmCount:
    # oracles.chain_count_mp against dstebz's count of the float chain, at
    # probes far enough from every level that the bands' rounding cannot
    # move one across

    def test_cut_case_chains(self):
        for make in (ALL_CONSTRUCTORS[0], ALL_CONSTRUCTORS[2], ALL_CONSTRUCTORS[7]):
            r = make(60)
            for x in _cut_cases():
                c0, c = x.c0.real, x.cm.real
                for ch in range(r.band):
                    k0, kp = r.k0_diag[ch::r.band], r.kp_band[ch::r.band]
                    d, e = c0 * k0, c * kp
                    w = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
                    probes = np.r_[w[:6] * (1.0 - 1e-6), (w[:5] + w[1:6]) / 2.0]
                    for probe in probes.tolist():
                        found, *_, info = dstebz(d, e, 1, -np.inf, probe, 0, 0, np.inf, "E")
                        got = chain_count_mp(c0, c, float(k0[0]), k0.size, probe)
                        assert info == 0 and got == found, (x, ch, probe)


class TestBisect:
    # _bisect's values are byte for byte those of eigh_tridiagonal's
    # values-only bisection (stebz alone), on the chains and grid levels
    # that reach it in the golden pins and on split chains

    @staticmethod
    def assert_same_values(d, e, count):
        want = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                             tol=2.0 * np.finfo(float).tiny)[0]
        got = verification._bisect(d, e, count)
        assert got.shape == (count,) and got.tobytes() == want.tobytes(), (d.size, count)

    @pytest.mark.parametrize("p, z, desc", [(NEAR_PARABOLIC, 0.3, "discrete:k=0.25"),
                                            (P, 0.4, BAND_12)])
    def test_pinned_chains(self, p, z, desc):
        # the near-parabolic pin's chain and the band-12 pin's 12, at N = 200
        r, _ = from_descriptor(desc, 200)
        sol = solve_metric(p, z)
        for ch in range(r.band):
            d, e = sol.c0 * r.k0_diag[ch::r.band], sol.c * r.kp_band[ch::r.band]
            self.assert_same_values(d, e, min(verification.SPECTRUM_COUNT, d.size))

    @pytest.mark.parametrize("flags", [{"x_min": -2.0, "x_max": 6.0}, {"tau": 1.0}])
    def test_pinned_grid_levels(self, flags):
        # the three levels of the pdm pins that fall back to the bisection
        cfg = PdmConfig(params=P, **flags)
        for points in (500, 1000, 2000):
            d, e = h_tridiag(dataclasses.replace(cfg, points=points))
            self.assert_same_values(d, e, 3)

    def test_split_chains(self):
        # zero and negligible links split T into blocks, single states
        # among them
        rng = np.random.default_rng(3559)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            d = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            e = rng.normal(size=n - 1)
            e[rng.random(n - 1) < 0.3] = 0.0
            e[rng.random(n - 1) < 0.2] *= 1e-12
            self.assert_same_values(d, e, int(rng.integers(1, n + 1)))

    def test_values_only(self, monkeypatch):
        # the chain fallback and the grid's bisect by index (dstebz's range
        # 2) for values alone, so no dstein runs; the grid also counts its
        # levels by value (range 1)
        lapack, ranges = verification._lapack(), []
        exact = lapack.dstebz

        def record(d, e, select, *args):
            ranges.append(select)
            return exact(d, e, select, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("dstein ran")

        monkeypatch.setattr(lapack, "dstebz", record)
        monkeypatch.setattr(lapack, "dstein", refuse)
        sol = solve_metric(NEAR_PARABOLIC, 0.3)
        w = verification._low_eigs(AlgebraElement(sol.c0, sol.c, sol.c),
                                   discrete_series(0.25, 200), 5)
        assert w.shape == (5,) and ranges == [2]
        run_pdm_check(PdmConfig(params=P, x_min=-2.0, x_max=6.0))
        assert ranges.count(2) > 1 and set(ranges) == {1, 2}, ranges


class TestChainCut:
    # _low_eigs takes each chain's law where its bracket certifies it, and
    # bisects the chain whole elsewhere

    @staticmethod
    def assert_matches_oracle(x, r, count):
        # a law chain's levels are each within 4 tau of the law in the exact
        # chain (chain_count_mp); a bisected chain's are within 4 ulps of the
        # float chain's, bisected in full (chain_spectrum)
        w = verification._low_eigs(x, r, count)
        c0, c, parts = x.c0.real, x.cm.real, []
        for ch in range(min(r.band, r.dim)):
            chain = one_chain(r, ch)
            k, want = float(chain.k0_diag[0]), min(count, chain.dim)
            law = verification._chain_bracket(c0, c, k, chain.dim, want)
            if law is None:
                parts.append(chain_spectrum(x, chain, want)[0])
            else:
                assert law_holds_mp(c0, c, k, chain.dim, law), (x, r.kind, count, ch)
                parts.append(law)
        ref = np.sort(np.concatenate(parts))[:count]
        assert np.all(np.abs(w - ref) <= 4 * np.spacing(np.abs(ref))), \
            (x, r.kind, count, (w - ref) / np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_matches_full_chain(self, make):
        r = make(300)
        for x in _cut_cases():
            for count in (1, 5, 25):
                self.assert_matches_oracle(x, r, count)

    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_count_above_chain_length(self, make):
        # 25 is above every chain's length at N = 40, so every pair is wanted
        r = make(40)
        for x in _cut_cases():
            for count in (25, 41):
                self.assert_matches_oracle(x, r, count)

    def test_non_elliptic_is_the_full_chain(self):
        # -K0 (minus an oscillator), a hyperbolic (2|c| > c0) and a
        # parabolic (2|c| = c0) element have no lowest levels on the
        # infinite chain: the floor (c0 - 2|c|) k0 lies at or below every
        # value, so no cut holds and only the full truncated chain has a
        # spectrum, one that depends on N.  Each is refused instead, at
        # every count and realization
        for x in (AlgebraElement(-1.0, 0.0, 0.0), AlgebraElement(1.0, 0.6, 0.6),
                  AlgebraElement(1.0, 0.5, 0.5), AlgebraElement(1.0, -0.5, -0.5)):
            for r in (discrete_series(0.25, 100), oscillator_full(100)):
                for count in (1, 5, 25):
                    with pytest.raises(InvalidParams, match="mu > 0"):
                        verification._low_eigs(x, r, count)

    def test_non_elliptic_chain_bisects_once(self, monkeypatch):
        # no chain is bisected more than once, and here none at all: a
        # non-elliptic element is refused before any chain is solved, and
        # elliptic h takes the law at counts 5 and 25
        sizes = []
        bisect = verification._bisect

        def counted(d, e, count):
            sizes.append(d.size)
            return bisect(d, e, count)

        monkeypatch.setattr(verification, "_bisect", counted)
        for x, r in ((AlgebraElement(-1.0, 0.0, 0.0), discrete_series(0.25, 800)),
                     (AlgebraElement(1.0, 0.6, 0.6), discrete_series(0.25, 800)),
                     (AlgebraElement(1.0, 0.5, 0.5), discrete_series(0.25, 800)),
                     (AlgebraElement(1.0, 0.6, 0.6), oscillator_full(800))):
            with pytest.raises(InvalidParams, match="mu > 0"):
                verification._low_eigs(x, r, 25)
        sol = solve_metric(P, 0.0)
        for count in (5, 25):
            verification._low_eigs(AlgebraElement(sol.c0, sol.c, sol.c),
                                   discrete_series(0.25, 800), count)
        assert sizes == []

    @pytest.mark.parametrize("make", ALL_CONSTRUCTORS)
    def test_elliptic_h_takes_the_closed_form(self, make, monkeypatch):
        # h at every cut case but the near-parabolic draws: no chain is
        # bisected, and the values are the harmonic law on each chain.  A
        # single chain of 300 states holds the law at counts 1 to 50; the
        # chains of the multi-chain realizations are 100 to 150 states
        # long, too short for some of them at counts 25 and 50
        def refuse(*args):
            raise AssertionError("bisected an elliptic chain")

        r = make(300)
        cases = _cut_cases()[:-3]
        counts = (1, 5, 25, 50) if r.band == 1 else (1, 5)
        monkeypatch.setattr(verification, "_bisect", refuse)
        for x in cases:
            omega = math.sqrt(x.c0.real ** 2 - 4.0 * x.cm.real ** 2)
            for count in counts:
                w = verification._low_eigs(x, r, count)
                law = np.sort(np.concatenate([omega * (np.arange(count) + k)
                                              for k in r.k0_diag[:r.band]]))[:count]
                assert np.allclose(w, law, rtol=1e-14, atol=0.0), (x, r.kind, count)
        monkeypatch.undo()
        for x in cases:
            for count in counts:
                self.assert_matches_oracle(x, r, count)

    def test_near_parabolic_chains_fall_back(self, monkeypatch):
        # 2|c|/c0 near 1: the eigenvectors decay so slowly that the law
        # does not hold to rounding in 300 states, so at count 25 every
        # chain is bisected whole, and still matches the oracle
        calls = []
        bisect = verification._bisect

        def counted(d, e, count):
            calls.append(d.size)
            return bisect(d, e, count)

        monkeypatch.setattr(verification, "_bisect", counted)
        for make in ALL_CONSTRUCTORS:
            r = make(300)
            for x in _cut_cases()[-3:]:
                calls.clear()
                self.assert_matches_oracle(x, r, 25)
                chains = [len(range(ch, r.dim, r.band)) for ch in range(r.band)]
                assert calls == chains, (x, r.kind, calls)

    def test_cut_stays_at_the_first_length(self):
        # h at the base point holds the law already on each chain's leading
        # 2 count + 32 states (the first cut of the vectors that certified
        # it before the closed-form bracket), and so on every longer chain
        for r in (discrete_series(0.25, 300), oscillator_full(300)):
            for z in Z_GRID:
                sol = solve_metric(P, z)
                for count in (1, 5, 25):
                    for ch in range(r.band):
                        k = float(r.k0_diag[ch])
                        for n_states in (2 * count + 32, r.dim // r.band):
                            law = verification._chain_bracket(sol.c0, sol.c, k, n_states, count)
                            assert law is not None, (r.kind, z, count, ch, n_states)

    def test_tail_count_reads_a_prefix(self):
        # the count of terms found on a doubling prefix is the first one
        # of the whole scan, and None exactly where `spare` cannot hold it
        for ratio, a in ((0.04, 30.25), (0.5, 60.25), (0.9, 200.5), (0.99, 10.25)):
            count = verification._tail_count(ratio, a, 10 ** 6)
            assert count is not None and count > 0
            for spare in (count - 1, count, count + 1, 2 * count, 64, 127, 128):
                got = verification._tail_count(ratio, a, spare)
                assert got == (count if spare >= count else None), (ratio, spare)
        assert verification._tail_count(1.0, 0.25, 10 ** 6) is None


class TestExpSymmetric:
    def test_zero(self):
        assert np.array_equal(exp_symmetric(np.zeros((4, 4))), np.eye(4))

    def test_diagonal_metric(self):
        # z = 0 gives a diagonal metric root
        r = discrete_series(0.25, 10)
        sol = solve_metric(P, 0.0)
        a = materialize(AlgebraElement(2.0 * sol.epsilon, 2.0 * sol.eta, 2.0 * sol.eta), r)
        eps = math.log(2.0) / 4.0
        expect = np.diag(np.exp(2.0 * eps * (np.arange(10) + 0.25)))
        assert np.allclose(exp_symmetric(a), expect, rtol=1e-14)

    def test_inverse_product(self):
        rng = np.random.default_rng(53)
        a = rng.normal(size=(30, 30))
        m = (a + a.T) / 2.0
        prod = exp_symmetric(m, 1.0) @ exp_symmetric(m, -1.0)
        assert np.linalg.norm(prod - np.eye(30), 2) < 1e-9


class TestExpRaising:
    def test_matches_expm(self):
        # the dense oracle's ladder exponential, one np.diag per order,
        # against scipy's general matrix exponential
        rng = np.random.default_rng(59)
        for n in (7, 60):
            for band in (1, 2, 3):
                sub = rng.uniform(0.0, 3.0, size=n - band)
                for coeff in (-0.3, 0.0, 0.7):
                    b = np.diag(sub, -band)
                    want = expm(coeff * b)
                    got = exp_raising(sub, band, coeff, n)
                    assert np.abs(got - want).max() \
                        <= 1e-13 * np.abs(want).max(), (n, band, coeff)


KINDS = ("discrete:k=0.25", "oscillator:parity=full", "oscillator:parity=odd",
         "multiboson:l=3,residues=0.25,0.5,0.75", "radial:L=1",
         "conformal:k=0.75,c=1")


class TestMetricRoot:
    def test_matches_expm_moderate(self):
        # small dimension keeps the dense exponential trustworthy, but the
        # factored product reproduces the untruncated operator, so compare
        # on the leading block of a larger basis
        r = discrete_series(0.25, 60)
        for z in Z_GRID:
            sol = solve_metric(P, z)
            block = materialize_metric_root(sol, r, rows=20)
            a = AlgebraElement(2.0 * sol.epsilon, 2.0 * sol.eta, 2.0 * sol.eta)
            direct = expm(materialize(a, r))[:20, :20]
            num = np.linalg.norm(block - direct, 2)
            assert num <= 1e-9 * np.linalg.norm(direct, 2)

    def test_inverse_pair(self):
        # the product contraction is float-verifiable only while the
        # metric's dynamic range is moderate; the extreme-range identities
        # are covered by the bundle residuals, whose contractions are stable
        r = discrete_series(0.25, 120)
        t = 40
        for z in (-0.8, -0.4, 0.0, 0.8):
            # rho[:t, :] rho^{-1}[:, :t], and rho^{-1} is symmetric
            rho = materialize_metric_root(solve_metric(P, z), r, 1, rows=t, cols=120)
            rho_inv = materialize_metric_root(solve_metric(P, z), r, -1, rows=t, cols=120)
            prod = rho @ rho_inv.T
            assert np.abs(prod - np.eye(t)).max() < 1e-11, z

    def test_rows_match_full(self):
        # a block is the leading part of any wider block, for both
        # orderings (z > 0: eps < 0, z < 0: eps > 0), the three powers
        # and the diagonal metric at z = 0; the wide block's sums run on
        # to N, and its products are blocked differently
        for desc in KINDS:
            r, implied = from_descriptor(desc, 300)
            p = implied if implied is not None else P
            rows = 40 + r.band
            for z in Z_GRID:
                if not is_admissible(p, z):
                    continue
                for sign in (-1, 1, 2):
                    wide = materialize_metric_root(solve_metric(p, z), r, sign, rows=rows,
                                                   cols=300)
                    got = materialize_metric_root(solve_metric(p, z), r, sign, rows=rows)
                    assert got.shape == (rows, rows)
                    assert np.all(np.abs(got - wide[:, :rows])
                                  <= 1e-14 * np.abs(wide[:, :rows])), \
                        (desc, z, sign)
            if not is_admissible(p, 0.0):
                continue
            # at z = 0 the block is exp(+-2 eps K0) from the shortcut
            sol = solve_metric(p, 0.0)
            for sign in (1, -1):
                want = np.diag(np.exp(2.0 * sign * sol.epsilon * r.k0_diag))[:rows, :rows]
                got = materialize_metric_root(sol, r, sign, rows=rows)
                assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), \
                    (desc, sign)

    def test_symmetry(self):
        r = discrete_series(0.25, 80)
        for z in Z_GRID:
            blk = materialize_metric_root(solve_metric(P, z), r, 1, rows=30)
            assert np.abs(blk - blk.T).max() <= 1e-13 * np.abs(blk).max()

    def test_matches_dense_route(self):
        # the S M S blocks against the dense ordered product over all N
        # states, for every realization kind, both orderings and
        # rho^{-1}, rho and zeta_+
        worst = 0.0
        for desc in KINDS:
            r, implied = from_descriptor(desc, 200)
            p = implied if implied is not None else P
            # the premise of the antinormal tail bound: K+ <= K0 + 1/2
            assert np.all(r.kp_band <= r.k0_diag[:-r.band] + 0.5), desc
            rows = 20 + r.band
            for z in (-0.8, -0.4, 0.4, 0.8):
                if not is_admissible(p, z):
                    continue
                for sign in (-1, 1, 2):
                    got = materialize_metric_root(solve_metric(p, z), r, sign, rows=rows)
                    want = metric_power_dense(p, z, r, sign, rows)[:, :rows]
                    zero = want == 0.0
                    assert np.array_equal(got[zero], want[zero])
                    rel = np.abs(got - want)[~zero] / np.abs(want[~zero])
                    assert rel.max() <= 1e-14, (desc, z, sign, rel.max())
                    worst = max(worst, rel.max())
        assert worst > 0.0

    def test_matches_mpmath(self):
        # one block per ordering against 50-digit sums: z = 0.4 gives
        # eps < 0 (normal), z = -0.4 eps > 0 (antinormal)
        r = discrete_series(0.25, 120)
        for z in (0.4, -0.4):
            sol = solve_metric(P, z)
            for sign in (1, 2):
                got = materialize_metric_root(sol, r, sign, rows=21)
                want = metric_power_mp(sign * sol.epsilon, z, 0.25, 21, 120)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), \
                    (z, sign)

    def test_columns_past_rows(self):
        # in the antinormal ordering the columns past `rows` need more
        # terms than the rows' own entries: with room for them they match
        # the square block's leading rows, and where their count does not
        # fit in the N states (cols = N) they are the sums over all N
        # states that the dense product forms
        for desc in KINDS:
            r, implied = from_descriptor(desc, 400)
            p = implied if implied is not None else P
            rows = 10 + r.band
            for z in (-0.8, -0.4, 0.4, 0.8):
                if not is_admissible(p, z):
                    continue
                sol = solve_metric(p, z)
                for sign in (-1, 1, 2):
                    if sol.epsilon * sign <= 0.0:
                        continue
                    wide = materialize_metric_root(sol, r, sign, rows=rows, cols=120)
                    want = materialize_metric_root(sol, r, sign, rows=120)
                    assert np.all(np.abs(wide - want[:rows])
                                  <= 1e-14 * np.abs(want[:rows])), \
                        (desc, z, sign)
                    # the dense route loses |q k0| ulps in e^{q k0} far out,
                    # and the two underflow at different points
                    full = materialize_metric_root(solve_metric(p, z), r, sign, rows=rows,
                                                   cols=400)
                    with np.errstate(over="ignore"):
                        want = metric_power_dense(p, z, r, sign, rows)
                    assert np.isfinite(full).all(), (desc, z, sign)
                    assert np.all(np.abs(full - want)
                                  <= 1e-12 * np.abs(want) + 1e-280), \
                        (desc, z, sign)


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


def eigvec_residuals(bundle, count=5):
    """|((H - lambda) phi)[:T]| / |phi[:T]| for h's lowest `count` pairs
    (all N if more are asked), transported to H: the similarity
    H = rho^{-1} h rho carries each eigenvector psi of h to phi = rho^{-1} psi
    of H with the same eigenvalue.

    psi and lambda are the oracle's (chain_spectrum: every chain bisected
    whole by LAPACK), so they share no code with the solver; rho^{-1} is
    the program's kernel (materialize_metric_root, sign -1) and H acts by
    realizations.apply.  H vanishes outside its band, so only phi[:R],
    R = T + band, is read, and of rho^{-1} only the R rows and the columns
    up to the last state a retained component of psi reaches are formed;
    columns whose antinormal sums do not complete within the N states are
    summed to N, not made inf.  Components of psi below the eigensolver's
    noise floor are zeroed first: they carry no information and rho^{-1}
    can amplify them exponentially.  A pair whose phi[:R] or residual is
    not finite gets inf, never NaN."""
    mats, t = bundle.realization, bundle.trusted
    r = min(t + mats.band, mats.dim)
    sol = bundle.solution
    w, q = chain_spectrum(AlgebraElement(sol.c0, sol.c, sol.c), mats, count)
    psi = np.where(np.abs(q) < mats.dim * np.finfo(float).eps
                   * np.abs(q).max(axis=0), 0.0, q)
    cols = int(np.flatnonzero(psi.any(axis=1)).max(initial=0)) + 1
    # inf * 0 in the rows of rho^{-1} or in phi gives NaN; such a pair is inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        rho_inv = materialize_metric_root(sol, mats, sign=-1, rows=r, cols=cols)
        phi = rho_inv @ psi[:cols]
        num = np.linalg.norm(apply(swanson_element(sol.params), mats, phi)[:t]
                             - w * phi[:t], axis=0)
        den = np.linalg.norm(phi[:t], axis=0)
    finite = np.isfinite(phi).all(axis=0) & np.isfinite(num) & np.isfinite(den)
    return np.divide(num, den, out=np.full(w.size, np.inf), where=finite & (den > 0.0))


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

    def test_metric_positive_definite(self):
        r = discrete_series(0.25, 200)
        for z in Z_GRID:
            rows = materialize_metric_root(solve_metric(P, z), r, rows=50, cols=200)
            assert metric_block_definite(rows) > 0.0

    def test_h_direct_exactly_symmetric(self):
        # the eigensolvers read cm alone, so h must have cm == cp exactly
        sol = solve_metric(P, 0.4)
        h = materialize(AlgebraElement(sol.c0, sol.c, sol.c), discrete_series(0.25, 200))
        assert np.array_equal(h, h.T)

    def test_truncation_guard(self):
        r = discrete_series(0.25, 20)
        with pytest.raises(TruncationTooSmall):
            build_bundle(solve_metric(P, 0.0), r, trusted=20)
        with pytest.raises(TruncationTooSmall):
            build_bundle(solve_metric(P, 0.0), r, trusted=1)

    def test_inadmissible_z(self):
        r = discrete_series(0.25, 20)
        with pytest.raises(ZOutOfDomain):
            build_bundle(solve_metric(P, 0.3), r, trusted=5)

    def test_convergence_in_dimension(self):
        # doubling the basis leaves every residual below threshold
        for z in (-0.4, 0.8):
            small = build_bundle(solve_metric(P, z), discrete_series(0.25, 200), trusted=50)
            large = build_bundle(solve_metric(P, z), discrete_series(0.25, 400), trusted=50)
            for name in small.residuals:
                assert (large.residuals[name] <= small.residuals[name]
                        or large.residuals[name] < 1e-6)

    def test_power_base_matrix_form(self, bundles):
        # rho equals the power of the observable on the trusted block
        r = discrete_series(0.25, 200)
        for z in Z_GRID:
            b = bundles(k=0.25, z=z)
            lam = solve_metric(P, z).lambda_base
            scale = math.log(lam) / (4.0 * math.sqrt(1.0 - z * z))
            o_mat = materialize(commuting_observable(z), r)
            alt = exp_symmetric(o_mat, scale)
            t = b.trusted
            num = np.linalg.norm(b.rho[:t, :t] - alt[:t, :t], 2)
            assert num <= 1e-9 * np.linalg.norm(b.rho[:t, :t], 2)

    def test_eigvec_certificates(self, bundles):
        # the transported eigenvectors certify the nonsymmetric operator
        # wherever the metric's dynamic range is representable
        for z in (-0.8, 0.0, 0.8):
            res = eigvec_residuals(bundles(k=0.25, z=z), count=5)
            assert res.max() <= 1e-5

    def test_block_products_match_full(self):
        # build_bundle contracts each residual product from the R x R
        # blocks it keeps; its residuals must equal those of the full N x N
        # products, formed here from the dense ordered product and the
        # dense generators, not from the bundle's fields
        t, z = 30, 0.4
        for desc in ("oscillator:parity=full",
                     "multiboson:l=3,residues=0.25,0.5,0.75"):
            r, _ = from_descriptor(desc, 120)
            sol = solve_metric(P, z)
            b = build_bundle(sol, r, trusted=t)
            rho = metric_power_dense(P, z, r)
            zeta = rho @ rho
            h = materialize(swanson_element(P), r)
            o = materialize(commuting_observable(z), r)
            h_direct = materialize(AlgebraElement(sol.c0, sol.c, sol.c), r)
            for name, (lhs, rhs) in (
                    ("r_intertwine", (h_direct @ rho, rho @ h)),
                    ("r_quasi", (zeta @ h, h.T @ zeta)),
                    ("r_commute", (rho @ o, o @ rho))):
                want = (spectral_norm((lhs - rhs)[:t, :t])
                        / max(spectral_norm(lhs[:t, :t]), spectral_norm(rhs[:t, :t])))
                assert np.isfinite(want)
                # residuals are already relative to the products' norms
                assert abs(b.residuals[name] - want) <= 1e-12, (desc, name)

    def test_metric_field_shapes(self):
        # rho and zeta_+ keep their leading R x R blocks, R = T + band
        t = 30
        for desc in ("discrete:k=0.25", "oscillator:parity=full",
                     "multiboson:l=3,residues=0.25,0.5,0.75"):
            r, _ = from_descriptor(desc, 120)
            for z in (-0.4, 0.0, 0.4):
                b = build_bundle(solve_metric(P, z), r, trusted=t)
                rows = t + r.band
                assert b.rho.shape == (rows, rows), (desc, z)
                assert b.zeta_plus.shape == (rows, rows), (desc, z)
                assert b.realization is r

    def test_strong_coupling_fields_finite(self):
        # at N = 400 the full rho^{-1} of this point is mostly inf and NaN;
        # the bundle keeps no such field, and every field it keeps is
        # finite (test_cli checks that verify passes here)
        b = build_bundle(solve_metric(STRONG, 0.77), discrete_series(0.25, 400), trusted=50)
        for f in dataclasses.fields(b):
            value = getattr(b, f.name)
            if isinstance(value, np.ndarray):
                assert np.isfinite(value).all(), f.name

    def test_eigvec_residuals_inf_not_nan(self):
        # the rows of rho^{-1} overflow here, so no transported vector is
        # finite; each pair reports inf, not NaN
        b = build_bundle(solve_metric(STRONG, 0.77), discrete_series(0.25, 400), trusted=50)
        res = eigvec_residuals(b, count=5)
        assert np.isposinf(res).all()

    def test_eigvec_residuals_count_above_dimension(self):
        # as for the spectrum, a count above N certifies all N pairs
        b = build_bundle(solve_metric(P, 0.4), discrete_series(0.25, 12), trusted=5)
        assert eigvec_residuals(b, count=13).shape == (12,)

    def test_banded_spectrum_matches_dense(self):
        certified = 0
        for desc in ("discrete:k=0.25", "oscillator:parity=full",
                     "oscillator:parity=odd",
                     "multiboson:l=3,residues=0.25,0.5,0.75", "radial:L=1",
                     "conformal:k=0.75,c=1"):
            r, implied = from_descriptor(desc, 60)
            p = implied if implied is not None else P
            sol = solve_metric(p, 0.6)
            b = build_bundle(sol, r, trusted=20)
            x = AlgebraElement(sol.c0, sol.c, sol.c)
            h = materialize(x, r)
            w = np.linalg.eigh(h)[0]
            assert np.abs(b.spectrum_h - w[:5]).max() <= 1e-12 * np.abs(w).max(), desc
            every = verification._low_eigs(x, r, 60)
            assert np.abs(every - w).max() <= 1e-12 * np.abs(w).max(), desc
            # the values come chain by chain; merged, they are the lowest of
            # the whole operator, and each chain's certified law is the
            # spectrum's bottom of its block of the whole operator
            for count in (7, 60):
                wv = verification._low_eigs(x, r, count)
                assert np.abs(wv - w[:count]).max() <= 1e-12 * np.abs(w).max()
                for ch in range(r.band):
                    k0 = r.k0_diag[ch::r.band]
                    want = min(count, k0.size)
                    law = verification._chain_bracket(sol.c0, sol.c, float(k0[0]),
                                                      k0.size, want)
                    if law is not None:
                        wc = np.linalg.eigvalsh(h[ch::r.band, ch::r.band])[:want]
                        assert np.abs(wc - law).max() <= 1e-12 * np.abs(w).max(), desc
                        certified += 1
        assert certified > 0

    def test_spectrum_count_edges(self):
        # a bundle holds e0 to e4, or all N levels where N is smaller; the
        # solve itself yields none at count 0, all N above N, and refuses a
        # negative count
        sol = solve_metric(P, 0.4)
        x = AlgebraElement(sol.c0, sol.c, sol.c)
        for n in (4, 10):
            r = discrete_series(0.25, n)
            w = np.linalg.eigh(materialize(x, r))[0]
            b = build_bundle(sol, r, trusted=2)
            assert b.spectrum_h.shape == (min(n, 5),)
            assert np.abs(b.spectrum_h - w[:5]).max() <= 1e-12 * np.abs(w).max()
        assert verification._low_eigs(x, r, 0).shape == (0,)
        every = verification._low_eigs(x, r, 12)
        assert every.shape == (10,)
        assert np.abs(every - w).max() <= 1e-12 * np.abs(w).max()
        with pytest.raises(InvalidParams):
            verification._low_eigs(x, r, -1)

    def test_negative_mu_is_refused(self):
        # an admissible z where mu < 0: h is minus an oscillator, and its
        # truncated spectrum depended on N (e0 = -4006.86 at N = 200,
        # -8136.13 at N = 400); the bundle is refused, as is h's solve
        p, z = SwansonParams(1.0, 0.7543218246483239, -2.6068268445611213), -0.99953
        assert is_admissible(p, z)
        sol = solve_metric(p, z)
        h = AlgebraElement(sol.c0, sol.c, sol.c)
        assert h.c0 < 0.0
        for n in (200, 400):
            with pytest.raises(InvalidParams, match="mu > 0"):
                build_bundle(sol, discrete_series(0.25, n))
            with pytest.raises(InvalidParams, match="mu > 0"):
                verification._low_eigs(h, discrete_series(0.25, n),
                                       verification.SPECTRUM_COUNT)

    def test_large_basis_without_dense_operators(self):
        # at N = 6400 one N x N matrix takes 328 MB; at z = 0, where the
        # metric root has no ladder factor, build_bundle, eigvec_residuals
        # and commutator_residuals form none, and the spectrum is that of
        # N = 800
        r = discrete_series(0.25, 6400)
        peaks = []
        tracemalloc.start()
        try:
            b = build_bundle(solve_metric(P, 0.0), r, trusted=50)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            certificates = eigvec_residuals(b, count=5)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            commutators = commutator_residuals(r, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) <= 16 * 2 ** 20, [m / 2 ** 20 for m in peaks]
        for name, tol in RESIDUAL_TOLS.items():
            assert b.residuals[name] <= tol, (name, b.residuals[name])
        assert certificates.max() <= 1e-5
        assert max(commutators.values()) < 1e-12
        small = build_bundle(solve_metric(P, 0.0), discrete_series(0.25, 800), trusted=50)
        assert np.all(np.abs(b.spectrum_h - small.spectrum_h)
                      <= 1e-12 * np.abs(small.spectrum_h))

    def test_large_basis_at_nonzero_z(self):
        # at N = 6400 the ladder factor of the dense route overflowed (inf
        # rows of rho from N = 4800 at z = 0.4, a non-finite block from
        # N = 5600 at z = -0.4); the blocks need no N x N array, and the
        # residuals are those of N = 800
        r = discrete_series(0.25, 6400)
        for z in (0.4, -0.4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tracemalloc.start()
                try:
                    b = build_bundle(solve_metric(P, z), r, trusted=50)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak <= 2 * 2 ** 20, peak / 2 ** 20
            small = build_bundle(solve_metric(P, z), discrete_series(0.25, 800), trusted=50)
            for name, tol in RESIDUAL_TOLS.items():
                assert b.residuals[name] <= tol, (z, name, b.residuals[name])
                assert b.residuals[name] == small.residuals[name], (z, name)
            argv = ["verify", "--omega", "1", "--alpha", "0.2", "--beta",
                    "0.1", "--z", repr(z), "--size", "6400"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(argv) == 0

    def test_spectrum_independent_of_dimension(self):
        # the spectrum is read from the leading states of each chain, so
        # at N = 102 400 build_bundle forms nothing of size N and gives the
        # levels of N = 800 (these differed by 1 ulp when the whole chain
        # was bisected); verify at that size passes
        big = discrete_series(0.25, 102400)
        for z in (0.4, -0.4):
            tracemalloc.start()
            try:
                b = build_bundle(solve_metric(P, z), big, trusted=50)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 ** 20, peak / 2 ** 20
            small = build_bundle(solve_metric(P, z), discrete_series(0.25, 800), trusted=50)
            assert np.all(np.abs(b.spectrum_h - small.spectrum_h)
                          <= 4 * np.spacing(small.spectrum_h)), z
            assert main(["verify", "--omega", "1", "--alpha", "0.2", "--beta",
                         "0.1", "--z", repr(z), "--size", "102400"]) == 0

    def test_oscillator_realization_bundle(self):
        from su11metric import oscillator_full
        sol = solve_metric(P, 0.4)
        b = build_bundle(sol, oscillator_full(200), trusted=50)
        assert max(b.residuals.values()) <= 1e-6
        expect = math.sqrt(0.92) * (np.arange(6) + 0.5)
        assert np.abs(b.spectrum_h - expect[:5]).max() <= 1e-6
        w = verification._low_eigs(AlgebraElement(sol.c0, sol.c, sol.c),
                                   oscillator_full(200), 6)
        assert np.abs(w - expect).max() <= 1e-6


class TestZetaSeriesWall:
    # in the antinormal ordering the entries of exp(sA) are series whose
    # terms shrink like p^2 e^q; for zeta_+ = exp(2A) that ratio is 1 at
    # z = 2 beta / omega, where the matrix elements do not exist

    def test_base_row_at_two_beta_over_omega(self, capsys):
        assert verification._ordered_metric(solve_metric(P, 0.2), 1)[2] ** 2 \
            == pytest.approx(0.083, abs=1e-3)
        for n in (200, 400, 800):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                b = build_bundle(solve_metric(P, 0.2), discrete_series(0.25, n), trusted=50)
                rc = main(["verify", "--omega", "1", "--alpha", "0.2",
                           "--beta", "0.1", "--z", "0.2", "--size", str(n)])
            assert np.isposinf(b.zeta_plus).all(), n
            assert b.residuals["r_quasi"] == np.inf, n
            for name in ("r_intertwine", "r_commute"):
                assert b.residuals[name] <= RESIDUAL_TOLS[name], (n, name)
            assert rc == 1
            assert "r_quasi       inf  [FAIL" in capsys.readouterr().out

    def test_ratio_is_one_at_the_wall(self):
        # the closed-form ratio c^2 = p^2 e^q of exp(2A) against the Gauss
        # factors of its 50-digit 2 x 2 exponential, on random parameters
        rng = np.random.default_rng(67)
        checked = 0
        while checked < 6:
            omega = rng.uniform(0.5, 2.0)
            alpha, beta = omega * rng.uniform(-1.0, 1.0, size=2)
            p = SwansonParams(omega, alpha, beta)
            z = 2.0 * beta / omega
            if (alpha == beta or omega ** 2 <= 4.0 * alpha * beta
                    or abs(z) >= 0.99 or not is_admissible(p, z)):
                continue
            sol = solve_metric(p, z)
            eps = 2.0 * sol.epsilon
            antinormal, q, c = verification._ordered_metric(sol, 2)
            assert antinormal, (p, z)     # eps > 0 on the wall
            with mp.workdps(50):
                e, eta = mp.mpf(eps), mp.mpf(z) * mp.mpf(eps) / 2
                g = mp.expm(mp.matrix([[e, 2 * eta], [-2 * eta, -e]]))
                # antinormal Gauss factors: p = g01 / g00, e^{q/2} = g00
                ratio = (g[0, 1] / g[0, 0]) ** 2 * g[0, 0] ** 2
                assert abs(c * c - ratio) <= 1e-12, (p, z)
                assert abs(ratio - 1) <= 1e-12, (p, z)
            # no count of terms completes the series: the block is inf
            block = materialize_metric_root(solve_metric(p, z), discrete_series(0.25, 400),
                                            2, rows=10)
            assert np.isposinf(block).all(), (p, z)
            checked += 1


def _mu_sign(p, z):
    """The sign of mu, the weight of (2 K0 - K+ - K-) in 2 omega h, from
    50 digits."""
    return mp.sign(metric_family_mp(p, z)["mu"])


def _stability_roots(omega, alpha, beta):
    """The stability roots, between which z is inadmissible, from 50 digits."""
    return tuple(float(r) for r in stability_roots_mp(SwansonParams(omega, alpha, beta)))


@st.composite
def admissible_points(draw):
    """Valid (omega, alpha, beta) with alpha / omega and beta / omega zero
    or of magnitude 1e-100..5, and an admissible z, drawn uniformly,
    1e-12..1e-3 beyond a stability root, or 0..1e-3 inside |z| = 1."""
    omega = draw(st.floats(0.1, 10.0))
    ratio = st.floats(-5.0, 5.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)
    a = draw(ratio)
    b = draw(ratio)
    alpha, beta = a * omega, b * omega
    assume(alpha != beta and omega * omega - 4.0 * alpha * beta > 0.0)
    lo, hi = _stability_roots(omega, alpha, beta)
    near = draw(st.sampled_from(("uniform", "low root", "high root", "edge")))
    offset = 10.0 ** draw(st.floats(-12.0, -3.0))
    if near == "low root" and lo > -1.0:
        z = lo - offset
    elif near == "high root" and hi < 1.0:
        z = hi + offset
    elif near == "edge":
        z = draw(st.sampled_from((-1.0, 1.0))) * (1.0 - draw(st.sampled_from((0.0, offset))))
    else:
        z = draw(st.floats(-1.0, 1.0))
    p = SwansonParams(omega, alpha, beta)
    assume(min(abs(z - lo), abs(z - hi)) >= 1e-12 and is_admissible(p, z))
    return p, z


# The largest singular value LAPACK gives for a 50 x 50 residual block was
# up to 13 ulps off a 40-digit solve (a chain's 25 x 25 block: 4), so two
# ways of taking a norm ratio agree to about 11 ulps, not to one.
SVD_ULPS = 16
# (realization, T): the z0 workload's five at T = 50, and a band past T
CHAIN_CASES = [*((desc, 50) for desc in KINDS[:5]), (BAND_12, 10)]


class TestCoefficientResiduals:
    def test_unused_ordering_pivot_vanishes(self):
        # at these z the ordering that is not materialized has a zero
        # pivot; only the decaying one may be checked.  Each z is the double
        # nearest the 50-digit zero of that pivot (P's was one ulp above
        # it, where the pivot is 1.5e-14, found with an eps 1.2e-14 off)
        for p, z in ((P, 0.39230484541326377), (STRONG, 0.7787192621510003)):
            sol = solve_metric(p, z)
            with pytest.raises(DecompositionSingular):
                disentangle_closed_form(sol.epsilon, sol.eta)
            for n in (60, 200):
                b = build_bundle(sol, discrete_series(0.25, n), trusted=50)
                for name, tol in RESIDUAL_TOLS.items():
                    assert b.residuals[name] <= tol, (p, z, n, name)

    def test_r_herm_detects_a_wrong_exponent(self):
        # the record's adjoint form at an exponent 1e-4 off
        sol = solve_metric(STRONG, 0.77)
        eps = (1.0 + 1e-4) * sol.epsilon
        u, v, w = (x.real for x in conjugated_coeffs(STRONG, eps, 0.77 * eps / 2.0))
        b = build_bundle(sol._replace(u=u, v=v, w=w), discrete_series(0.25, 30), trusted=10)
        assert b.residuals["r_herm"] > RESIDUAL_TOLS["r_herm"]

    def test_r_eq10_detects_a_wrong_hermitian_equivalent(self):
        sol = solve_metric(STRONG, 0.77)
        b = build_bundle(sol._replace(c0=sol.c0 + 1e-6), discrete_series(0.25, 30), trusted=10)
        assert b.residuals["r_eq10"] > RESIDUAL_TOLS["r_eq10"]

    def test_overflow_in_a_metric_block_is_inf(self, monkeypatch):
        # the blocks hold only the R = T + band columns the products read,
        # so an overflow even in the last column of rho and zeta_+ reaches
        # every matrix residual
        exact = verification.materialize_metric_root

        def overflowing(*args, **kwargs):
            rows = exact(*args, **kwargs)
            rows[0, -1] = np.inf
            return rows
        monkeypatch.setattr(verification, "materialize_metric_root", overflowing)
        b = build_bundle(solve_metric(P, 0.4), discrete_series(0.25, 30), trusted=10)
        for name in ("r_intertwine", "r_quasi", "r_commute"):
            assert b.residuals[name] == np.inf, name

    def test_relative_residuals_over_lhs_by_chain(self):
        # each residual is |lhs - rhs| / |lhs|, bit for bit the norms of
        # its own SVDs at band 1, and within the symmetric residual's
        # bracket [r, r / (1 - r)]; a non-finite entry in the difference or
        # in an operand reads inf; so does a vanishing lhs, whether or not
        # the difference vanishes: for admissible input no lhs is zero in
        # exact arithmetic, so a zero one underflowed and compares nothing
        rng = np.random.default_rng(11)
        a, e = rng.normal(size=(2, 12, 12))
        b = a + 0.1 * e
        nan, inf, zero = a.copy(), np.full((12, 12), np.inf), np.zeros((12, 12))
        nan[3, 4] = np.nan
        tiny = zero.copy()
        tiny[2, 5] = 1e-300
        got = verification._relative_residuals(
            {"plain": (a, b), "swapped": (b, a), "nan": (nan, b), "inf": (a, inf),
             "zero": (zero, zero), "same": (a, a), "zero lhs": (zero, tiny)}, 10, 1)
        d, na, nb = (spectral_norm(m[:10, :10]) for m in (a - b, a, b))
        assert got["plain"] == d / na and got["swapped"] == d / nb
        old = d / max(na, nb)
        assert 0.0 < old < 1.0 and na != nb
        for name in ("plain", "swapped"):
            assert old <= got[name] <= old / (1.0 - old), name
        assert got["nan"] == got["inf"] == math.inf
        assert got["same"] == 0.0
        assert got["zero"] == got["zero lhs"] == math.inf

        # on blocks that are block-diagonal over the chains of band 2 and
        # 3, the largest chain norm is the whole block's
        i = np.arange(12)
        for band in (2, 3):
            chains = (i[:, None] - i) % band == 0
            got = verification._relative_residuals(
                {"chains": (a * chains, b * chains)}, 10, band)["chains"]
            want = (spectral_norm(((a - b) * chains)[:10, :10])
                    / spectral_norm((a * chains)[:10, :10]))
            assert abs(got - want) <= SVD_ULPS * np.spacing(want), band

    def test_matrix_residuals_bracket_the_whole_block_norms(self, monkeypatch):
        # each matrix residual of build_bundle lies in [r, r / (1 - r)] of
        # the symmetric r, taken here with whole T x T SVDs of the same
        # products, for the z0 workload's realizations and a band past T
        taken = []
        exact = verification._relative_residuals
        monkeypatch.setattr(verification, "_relative_residuals",
                            lambda products, t, band: taken.append(products)
                            or exact(products, t, band))
        for desc, t in CHAIN_CASES:
            r, _ = from_descriptor(desc, 200)
            for z in (0.0, 0.4):
                taken.clear()
                b = build_bundle(solve_metric(P, z), r, trusted=t)
                for name, (lhs, rhs) in taken[0].items():
                    d, nl, nr = (spectral_norm(m[:t, :t]) for m in (lhs - rhs, lhs, rhs))
                    old, got = d / max(nl, nr), b.residuals[name]
                    slack = SVD_ULPS * np.spacing(old)
                    assert old - slack <= got <= old / (1.0 - old) + slack, (desc, z, name)

    def test_six_chain_blocks_per_chain(self, monkeypatch):
        # the norms come from SVDs of the chains' blocks: six per chain
        # (lhs - rhs and lhs of three products), none past ceil(T / band)
        shapes = []
        svd = np.linalg.svd
        monkeypatch.setattr(verification.np.linalg, "svd",
                            lambda a, *args, **kwargs: shapes.append(a.shape)
                            or svd(a, *args, **kwargs))
        for desc, t in CHAIN_CASES:
            r, _ = from_descriptor(desc, 200)
            for z in (0.0, 0.4):
                shapes.clear()
                build_bundle(solve_metric(P, z), r, trusted=t)
                side = -(-t // r.band)
                assert sum(s[0] for s in shapes) == 6 * min(r.band, t), (desc, z, shapes)
                assert all(s[1] == s[2] <= side for s in shapes), (desc, z, shapes)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(admissible_points())
    def test_within_tolerances_across_the_domain(self, point):
        # a point where mu <= 0 is refused, one where mu > 0 checked
        p, z = point
        if _mu_sign(p, z) <= 0:
            with pytest.raises(InvalidParams, match="mu > 0"):
                build_bundle(solve_metric(p, z), discrete_series(0.25, 8), trusted=4)
            return
        b = build_bundle(solve_metric(p, z), discrete_series(0.25, 8), trusted=4)
        assert b.residuals["r_herm"] <= RESIDUAL_TOLS["r_herm"]
        assert b.residuals["r_eq10"] <= RESIDUAL_TOLS["r_eq10"]
