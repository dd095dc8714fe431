import ast
import os
import subprocess
import sys
import warnings
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from su11metric import (AlgebraElement, NoConvergence, SwansonParams, cli,
                        discrete_series, pdm, solve_metric, spectrum_prediction,
                        verification)
from su11metric.cli import RESIDUAL_TOLS, SWEEP_COLUMNS, main

from oracles import metric_family_mp
from test_metric import RECORD_READINGS


# an admissible z-domain piece, z in (-1, -0.9645), where mu < 0
NEGATIVE_MU = ("--omega", "1", "--alpha", "0.7543218246483239",
               "--beta", "-2.6068268445611213")


def run_cli(capture, *argv):
    # capture: pytest's capsys, or capfd where C code may print
    code = main(list(argv))
    captured = capture.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    rows = {}
    for line in text.strip().splitlines():
        name, _, value = line.partition("  ")
        rows[name.strip()] = value.strip()
    return rows


class TestMetricCommand:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1", "--z", "0")
        assert code == 0
        rows = parse_table(out)
        assert abs(float(rows["epsilon"]) - 0.1732868) < 1e-6
        assert abs(float(rows["mu"]) - 0.7171573) < 1e-6
        assert abs(float(rows["nu"]) - 1.2828427) < 1e-6
        assert abs(float(rows["mu_nu_product"]) - 0.92) < 1e-10

    @pytest.mark.parametrize("z", ["1", "-1"])
    def test_endpoint_full_report(self, capsys, z):
        # |z| = 1 gets the rows of every other z; each prints the limit of
        # the textbook forms, taken 1e-40 inside to 80 digits (lambda 1)
        code, out, _ = run_cli(capsys, "metric", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1", f"--z={z}")
        assert code == 0
        rows = parse_table(out)
        want = metric_family_mp(SwansonParams(1.0, 0.2, 0.1), float(z))
        for name in ("epsilon", "lam", "mu", "nu"):
            assert rows["lambda" if name == "lam" else name] == f"{float(want[name]):.12g}"
        assert rows["V"] == rows["W"]

    @pytest.mark.parametrize("z", ["0.9999999995", "-0.9999999999", "1"])
    def test_theta_at_the_edge(self, capsys, z):
        # theta = |eps| sqrt(1 - z^2) is 2.3e-6 at the first z, not 0 (0
        # only at |z| = 1), from the exact 1 - z^2
        code, out, _ = run_cli(capsys, "metric", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--z", z)
        assert code == 0
        rows = parse_table(out)
        with mp.workdps(50):
            w, a, b, zz = (mp.mpf(v) for v in (1.0, 0.2, 0.1, float(z)))
            q = 1 - zz * zz
            den = a + b - w * zz
            eps = ((a - b) / (2 * den) if q == 0
                   else mp.atanh((a - b) * mp.sqrt(q) / den) / (2 * mp.sqrt(q)))
            assert rows["epsilon"] == f"{float(eps):.12g}"
            assert rows["theta"] == f"{float(abs(eps) * mp.sqrt(q)):.12g}"

    @pytest.mark.parametrize("flags, z", [
        (("--omega", "1", "--alpha", "-2.003654464483188",
          "--beta", "3.003956316645997"), "0.9999999981864903"),
        (("--omega", "1", "--alpha", "0.8215410721214909",
          "--beta", "-1.822265625"), "-0.9999999624443531")])
    def test_epsilon_next_to_a_root(self, capsys, flags, z):
        # z is 3.3e-12 from a root 1.8e-9 inside z = 1, and next to a root
        # 3.8e-8 inside z = -1: eps was 7.2e-7 and 1.4e-6 off (printed
        # -31983.9139109 and -10348.2959165); it prints its 60-digit value
        code, out, _ = run_cli(capsys, "metric", *flags, f"--z={z}")
        assert code == 0
        eps = metric_family_mp(SwansonParams(*map(float, flags[1::2])), float(z), 60)["epsilon"]
        assert parse_table(out)["epsilon"] == f"{float(eps):.12g}"

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1",
                               "--z", "0", "--output", "csv")
        assert code == 0
        assert out.startswith("quantity,value\n")
        assert out.endswith("\n")

    def test_arctanh_argument_rounding_to_one(self, capsys):
        # (alpha - beta) / (alpha + beta) rounds to 1 at beta = 1e-18
        code, out, _ = run_cli(capsys, "metric", "--omega", "1", "--alpha", "1",
                               "--beta", "1e-18", "--z", "0")
        assert code == 0
        rows = parse_table(out)
        assert abs(float(rows["epsilon"]) - 10.3616329185) < 1e-9
        assert abs(float(rows["lambda"]) - 1e18) < 1e6

    def test_weight_out_of_range_named(self, capsys):
        # mu = -1.1e315 is no double: its (1 + z) omega underflowed to 0,
        # a ZeroDivisionError traceback (exit 1); it is refused by name
        code, out, err = run_cli(capsys, "metric", "--omega", "5e-324", "--alpha", "1e-09",
                                 "--beta=-0.20635540602258096", "--z=-0.5756502923476372")
        assert (code, out) == (2, "")
        assert err.startswith("error: mu is not a finite double") and err.count("\n") == 1

    def test_large_weight_is_finite(self, capsys):
        # nu = 1e300 is a double, but omega (1 + z) gap = 1.9e450 is not, and
        # nu printed inf: the weights divide before they scale by omega
        code, out, _ = run_cli(capsys, "metric", "--omega", "1e150", "--alpha", "353.4",
                               "--beta", "0.93", "--z", "0.9")
        assert code == 0
        rows = parse_table(out)
        want = metric_family_mp(SwansonParams(1e150, 353.4, 0.93), 0.9)
        for name in ("mu", "nu"):
            assert rows[name] == f"{float(want[name]):.12g}", (name, rows[name])
        assert rows["mu_nu_product"] == "1e+300"

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "metric", "--omega", "1")
        assert code == 2
        assert "alpha" in err and "beta" in err


class TestValidateCommand:
    def test_valid(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1")
        assert code == 0
        assert "valid" in out

    def test_equal_couplings_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--omega", "1",
                               "--alpha", "0.3", "--beta", "0.3")
        assert code == 2
        assert "alpha" in err and "beta" in err

    def test_gap_violation_named(self, capsys):
        code, _, err = run_cli(capsys, "validate", "--omega", "1",
                               "--alpha", "2", "--beta", "2.5")
        assert code == 2
        assert "4*alpha*beta" in err


class TestDisentangleCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "disentangle", "--epsilon", "1",
                               "--eta", "0.25")
        assert code == 0
        rows = parse_table(out)
        assert abs(float(rows["p"]) - 2.09792608856) < 1e-9
        assert abs(float(rows["q"]) - 2.62416108857) < 1e-9
        assert abs(float(rows["r_prime"]) - 0.22338076343) < 1e-9

    def test_trig_regime_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "disentangle", "--epsilon", "0.1",
                               "--eta", "1")
        assert code == 2
        assert "theta" in err

    @pytest.mark.parametrize("epsilon", ["1000", "-1000"])
    def test_past_the_cosh_overflow(self, capsys, epsilon):
        # theta = 1000 overflowed math.cosh; the pivots are taken times
        # e^-theta.  Against 50-digit values; p keeps all 12 printed digits
        # where cosh(theta) - |eps| sinh(theta)/theta cancels
        code, out, _ = run_cli(capsys, "disentangle", "--epsilon", epsilon,
                               "--eta", "0.1")
        assert code == 0
        rows = parse_table(out)
        big, small = ("p", "q_prime") if epsilon == "1000" else ("p_prime", "q")
        assert abs(float(rows[big]) + 9999.999899999999) <= 1e-8
        assert abs(abs(float(rows[small])) - 1999.9999600199996) <= 1e-11 * 2000.0
        assert "nan" not in out and "inf" not in out

    def test_larger_pivot_q_is_exact(self, capsys):
        # q = 2 theta = 2e-5 in both orderings; q_prime was 2 log of the
        # rounded pivot cosh(theta) + eps sinh(theta)/theta, 1.99999999998e-05
        code, out, _ = run_cli(capsys, "disentangle", "--epsilon", "1e-5", "--eta", "0")
        assert code == 0
        rows = parse_table(out)
        assert (rows["q"], rows["q_prime"]) == ("2e-05", "2e-05")

    def test_theta_squared_overflow_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "disentangle", "--epsilon", "1e300",
                                 "--eta", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: theta^2 = eps^2 - 4|eta|^2 overflows")


class TestSpectrumCommand:
    def test_values(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1",
                               "--k", "0.25", "--count", "2")
        assert code == 0
        rows = parse_table(out)
        assert abs(float(rows["e0"]) - 0.479583152331) < 1e-10
        assert abs(float(rows["e1"]) - 2.39791576166) < 1e-9


class TestVerifyCommand:
    def test_passing_point(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1", "--z", "0.4")
        assert code == 0
        assert "FAIL" not in out

    def test_strong_coupling_point(self, capsys):
        # strong non-Hermiticity near the domain edge, N = 200, T = 50
        code, out, _ = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "0.45", "--beta", "0.05", "--z", "0.77")
        assert code == 0
        assert "FAIL" not in out

    def test_arctanh_argument_rounding_to_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--omega", "1", "--alpha", "1",
                               "--beta", "1e-18", "--z", "0",
                               "--size", "20", "--trusted", "5")
        assert code == 0
        assert "FAIL" not in out

    def test_strong_coupling_point_large_basis(self, capsys):
        # at N = 400 the full rho^{-1} of this point overflows; the bundle
        # no longer forms it
        code, out, _ = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "0.45", "--beta", "0.05",
                               "--z", "0.77", "--size", "400")
        assert code == 0
        assert "FAIL" not in out

    def test_subnormal_theta_squared(self, capsys):
        # eps^2 and 4 eta^2 are subnormal here; eps^2 - 4|eta|^2 rounds to
        # -9.9e-324, which used to report "invalid parameters" (exit 2)
        code, out, _ = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "3.255295840272637e-160",
                               "--beta", "0", "--z=-0.999998366610381",
                               "--size", "20", "--trusted", "5")
        assert code == 0
        assert "FAIL" not in out

    def test_underflowing_epsilon_squared(self, capsys):
        # eps^2 underflows here; the conjugation and the disentangling used
        # to raise TrigRegime (exit 2) for this valid exponent
        code, out, _ = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "2.68e-158", "--beta", "0",
                               "--z=-0.99999999", "--size", "20",
                               "--trusted", "5")
        assert code == 0
        rows = parse_table(out)
        for name in RESIDUAL_TOLS:
            assert "[PASS" in rows[name], (name, rows[name])

    def test_metric_out_of_range_without_warnings(self, capsys):
        # eps = 10.36 puts e^{q k0} out of range at the default N = 200:
        # the diagonal metric root overflows to inf with no inf * 0, so the
        # run reports inf and FAIL and leaks no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli(capsys, "verify", "--omega", "1",
                                   "--alpha", "1", "--beta", "1e-18",
                                   "--z", "0")
        assert code == 1
        rows = parse_table(out)
        for name in ("r_intertwine", "r_quasi", "r_commute"):
            assert rows[name].startswith("inf  [FAIL"), (name, rows[name])

    def test_near_root_precision(self, capsys):
        # z = -1e-12 lies 1e-12 from the stability root z = 0 (alpha = 0),
        # with mu, nu > 0.  The stability polynomial is exact and c does not
        # cancel, so h's coefficients hold to rounding: r_herm, r_eq10 and
        # r_intertwine read 2.0e-20, 1.0e-20 and 1.1e-16 (they were 2.2e-14,
        # 4.2e-8 and 1.2e-7, c being 4.7e-3 off); h has the harmonic spectrum
        p = SwansonParams(0.03162277660168379, 0.0, 5.0)
        code, out, _ = run_cli(capsys, "verify", "--omega", repr(p.omega),
                               "--alpha", "0", "--beta", "5", "--z=-1e-12")
        assert code == 0
        rows = parse_table(out)
        for name in ("r_herm", "r_eq10", "r_intertwine"):
            assert float(rows[name].split()[0]) <= 1e-15, (name, rows[name])
        got = np.array([float(rows[f"e{i}"]) for i in range(5)])
        want = np.array(spectrum_prediction(p, 0.25, 5))
        assert np.all(np.abs(got - want) <= 1e-9 * want), (got, want)

    def test_near_parabolic_precision(self, capsys):
        # omega^2 - 4 alpha beta = 2e-11: mu, nu and c0 of the form picked by
        # the sign of z cancelled, r_eq10 read 5.1e-6 [FAIL] and r_intertwine
        # 2.8e-6 [FAIL]; the form picked by the sign of g t holds h to rounding
        code, out, _ = run_cli(capsys, "verify", "--omega", "1", "--alpha", "0.5",
                               "--beta", "0.49999999999", "--z", "0.3")
        assert code == 0
        rows = parse_table(out)
        for name in ("r_herm", "r_eq10", "r_intertwine"):
            assert float(rows[name].split()[0]) <= 1e-15, (name, rows[name])

    @pytest.mark.parametrize("k, underflowed", [
        ("1000", ("r_intertwine", "r_quasi", "r_commute")), ("300", ("r_quasi",))])
    def test_underflowed_block_fails(self, capsys, k, underflowed):
        # at a large lowest weight e^{q k0} underflows: at k = 1000 both
        # metric blocks are zeros, at k = 300 zeta_+ alone.  Each residual
        # that reads a zero lhs printed a vacuous 0 [PASS] and the run
        # exited 0; it now reads inf [FAIL], and the others still pass
        code, out, _ = run_cli(capsys, "verify", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--z", "0.4",
                               "--realization", f"discrete:k={k}")
        assert code == 1
        rows = parse_table(out)
        for name in RESIDUAL_TOLS:
            want = "inf  [FAIL" if name in underflowed else "[PASS"
            assert want in rows[name] and not rows[name].startswith("0 "), (name, rows[name])

    def test_truncation_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1",
                               "--z", "0", "--size", "50", "--trusted", "50")
        assert code == 3
        assert "trusted" in err

    def test_inadmissible_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1", "--z", "0.3")
        assert code == 2
        assert "admissible" in err

    @pytest.mark.parametrize("z", ["-0.9995320885425871", "-0.99999999995"])
    def test_negative_mu_exit_2(self, capsys, z):
        # admissible z where mu < 0, the second within 1e-9 of z = -1: h is
        # minus an oscillator, unbounded below, and its truncated spectrum
        # depends on N (e0 = -4006.86 at N = 200); the solve of h refuses
        # it before any metric block is formed, as pdm refuses the same point
        code, out, err = run_cli(capsys, "verify", *NEGATIVE_MU, f"--z={z}")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "mu > 0" in err


class TestNonFiniteInputs:
    # NaN compares false with everything, so a check written as
    # "refuse if x <= 0" lets it through; each of these printed nan (or
    # ended in scipy's traceback) before
    BASE = ("--omega", "1", "--alpha", "0.2", "--beta", "0.1")

    @pytest.mark.parametrize("argv", [
        ("verify", *BASE, "--z", "0.4", "--realization", "discrete:k=nan"),
        ("verify", *BASE, "--z", "0.4", "--realization", "discrete:k=inf"),
        ("verify", *BASE, "--z", "0.4", "--realization", "radial:L=nan"),
        ("verify", *BASE, "--z", "0.4", "--realization", "multiboson:l=2,residues=0.25,nan"),
        ("verify", *BASE, "--z", "0.4", "--realization", "discrete:k=0.25,k=0.75"),
        ("metric", *BASE, "--z", "nan"),
        # the stability polynomial, 4e400, overflowed with a traceback (exit 1)
        ("metric", "--omega", "1", "--alpha", "1e200", "--beta=-1e200", "--z", "0.1"),
        # omega^2 - 4 alpha beta is inf or past the doubles: "parameters
        # valid ... = inf" (exit 0), or an OverflowError traceback (exit 1)
        ("validate", "--omega", "inf", "--alpha", "0.18", "--beta", "1e-18"),
        ("validate", "--omega", "1e300", "--alpha", "-0.0", "--beta", "-0.24"),
        ("spectrum", "--omega", "1.7e308", "--alpha", "-6.5", "--beta", "-0.5",
         "--k", "0.0102", "--count", "50"),
        ("pdm", "--omega", "1.7e308", "--alpha", "-6.5", "--beta", "-0.5"),
        ("spectrum", *BASE, "--k", "nan"),
        ("spectrum", *BASE, "--k", "inf"),
        ("disentangle", "--epsilon", "nan", "--eta", "0.1"),
        ("disentangle", "--epsilon", "0.3", "--eta", "nan"),
        ("disentangle", "--epsilon", "inf", "--eta", "0.1"),
        ("disentangle", "--epsilon", "1", "--eta", "0.1", "--eta-im", "inf"),
        # a K+ entry past the doubles: an overflow RuntimeWarning, then
        # exit 3 from dstebz (or, for the multiboson, a traceback)
        ("verify", *BASE, "--z", "0.4", "--realization", "discrete:k=1e306"),
        ("verify", *BASE, "--z", "0.4", "--realization", "radial:L=1e306"),
        ("verify", *BASE, "--z", "0.4", "--realization", "conformal:k=1e306,c=1"),
        ("verify", *BASE, "--z", "0.4", "--realization", "multiboson:l=2,residues=0.25,1e306"),
    ])
    def test_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err

    @pytest.mark.parametrize("argv, message", [
        # |eta| of two finite parts overflowed abs(): an OverflowError
        # traceback (exit 1)
        (("disentangle", "--epsilon", "1", "--eta", "1.7e308", "--eta-im", "1.7e308"),
         "|eta| is not a finite double"),
        # printed e0 to e4 = inf (exit 0)
        (("spectrum", *BASE, "--k", "1.7e308"), "level e4 is not a finite double"),
        # np.linspace's RuntimeWarning came before the refusal
        (("sweep", *BASE, "--z-from", "0", "--z-to", "inf", "--steps", "3"),
         "z must lie in [-1, 1] (got z = inf)"),
        # well^2 (and the drift, which h does not read) overflowed with a
        # RuntimeWarning before the refusal
        (("pdm", *BASE, "--tau", "1e160"), "effective potential is not finite"),
        (("pdm", *BASE, "--tau", "1e300"), "effective potential is not finite"),
        (("pdm", *BASE, "--tau=-1.7e308"), "effective potential is not finite"),
        # P = 7.4e-332 > 0 rounded to 0: "z = 1 is inadmissible"
        (("metric", "--omega", "3.054936363499605e-151", "--alpha", "2.2912022726247035e-151",
          "--beta", "7.637340908749039e-152", "--z", "1"),
         "the stability polynomial at z = 1 is nonzero but rounds to 0 as a double"),
        # a gap of 2^-1080 rounded to 0: "must be positive (got 0)"
        (("validate", "--omega", "2.778448436856347e-163", "--alpha", "2.409919865102884e-181",
          "--beta", "1.204959932551442e-181"),
         "omega^2 - 4*alpha*beta is nonzero but rounds to 0 as a double"),
        # c0 K0 and K+ overflowed on h's chain: a RuntimeWarning, then a
        # ValueError traceback from the bisection's finiteness check (exit 1)
        (("verify", *BASE, "--z", "0.4", "--realization", "discrete:k=1e308"),
         "K+ overflows the doubles at lowest weight k = 1e+308, N = 200"),
        # finite bands whose diagonal c0 K0 overflows
        (("verify", "--omega", "1e150", "--alpha", "2e149", "--beta", "1e149", "--z", "0.4",
          "--realization", "discrete:k=1e160"),
         "h's diagonal overflows (c0 = 2.05714e+150, K0 up to 1e+160)"),
    ])
    def test_refused_by_name(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, err

    def test_rayleigh_norm_underflow_exit_3(self, capsys):
        # at s = 2.2e-97 the grid's diagonal is 6.78e192 throughout, and x.x
        # of a Rayleigh step underflowed to 0: a divide-by-zero RuntimeWarning
        code, out, err = run_cli(capsys, "pdm", *self.BASE, "--s", "2.174763340727069e-97")
        assert (code, out) == (3, "")
        assert err.startswith("error: the 500-point grid's lowest 3 eigenvalues cannot "
                              "be certified") and err.count("\n") == 1, err


class TestOneRefusal:
    """Every subcommand refuses an inadmissible z by the one message of
    metric._admissible, and a bad p before a bad z."""

    BASE = ("--omega", "1", "--alpha", "0.2", "--beta", "0.1")
    MESSAGE = ("error: z = 0.3 is inadmissible: |arctanh argument| >= 1 "
               "(alpha + beta - omega*z = 2.77556e-17)\n")

    @pytest.mark.parametrize("argv", [
        ("metric", *BASE, "--z", "0.3"),
        ("verify", *BASE, "--z", "0.3"),
        ("sweep", *BASE, "--z-from", "0.3", "--z-to", "0.3", "--steps", "1"),
        ("pdm", *BASE, "--z", "0.3"),
    ], ids=lambda argv: argv[0])
    def test_one_message(self, capsys, argv):
        assert run_cli(capsys, *argv) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("command", ["metric", "verify", "pdm"])
    def test_bad_omega_before_bad_z(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--omega", "nan", "--alpha", "0.2",
                                 "--beta", "0.1", "--z", "2")
        assert (code, out, err) == (2, "", "error: omega must be positive (got omega = nan)\n")


    @pytest.mark.parametrize("trusted", ["1", "20"])
    @pytest.mark.parametrize("argv", [
        ("verify", *BASE, "--z", "5"),
        ("sweep", *BASE, "--z-from", "0", "--z-to", "0.3", "--steps", "2"),
    ], ids=lambda argv: argv[0])
    def test_bad_trusted_before_bad_z(self, capsys, argv, trusted):
        # both commands refuse T outside 2 <= T < N before they solve any z
        assert run_cli(capsys, *argv, "--size", "20", "--trusted", trusted) == (
            3, "", f"error: need 2 <= trusted < size (got size = 20, trusted = {trusted})\n")

class TestSweepCommand:
    ARGS = ("sweep", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
            "--z-from", "-0.8", "--z-to", "0.8", "--steps", "9")

    def test_reference_sweep(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 10  # header + 9 rows
        zs, products = [], []
        for line in lines[1:]:
            cells = line.split(",")
            zs.append(float(cells[0]))
            products.append(float(cells[4]))
        assert zs == sorted(zs)
        assert np.allclose(zs, np.linspace(-0.8, 0.8, 9), atol=1e-12)
        assert np.abs(np.array(products) - 0.92).max() <= 1e-10
        # z = 0.2 sits so close to the inadmissible band that the metric
        # square overflows at this truncation; the run must say so
        assert code == 1

    def test_underflowed_blocks_fail(self, capsys):
        # at k = 1000 and z = 0.4 both metric blocks underflow to zeros: the
        # row's three matrix residuals read inf, not a vacuous 0, and the
        # sweep exits 1; the z = 0.6 row's blocks hold, and it passes
        code, out, _ = run_cli(capsys, "sweep", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--z-from", "0.4", "--z-to", "0.6",
                               "--steps", "2", "--realization", "discrete:k=1000")
        assert code == 1
        lines = out.strip().split("\n")
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [rows[0][name] for name in ("r_intertwine", "r_quasi", "r_commute")] \
            == ["inf"] * 3
        for name, tol in RESIDUAL_TOLS.items():
            assert 0.0 < float(rows[1][name]) <= tol, (name, rows[1][name])

    def test_byte_reproducible(self, capsys):
        _, first, _ = run_cli(capsys, *self.ARGS)
        _, second, _ = run_cli(capsys, *self.ARGS)
        assert first == second

    def test_clean_subrange_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--omega", "1", "--alpha",
                               "0.2", "--beta", "0.1", "--z-from", "-0.8",
                               "--z-to", "0", "--steps", "5")
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_negative_mu_exit_2(self, capsys):
        # every point of this range is admissible with mu < 0: the first
        # bundle is refused, and the sweep emits nothing
        code, out, err = run_cli(capsys, "sweep", *NEGATIVE_MU,
                                 "--z-from=-0.9995320885425871", "--z-to=-0.97",
                                 "--steps", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "mu > 0" in err

    def test_no_partial_output_on_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--omega", "1", "--alpha",
                                 "0.2", "--beta", "0.1", "--z-from", "0",
                                 "--z-to", "0.4", "--steps", "5")
        assert code == 2
        assert out == ""
        assert "admissible" in err

    def test_descending_range_emitted_ascending(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--omega", "1", "--alpha",
                               "0.2", "--beta", "0.1", "--z-from", "0",
                               "--z-to", "-0.4", "--steps", "3")
        assert code == 0
        zs = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        assert zs == sorted(zs)


class TestConfigFile:
    def test_config_provides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 1.0\nalpha = 0.2\nbeta = 0.1\nz = 0\n",
                       encoding="utf-8")
        code, out, _ = run_cli(capsys, "metric", "--config", str(cfg))
        assert code == 0
        assert abs(float(parse_table(out)["epsilon"]) - 0.1732868) < 1e-6

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 1.0\nalpha = 0.2\nbeta = 0.1\nz = 0\n",
                       encoding="utf-8")
        code, out, _ = run_cli(capsys, "metric", "--config", str(cfg),
                               "--z", "0.5")
        assert code == 0
        assert float(parse_table(out)["z"]) == 0.5

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "metric", "--config",
                               str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "config" in err

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega 1.0\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "metric", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err


    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    @pytest.mark.parametrize("spelling", [lambda path: ["--config", path],
                                          lambda path: [f"--config={path}"]],
                             ids=["space", "equals"])
    def test_config_spellings(self, capsys, tmp_path, spelling, before):
        # the file is read in both spellings, before or after the subcommand
        cfg = tmp_path / "c.cfg"
        cfg.write_text("z = 0.4\n", encoding="utf-8")
        command = ["metric", "--omega", "1", "--alpha", "0.2", "--beta", "0.1"]
        argv = spelling(str(cfg)) + command if before else command + spelling(str(cfg))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert float(parse_table(out)["z"]) == 0.4

class TestPdmCommand:
    def test_smoke_pass(self, capsys):
        code, out, _ = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--points", "800")
        assert code == 0
        rows = parse_table(out)
        assert rows["status"] == "PASS"
        assert float(rows["boundary_decay"]) <= 1e-8

    # the wall tests capture file descriptors 1 and 2 (capfd), so that a
    # print from LAPACK's own code reaches `out` or `err` and fails them

    def test_inconclusive_exit_1(self, capfd):
        # walls that cut the eigenfunctions
        code, out, err = run_cli(capfd, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--points", "400",
                                 "--x-min", "-2", "--x-max", "2")
        assert code == 1 and err == ""
        assert parse_table(out)["status"] == "INCONCLUSIVE"

    def test_fine_grid_anchor_passes(self, capsys):
        # ||T|| = 6.8e11 on this grid: a bisection to ulp*||T|| put e0 1.1e-4
        # off and failed the refinement check; the certified e0 is that of a
        # bisection to 2*tiny
        code, out, _ = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--z", "0", "--points", "8000")
        assert code == 0
        rows = parse_table(out)
        assert rows["convergence"] == "ok" and rows["status"] == "PASS"
        e0 = float(rows["e0"].split()[0])
        assert abs(e0 - 0.479582209874) <= 1e-10 * 0.479582209874

    @pytest.mark.parametrize("points", ["100", "200", "399", "400"])
    def test_refinement_levels_need_400_points(self, capsys, points):
        # below 400 points the levels points/4, points/2 and points would
        # repeat a 100-point grid or fall under it
        code, out, err = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--points", points)
        if points == "400":
            assert code == 0
            assert [name for name in parse_table(out) if name.startswith("refine_")] \
                == ["refine_100", "refine_200", "refine_400"]
        else:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "at least 400 grid points" in err

    def test_uncertified_grid_exit_3(self, capfd):
        # no level of this wide grid can be certified: a one-line typed
        # error naming the first such level, not a table of 1e115 noise
        code, out, err = run_cli(capfd, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--x-max", "300")
        assert code == 3 and out == ""
        assert err.startswith("error: the 500-point grid's lowest 3 eigenvalues "
                              "cannot be certified") and err.count("\n") == 1

    def test_wide_grid_reports_certified_values(self, capfd):
        # every level of this wide grid is certified; its finest values
        # (e0 = 0.4614) are the grid's own, under-resolved against the law.
        # e0 runs 0.318 -> 0.486 -> 0.461: its second change is under half
        # its first but turns back, so the levels have not converged
        code, out, err = run_cli(capfd, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--x-min", "-600")
        assert code == 1 and err == ""
        rows = parse_table(out)
        assert rows["convergence"] == "not ok" and rows["status"] == "FAIL"
        assert rows["refine_1000"].startswith("0.486")
        assert abs(float(rows["e0"].split()[0]) - 0.461372500292) <= 1e-10

    @pytest.mark.parametrize("flag", [("--s", "50"), ("--x-max", "2000"),
                                      ("--x-min", "-2000"), ("--x-max", "inf")])
    def test_overflowing_grid_exit_2(self, capfd, flag):
        # each of these overflowed an exp on the grid and printed numpy
        # RuntimeWarnings before the typed error; now the config is refused
        # before any exp (a leaked RuntimeWarning fails the suite)
        code, out, err = run_cli(capfd, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", *flag)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("z, reason", [
        ("nan", "z must lie in [-1, 1] (got z = nan)"),
        ("inf", "z must lie in [-1, 1] (got z = inf)"),
        ("2", "z must lie in [-1, 1] (got z = 2)"),
    ])
    def test_z_domain_names_its_wall(self, capsys, z, reason):
        # a z off [-1, 1] is refused as solve_metric refuses it
        code, out, err = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", f"--z={z}")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {reason}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("z", [-1.0, 1.0])
    def test_endpoint_runs_and_passes(self, capsys, z):
        # the grid's mass weights (mu omega, nu / omega) at |z| = 1 are the
        # limits of the textbook forms to 80 digits, and the check passes
        p = SwansonParams(1.0, 0.2, 0.1)
        code, out, _ = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", f"--z={z:g}")
        assert code == 0 and parse_table(out)["status"] == "PASS"
        want = metric_family_mp(p, z)
        sol = solve_metric(p, z)
        for got, ref in zip((sol.mu * p.omega, sol.nu / p.omega),
                            (want["mu"] * p.omega, want["nu"] / p.omega)):
            assert abs(got - ref) <= 1e-15 * abs(ref)

    def test_negative_mu_exit_2(self, capsys):
        # an admissible z where mu < 0: h is minus an oscillator and the
        # grid has no positive mass, so the check is refused
        code, out, err = run_cli(capsys, "pdm", *NEGATIVE_MU,
                                 "--z", "-0.9995320885425871")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "mu > 0" in err

    @pytest.mark.parametrize("x_max", ["500", "650", "700"])
    def test_unconverged_grid_exit_3(self, capfd, x_max):
        # the grid's terms fit in a double, but its diagonal spans more
        # than 200 orders of magnitude and the bisection gives up: a
        # one-line typed error that names the level and keeps LAPACK's
        # reason, not a LinAlgError traceback
        code, out, err = run_cli(capfd, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--x-max", x_max)
        assert code == 3 and out == ""
        assert err.startswith("error: the 500-point grid's lowest 3 eigenvalues "
                              "cannot be certified (its diagonal spans ")
        assert "LAPACK info=" in err and err.count("\n") == 1

    def test_failed_bisection_is_no_convergence(self, capfd, monkeypatch):
        # the chains and the grid share one bisection and its error path;
        # a near-parabolic element's chain is bisected (its law does not
        # hold to rounding in 100 states), and --x-max 300 certifies no
        # level, so the grid bisects.  The loader's dstebz reports that the
        # bisection did not converge
        def fail(d, e, *args):
            return 0, np.zeros_like(d), None, None, 3

        monkeypatch.setattr(verification, "_lapack", lambda: SimpleNamespace(dstebz=fail))
        failed = r"stebz \(eigh_tridiagonal\) did not converge \(LAPACK info=3\)"
        with pytest.raises(NoConvergence, match=failed):
            verification._low_eigs(AlgebraElement(1.0, 0.495, 0.495),
                                   discrete_series(0.25, 100), 3)
        # a non-finite seed certifies nothing, so the grid bisects
        p = SwansonParams(1.0, 0.2, 0.1)
        cfg, sol = pdm.PdmConfig(params=p, points=400), solve_metric(p, 0.0)
        with pytest.raises(NoConvergence, match=failed):
            pdm._grid_spectrum(cfg, (sol.mu * p.omega, sol.nu / p.omega), np.full(3, np.nan))
        code, out, err = run_cli(capfd, "pdm", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--x-max", "300")
        assert (code, out) == (3, "")
        assert err == ("error: the 500-point grid's lowest 3 eigenvalues cannot be "
                       "certified (its diagonal spans 0.447 to 4.17e+130): "
                       "tridiagonal eigensolve failed: stebz (eigh_tridiagonal) did not "
                       "converge (LAPACK info=3)\n")


class TestPublicApi:
    def test_names_pinned(self):
        # growing or shrinking the public API is a decision, made here
        import su11metric
        assert sorted(su11metric.__all__) == [
            "AlgebraElement", "DecompositionSingular", "Factorization",
            "InvalidParams", "MetricSolution", "NoConvergence",
            "OperatorBundle", "RealizationMatrices", "Su11MetricError",
            "SwansonParams", "TrigRegime", "TruncationTooSmall",
            "ZOutOfDomain", "__version__", "adjoint_matrix", "build_bundle",
            "commuting_observable", "conformal", "conjugate",
            "conjugated_coeffs", "discrete_series", "disentangle_closed_form",
            "from_descriptor", "is_admissible", "materialize_metric_root",
            "multiboson", "oscillator_full", "oscillator_sector", "radial",
            "solve_metric", "spectrum_prediction", "swanson_element",
            "validate_params", "z_domain"]
        for name in su11metric.__all__:
            assert hasattr(su11metric, name), name

    @pytest.mark.parametrize("name", sorted(RECORD_READINGS))
    def test_record_fields_have_no_wrappers(self, name):
        # solve_metric's record is the one public source of these fields
        with pytest.raises(ImportError):
            exec(f"from su11metric import {name}", {})


class TestImports:
    CLOSED_FORM = {
        "validate": ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"],
        "disentangle": ["--epsilon", "1", "--eta", "0.25"],
        "metric": ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--z", "0.4"],
        "spectrum": ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--k",
                     "0.25", "--count", "2"],
    }

    @staticmethod
    def _run(*args):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc

    @pytest.mark.parametrize("argv", [["-m", "su11metric", command, *flags]
                                      for command, flags in CLOSED_FORM.items()]
                             + [["-c", "import su11metric"]])
    def test_closed_form_launch_loads_no_numpy(self, argv):
        # -X importtime lists every module a fresh launch imports, one per
        # stderr line, its name after the last "|"
        proc = self._run("-X", "importtime", *argv)
        loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")]
        assert "su11metric" in loaded
        # nor fractions or decimal: the stability polynomial is exact in ints;
        # nor dataclasses or the inspect tree it imports: the algebra
        # layer's records are NamedTuples
        assert [m for m in loaded if m.split(".")[0]
                in ("numpy", "scipy", "fractions", "decimal", "dataclasses",
                    "inspect")] == []

    @pytest.mark.parametrize("realization", ["discrete:k=0.25", "oscillator:parity=full"])
    @pytest.mark.parametrize("command", [["verify", "--z", "0.4"],
                                         ["sweep", "--z-from=-0.8", "--z-to", "0",
                                          "--steps", "3"]])
    def test_verify_and_sweep_load_no_scipy(self, command, realization):
        # h is elliptic: its chains take the closed form, and their
        # certificates count in Python, so no bisection imports scipy
        proc = self._run("-X", "importtime", "-m", "su11metric", *command,
                         "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
                         "--realization", realization)
        loaded = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")]
        assert "numpy" in loaded
        assert [m for m in loaded if m.split(".")[0] == "scipy"] == []

    def test_closed_form_commands_skip_scipy(self):
        # the closed-form subcommands load the algebra layer alone; the
        # star import binds the matrix layer's names, and verify still runs
        script = f"""
import sys
import su11metric
from su11metric.cli import main
codes = [main([command] + flags) for command, flags in {self.CLOSED_FORM!r}.items()]
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
from su11metric import *
bound = all(name in globals() for name in su11metric.__all__)
base = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"]
print(codes, loaded, bound, main(["verify"] + base + ["--z", "0.4", "--size", "60",
                                                     "--trusted", "20"]),
      file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0] [] True 0"

    def test_matrix_layer_calls_go_through_cli_names(self, capsys, monkeypatch):
        # verify and sweep call cli.from_descriptor and cli.build_bundle as
        # module attributes, so a wrapper set on either name (as a tracer
        # sets one) is the function they run
        calls = []
        for name in ("from_descriptor", "build_bundle"):
            def recorder(*args, _name=name, _fn=getattr(cli, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, recorder)
        base = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--size", "60",
                "--trusted", "20"]
        code, _, _ = run_cli(capsys, "verify", *base, "--z", "0.4")
        assert code == 0 and calls == ["from_descriptor", "build_bundle"]
        code, _, _ = run_cli(capsys, "sweep", *base, "--z-from", "-0.4",
                             "--z-to", "0", "--steps", "2")
        assert code == 0
        assert calls[2:] == ["from_descriptor", "build_bundle", "build_bundle"]

    def test_pdm_loads_only_the_lapack_wrappers(self):
        # the grid's solves and counts call scipy's compiled LAPACK wrappers,
        # loaded without scipy's Python packages, and the generators are
        # pdm's own bands: no scipy.linalg, scipy.sparse or scipy._lib
        script = """
import sys
from su11metric import SwansonParams
from su11metric.cli import main
from su11metric.pdm import PdmConfig, pdm_generators
code = main(["pdm", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
             "--points", "400"])
ops = pdm_generators(PdmConfig(SwansonParams(1.0, 0.2, 0.1), points=400))
print(code, len(ops), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == "0 3 ['scipy.linalg._flapack']"
        # nor where the bisection runs: a grid level whose seeds do not
        # certify (its bisection fails, exit 3) and chains too short for
        # the law (exit 0) reach dstebz through the same loader
        base = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"]
        for argv, code in ((["pdm", *base, "--x-max", "500"], 3),
                           (["verify", *base, "--size", "12", "--trusted", "5", "--z", "0.4"], 0)):
            script = f"""
import sys
from su11metric.cli import main
code = main({argv!r})
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""
            proc = self._run("-c", script)
            assert proc.stderr.splitlines()[-1] == f"{code} ['scipy.linalg._flapack']", argv

    def test_src_imports_no_scipy(self):
        # the program reaches LAPACK through verification._lapack alone: no
        # module of the package imports scipy
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_lapack_wrappers_load_once(self):
        # a later scipy.linalg import reuses the module pdm loaded
        script = """
import sys
from su11metric import SwansonParams, pdm
pdm.run_pdm_check(pdm.PdmConfig(SwansonParams(1.0, 0.2, 0.1), points=400))
import scipy.linalg.lapack
print(scipy.linalg.lapack.dgtsv is pdm._lapack().dgtsv,
      sys.modules["scipy.linalg._flapack"] is pdm._lapack(), file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == "True True"

    def test_missing_lapack_wrappers_are_an_import_error(self, tmp_path):
        # a scipy package without the extension file: the check raises
        # ImportError naming the path, and nothing falls back to scipy.linalg
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        script = f"""
import sys
sys.path.insert(0, {str(tmp_path)!r})
from su11metric import SwansonParams, pdm
try:
    pdm.run_pdm_check(pdm.PdmConfig(SwansonParams(1.0, 0.2, 0.1), points=400))
except ImportError as exc:
    print(exc, file=sys.stderr)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""
        proc = self._run("-c", script)
        path = tmp_path / "scipy" / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}"
        assert proc.stderr.splitlines()[-2:] == [
            f"scipy's LAPACK wrappers are missing: no {path}", "[]"]

    @pytest.mark.parametrize("module, scipy_loaded", [("su11metric.verification", False),
                                                      ("su11metric.pdm", True)])
    def test_scipy_loads_with_pdm_alone(self, module, scipy_loaded):
        # neither module imports scipy; the PDM grid's solve loads its
        # LAPACK wrappers when it runs, while an elliptic h's chains take
        # the closed form and count their certificates in Python
        script = f"""
import sys
import {module} as mod
from su11metric import SwansonParams, discrete_series, solve_metric
def scipy():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)
imported = scipy()
p = SwansonParams(1.0, 0.2, 0.1)
if mod.__name__.endswith("pdm"):
    mod.run_pdm_check(mod.PdmConfig(params=p, points=400))
else:
    mod.build_bundle(solve_metric(p, 0.4), discrete_series(0.25, 200))
print(imported, scipy(), file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == f"False {scipy_loaded}"

    def test_refused_non_finite_input_loads_no_numpy(self):
        # the closed-form subcommands refuse NaN without the matrix layer
        script = """
import sys
from su11metric.cli import main
base = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"]
codes = [main(argv) for argv in (["metric", *base, "--z", "nan"],
                                 ["spectrum", *base, "--k", "nan"],
                                 ["disentangle", "--epsilon", "nan", "--eta", "0.1"])]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")),
      file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == "[2, 2, 2] []"

    def test_default_count_bundle_loads_no_scipy(self):
        # build_bundle's five levels, and h's lowest 25, take the law on h's
        # chain, certified by its closed-form bracket, and bisect nothing
        script = """
import sys
from su11metric import (AlgebraElement, SwansonParams, build_bundle,
                        discrete_series, solve_metric)
from su11metric.verification import _low_eigs
sol, r = solve_metric(SwansonParams(1.0, 0.2, 0.1), 0.4), discrete_series(0.25, 200)
bundle = build_bundle(sol, r)
levels = _low_eigs(AlgebraElement(sol.c0, sol.c, sol.c), r, 25)
print(bundle.spectrum_h.size, levels.size,
      sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == "5 25 []"

    def test_long_chain_cut_loads_no_scipy(self):
        # this x's eigenvectors decay slowly (the vectors that certified it
        # before the closed-form bracket needed 328 states): the bracket
        # takes the law on the 1200-state chain from its length and lowest
        # weight alone, so the values import no scipy
        script = """
import sys
from su11metric import AlgebraElement, discrete_series
from su11metric.verification import _chain_bracket, _low_eigs
c0, c, r = 2.8690555219658664, 1.071386903518382, discrete_series(0.25, 1200)
levels = _low_eigs(AlgebraElement(c0, c, c), r, 25)
law = _chain_bracket(c0, c, 0.25, 1200, 25)
print(levels.size, law is not None and (law == levels).all(),
      sorted(m for m in sys.modules if m.split(".")[0] == "scipy"), file=sys.stderr)
"""
        proc = self._run("-c", script)
        assert proc.stderr.splitlines()[-1] == "25 True []"


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_no_tolerance_flags(self, capsys):
        # RESIDUAL_TOLS is the one table of tolerances; no flag loosens one
        code, out, err = run_cli(capsys, "verify", "--omega", "1", "--alpha", "0.2",
                                 "--beta", "0.1", "--tol-herm", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol-herm 1" in err

    def test_parser_reused_across_calls(self, capsys, tmp_path):
        # main() builds its parser once per process; no parse, failed or
        # config-fed, may leave anything in it that changes a later call
        cfg = tmp_path / "run.cfg"
        cfg.write_text("omega = 1.0\nalpha = 0.2\nbeta = 0.1\nz = 0.4\n",
                       encoding="utf-8")
        base = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"]
        calls = [
            ["metric", "--config", str(cfg)],
            ["metric"] + base,
            ["metric", "--omega", "1"],
            ["verify"] + base + ["--size", "nope"],
            ["verify"] + base + ["--z", "0.4", "--size", "60", "--trusted", "20"],
            ["sweep"] + base + ["--z-from", "-0.4", "--z-to", "0.4",
                                "--steps", "3", "--size", "60", "--trusted", "20"],
            ["metric", "--config", str(cfg), "--z", "0.5", "--output", "csv"],
            ["frobnicate"],
            ["metric"] + base,
        ]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv)[:2])
        assert [code for code, _ in fresh] == [0, 0, 2, 2, 0, 0, 0, 2, 0]
        for _ in range(2):
            assert [run_cli(capsys, *argv)[:2] for argv in calls] == fresh
        assert cli._build_parser() is cli._build_parser()

