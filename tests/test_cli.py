import numpy as np
import pytest

from su11metric.cli import SWEEP_COLUMNS, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
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

    def test_endpoint_partial_report(self, capsys):
        code, out, _ = run_cli(capsys, "metric", "--omega", "1",
                               "--alpha", "0.2", "--beta", "0.1", "--z", "1")
        assert code == 0
        rows = parse_table(out)
        assert abs(float(rows["epsilon"]) + 0.0714286) < 1e-6
        assert "mu" not in rows

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


class TestPdmCommand:
    def test_smoke_pass(self, capsys):
        code, out, _ = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--points", "800")
        assert code == 0
        rows = parse_table(out)
        assert rows["status"] == "PASS"
        assert float(rows["boundary_decay"]) <= 1e-8

    def test_inconclusive_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "pdm", "--omega", "1", "--alpha", "0.2",
                               "--beta", "0.1", "--points", "400",
                               "--x-min", "-2", "--x-max", "2")
        assert code == 1
        assert parse_table(out)["status"] == "INCONCLUSIVE"


class TestParsing:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
