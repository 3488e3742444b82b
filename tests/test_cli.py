import pytest

from csiguard.cli import cli_main
from csiguard.harness import read_records_csv, read_roc_csv, read_sweep_csv

from oracles import chi2_quantile_quadrature

FAST_CONFIG = """
# fast scenario for CLI tests
snr_db = 10
doppler = 1e-4
num_steps = 40
num_trials = 2
p_fa = 0.1
seed = 99
channel.num_paths = 4
grid.dft_size = 32
grid.pilot_spec = first:16
search.slope_points = 32
search.slope_bound = 0.7853981633974483
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


class TestSimulate:
    def test_writes_records(self, config_file, tmp_path, capsys):
        out = str(tmp_path / "records.csv")
        assert cli_main(["simulate", "--config", config_file, "--out", out]) == 0
        rows = read_records_csv(out)
        assert len(rows) == 80
        assert {r["truth"] for r in rows} == {"alice", "eve"}
        assert "wrote 80 records" in capsys.readouterr().out

    @pytest.mark.parametrize("objective", ["whitened", "paper-literal"])
    def test_threshold_is_fitted_phase_null_law(self, config_file, tmp_path, objective):
        # Both objectives fit (offset, slope) on the packet: chi-squared(2Q - 2).
        out = str(tmp_path / "records.csv")
        args = ["--config", config_file, "--set", f"search.objective={objective}"]
        assert cli_main(["simulate", *args, "--out", out]) == 0
        expected = chi2_quantile_quadrature(0.9, 2 * 16 - 2)
        for row in read_records_csv(out):
            assert row["threshold"] == pytest.approx(expected, rel=1e-8)

    def test_deterministic_bytes(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli_main(["simulate", "--config", config_file, "--out", str(out1)])
        cli_main(["simulate", "--config", config_file, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_changes_output(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cli_main(["simulate", "--config", config_file, "--out", str(out1)])
        cli_main(["simulate", "--config", config_file, "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()


class TestRoc:
    def test_writes_roc(self, config_file, tmp_path):
        out = str(tmp_path / "roc.csv")
        code = cli_main(
            ["roc", "--config", config_file, "--num-points", "21", "--out", out]
        )
        assert code == 0
        roc = read_roc_csv(out)
        assert roc.points
        for det, thr, fa, dr in roc.points:
            assert det == "kalman"
            assert 0.0 <= fa <= 1.0 and 0.0 <= dr <= 1.0


class TestSweeps:
    def test_sweep_snr(self, config_file, tmp_path):
        out = str(tmp_path / "snr.csv")
        code = cli_main(
            ["sweep-snr", "--config", config_file, "--values", "0,10", "--out", out]
        )
        assert code == 0
        result = read_sweep_csv(out)
        assert result.axis == "snr_db"
        assert [p.axis_value for p in result.points] == [0.0, 10.0]

    def test_sweep_doppler_deterministic(self, config_file, tmp_path):
        out1 = tmp_path / "d1.csv"
        out2 = tmp_path / "d2.csv"
        args = ["sweep-doppler", "--config", config_file, "--values", "1e-4,1e-3"]
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_set_override_changes_hash(self, config_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["sweep-snr", "--config", config_file, "--values", "10"]
        cli_main(base + ["--out", str(out1)])
        cli_main(base + ["--set", "search.slope_bound=1.0", "--out", str(out2)])
        hash1 = out1.read_text().splitlines()[0]
        hash2 = out2.read_text().splitlines()[0]
        assert hash1 != hash2


class TestErrors:
    def test_unknown_flag(self, capsys):
        assert cli_main(["simulate", "--frequency", "2.4GHz"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self):
        assert cli_main(["teleport"]) == 2

    def test_no_subcommand(self):
        assert cli_main([]) == 2

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.dft = 64\n")
        assert cli_main(["simulate", "--config", str(cfg)]) == 2
        assert "grid.dft" in capsys.readouterr().err

    def test_bad_set_value(self, config_file, capsys):
        code = cli_main(
            ["simulate", "--config", config_file, "--set", "num_trials=lots"]
        )
        assert code == 2
        assert "num_trials" in capsys.readouterr().err

    def test_single_pilot_grid(self, config_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        args = ["--config", config_file, "--set", "grid.pilot_spec=first:1"]
        assert cli_main(["simulate", *args, "--out", str(out)]) == 2
        assert "at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_drawn_slope_beyond_search_range(self, config_file, tmp_path, capsys):
        # The fast config searches slopes in [-0.785, 0.785] (2*pi*4/32).
        out = tmp_path / "x.csv"
        args = ["--config", config_file, "--set", "phase.max_slope=0.9"]
        assert cli_main(["simulate", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "phase.max_slope" in err and "search.slope_bound" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_too_few_calibration_samples(self, config_file, tmp_path, capsys):
        # 40 steps leave the magnitude baseline 19 of its 100 calibration samples.
        out = tmp_path / "x.csv"
        args = ["--config", config_file, "--detectors", "kalman,magnitude_diff"]
        assert cli_main(["simulate", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "calibration samples" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--snr-db", "nan"],
            ["simulate", "--snr-db", "inf"],
            ["simulate", "--seed", "-1"],
            ["simulate", "--trial-index", "-1"],
            ["simulate", "--set", "channel.num_paths=0"],
            ["simulate", "--set", "channel.num_paths=200"],
            ["simulate", "--set", "channel.pdp_decay=-1"],
            ["simulate", "--doppler", "0.6"],
            ["roc", "--num-points", "1"],
        ],
    )
    def test_value_that_breaks_a_run_is_refused(self, config_file, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert cli_main([*args, "--config", config_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert cli_main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 4

    def test_unwritable_output(self, config_file, tmp_path):
        out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert cli_main(["simulate", "--config", config_file, "--out", out]) == 4

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out
