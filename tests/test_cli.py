import math

import numpy as np
import pytest

from csiguard import _kernels

from csiguard.cli import _build_config, build_parser, cli_main
from csiguard.config import ScenarioConfig
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

    def test_threshold_is_fitted_phase_null_law(self, config_file, tmp_path):
        # (offset, slope) is fitted on the packet: chi-squared(2Q - 2).
        out = str(tmp_path / "records.csv")
        assert cli_main(["simulate", "--config", config_file, "--out", out]) == 0
        expected = chi2_quantile_quadrature(0.9, 2 * 16 - 2)
        for row in read_records_csv(out):
            assert row["threshold"] == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("snr_db", ["80", "120"])
    def test_high_snr_runs(self, tmp_path, snr_db):
        # Noise variances of 1e-8 and 1e-12 of the tap power: the updated
        # covariance must stay non-negative and the statistics finite.
        out = str(tmp_path / "records.csv")
        args = ["simulate", "--snr-db", snr_db, "--num-steps", "50", "--out", out]
        assert cli_main(args) == 0
        rows = read_records_csv(out)
        assert len(rows) == 100
        assert all(math.isfinite(r["statistic"]) for r in rows)

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

    @pytest.mark.parametrize("values, expected", [("-5,0,5", [-5.0, 0.0, 5.0]), ("-2.5", [-2.5])])
    def test_negative_snr_values(self, config_file, tmp_path, values, expected):
        # A list that starts with a minus sign is a value, not an option.
        out = tmp_path / "snr.csv"
        argv = ["sweep-snr", "--config", config_file, "--values", values, "--out", str(out)]
        assert cli_main(argv) == 0
        assert [p.axis_value for p in read_sweep_csv(out).points] == expected

    def test_negative_doppler_is_a_config_error(self, config_file, tmp_path, capsys):
        # -1e-4 reaches the config check, not argparse's "expected one argument".
        out = tmp_path / "d.csv"
        argv = ["sweep-doppler", "--config", config_file, "--values", "-1e-4", "--out", str(out)]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "normalized Doppler must lie in [0, 0.5)" in err
        assert "usage" not in err and err.count("\n") == 1
        assert not out.exists()

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
        cli_main(base + ["--set", "phase.max_slope=0.5", "--out", str(out2)])
        hash1 = out1.read_text().splitlines()[0]
        hash2 = out2.read_text().splitlines()[0]
        assert hash1 != hash2


class TestFlags:
    # Each undotted config key is a flag; the seven, with non-default values.
    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--snr-db", "snr_db", "7.5"),
            ("--doppler", "doppler", "3e-4"),
            ("--num-steps", "num_steps", "240"),
            ("--num-trials", "num_trials", "3"),
            ("--p-fa", "p_fa", "0.05"),
            ("--seed", "seed", "3"),
            ("--detectors", "detectors", "kalman,magnitude_diff"),
        ],
    )
    def test_flag_sets_its_key(self, flag, key, value):
        parser = build_parser()
        by_flag = _build_config(parser.parse_args(["roc", flag, value]))
        by_set = _build_config(parser.parse_args(["roc", "--set", f"{key}={value}"]))
        assert by_flag == by_set != ScenarioConfig()


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

    def test_one_slope_range(self, config_file, tmp_path, capsys):
        # Slopes are searched over the drawn range: the separate search bound
        # is gone, and a zero range, which would leave the slope unfitted, is
        # refused.
        out = tmp_path / "x.csv"
        for setting, message in (
            ("search.slope_bound=0.3", "'search.slope_bound' was removed"),
            ("phase.max_slope=0", "phase.max_slope must be finite and > 0"),
        ):
            args = ["--config", config_file, "--set", setting]
            assert cli_main(["simulate", *args, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("objective", ["whitened", "paper-literal"])
    def test_objective_key_removed(self, config_file, tmp_path, capsys, objective):
        out = tmp_path / "x.csv"
        args = ["--config", config_file, "--set", f"search.objective={objective}"]
        assert cli_main(["simulate", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'search.objective' was removed: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("criteria", ["9", "x", "7,9", "1,", "7,7"])
    def test_unknown_selftest_criteria(self, capsys, criteria):
        # Refused before any criterion runs.
        assert cli_main(["selftest", "--criteria", criteria]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

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
            ["simulate", "--set", "grid.pilot_spec=0-5,9-7,12"],
            ["simulate", "--detectors", "kalman,kalman"],
            ["roc", "--num-points", "1"],
            ["sweep-snr", "--values", "5,5"],
            ["simulate", "--snr-db", "4000"],
            ["simulate", "--snr-db", "-4000"],
        ],
    )
    def test_value_that_breaks_a_run_is_refused(self, config_file, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert cli_main([*args, "--config", config_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate"],
            ["roc", "--num-trials", "2"],
            ["sweep-snr", "--values", "10,20", "--num-trials", "2"],
            ["sweep-doppler", "--values", "1e-4,1e-2", "--num-trials", "2"],
        ],
    )
    def test_negative_statistic_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch, args):
        # Far above 100 dB the whitened residual energy can cancel below
        # float64's rounding and go negative; a whitened form that does so
        # at the third step stands in for it, whatever the rounding does.
        whitened_quadform = _kernels.whitened_quadform
        calls = []

        def negative_at_third_call(r, prep, tables):
            g, quad = whitened_quadform(r, prep, tables)
            calls.append(None)
            return g, -1.0 - np.abs(quad) if len(calls) == 3 else quad

        monkeypatch.setattr(_kernels, "whitened_quadform", negative_at_third_call)
        out = tmp_path / "x.csv"
        argv = [*args, "--num-steps", "20", "--out", str(out)]
        assert cli_main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "test statistic" in err
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
