"""The figure script's histogram and ROC outputs on a small scenario."""

import csv
import importlib.util
import pathlib

import numpy as np
import pytest

from csiguard._kernels import PHASE_PARAMETERS
from csiguard.config import ScenarioConfig, config_hash
from csiguard.detector import null_dof
from csiguard.harness import derive_trial_seed, roc_points, run_batch
from csiguard.numerics import chi2_cdf

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"

# Q = 16 pilots, 40 steps, one SNR.
FAST = ScenarioConfig(
    snr_db=10.0,
    num_steps=40,
    num_trials=2,
    num_paths=4,
    pdp_decay=0.5,
    dft_size=32,
    pilot_spec="first:16",
    slope_points=32,
)


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        return first, list(csv.DictReader(fh))


def test_statistic_histogram(script, tmp_path):
    out = tmp_path / "statistic_hist.csv"
    script.statistic_histogram(FAST, out)
    first, rows = _read(out)
    assert first.startswith("# config_hash=")
    assert len(rows) == 60
    center = np.array([float(r["bin_center"]) for r in rows])
    empirical = np.array([float(r["empirical_density"]) for r in rows])
    model = np.array([float(r["chi2_density"]) for r in rows])
    assert np.all(np.isfinite(center) & np.isfinite(empirical) & np.isfinite(model))
    width = (center[-1] - center[0]) / 59
    assert empirical.sum() * width == pytest.approx(1.0, rel=1e-6)
    # The density column bins chi2(2Q - 2), the law the threshold uses.
    dof = null_dof(16, PHASE_PARAMETERS)
    lo, hi = center - width / 2, center + width / 2

    def binned(d):
        return np.array([(chi2_cdf(b, d) - chi2_cdf(a, d)) / width for a, b in zip(lo, hi)])

    assert np.allclose(model, binned(dof), rtol=1e-6, atol=1e-12)
    assert not np.allclose(model, binned(2 * 16), rtol=1e-3)


def test_roc_curves(script, tmp_path):
    script.roc_curves(FAST, tmp_path, [10.0])
    first, rows = _read(tmp_path / "roc_snr10.csv")
    assert first == f"# config_hash={config_hash(FAST)} seed={FAST.seed}\n"
    seeds = [derive_trial_seed(FAST.seed, i) for i in range(FAST.num_trials)]
    batch = run_batch(FAST, seeds)
    lam = batch.lam[:, batch.test_slice, :]
    expected = roc_points(lam[:, :, 0].ravel(), lam[:, :, 1].ravel(), 201)
    assert len(rows) == len(expected)
    assert {r["detector"] for r in rows} == {"kalman"}
    for row, (_, fa, dr) in zip(rows, expected):
        values = [float(row[k]) for k in ("threshold", "false_alarm_rate", "detection_rate")]
        assert np.all(np.isfinite(values))
        assert values[1:] == pytest.approx([fa, dr], abs=1e-9)
