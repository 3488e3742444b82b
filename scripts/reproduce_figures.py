#!/usr/bin/env python3
"""Reproduce the headline simulation results as plot-ready CSV files.

Outputs, under --out-dir:

  statistic_hist.csv   empirical distribution of the null-hypothesis test
                       statistic at SNR = 10 dB, fd*Ts = 1e-4, against the
                       chi-squared(2Q - 2) density, the null law the
                       analytic threshold uses
  roc_snr<k>.csv       ROC curves of the residual detector at several SNRs
  sweep_snr.csv        detection rate vs SNR at P_FA = 0.1 (both detectors)
  sweep_doppler.csv    detection rate vs fd*Ts at SNR = 10 dB (both detectors)

Everything is deterministic given --seed.
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys
import time
from dataclasses import replace

import numpy as np

from csiguard._kernels import PHASE_PARAMETERS
from csiguard.config import ScenarioConfig, config_hash
from csiguard.detector import null_dof
from csiguard.harness import RocResult, derive_trial_seed, roc_points, run_batch, sweep, write_csv
from csiguard.numerics import chi2_cdf


def statistic_histogram(cfg: ScenarioConfig, out: pathlib.Path) -> None:
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    batch = run_batch(cfg, seeds)
    lam = batch.lam[:, batch.test_slice, 0].ravel()
    dof = null_dof(cfg.pilot_grid().num_pilots, PHASE_PARAMETERS)
    edges = np.linspace(lam.min() - 1, lam.max() + 1, 61)
    counts, _ = np.histogram(lam, edges)
    widths = np.diff(edges)
    density = counts / counts.sum() / widths
    with open(out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "empirical_density", "chi2_density"])
        for lo, hi, dens in zip(edges[:-1], edges[1:], density):
            center = 0.5 * (lo + hi)
            model = (chi2_cdf(hi, dof) - chi2_cdf(lo, dof)) / (hi - lo)
            writer.writerow([f"{center:.9g}", f"{dens:.9g}", f"{model:.9g}"])
    print(f"wrote {out} ({lam.size} samples)")


def roc_curves(cfg: ScenarioConfig, out_dir: pathlib.Path, snrs) -> None:
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    point_cfgs = [replace(cfg, snr_db=snr) for snr in snrs]
    for snr, point_cfg, batch in zip(snrs, point_cfgs, run_batch(point_cfgs, seeds)):
        lam = batch.lam[:, batch.test_slice, :]
        points = [
            ("kalman", thr, fa, dr)
            for thr, fa, dr in roc_points(lam[:, :, 0].ravel(), lam[:, :, 1].ravel(), 201)
        ]
        out = out_dir / f"roc_snr{snr:g}.csv"
        write_csv(RocResult(points=points), out, point_cfg)
        print(f"wrote {out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--skip-sweeps", action="store_true", help="only the fast outputs")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    base = ScenarioConfig(
        snr_db=10.0,
        normalized_doppler=1e-4,
        num_steps=2000,
        num_trials=args.trials,
        seed=args.seed,
        detectors=("kalman", "magnitude_diff"),
    )

    statistic_histogram(replace(base, num_trials=min(args.trials, 20)), out_dir / "statistic_hist.csv")
    roc_curves(replace(base, num_trials=min(args.trials, 50)), out_dir, [0.0, 5.0, 10.0])

    if not args.skip_sweeps:
        result = sweep(base, "snr_db", [0.0, 5.0, 10.0, 15.0])
        write_csv(result, out_dir / "sweep_snr.csv", base)
        print(f"wrote {out_dir / 'sweep_snr.csv'}")
        result = sweep(base, "normalized_doppler", [1e-5, 3e-5, 1e-4, 3e-4, 1e-3])
        write_csv(result, out_dir / "sweep_doppler.csv", base)
        print(f"wrote {out_dir / 'sweep_doppler.csv'}")

    print(f"done in {time.perf_counter() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
