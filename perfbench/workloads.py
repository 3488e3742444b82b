"""The three benchmark workloads and the checks on their output files.

Each workload is one ``csiguard`` CLI invocation at the default scenario
(Q = 114 pilots, L = 8 taps, 10 dB, p_fa = 0.1), sized so that one
repetition takes one to four seconds on a 2-core box and a run holds
several repetitions.  See README.md for why each shape was chosen.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import scipy.special

P_FA = 0.1            # the CLI's default nominal false-alarm rate
NUM_PILOTS = 114      # the default 40 MHz pilot grid
ROC_POINTS = 101      # the roc subcommand's default --num-points

# Sanity band for the Kalman detector's pooled false-alarm rate.  The
# analytic threshold uses chi2(2Q) while the null statistic follows
# chi2(2Q-2) (acceptance criterion 2), which pulls the rate to ~0.08 at
# nominal 0.1; the band's centre holds both that bias and its fix.  False
# alarms cluster by trial: some trials run with a null statistic inflated
# 1.3-1.5x throughout, and at 15 dB such a trial raises a false alarm on
# nearly every step.  Clustering inflates only the upper tail, so the
# upper edge widens with a per-trial spread of FA_TRIAL_SD and the lower
# edge with the binomial spread of the pooled legitimate decisions.  At
# T = 1 the band bounds neither side; the records check compares the
# threshold with an independent chi-squared quantile instead.
FA_CENTRE = (0.5 * P_FA, 1.5 * P_FA)
FA_TRIAL_SD = 0.35
FA_SIGMAS = 4.0
# Threshold degrees of freedom the records may use: the paper's 2Q, or
# 2Q - 2 once the null law is corrected.  The CSV rounds the threshold
# to about nine significant digits; the two dofs differ by 0.8%.
THRESHOLD_DOFS = (2 * NUM_PILOTS, 2 * NUM_PILOTS - 2)
THRESHOLD_RTOL = 1e-6
# Median of the legitimate statistic over the test half, over its
# nominal mean 2Q: 0.96-1.10 over 192 single trials at 10 dB.
NULL_MEDIAN_BAND = (0.9, 1.25)
# An eve packet comes from an independent channel, so it is detected
# almost always (>= 0.96 at 0 dB, 1.0 at 10 dB at the time of writing).
DETECT_FLOOR = 0.9

# Per-layer metrics every workload must record calls on (the set-up
# metrics come from the traced cold set-up, which every workload runs).
COMMON_LAYERS = (
    "kernels.phase_search.s",
    "kernels.phase_search.self_s",
    "kernels.phase_search.calls",
    "kernels.phase_search.us_per_call",
    "kernels.phase_search.share",
    "kernels.phase_search.evals_per_search",
    "kernels.candidate_objective.s",
    "kernels.GridTables.ramp.s",
    "kernels.GridTables.ramp.calls",
    "kernels.prepare_state.s",
    "kernels.whitened_quadform.s",
    "kernels.kalman_update.s",
    "harness.run_batch.self_s",
    "harness.step_ms.p50",
    "harness.step_ms.p99",
    "harness.write_csv.s",
    "harness.write_csv.bytes",
    "cli.cli_main.s",
    "config.config_from_mapping.s",
    "kernels.grid_tables.s",
    "observation.partial_dft.s",
    "channel.make_profile.s",
    "detector.threshold.s",
    "numerics.chi2_quantile.s",
)


class OutputError(Exception):
    """An output file is missing rows or holds an implausible value."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def _finite(label: str, value: float) -> None:
    _require(math.isfinite(value), f"{label} is not finite: {value!r}")


def fa_band(trials: int, decisions: int) -> tuple[float, float]:
    """Sanity band for a false-alarm rate pooled over ``trials`` trials
    and ``decisions`` legitimate decisions."""
    lo = FA_CENTRE[0] - FA_SIGMAS * math.sqrt(FA_CENTRE[0] * (1.0 - FA_CENTRE[0]) / decisions)
    hi = FA_CENTRE[1] + FA_SIGMAS * FA_TRIAL_SD / math.sqrt(trials)
    return max(0.0, lo), min(1.0, hi)


def _check_fa(label: str, lo_value: float, hi_value: float, wl: Workload) -> None:
    lo, hi = fa_band(wl.trials, wl.test_decisions)
    _require(
        hi_value >= lo and lo_value <= hi,
        f"{label} in [{lo_value:.4f}, {hi_value:.4f}] misses [{lo:.4f}, {hi:.4f}]",
    )


def analytic_thresholds() -> list[float]:
    """The Kalman threshold at P_FA for each accepted dof, from scipy's
    inverse chi-squared survival function.  Not scipy.stats: its import
    would add some 40 MB to the peak RSS that the benchmark reports."""
    return [float(scipy.special.chdtri(dof, P_FA)) for dof in THRESHOLD_DOFS]


def check_records(csiguard, wl: Workload, path: str) -> dict:
    rows = csiguard.harness.read_records_csv(path)
    n = wl.steps
    kalman = [r for r in rows if r["detector"] == "kalman"]
    magnitude = [r for r in rows if r["detector"] == "magnitude_diff"]
    _require(len(kalman) == 2 * n, f"{len(kalman)} kalman rows, expected {2 * n}")
    _require(
        len(magnitude) == 2 * (n - 1),
        f"{len(magnitude)} magnitude_diff rows, expected {2 * (n - 1)}",
    )
    _require(len(rows) == len(kalman) + len(magnitude), "rows of an unknown detector")
    for r in rows:
        _finite(f"statistic at k={r['k']}", r["statistic"])
        _finite(f"threshold at k={r['k']}", r["threshold"])
        _require(r["decision"] in ("H0", "H1"), f"decision {r['decision']!r}")
    test = [r for r in kalman if r["k"] > n // 2]
    alice = [r for r in test if r["truth"] == "alice"]
    eve = [r for r in test if r["truth"] == "eve"]
    fa = sum(r["decision"] == "H1" for r in alice) / len(alice)
    dr = sum(r["decision"] == "H1" for r in eve) / len(eve)
    median_ratio = statistics.median(r["statistic"] for r in alice) / (2 * NUM_PILOTS)
    _check_fa("kalman false-alarm rate", fa, fa, wl)
    thresholds = {r["threshold"] for r in kalman}
    _require(
        len(thresholds) == 1 and any(
            math.isclose(t, ref, rel_tol=THRESHOLD_RTOL)
            for t in thresholds for ref in analytic_thresholds()),
        f"kalman thresholds {sorted(thresholds)[:3]} are not chi2 quantiles "
        f"{analytic_thresholds()}",
    )
    _require(
        NULL_MEDIAN_BAND[0] <= median_ratio <= NULL_MEDIAN_BAND[1],
        f"median alice statistic / 2Q = {median_ratio:.4f} outside {NULL_MEDIAN_BAND}",
    )
    _require(dr >= DETECT_FLOOR, f"kalman eve detection rate {dr:.4f} < {DETECT_FLOOR}")
    return {"rows": len(rows), "kalman_false_alarm": fa, "kalman_detection": dr,
            "null_median_over_2q": median_ratio}


def check_sweep(csiguard, wl: Workload, path: str) -> dict:
    result = csiguard.harness.read_sweep_csv(path)
    points = result.points
    _require(result.axis == "snr_db", f"axis {result.axis!r}")
    _require(
        [p.axis_value for p in points] == list(SWEEP_VALUES),
        f"axis values {[p.axis_value for p in points]}",
    )
    fas, drs = [], []
    for p in points:
        where = f"at {p.axis_value:g} dB"
        _require(p.detector == "kalman", f"detector {p.detector!r}")
        _require(
            (p.num_trials, p.num_steps) == (wl.trials, wl.steps),
            f"num_trials/num_steps {p.num_trials}/{p.num_steps} {where}",
        )
        for label, rate in (("false-alarm", p.empirical_false_alarm),
                            ("detection", p.detection_rate)):
            _finite(f"{label} rate {where}", rate)
        _check_fa(f"kalman false-alarm rate {where}",
                  p.empirical_false_alarm, p.empirical_false_alarm, wl)
        _require(p.detection_rate >= DETECT_FLOOR,
                 f"kalman detection rate {p.detection_rate:.4f} {where}")
        fas.append(p.empirical_false_alarm)
        drs.append(p.detection_rate)
    return {"rows": len(points), "kalman_false_alarm": fas, "kalman_detection": drs}


def check_roc(csiguard, wl: Workload, path: str) -> dict:
    result = csiguard.harness.read_roc_csv(path)
    by_det: dict[str, list] = {}
    for det, thr, fa, dr in result.points:
        for label, value in (("threshold", thr), ("false-alarm rate", fa),
                             ("detection rate", dr)):
            _finite(f"{det} {label}", value)
        _require(0.0 <= fa <= 1.0 and 0.0 <= dr <= 1.0, f"{det} rate outside [0, 1]")
        by_det.setdefault(det, []).append((thr, fa, dr))
    _require(sorted(by_det) == ["kalman", "magnitude_diff"], f"detectors {sorted(by_det)}")
    for det, pts in by_det.items():
        _require(2 <= len(pts) <= ROC_POINTS, f"{det}: {len(pts)} ROC points")
        fa = [p[1] for p in pts]
        dr = [p[2] for p in pts]
        _require(fa == sorted(fa) and dr == sorted(dr), f"{det}: ROC is not monotone")
        _require((fa[0], dr[0]) == (0.0, 0.0) and (fa[-1], dr[-1]) == (1.0, 1.0),
                 f"{det}: ROC misses an end point")
    # The operating point at the analytic threshold lies between the two
    # ROC points whose thresholds bracket it (rates fall as thresholds rise).
    thr = analytic_thresholds()[0]
    pts = by_det["kalman"]
    below = max((p for p in pts if p[0] <= thr), key=lambda p: p[0])
    above = min((p for p in pts if p[0] >= thr), key=lambda p: p[0])
    _check_fa("kalman false-alarm rate at the threshold", above[1], below[1], wl)
    _require(above[2] >= DETECT_FLOOR,
             f"kalman detection rate at the threshold >= {above[2]:.4f} only")
    return {"rows": len(result.points), "kalman_false_alarm": [above[1], below[1]],
            "kalman_detection": [above[2], below[2]]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: tuple[str, ...]    # CLI arguments without --seed and --out
    trials: int
    steps: int
    points: int              # sweep points (1 outside sweeps)
    output: str              # output file name
    check: object            # check_*(csiguard, workload, path) -> summary dict
    layers: tuple[str, ...]  # per-layer metrics that must record calls

    @property
    def decisions(self) -> int:
        """Kalman decisions per repetition: trials x steps x 2 x points."""
        return self.trials * self.steps * 2 * self.points

    @property
    def test_decisions(self) -> int:
        """Legitimate decisions per point that the false-alarm rate pools:
        the test half, steps k > steps // 2, of every trial."""
        return self.trials * (self.steps - self.steps // 2)

    def cli_args(self, seed: int, out_path: str) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", out_path]


SWEEP_VALUES = (0.0, 5.0, 10.0, 15.0)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate_t1",
            why="one trial, one packet per kernel call: Python dispatch and the "
            "per-record CSV dominate",
            argv=("simulate", "--detectors", "kalman,magnitude_diff", "--num-steps", "400"),
            trials=1,
            steps=400,
            points=1,
            output="records.csv",
            check=check_records,
            layers=COMMON_LAYERS
            + ("harness.trial_records.self_s", "detector.calibrate_empirical_threshold.s"),
        ),
        Workload(
            name="sweep_t16",
            why="criterion 3's SNR sweep at 16 trials: four batches share per-trial seeds",
            argv=(
                "sweep-snr", "--values", ",".join(f"{v:g}" for v in SWEEP_VALUES),
                "--num-trials", "16", "--num-steps", "100",
            ),
            trials=16,
            steps=100,
            points=len(SWEEP_VALUES),
            output="sweep_snr.csv",
            check=check_sweep,
            layers=COMMON_LAYERS + ("harness.sweep.self_s",),
        ),
        Workload(
            name="roc_t64",
            why="64 trials in one batch: array arithmetic, threshold calibration and "
            "the ROC sort dominate",
            argv=(
                "roc", "--num-trials", "64", "--detectors", "kalman,magnitude_diff",
                "--num-steps", "202",
            ),
            trials=64,
            steps=202,
            points=1,
            output="roc.csv",
            check=check_roc,
            layers=COMMON_LAYERS
            + ("harness.roc_points.s", "detector.calibrate_empirical_threshold.s"),
        ),
    )
}
