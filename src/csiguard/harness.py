"""Monte Carlo scenario runner: trials, sweeps, ROC data, CSV output.

Protocol per trial (the parallel collection protocol): at every step both
links evolve, each transmitter gets an independently drawn phase
distortion and noise, the filter predicts once, phase estimation and the
test statistic run for the legitimate (alice) and attacker (eve)
observations, stacked into one batch, against the same predicted state,
and only the alice observation updates the filter.

Trials are mutually independent.  Trial ``i`` draws from
``numpy.random.SeedSequence([master_seed, i])`` (see
:func:`derive_trial_seed`), so aggregates do not depend on trial order
and sweep points share channel and noise realizations (common random
numbers across the sweep axis).  Within a trial the generator is consumed
in the order documented by :func:`csiguard.channel.simulate`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .channel import simulate
from .config import ScenarioConfig, config_hash
from .detector import (
    DetectionRecord,
    calibrate_empirical_threshold,
    decide,
    magnitude_diff_statistic,
    threshold,
)
from .errors import CalibrationError, NumericalError
from .observation import snr_to_noise_var

__all__ = [
    "SweepPoint",
    "SweepResult",
    "RocResult",
    "TrialBatch",
    "derive_trial_seed",
    "run_batch",
    "trial_records",
    "sweep",
    "roc_points",
    "roc_curve",
    "write_csv",
    "read_sweep_csv",
    "read_roc_csv",
    "read_records_csv",
]


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Seed for trial i: first 64-bit word of SeedSequence([master_seed, i])."""
    ss = np.random.SeedSequence([master_seed, trial_index])
    lo, hi = ss.generate_state(2, np.uint32)
    return int(hi) << 32 | int(lo)


@dataclass(eq=False)
class TrialBatch:
    """Raw per-step statistics of a batch of trials run in lockstep.

    lam and mag have shape (trials, steps, 2) with alice in column 0 and
    eve in column 1; mag is NaN at the first step (no previous
    observation).  Optional collections: phase_true/phase_est with shape
    (trials, steps, 2, 2) storing (offset, slope) per observation, and
    mse with shape (trials, steps) holding the per-pilot mean squared
    channel-estimate error after each update.
    """

    cfg: ScenarioConfig
    trial_seeds: tuple[int, ...]
    lam: np.ndarray
    mag: np.ndarray
    kalman_threshold: float
    mag_threshold: np.ndarray | None
    phase_true: np.ndarray | None = None
    phase_est: np.ndarray | None = None
    mse: np.ndarray | None = None

    @property
    def test_slice(self) -> slice:
        """Steps used for evaluation: the second half, k > num_steps // 2."""
        return slice(self.cfg.num_steps // 2, None)

    def statistic(self, detector: str) -> np.ndarray:
        if detector == "kalman":
            return self.lam
        if detector == "magnitude_diff":
            return self.mag
        raise ValueError(f"unknown detector {detector!r}")

    def decisions(self, detector: str) -> np.ndarray:
        """Boolean (trials, steps, 2) array of H1 decisions."""
        stat = self.statistic(detector)
        if detector == "kalman":
            return stat > self.kalman_threshold
        if self.mag_threshold is None:
            raise CalibrationError("magnitude_diff detector was not calibrated")
        with np.errstate(invalid="ignore"):
            return stat > self.mag_threshold[:, None, None]


def run_batch(
    cfg: ScenarioConfig,
    trial_seeds,
    *,
    clone_eve: bool = False,
    collect_phase: bool = False,
    collect_mse: bool = False,
) -> TrialBatch:
    """Run a batch of trials in lockstep and collect per-step statistics.

    ``clone_eve`` is a test hook forcing the attacker channel identical to
    the legitimate one (the indistinguishable-hypothesis case); the
    attacker still gets independent noise and phase draws (see
    :func:`csiguard.channel.simulate`).
    """
    profile = cfg.channel_profile()
    grid = cfg.pilot_grid()
    num_paths = profile.num_paths
    num_pilots = grid.num_pilots
    num_steps = cfg.num_steps
    noise_var = snr_to_noise_var(cfg.snr_db)
    max_slope = cfg.resolved_max_slope()
    tables = _kernels.grid_tables(grid, num_paths)
    seeds = tuple(int(s) for s in trial_seeds)
    num_trials = len(seeds)
    rngs = [np.random.default_rng(s) for s in seeds]

    alpha = profile.alpha
    process_noise = profile.process_noise_diag
    links = simulate(profile, tables, noise_var, max_slope, rngs, clone_eve=clone_eve)

    mean = np.zeros((num_trials, num_paths), dtype=np.complex128)
    cov = np.tile(profile.pdp, (num_trials, 1))

    lam = np.empty((num_trials, num_steps, 2))
    mag = np.full((num_trials, num_steps, 2), np.nan)
    phase_true = np.empty((num_trials, num_steps, 2, 2)) if collect_phase else None
    phase_est = np.empty((num_trials, num_steps, 2, 2)) if collect_phase else None
    mse = np.empty((num_trials, num_steps)) if collect_mse else None

    prev_alice_abs = None
    # zip draws the next step from links only while range has steps left.
    for k, (alice, eve) in zip(range(1, num_steps + 1), links):
        mean *= alpha
        cov = alpha**2 * cov + process_noise
        prep = _kernels.prepare_state(mean, cov, noise_var, tables)

        # Both observations in one (2, T, Q) batch: alice row 0, eve row 1.
        obs = np.stack((alice.obs, eve.obs))
        est_offset, est_slope = _kernels.phase_search(obs, prep, grid, tables, cfg.search)
        v = tables.ramp(est_slope) * obs
        rotated_residual = np.exp(-1j * est_offset)[..., None] * v - prep.m
        y, quad = _kernels.whitened_quadform(rotated_residual, prep, tables)
        lam[:, k - 1, :] = 2.0 * quad.T

        cur_abs = np.abs(obs)
        if prev_alice_abs is not None:
            for col in (0, 1):
                mag[:, k - 1, col] = magnitude_diff_statistic(cur_abs[col], prev_alice_abs)
        if collect_phase:
            phase_true[:, k - 1, :, 0] = np.stack((alice.offset, eve.offset), axis=1)
            phase_true[:, k - 1, :, 1] = np.stack((alice.slope, eve.slope), axis=1)
            phase_est[:, k - 1, :, 0] = est_offset.T
            phase_est[:, k - 1, :, 1] = est_slope.T

        mean, cov = _kernels.kalman_update(
            mean, cov, rotated_residual[0], y[0], prep, tables
        )
        if np.any(cov < -1e-12):
            raise NumericalError(
                f"trial batch aborted at step {k}: updated covariance reached "
                f"{cov.min():.3e}"
            )
        cov = np.maximum(cov, 0.0)
        prev_alice_abs = cur_abs[0]
        if collect_mse:
            err = (mean - alice.taps) @ tables.c_t
            mse[:, k - 1] = np.einsum("tq,tq->t", err.conj(), err).real / num_pilots

    mag_threshold = None
    if "magnitude_diff" in cfg.detectors:
        half = num_steps // 2
        mag_threshold = np.array(
            [
                calibrate_empirical_threshold(
                    mag[t, 1:half, 0], cfg.nominal_false_alarm
                )
                for t in range(num_trials)
            ]
        )

    return TrialBatch(
        cfg=cfg,
        trial_seeds=seeds,
        lam=lam,
        mag=mag,
        kalman_threshold=threshold(
            cfg.nominal_false_alarm, num_pilots, fitted_params=_kernels.PHASE_PARAMETERS
        ),
        mag_threshold=mag_threshold,
        phase_true=phase_true,
        phase_est=phase_est,
        mse=mse,
    )


def trial_records(
    cfg: ScenarioConfig, trial_seed: int, *, clone_eve: bool = False
) -> list[tuple[str, DetectionRecord]]:
    """Run one trial and return (detector, record) pairs.

    Per step there are two records per configured detector, alice-labeled
    then eve-labeled (the magnitude detector starts at the second step,
    which is the first with a previous observation).  Identical
    (cfg, trial_seed) always produce an identical list.
    """
    batch = run_batch(cfg, [trial_seed], clone_eve=clone_eve)
    pairs: list[tuple[str, DetectionRecord]] = []
    p_fa = cfg.nominal_false_alarm
    for k in range(1, cfg.num_steps + 1):
        for det in cfg.detectors:
            if det == "magnitude_diff" and k == 1:
                continue
            stat = batch.statistic(det)[0, k - 1]
            thr = (
                batch.kalman_threshold
                if det == "kalman"
                else float(batch.mag_threshold[0])
            )
            for col, truth in ((0, "alice"), (1, "eve")):
                value = float(stat[col])
                record = DetectionRecord(
                    time_index=k,
                    statistic=value,
                    threshold=thr,
                    decision=decide(value, thr),
                    truth=truth,
                    nominal_false_alarm=p_fa,
                )
                pairs.append((det, record))
    return pairs


@dataclass(frozen=True)
class SweepPoint:
    axis_value: float
    detector: str
    detection_rate: float
    empirical_false_alarm: float
    num_trials: int
    num_steps: int
    detected: int = 0
    num_h1: int = 0
    false_alarms: int = 0
    num_h0: int = 0


@dataclass(eq=False)
class SweepResult:
    axis: str
    points: list[SweepPoint]
    metadata: dict = field(default_factory=dict)


@dataclass(eq=False)
class RocResult:
    points: list[tuple[str, float, float, float]]  # detector, threshold, fa, dr
    metadata: dict = field(default_factory=dict)


_AXES = {"snr_db": "snr_db", "normalized_doppler": "normalized_doppler"}


def sweep(cfg: ScenarioConfig, axis: str, values) -> SweepResult:
    """Detection and false-alarm rates over an axis of scenario values.

    Rates are pooled over the test half of every trial (steps
    k > num_steps // 2).  All sweep points reuse the same per-trial seeds,
    so realizations are common across the axis.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {sorted(_AXES)}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("values must be nonempty")
    if sorted(values) != values:
        raise ValueError("values must be sorted ascending")
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    points: list[SweepPoint] = []
    for value in values:
        point_cfg = replace(cfg, **{_AXES[axis]: value})
        batch = run_batch(point_cfg, seeds)
        for det in cfg.detectors:
            dec = batch.decisions(det)[:, batch.test_slice, :]
            valid = ~np.isnan(batch.statistic(det)[:, batch.test_slice, :])
            num_h0 = int(valid[:, :, 0].sum())
            num_h1 = int(valid[:, :, 1].sum())
            false_alarms = int(dec[:, :, 0].sum())
            detected = int(dec[:, :, 1].sum())
            points.append(
                SweepPoint(
                    axis_value=value,
                    detector=det,
                    detection_rate=detected / num_h1,
                    empirical_false_alarm=false_alarms / num_h0,
                    num_trials=cfg.num_trials,
                    num_steps=cfg.num_steps,
                    detected=detected,
                    num_h1=num_h1,
                    false_alarms=false_alarms,
                    num_h0=num_h0,
                )
            )
    return SweepResult(
        axis=axis,
        points=points,
        metadata={"config_hash": config_hash(cfg), "seed": cfg.seed},
    )


def roc_points(h0_samples, h1_samples, num_points: int) -> list[tuple[float, float, float]]:
    """ROC triples (threshold, false_alarm_rate, detection_rate).

    Thresholds are the midpoints between consecutive distinct pooled
    sample values plus one point beyond each extreme, evenly subsampled
    down to ``num_points`` when there are more; a decision is H1 when the
    statistic strictly exceeds the threshold.  Points come back sorted by
    false-alarm rate and are monotone in both coordinates.
    """
    h0 = np.sort(np.asarray(h0_samples, dtype=float))
    h1 = np.sort(np.asarray(h1_samples, dtype=float))
    if h0.size == 0 or h1.size == 0:
        raise ValueError("both sample sets must be nonempty")
    if num_points < 2:
        raise ValueError("num_points must be >= 2")
    pooled = np.unique(np.concatenate([h0, h1]))
    span = max(pooled[-1] - pooled[0], 1.0)
    inner = 0.5 * (pooled[1:] + pooled[:-1])
    thresholds = np.concatenate(
        [[pooled[0] - 0.01 * span], inner, [pooled[-1] + 0.01 * span]]
    )
    if thresholds.size > num_points:
        pick = np.unique(np.linspace(0, thresholds.size - 1, num_points).round().astype(int))
        thresholds = thresholds[pick]
    fa = 1.0 - np.searchsorted(h0, thresholds, side="right") / h0.size
    dr = 1.0 - np.searchsorted(h1, thresholds, side="right") / h1.size
    order = np.lexsort((dr, fa))
    return [(float(thresholds[i]), float(fa[i]), float(dr[i])) for i in order]


def roc_curve(h0_samples, h1_samples, num_points: int) -> list[tuple[float, float]]:
    """ROC points (false_alarm_rate, detection_rate); see :func:`roc_points`."""
    return [(fa, dr) for _, fa, dr in roc_points(h0_samples, h1_samples, num_points)]


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def write_csv(result, path, *, metadata: dict | None = None) -> None:
    """Write a sweep result, ROC result, or record list as CSV.

    The first line is a ``# config_hash=... seed=...`` comment; the second
    is the header.  Numeric fields carry 9 significant digits.
    """
    if isinstance(result, SweepResult):
        meta = result.metadata
        header = [
            "axis",
            "axis_value",
            "detector",
            "detection_rate",
            "empirical_false_alarm",
            "num_trials",
            "num_steps",
        ]
        rows = [
            [
                result.axis,
                _fmt(p.axis_value),
                p.detector,
                _fmt(p.detection_rate),
                _fmt(p.empirical_false_alarm),
                _fmt(p.num_trials),
                _fmt(p.num_steps),
            ]
            for p in result.points
        ]
    elif isinstance(result, RocResult):
        meta = result.metadata
        header = ["detector", "threshold", "false_alarm_rate", "detection_rate"]
        rows = [
            [det, _fmt(thr), _fmt(fa), _fmt(dr)] for det, thr, fa, dr in result.points
        ]
    else:
        # list of (detector, DetectionRecord) pairs, see trial_records()
        meta = metadata or {}
        header = ["k", "truth", "detector", "statistic", "threshold", "decision"]
        rows = [
            [
                _fmt(rec.time_index),
                rec.truth,
                det,
                _fmt(rec.statistic),
                _fmt(rec.threshold),
                rec.decision,
            ]
            for det, rec in result
        ]
    if metadata is not None:
        meta = metadata
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(
                f"# config_hash={meta.get('config_hash', '')} seed={meta.get('seed', '')}\n"
            )
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _read_rows(path) -> tuple[dict, list[dict]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            first = fh.readline().strip()
            meta = {}
            if first.startswith("#"):
                for token in first[1:].split():
                    if "=" in token:
                        key, value = token.split("=", 1)
                        meta[key] = value
            reader = csv.DictReader(fh)
            return meta, list(reader)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def read_sweep_csv(path) -> SweepResult:
    """Parse a sweep CSV back into a SweepResult (counts are reconstructed)."""
    meta, rows = _read_rows(path)
    points = []
    axis = "snr_db"
    for row in rows:
        axis = row["axis"]
        num_trials = int(row["num_trials"])
        num_steps = int(row["num_steps"])
        rate = float(row["detection_rate"])
        fa = float(row["empirical_false_alarm"])
        num_each = num_trials * (num_steps - num_steps // 2)
        points.append(
            SweepPoint(
                axis_value=float(row["axis_value"]),
                detector=row["detector"],
                detection_rate=rate,
                empirical_false_alarm=fa,
                num_trials=num_trials,
                num_steps=num_steps,
                detected=round(rate * num_each),
                num_h1=num_each,
                false_alarms=round(fa * num_each),
                num_h0=num_each,
            )
        )
    return SweepResult(axis=axis, points=points, metadata=meta)


def read_roc_csv(path) -> RocResult:
    meta, rows = _read_rows(path)
    points = [
        (
            row["detector"],
            float(row["threshold"]),
            float(row["false_alarm_rate"]),
            float(row["detection_rate"]),
        )
        for row in rows
    ]
    return RocResult(points=points, metadata=meta)


def read_records_csv(path) -> list[dict]:
    _, rows = _read_rows(path)
    return [
        {
            "k": int(row["k"]),
            "truth": row["truth"],
            "detector": row["detector"],
            "statistic": float(row["statistic"]),
            "threshold": float(row["threshold"]),
            "decision": row["decision"],
        }
        for row in rows
    ]
