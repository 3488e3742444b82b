"""Monte Carlo scenario runner: trials, sweeps, ROC data, CSV output.

Protocol per trial (the parallel collection protocol): at every step both
links evolve, each transmitter gets an independently drawn phase
distortion and noise, the filter predicts once, phase estimation and the
test statistic run for the legitimate (alice) and attacker (eve)
observations against the same predicted state, and only the alice
observation updates the filter.  Both links travel on one link axis,
alice in row 0 and eve in row 1, from :func:`csiguard.channel.simulate`
through the kernels to the statistics' last column.

Trials are mutually independent.  Trial ``i`` draws from
``numpy.random.SeedSequence([master_seed, i])`` (see
:func:`derive_trial_seed`), so aggregates do not depend on trial order
and sweep points share channel and noise realizations (common random
numbers across the sweep axis).  Within a trial the generator is consumed
in the order documented by :func:`csiguard.channel.simulate`.

:func:`run_batch` runs the points of a sweep (configurations that differ
only in SNR or Doppler) in lockstep on one stream of draws: per step
each trial's generator is drawn from once, and the trials of all points,
stacked on one row axis, are filtered in chains of whole points.  With
two or more trials a point's results do not depend, bit for bit, on
which other points ran beside it.

:class:`TrialBatch` holds each detector's statistic and threshold and is
the one place that makes decisions from them; sweeps, ROC data and the
per-step records of :func:`trial_records` all read its arrays.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import _kernels
from .channel import simulate
from .config import ScenarioConfig, config_hash
from .detector import calibrate_empirical_threshold, magnitude_diff_statistic, threshold
from .errors import CalibrationError, ConfigError, NumericalError
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

    lam has shape (trials, steps, 2) with alice in column 0 and eve in
    column 1.  mag has the same shape, and is NaN at the first step (no
    previous observation), when ``cfg.detectors`` holds "magnitude_diff";
    otherwise it is None, as is mag_threshold, and asking for that
    detector's statistic, thresholds or decisions raises CalibrationError.
    kalman_threshold is the analytic chi-squared threshold and
    mag_threshold, shape (trials,), each trial's calibrated one.  Optional
    collections: phase_true/phase_est with shape
    (trials, steps, 2, 2) storing (offset, slope) per observation, and
    mse with shape (trials, steps) holding the per-pilot mean squared
    channel-estimate error after each update.
    """

    cfg: ScenarioConfig
    lam: np.ndarray
    mag: np.ndarray | None
    kalman_threshold: float
    mag_threshold: np.ndarray | None
    phase_true: np.ndarray | None = None
    phase_est: np.ndarray | None = None
    mse: np.ndarray | None = None

    @property
    def test_slice(self) -> slice:
        """Steps used for evaluation: the second half, k > num_steps // 2.

        A configuration has at least two steps, so the test half never
        holds the first step, where the magnitude statistic is NaN.
        """
        return slice(self.cfg.num_steps // 2, None)

    def statistic(self, detector: str) -> np.ndarray:
        if detector == "kalman":
            return self.lam
        if detector == "magnitude_diff":
            if self.mag is None:
                raise CalibrationError("magnitude_diff detector was not run")
            return self.mag
        raise ValueError(f"unknown detector {detector!r}")

    def thresholds(self, detector: str) -> float | np.ndarray:
        """The detector's threshold, broadcastable against its statistic.

        The scalar kalman_threshold, or mag_threshold as (trials, 1, 1).
        """
        self.statistic(detector)  # refuses an unknown detector or one not run
        if detector == "kalman":
            return self.kalman_threshold
        return self.mag_threshold[:, None, None]

    def decisions(self, detector: str) -> np.ndarray:
        """Boolean (trials, steps, 2) array of H1 decisions.

        H1 where the statistic strictly exceeds the threshold; a statistic
        equal to it, or NaN (the magnitude statistic's first step), is H0.
        """
        with np.errstate(invalid="ignore"):
            return self.statistic(detector) > self.thresholds(detector)


# The fields a sweep varies: the only ones in which points run in
# lockstep by run_batch may differ.
_AXES = ("snr_db", "normalized_doppler")
# run_batch's kernel chains hold as many whole points as fit in this many rows, at least one.
# Per decision 64-256 rows cost least; 800 rows outgrow a 2 MB L2 cache and ran 10-25% slower.
_CHAIN_ROWS = 256


def run_batch(
    cfg: ScenarioConfig | Sequence[ScenarioConfig],
    trial_seeds,
    *,
    clone_eve: bool = False,
    collect_phase: bool = False,
    collect_mse: bool = False,
) -> TrialBatch | list[TrialBatch]:
    """Run a batch of trials in lockstep and collect per-step statistics.

    ``cfg`` is one :class:`ScenarioConfig`, which gives one
    :class:`TrialBatch`, or a sequence of configurations (points) that
    differ only in ``snr_db`` and ``normalized_doppler``, which gives one
    TrialBatch per point, in order.  The points run in lockstep on one
    :func:`csiguard.channel.simulate` stream: each step draws once for all
    of them, and their trials run as the rows of one filter, in kernel
    chains of whole points.  For two or more trials each point's batch is
    bit for bit a one-point run's on the same seeds (one trial: to about
    1e-9 relative).  Points that differ in anything else are refused with
    ConfigError.  The filter updates from alice's row only.

    ``clone_eve`` is a test hook forcing the attacker channel identical to
    the legitimate one (the indistinguishable-hypothesis case); the
    attacker still gets independent noise and phase draws (see
    :func:`csiguard.channel.simulate`).  A covariance that goes negative
    or a test statistic that is negative or not finite aborts the batch
    with NumericalError.
    """
    cfgs = [cfg] if isinstance(cfg, ScenarioConfig) else list(cfg)
    if not cfgs:
        raise ValueError("run_batch needs at least one configuration")
    base = cfgs[0]
    differing = sorted(
        {
            f.name
            for c in cfgs[1:]
            for f in fields(ScenarioConfig)
            if f.name not in _AXES and getattr(c, f.name) != getattr(base, f.name)
        }
    )
    if differing:
        raise ConfigError(
            "points run in lockstep may differ only in "
            f"{' and '.join(_AXES)}, not in {', '.join(differing)}"
        )
    profiles = [c.channel_profile() for c in cfgs]
    noise_vars = [snr_to_noise_var(c.snr_db) for c in cfgs]
    grid = base.pilot_grid()
    num_paths = profiles[0].num_paths
    num_pilots = grid.num_pilots
    num_steps = base.num_steps
    max_slope = base.resolved_max_slope()
    tables = _kernels.grid_tables(grid, num_paths)
    rngs = [np.random.default_rng(int(s)) for s in trial_seeds]
    num_trials = len(rngs)
    num_rows = len(cfgs) * num_trials

    links = simulate(profiles, tables, noise_vars, max_slope, rngs, clone_eve=clone_eve)

    # One filter over the R = P T rows, row p T + t for point p's trial t,
    # each with its point's AR(1) coefficient, process noise and noise variance.
    alpha = np.repeat([p.alpha for p in profiles], num_trials)[:, None]
    process_noise = np.repeat([p.process_noise_diag for p in profiles], num_trials, axis=0)
    noise_var = np.repeat(noise_vars, num_trials)
    mean = np.zeros((num_rows, num_paths), dtype=np.complex128)
    cov = np.tile(profiles[0].pdp, (num_rows, 1))

    shape = (num_rows, num_steps)
    lam = np.empty((*shape, 2))
    with_mag = "magnitude_diff" in base.detectors
    mag = np.full((*shape, 2), np.nan) if with_mag else None
    phase_true = np.empty((num_trials, num_steps, 2, 2)) if collect_phase else None
    phase_est = np.empty((*shape, 2, 2)) if collect_phase else None
    mse = np.empty(shape) if collect_mse else None

    per_chain = max(1, _CHAIN_ROWS // num_trials)
    # zip draws the next step from links only while range has steps left.
    for k, link in zip(range(1, num_steps + 1), links):
        mean *= alpha
        cov = alpha**2 * cov + process_noise
        for p in range(0, len(cfgs), per_chain):
            rows = slice(p * num_trials, (p + per_chain) * num_trials)
            # The chain's (2, rows, Q) observations, alice row 0, eve row 1:
            # simulate lays obs out point by point, so one point is a view.
            obs = link.obs[:, p : p + per_chain].reshape(2, -1, num_pilots)
            prep = _kernels.prepare_state(mean[rows], cov[rows], noise_var[rows], tables)
            est_offset, est_slope, residual = _kernels.phase_search(
                obs, prep, tables, base.slope_points, max_slope
            )
            # The residual exp(-j offset) (ramp obs) - m, formed in the ramp.
            np.multiply(residual, obs, out=residual)
            np.multiply(np.exp(-1j * est_offset)[..., None], residual, out=residual)
            residual -= prep.m
            ch_y, quad = _kernels.whitened_quadform(residual, prep, tables)
            lam[rows, k - 1, :] = 2.0 * quad.T
            if collect_phase:
                phase_est[rows, k - 1] = np.transpose([est_offset, est_slope])
            mean[rows], cov[rows] = _kernels.kalman_update(mean[rows], cov[rows], ch_y[0], prep)

        if with_mag:
            cur_abs = np.abs(link.obs).reshape(2, num_rows, num_pilots)
            if k > 1:
                mag[:, k - 1, :] = magnitude_diff_statistic(cur_abs, prev_alice_abs).T
            prev_alice_abs = cur_abs[0]
        if collect_phase:
            phase_true[:, k - 1] = np.transpose([link.offset, link.slope])
        if np.any(cov < -1e-12):
            raise NumericalError(
                f"trial batch aborted at step {k}: updated covariance reached {cov.min():.3e}"
            )
        bad = lam[:, k - 1][~(np.isfinite(lam[:, k - 1]) & (lam[:, k - 1] >= 0.0))]
        if bad.size:
            raise NumericalError(
                f"trial batch aborted at step {k}: test statistic reached {bad[0]:.3e}"
            )
        cov = np.maximum(cov, 0.0)
        if collect_mse:
            err = (mean - link.taps[0].reshape(num_rows, num_paths)) @ tables.c_t
            mse[:, k - 1] = np.einsum("tq,tq->t", err.conj(), err).real / num_pilots

    kalman_threshold = threshold(
        base.nominal_false_alarm, num_pilots, fitted_params=_kernels.PHASE_PARAMETERS
    )
    lam, mag, phase_est, mse = (
        None if a is None else a.reshape(len(cfgs), num_trials, *a.shape[1:])
        for a in (lam, mag, phase_est, mse)
    )
    # Each trial's magnitude threshold comes from alice's steps 2 to num_steps // 2.
    if with_mag:
        alice_h0 = mag[..., 1 : num_steps // 2, 0]
        mag_threshold = calibrate_empirical_threshold(alice_h0, base.nominal_false_alarm)
    batches = [
        TrialBatch(
            cfg=point_cfg,
            lam=lam[p],
            mag=mag[p] if with_mag else None,
            kalman_threshold=kalman_threshold,
            mag_threshold=mag_threshold[p] if with_mag else None,
            phase_true=phase_true.copy() if collect_phase else None,
            phase_est=phase_est[p] if collect_phase else None,
            mse=mse[p] if collect_mse else None,
        )
        for p, point_cfg in enumerate(cfgs)
    ]
    return batches[0] if isinstance(cfg, ScenarioConfig) else batches


def trial_records(cfg: ScenarioConfig, trial_seed: int) -> list[tuple]:
    """Run one trial and return its rows (k, truth, detector, statistic, threshold, decision).

    The columns are those of the records CSV.  Per step there are two rows
    per configured detector, alice then eve, with decision "H1" or "H0"
    as :meth:`TrialBatch.decisions` gives it (the magnitude detector starts
    at the second step, which is the first with a previous observation).
    Identical (cfg, trial_seed) always produce an identical list.
    """
    batch = run_batch(cfg, [trial_seed])
    columns = []
    for det in cfg.detectors:
        stat = batch.statistic(det)
        thr = np.broadcast_to(batch.thresholds(det), stat.shape)
        dec = np.where(batch.decisions(det), "H1", "H0")
        columns.append((det, stat[0].tolist(), thr[0].tolist(), dec[0].tolist()))
    return [
        (k, truth, det, stat[k - 1][col], thr[k - 1][col], dec[k - 1][col])
        for k in range(1, cfg.num_steps + 1)
        for det, stat, thr, dec in columns
        if not (det == "magnitude_diff" and k == 1)
        for col, truth in enumerate(("alice", "eve"))
    ]


@dataclass(frozen=True)
class SweepPoint:
    """Rates of one detector at one axis value, pooled over the test half."""

    axis_value: float
    detector: str
    detection_rate: float
    empirical_false_alarm: float
    num_trials: int
    num_steps: int


@dataclass(eq=False)
class SweepResult:
    """Sweep rows in axis order; ``write_csv(result, path, cfg)`` writes
    them under the header line of ``cfg``."""

    axis: str
    points: list[SweepPoint]


@dataclass(eq=False)
class RocResult:
    """ROC rows; ``write_csv(result, path, cfg)`` writes them under the
    header line of ``cfg``."""

    points: list[tuple[str, float, float, float]]  # detector, threshold, fa, dr


def sweep(cfg: ScenarioConfig, axis: str, values) -> SweepResult:
    """Detection and false-alarm rates over an axis of scenario values.

    Rates are pooled over the test half of every trial (steps
    k > num_steps // 2).  All sweep points run in lockstep in one
    :func:`run_batch` on the same per-trial seeds, so they share every
    channel, noise and phase draw (common random numbers across the axis)
    and each step's draws are made once for all of them.  ``values`` must
    be strictly ascending: a repeated value would only run its point twice.
    """
    if axis not in _AXES:
        raise ValueError(f"axis must be one of {_AXES}, got {axis!r}")
    values = [float(v) for v in values]
    if not values:
        raise ValueError("values must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(
            f"{axis} values must be distinct and ascending, got "
            f"{','.join(format(v, 'g') for v in values)}"
        )
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    batches = run_batch([replace(cfg, **{axis: value}) for value in values], seeds)
    points: list[SweepPoint] = []
    for value, batch in zip(values, batches):
        for det in cfg.detectors:
            dec = batch.decisions(det)[:, batch.test_slice, :]
            points.append(
                SweepPoint(
                    axis_value=value,
                    detector=det,
                    detection_rate=float(dec[:, :, 1].mean()),
                    empirical_false_alarm=float(dec[:, :, 0].mean()),
                    num_trials=cfg.num_trials,
                    num_steps=cfg.num_steps,
                )
            )
    return SweepResult(axis=axis, points=points)


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


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def write_csv(result, path, cfg: ScenarioConfig) -> None:
    """Write a sweep result, ROC result, or the rows of :func:`trial_records` as CSV.

    The first line is a ``# config_hash=... seed=...`` comment naming
    ``cfg``, the configuration that produced ``result`` (for a sweep, the
    base configuration before the axis is set); the second is the header.
    Numeric fields carry 9 significant digits.
    """
    if isinstance(result, SweepResult):
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
        header = ["detector", "threshold", "false_alarm_rate", "detection_rate"]
        rows = [
            [det, _fmt(thr), _fmt(fa), _fmt(dr)] for det, thr, fa, dr in result.points
        ]
    else:
        header = ["k", "truth", "detector", "statistic", "threshold", "decision"]
        rows = [
            [_fmt(k), truth, det, _fmt(stat), _fmt(thr), dec]
            for k, truth, det, stat, thr, dec in result
        ]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# config_hash={config_hash(cfg)} seed={cfg.seed}\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _read_rows(path) -> list[dict]:
    """The rows of a CSV from :func:`write_csv`, below its comment line."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            fh.readline()
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def read_sweep_csv(path) -> SweepResult:
    """Parse a sweep CSV back into a SweepResult."""
    points = []
    axis = "snr_db"
    for row in _read_rows(path):
        axis = row["axis"]
        points.append(
            SweepPoint(
                axis_value=float(row["axis_value"]),
                detector=row["detector"],
                detection_rate=float(row["detection_rate"]),
                empirical_false_alarm=float(row["empirical_false_alarm"]),
                num_trials=int(row["num_trials"]),
                num_steps=int(row["num_steps"]),
            )
        )
    return SweepResult(axis=axis, points=points)


def read_roc_csv(path) -> RocResult:
    points = [
        (
            row["detector"],
            float(row["threshold"]),
            float(row["false_alarm_rate"]),
            float(row["detection_rate"]),
        )
        for row in _read_rows(path)
    ]
    return RocResult(points=points)


def read_records_csv(path) -> list[dict]:
    return [
        {
            "k": int(row["k"]),
            "truth": row["truth"],
            "detector": row["detector"],
            "statistic": float(row["statistic"]),
            "threshold": float(row["threshold"]),
            "decision": row["decision"],
        }
        for row in _read_rows(path)
    ]
