"""Residual-based spoofing detection.

Under the null hypothesis (legitimate transmitter, matched model) the
whitened residual energy, doubled, follows a chi-squared law.  Each pilot
contributes one complex, i.e. two real, degrees of freedom, and each real
phase parameter fitted on the same packet before the residual is formed
absorbs one of them (:func:`null_dof`).  The joint phase search fits two,
the packet's phase offset and phase slope, so the statistic the Monte
Carlo harness thresholds follows chi-squared(2Q - 2) rather than the
paper's nominal chi-squared(2Q); a residual whose phase is known and not
fitted keeps all 2Q.  The decision threshold for a target false-alarm rate
is the quantile of that law.  A magnitude-difference detector over
consecutive observations provides the classical phase-blind baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError
from .numerics import chi2_quantile

__all__ = [
    "DetectionRecord",
    "null_dof",
    "threshold",
    "decide",
    "magnitude_diff_statistic",
    "calibrate_empirical_threshold",
]

H0 = "H0"
H1 = "H1"


@dataclass(frozen=True)
class DetectionRecord:
    """One per-step detection outcome with its ground truth label."""

    time_index: int
    statistic: float
    threshold: float
    decision: str
    truth: str
    nominal_false_alarm: float

    def __post_init__(self) -> None:
        if self.statistic < 0.0:
            raise ValueError("statistic must be nonnegative")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.truth not in ("alice", "eve"):
            raise ValueError(f"truth must be 'alice' or 'eve', got {self.truth!r}")
        if not (0.0 < self.nominal_false_alarm < 1.0):
            raise ValueError("nominal_false_alarm must lie in (0, 1)")
        if self.decision != decide(self.statistic, self.threshold):
            raise ValueError("decision is inconsistent with statistic and threshold")


def null_dof(num_pilots: int, fitted_params: int = 0) -> int:
    """Degrees of freedom of the null statistic: 2 Q less one per fitted phase parameter.

    ``fitted_params`` counts the real phase parameters estimated on the
    same observation that enters the residual; 0 is the known-phase case.
    """
    return 2 * num_pilots - fitted_params


def threshold(nominal_false_alarm: float, num_pilots: int, *, fitted_params: int = 0) -> float:
    """Decision threshold: chi-squared quantile at 1 - P_FA under the null law.

    The law has :func:`null_dof` degrees of freedom, ``2 Q - fitted_params``:
    pass ``fitted_params=2`` for a residual de-rotated by the jointly fitted
    (offset, slope) pair, and keep the default 0 when the phase is known.
    """
    return chi2_quantile(1.0 - nominal_false_alarm, null_dof(num_pilots, fitted_params))


def decide(statistic: float, d: float) -> str:
    """H1 iff the statistic strictly exceeds the threshold (boundary accepts)."""
    return H1 if statistic > d else H0


def magnitude_diff_statistic(current_abs: np.ndarray, previous_abs: np.ndarray) -> np.ndarray:
    """Normalized squared magnitude change between consecutive observations.

    Takes the (..., T, Q) magnitudes |current| of a batch of observations
    (the harness passes both links' packets as one (2, T, Q) batch) and
    the (T, Q) magnitudes |previous| they are all compared with, and
    returns || |current| - |previous| ||^2 / || |previous| ||^2 per row,
    shape (..., T), insensitive to any phase distortion of either
    observation.
    """
    if previous_abs.ndim != 2 or current_abs.shape[-2:] != previous_abs.shape:
        raise ValueError("observations must have shape (..., T, Q) against (T, Q)")
    denom = np.einsum("tq,tq->t", previous_abs, previous_abs)
    if np.any(denom == 0.0):
        raise ValueError("previous observation has zero magnitude")
    diff = current_abs - previous_abs
    return np.einsum("...tq,...tq->...t", diff, diff) / denom


def calibrate_empirical_threshold(h0_samples, nominal_false_alarm: float) -> float:
    """Empirical (1 - P_FA) quantile of null-hypothesis samples, nearest-rank rule."""
    samples = np.sort(np.asarray(h0_samples, dtype=float))
    if samples.size < 100:
        raise CalibrationError(
            f"need at least 100 calibration samples, got {samples.size}"
        )
    if not (0.0 < nominal_false_alarm < 1.0):
        raise ValueError("nominal_false_alarm must lie in (0, 1)")
    rank = max(1, math.ceil((1.0 - nominal_false_alarm) * samples.size))
    return float(samples[rank - 1])
