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
consecutive observations provides the classical phase-blind baseline,
with an empirically calibrated threshold.  The decision itself, H1 where
a statistic strictly exceeds its threshold, is made on whole batches by
:meth:`csiguard.harness.TrialBatch.decisions`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CalibrationError
from .numerics import chi2_quantile

__all__ = [
    "null_dof",
    "threshold",
    "magnitude_diff_statistic",
    "calibrate_empirical_threshold",
]


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


def calibrate_empirical_threshold(h0_samples, nominal_false_alarm: float):
    """Empirical (1 - P_FA) quantile of null-hypothesis samples, nearest-rank rule.

    Takes the samples along the last axis and returns one threshold per
    row: a float for shape (n,), an array of shape (T,) for (T, n).
    """
    samples = np.sort(np.asarray(h0_samples, dtype=float), axis=-1)
    if samples.shape[-1] < 100:
        raise CalibrationError(
            f"need at least 100 calibration samples, got {samples.shape[-1]}"
        )
    if not (0.0 < nominal_false_alarm < 1.0):
        raise ValueError("nominal_false_alarm must lie in (0, 1)")
    rank = max(1, math.ceil((1.0 - nominal_false_alarm) * samples.shape[-1]))
    return np.take(samples, rank - 1, axis=-1)
