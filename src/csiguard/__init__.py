"""Spoofing detection over simulated OFDM channel state information.

A time-varying multipath channel is observed through noisy, phase-distorted
pilot estimates; an adaptive Kalman filter jointly tracks the channel and
the per-packet phase distortion, and a chi-squared test on the whitened
innovation decides whether each observation came from the tracked
transmitter.
"""

from .channel import ChannelProfile, Link, make_profile, simulate
from .config import ScenarioConfig
from .detector import calibrate_empirical_threshold, magnitude_diff_statistic, threshold
from .errors import CalibrationError, ConfigError, NumericalError
from .harness import (
    RocResult,
    SweepPoint,
    SweepResult,
    derive_trial_seed,
    roc_points,
    run_batch,
    sweep,
    trial_records,
    write_csv,
)
from .numerics import bessel_j0, chi2_cdf, chi2_quantile
from .observation import PilotGrid, partial_dft, snr_to_noise_var

__version__ = "0.1.0"
