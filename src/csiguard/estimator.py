"""Adaptive Kalman channel estimator with joint phase-distortion estimation.

One filter tracks one link.  Each step predicts the time-domain channel
through the AR(1) model, estimates the packet's phase offset and slope by
minimizing the whitened residual energy, and updates the channel estimate
with the de-rotated observation.  The error covariance is propagated as a
diagonal: the update keeps only the diagonal of ``(I - K B) P``.

The functions here operate on a single filter instance and defer the
numerical work to the batched kernels in :mod:`csiguard._kernels`; dense
reference forms (:func:`negative_log_likelihood`, :func:`gain`,
:func:`update`) follow the textbook formulas directly and double as
independent checks of the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .channel import ChannelProfile
from .errors import NumericalError
from .numerics import hermitian_solve
from .observation import (
    CsiObservation,
    PhaseDistortion,
    PilotGrid,
    partial_dft,
    phase_diagonal,
)

__all__ = [
    "KalmanState",
    "PhaseSearchConfig",
    "init_state",
    "predict",
    "negative_log_likelihood",
    "estimate_phase",
    "gain",
    "update",
    "filter_step",
]

PREDICTED = "predicted"
UPDATED = "updated"


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Channel mean and diagonal error covariance, predicted or updated."""

    mean: np.ndarray
    cov_diag: np.ndarray
    kind: str
    time_index: int

    def __post_init__(self) -> None:
        if self.kind not in (PREDICTED, UPDATED):
            raise ValueError(f"kind must be 'predicted' or 'updated', got {self.kind!r}")
        if np.any(np.asarray(self.cov_diag) < 0.0):
            raise ValueError("covariance diagonal entries must be nonnegative")


def _default_slope_bound() -> float:
    # Phase ramp of up to 4 samples of packet-detection delay at M = 128.
    return 2.0 * np.pi * 4.0 / 128.0


@dataclass(frozen=True)
class PhaseSearchConfig:
    """Search strategy for the per-packet (offset, slope) estimate.

    The offset is always minimized in closed form (the objective is an
    exact cosine in the offset).  The slope is located on a coarse grid of
    ``slope_grid_points`` equally spaced values over
    ``[-slope_search_bound, slope_search_bound]`` and then refined by three
    Newton steps on the exact derivatives, confined to the grid cells on
    either side of the grid argmin (see :func:`csiguard._kernels.phase_search`).
    The grid must therefore be finer than the likelihood's main lobe, which
    :class:`csiguard.config.ScenarioConfig` checks against its pilot grid.
    ``objective`` selects the whitened residual energy (default) or the
    literal unwhitened cross-term variant; ``include_log_det`` adds the
    log-determinant of the innovation covariance to reported objective
    values, which cannot change the minimizer because the determinant is
    invariant under the diagonal unitary rotation.
    """

    slope_grid_points: int = 64
    slope_search_bound: float = field(default_factory=_default_slope_bound)
    objective: str = "whitened"
    include_log_det: bool = False

    def __post_init__(self) -> None:
        if self.slope_grid_points < 2:
            raise ValueError("the slope grid needs at least 2 points")
        if self.slope_search_bound <= 0.0:
            raise ValueError("slope_search_bound must be > 0")
        if self.objective not in ("whitened", "paper-literal"):
            raise ValueError(f"unknown objective {self.objective!r}")


def init_state(profile: ChannelProfile) -> KalmanState:
    """Zero mean with the stationary prior covariance."""
    return KalmanState(
        mean=np.zeros(profile.num_paths, dtype=np.complex128),
        cov_diag=profile.pdp.copy(),
        kind=UPDATED,
        time_index=0,
    )


def predict(state: KalmanState, profile: ChannelProfile) -> KalmanState:
    """AR(1) time update: mean scales by alpha, covariance by alpha^2 plus process noise."""
    if state.kind != UPDATED:
        raise ValueError("predict requires an updated state")
    return KalmanState(
        mean=profile.alpha * state.mean,
        cov_diag=profile.alpha**2 * state.cov_diag + profile.process_noise_diag,
        kind=PREDICTED,
        time_index=state.time_index + 1,
    )


def innovation_covariance(b: np.ndarray, cov_diag: np.ndarray, noise_var: float) -> np.ndarray:
    """Dense innovation covariance B P B^H + noise_var I."""
    sigma = (b * cov_diag) @ b.conj().T
    sigma[np.diag_indices_from(sigma)] += noise_var
    return sigma


def negative_log_likelihood(
    d: PhaseDistortion,
    h_obs: CsiObservation,
    pred: KalmanState,
    grid: PilotGrid,
    noise_var: float,
) -> float:
    """Whitened residual energy of the observation under a candidate distortion.

    This is the dense reference form ``eps^H Sigma^{-1} eps`` with
    ``eps = h_obs - E C mu`` and ``Sigma = E C P (E C)^H + noise_var I``;
    the search path in :func:`estimate_phase` evaluates the same quantity
    through the factored kernels.
    """
    if pred.kind != PREDICTED:
        raise ValueError("negative_log_likelihood requires a predicted state")
    if len(h_obs.values) != grid.num_pilots:
        raise ValueError("observation length does not match the pilot grid")
    b = phase_diagonal(d, grid)[:, None] * partial_dft(grid, len(pred.mean))
    eps = h_obs.values - b @ pred.mean
    sigma = innovation_covariance(b, pred.cov_diag, noise_var)
    return float(np.real(eps.conj() @ hermitian_solve(sigma, eps)))


def estimate_phase(
    h_obs: CsiObservation,
    pred: KalmanState,
    grid: PilotGrid,
    noise_var: float,
    cfg: PhaseSearchConfig,
) -> PhaseDistortion:
    """Distortion pair minimizing :func:`negative_log_likelihood`.

    Deterministic given the config; objective ties resolve toward the
    smaller |slope|, then the smaller |offset|.
    """
    if pred.kind != PREDICTED:
        raise ValueError("estimate_phase requires a predicted state")
    tables = _kernels.grid_tables(grid, len(pred.mean))
    prep = _kernels.prepare_state(
        pred.mean[None, :],
        pred.cov_diag[None, :],
        noise_var,
        tables,
        include_log_det=cfg.include_log_det,
    )
    offset, slope = _kernels.phase_search(h_obs.values[None, :], prep, grid, tables, cfg)
    return PhaseDistortion(offset=float(offset[0]), slope=float(slope[0]))


def gain(pred: KalmanState, b: np.ndarray, noise_var: float) -> np.ndarray:
    """Kalman gain K = P B^H (B P B^H + noise_var I)^{-1}.

    Solved against the innovation covariance rather than inverting it:
    K = (Sigma^{-1} B P)^H since Sigma and P are Hermitian.
    """
    if pred.kind != PREDICTED:
        raise ValueError("gain requires a predicted state")
    sigma = innovation_covariance(b, pred.cov_diag, noise_var)
    return hermitian_solve(sigma, b * pred.cov_diag).conj().T


def update(
    pred: KalmanState, h_obs: CsiObservation, b: np.ndarray, k: np.ndarray
) -> KalmanState:
    """Measurement update; keeps the diagonal of (I - K B) P.

    Mathematically that diagonal is nonnegative; entries below -1e-12 are
    treated as numerical failure and tiny negatives are clamped to zero.
    """
    if pred.kind != PREDICTED:
        raise ValueError("update requires a predicted state")
    num_paths = len(pred.mean)
    mean = pred.mean + k @ (h_obs.values - b @ pred.mean)
    cov = np.real(np.diag((np.eye(num_paths) - k @ b) * pred.cov_diag[None, :]))
    if np.any(cov < -1e-12):
        raise NumericalError(
            f"updated covariance went negative: min diagonal {cov.min():.3e}"
        )
    return KalmanState(
        mean=mean,
        cov_diag=np.maximum(cov, 0.0),
        kind=UPDATED,
        time_index=pred.time_index,
    )


def filter_step(
    state: KalmanState,
    h_obs: CsiObservation,
    profile: ChannelProfile,
    grid: PilotGrid,
    noise_var: float,
    cfg: PhaseSearchConfig | None,
) -> tuple[KalmanState, PhaseDistortion, np.ndarray, np.ndarray]:
    """One full filter step: predict, estimate phases, gain, update.

    With ``cfg=None`` the phase estimation is skipped and the identity
    distortion is assumed (useful when the observation is known to be
    undistorted, and for comparing against a plain Kalman filter).

    Returns the updated state, the estimated distortion, the residual
    ``eps = h_obs - B mean_predicted`` and the dense innovation
    covariance ``Sigma = B P B^H + noise_var I`` evaluated at the
    estimated distortion.
    """
    if h_obs.time_index != state.time_index + 1:
        raise ValueError(
            f"observation at k={h_obs.time_index} does not follow state at k={state.time_index}"
        )
    pred = predict(state, profile)
    if cfg is None:
        d = PhaseDistortion(0.0, 0.0)
    else:
        d = estimate_phase(h_obs, pred, grid, noise_var, cfg)
    b = phase_diagonal(d, grid)[:, None] * partial_dft(grid, len(pred.mean))
    residual = h_obs.values - b @ pred.mean
    sigma = innovation_covariance(b, pred.cov_diag, noise_var)
    k = gain(pred, b, noise_var)
    new_state = update(pred, h_obs, b, k)
    return new_state, d, residual, sigma
