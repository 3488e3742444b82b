"""Independent oracles used to pin expected values in the tests.

These deliberately avoid the code paths they check: the Bessel oracle is
the defining power series summed in extended precision, the chi-squared
oracle integrates the density with composite Gauss-Legendre quadrature,
the solver oracle is naive Gaussian elimination, the scalar filter
oracle is the textbook two-line Kalman recursion, and the dense filter
(:func:`filter_step` and its parts) builds the Q x Q innovation covariance
and the Kalman gain from the textbook formulas that the batched kernels in
``csiguard._kernels`` factor through the Woodbury identity (only its phase
estimate comes from ``_kernels.phase_search``).  The dense filter solves
with :func:`hermitian_solve`, a Cholesky solve, and scores a residual with
:func:`residual_statistic`, ``2 eps^H Sigma^{-1} eps`` against the dense
covariance, the quantity the kernels' whitened quadratic form computes.
:func:`ramp` and :func:`argmin_with_ties` are plain forms of two kernels
that ``_kernels`` trims for speed and must match bit for bit: the ramp
with each factor power formed on its own, and the grid tie rule applied
to every row.  :func:`slope_derivatives` is the Newton stage's derivative
pass term by term, which the kernels read off one Gram product; the two
agree to rounding.  :func:`simulate_by_step` is the generative model of
``csiguard.channel.simulate`` built one step at a time, with every step's
arithmetic on that step's draws alone; ``simulate`` builds and yields
blocks of steps, and :func:`steps_of` of them must match it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from csiguard import _kernels
from csiguard.channel import Link
from csiguard.errors import NumericalError
from csiguard.observation import partial_dft


class SingularMatrixError(NumericalError):
    """A matrix expected to be positive definite failed to factor."""


def bessel_j0_series(x: float) -> float:
    """J0 power series sum_k (-1)^k (x/2)^(2k) / (k!)^2, 50-digit arithmetic."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        ratio_base = -((xm / 2) ** 2)
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        k = 0
        while True:
            k += 1
            term = term * ratio_base / (k * k)
            total += term
            if abs(term) < mpmath.mpf(10) ** -45 and k > 4:
                break
        return float(total)


def bessel_j0_first_zero() -> float:
    """First positive zero of J0, located by bisection on the series oracle."""
    lo, hi = 2.0, 3.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j0_series(lo) * bessel_j0_series(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def chi2_cdf_quadrature(x: float, dof: int) -> float:
    """Chi-squared CDF by composite Gauss-Legendre integration of the density."""
    if x <= 0.0:
        return 0.0
    half = dof / 2.0
    log_norm = half * math.log(2.0) + math.lgamma(half)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    num_panels = max(16, int(math.ceil(x / max(math.sqrt(2.0 * dof), 1.0))) * 8)
    edges = np.linspace(0.0, x, num_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        log_pdf = (half - 1.0) * np.log(t) - 0.5 * t - log_norm
        total += 0.5 * (b - a) * float(weights @ np.exp(log_pdf))
    return min(1.0, total)


def chi2_quantile_quadrature(p: float, dof: int) -> float:
    """Inverse of the quadrature CDF by bracketed root finding."""
    hi = dof + 40.0 * math.sqrt(2.0 * dof) + 50.0
    return brentq(lambda t: chi2_cdf_quadrature(t, dof) - p, 1e-12, hi, xtol=1e-11)


def gaussian_elimination_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=np.complex128)
    x = np.array(b, dtype=np.complex128)
    n = a.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            x[[col, pivot]] = x[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]
    return x


def hermitian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive definite `a`.

    Uses a Cholesky factorization; a factorization failure (matrix not
    positive definite) raises :class:`SingularMatrixError`.  `b` may be a
    vector or a matrix of right-hand sides.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: a is {a.shape}, b is {b.shape}")
    scale = np.max(np.abs(a))
    if scale > 0 and np.max(np.abs(a - a.conj().T)) > 1e-8 * scale:
        raise ValueError("matrix is not Hermitian")
    try:
        factor = scipy.linalg.cho_factor(a, lower=True)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"Cholesky factorization failed: {exc}") from exc
    return scipy.linalg.cho_solve(factor, b)


def residual_statistic(residual: np.ndarray, cov: np.ndarray) -> float:
    """Twice the covariance-whitened residual energy: 2 eps^H Sigma^{-1} eps."""
    residual = np.asarray(residual)
    if cov.shape != (len(residual), len(residual)):
        raise ValueError(f"covariance shape {cov.shape} does not match residual")
    value = 2.0 * complex(residual.conj() @ hermitian_solve(cov, residual))
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise NumericalError(f"residual energy has imaginary part {value.imag:.3e}")
    return value.real


def scalar_kalman(
    alpha: float,
    process_var: float,
    noise_var: float,
    observations: np.ndarray,
    init_mean: complex = 0.0,
    init_var: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Textbook scalar Kalman filter; returns updated means and variances."""
    means = np.empty(len(observations), dtype=np.complex128)
    variances = np.empty(len(observations))
    mean, var = complex(init_mean), float(init_var)
    for i, y in enumerate(observations):
        mean = alpha * mean
        var = alpha * alpha * var + process_var
        gain = var / (var + noise_var)
        mean = mean + gain * (y - mean)
        var = (1.0 - gain) * var
        means[i], variances[i] = mean, var
    return means, variances


def _int_power(base: np.ndarray, k: int) -> np.ndarray:
    """base**k for integer k >= 0 by square-and-multiply (elementwise)."""
    result = np.ones_like(base)
    factor = base
    while k:
        if k & 1:
            result = result * factor
        k >>= 1
        if k:
            factor = factor * factor
    return result


def ramp(tables, x: np.ndarray) -> np.ndarray:
    """exp(-1j * x[..., None] * q) as a cumulative product of per-column factors.

    Column 0's factor is ``base**q_0`` and column i's ``base**(q_i - q_{i-1})``
    for ``base = exp(-1j x)``, each column's formed on its own by
    :func:`_int_power`; ``np.cumprod`` then runs along the pilots.
    """
    exponents = np.diff(tables.q.astype(np.int64), prepend=0)
    base = np.exp(-1j * x)
    return np.cumprod(np.stack([_int_power(base, int(k)) for k in exponents], axis=-1), axis=-1)


def slope_derivatives(ramp, h, prep, tables) -> tuple[np.ndarray, np.ndarray]:
    """(f', f'') of the profiled slope objective, term by term.

    ``_kernels._slope_derivatives`` as it was before it read the terms off
    one Gram product: with ``G = prep.gs``, ``s``, ``s'``, ``s''`` the tap
    projections of the ramp and its two slope derivatives and ``zc = nu^H s``,

    * ``f'  = -2 Re(s'^H G s) / s2^2 - 2 Re(conj(zc) zc') / |zc|``
    * ``f'' = -2 [Re(s''^H G s) + s'^H G s'] / s2^2
      - 2 [(|zc'|^2 + Re(conj(zc) zc'')) / |zc| - Re(conj(zc) zc')^2 / |zc|^3]``

    each real form summed on its own.  The coupling terms are dropped where
    ``zc = 0``.
    """
    s2sq = prep.noise_var * prep.noise_var
    s = ((ramp * h) @ tables.c3).reshape(ramp.shape[:-1] + (3, -1))  # (..., R, 3, L)
    zcs = np.matmul(s, prep.nu_conj[..., None])[..., 0]      # (..., R, 3): zc, zc', zc''
    zc, zc1, zc2 = zcs[..., 0], zcs[..., 1], zcs[..., 2]
    g = np.matmul(s[..., :2, :], prep.gs_conj)               # rows (G s)^T, (G s')^T
    cross = _kernels._real_dot(s[..., 1:, :], g[..., :1, :])  # Re(s'^H G s), Re(s''^H G s)
    curv = _kernels._real_dot(s[..., 1, :], g[..., 1, :])     # s'^H G s'
    d1 = -2.0 * cross[..., 0] / s2sq
    d2 = -2.0 * (cross[..., 1] + curv) / s2sq
    abs_zc = np.abs(zc)
    inv = np.divide(1.0, abs_zc, out=np.zeros(abs_zc.shape), where=abs_zc > 0.0)
    dabs = (zc.real * zc1.real + zc.imag * zc1.imag) * inv   # d|zc|/dx; 0 where zc = 0
    d1 -= 2.0 * dabs
    curv_zc = zc1.real**2 + zc1.imag**2 + zc.real * zc2.real + zc.imag * zc2.imag
    d2 -= 2.0 * (curv_zc * inv - dabs * dabs * inv)
    return d1, d2


def argmin_with_ties(obj: np.ndarray, slopes: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Index of the minimum along the last axis, exact ties toward smaller |slope| then |offset|.

    The offset of entry g is ``angle(zc[..., g])``; every row takes the
    whole rule, tied or not.  A row holding a NaN has no entry equal to its
    minimum and gives index 0.
    """
    tied = obj == obj.min(axis=-1, keepdims=True)
    abs_slope = np.where(tied, np.abs(slopes), np.inf)
    tied &= abs_slope == abs_slope.min(axis=-1, keepdims=True)
    abs_offset = np.where(tied, np.abs(np.angle(zc)), np.inf)
    return np.argmin(abs_offset, axis=-1)


def _by_link(block: np.ndarray, n: int) -> np.ndarray:
    """View a (T, 4n) draw block as (re/im, link, T, n): alice then eve, real parts first."""
    return block.reshape(len(block), 2, 2, n).transpose(2, 1, 0, 3)


def steps_of(links):
    """The one-step Links of the blocks that ``csiguard.channel.simulate`` yields, in order."""
    return [Link(*(field[i] for field in link)) for link in links for i in range(len(link.obs))]


def simulate_by_step(profiles, tables, noise_vars, max_slope, rngs, num_steps, *, clone_eve=False):
    """Yield what :func:`steps_of` makes of ``csiguard.channel.simulate``, one step at a time.

    Draws in the documented per-generator order: the stationary start,
    then per step one ``standard_normal(4L + 4Q)`` and one ``uniform(size=4)``
    block.  Each step forms its innovations, noise, phases, observations
    and AR(1) update from that step's draws alone.
    """
    pdp = profiles[0].pdp
    num_paths = profiles[0].num_paths
    num_pilots = tables.c_t.shape[1]
    chan_scale = np.sqrt(pdp / 2.0)
    alpha = np.array([p.alpha for p in profiles])[:, None, None]
    proc_scale = np.sqrt(np.stack([p.process_noise_diag for p in profiles]) / 2.0)[:, None]
    noise_scale = np.sqrt(np.array(noise_vars, dtype=float) / 2.0)[:, None, None]

    init = np.stack([rng.standard_normal(4 * num_paths) for rng in rngs])
    re, im = _by_link(init, num_paths)
    taps = (chan_scale * (re + 1j * im))[:, None]
    nz = 4 * num_paths
    z = np.empty((len(init), nz + 4 * num_pilots))
    u = np.empty((len(init), 4))
    for _ in range(num_steps):
        for rng, z_row, u_row in zip(rngs, z, u):
            rng.standard_normal(out=z_row)
            rng.random(out=u_row)

        re, im = _by_link(z[:, :nz], num_paths)
        innov = (re + 1j * im)[:, None]
        noise = _by_link(z[:, nz:], num_pilots)[:, :, None]
        offset = -np.pi + 2.0 * np.pi * u[:, 0::2].T
        slope = max_slope * (2.0 * u[:, 1::2].T - 1.0)
        phase = np.exp(1j * offset)[..., None] * tables.ramp(slope).conj()

        taps = alpha * taps + proc_scale * innov
        if clone_eve:
            taps[1] = taps[0]
        obs = taps @ tables.c_t
        np.multiply(phase[:, None], obs, out=obs)
        obs.real += noise_scale * noise[0]
        obs.imag += noise_scale * noise[1]
        yield Link(taps, obs, offset, slope)


def wrap_angle(theta: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    return float((theta + np.pi) % (2.0 * np.pi) - np.pi)


@dataclass(frozen=True)
class PhaseDistortion:
    """Phase offset (radians) and phase slope (radians per subcarrier index)."""

    offset: float
    slope: float

    def __post_init__(self) -> None:
        if not (-np.pi <= self.offset < np.pi):
            object.__setattr__(self, "offset", wrap_angle(self.offset))


def phase_diagonal(d: PhaseDistortion, grid) -> np.ndarray:
    """Diagonal of the phase-error matrix: exp(j*offset) * exp(j*slope*q_m)."""
    q = np.asarray(grid.pilot_indices, dtype=float)
    return np.exp(1j * (d.offset + d.slope * q))


PREDICTED = "predicted"
UPDATED = "updated"


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Channel mean and diagonal error covariance of one filter, predicted or updated."""

    mean: np.ndarray
    cov_diag: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (PREDICTED, UPDATED):
            raise ValueError(f"kind must be 'predicted' or 'updated', got {self.kind!r}")
        if np.any(np.asarray(self.cov_diag) < 0.0):
            raise ValueError("covariance diagonal entries must be nonnegative")


def init_state(profile) -> KalmanState:
    """Zero mean with the stationary prior covariance."""
    return KalmanState(
        mean=np.zeros(profile.num_paths, dtype=np.complex128),
        cov_diag=profile.pdp.copy(),
        kind=UPDATED,
    )


def predict(state: KalmanState, profile) -> KalmanState:
    """AR(1) time update: mean scales by alpha, covariance by alpha^2 plus process noise."""
    if state.kind != UPDATED:
        raise ValueError("predict requires an updated state")
    return KalmanState(
        mean=profile.alpha * state.mean,
        cov_diag=profile.alpha**2 * state.cov_diag + profile.process_noise_diag,
        kind=PREDICTED,
    )


def innovation_covariance(b: np.ndarray, cov_diag: np.ndarray, noise_var: float) -> np.ndarray:
    """Dense innovation covariance B P B^H + noise_var I."""
    sigma = (b * cov_diag) @ b.conj().T
    sigma[np.diag_indices_from(sigma)] += noise_var
    return sigma


def negative_log_likelihood(
    d: PhaseDistortion, values: np.ndarray, pred: KalmanState, grid, noise_var: float
) -> float:
    """Whitened residual energy ``eps^H Sigma^{-1} eps`` of one observation.

    ``eps = values - E C mu`` and ``Sigma = E C P (E C)^H + noise_var I``
    under the candidate distortion ``d``; the kernels' phase search scores
    the same quantity through the factored form.
    """
    if pred.kind != PREDICTED:
        raise ValueError("negative_log_likelihood requires a predicted state")
    if len(values) != grid.num_pilots:
        raise ValueError("observation length does not match the pilot grid")
    b = phase_diagonal(d, grid)[:, None] * partial_dft(grid, len(pred.mean))
    eps = values - b @ pred.mean
    sigma = innovation_covariance(b, pred.cov_diag, noise_var)
    return float(np.real(eps.conj() @ hermitian_solve(sigma, eps)))


def gain(pred: KalmanState, b: np.ndarray, noise_var: float) -> np.ndarray:
    """Kalman gain K = P B^H (B P B^H + noise_var I)^{-1}.

    Solved against the innovation covariance rather than inverting it:
    K = (Sigma^{-1} B P)^H since Sigma and P are Hermitian.
    """
    if pred.kind != PREDICTED:
        raise ValueError("gain requires a predicted state")
    sigma = innovation_covariance(b, pred.cov_diag, noise_var)
    return hermitian_solve(sigma, b * pred.cov_diag).conj().T


def update(pred: KalmanState, values: np.ndarray, b: np.ndarray, k: np.ndarray) -> KalmanState:
    """Measurement update; keeps the diagonal of (I - K B) P.

    Mathematically that diagonal is nonnegative; entries below -1e-12 are
    treated as numerical failure and tiny negatives are clamped to zero.
    """
    if pred.kind != PREDICTED:
        raise ValueError("update requires a predicted state")
    num_paths = len(pred.mean)
    mean = pred.mean + k @ (values - b @ pred.mean)
    cov = np.real(np.diag((np.eye(num_paths) - k @ b) * pred.cov_diag[None, :]))
    if np.any(cov < -1e-12):
        raise NumericalError(
            f"updated covariance went negative: min diagonal {cov.min():.3e}"
        )
    return KalmanState(mean=mean, cov_diag=np.maximum(cov, 0.0), kind=UPDATED)


def filter_step(
    state: KalmanState,
    values: np.ndarray,
    profile,
    grid,
    noise_var: float,
    slope_points: int | None,
    bound: float | None = None,
) -> tuple[KalmanState, PhaseDistortion, np.ndarray, np.ndarray]:
    """One full filter step on one observation: predict, estimate phases, gain, update.

    The phase pair comes from ``csiguard._kernels.phase_search`` on a
    one-row batch, scoring ``slope_points`` grid slopes on
    ``[-bound, bound]``; with ``slope_points=None`` the search is skipped
    and the identity distortion is assumed (a plain Kalman filter on
    undistorted observations).

    Returns the updated state, the estimated distortion, the residual
    ``eps = values - B mean_predicted`` and the dense innovation
    covariance ``Sigma = B P B^H + noise_var I`` at the estimated
    distortion.
    """
    pred = predict(state, profile)
    if slope_points is None:
        d = PhaseDistortion(0.0, 0.0)
    else:
        tables = _kernels.grid_tables(grid, len(pred.mean))
        # A one-step block whose predicted covariance is pred's: one step of
        # process noise pred.cov_diag from a zero covariance.
        cov = pred.cov_diag[None]
        block = _kernels.block_terms(
            values[None, None], np.zeros_like(cov), np.ones(1), cov, noise_var, tables,
            slope_points, bound,
        )
        prep = _kernels.prepare_state(pred.mean[None], block, 0, tables)
        offset, slope, _ = _kernels.phase_search(block, 0, prep, tables)
        d = PhaseDistortion(offset=float(offset[0]), slope=float(slope[0]))
    b = phase_diagonal(d, grid)[:, None] * partial_dft(grid, len(pred.mean))
    residual = values - b @ pred.mean
    sigma = innovation_covariance(b, pred.cov_diag, noise_var)
    new_state = update(pred, values, b, gain(pred, b, noise_var))
    return new_state, d, residual, sigma
