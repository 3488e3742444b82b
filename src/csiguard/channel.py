"""Time-domain multipath channel simulator.

The channel is Rayleigh fading with an exponential power-delay profile.
Temporal correlation follows the classical Jakes Doppler spectrum,
approximated by a first-order autoregressive recursion whose parameters
come from the Yule-Walker fit: the tap correlation between consecutive
symbols is J0(2*pi*fd*Ts), and the innovation variance per tap is
(1 - alpha^2) times the tap power, which keeps every tap stationary at
its profile power.  :func:`simulate` draws both links of a trial and
their distorted, noisy pilot observations, at one or more sweep points
that share every random draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .numerics import bessel_j0

__all__ = ["ChannelProfile", "Link", "make_profile", "simulate"]


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """Static statistics of one simulated link.

    pdp holds the per-tap variances (unit total power) and
    normalized_doppler the product fd*Ts.  The other fields follow from
    them: num_paths is the length of pdp, alpha = J0(2 pi fd Ts) the AR(1)
    transition coefficient, and process_noise_diag = (1 - alpha^2) * pdp
    the diagonal of the innovation covariance.
    """

    pdp: np.ndarray
    normalized_doppler: float
    num_paths: int = field(init=False)
    alpha: float = field(init=False)
    process_noise_diag: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pdp = np.asarray(self.pdp, dtype=float)
        if pdp.ndim != 1 or pdp.size < 1:
            raise ValueError(f"pdp must be a nonempty vector, got shape {pdp.shape}")
        if np.any(pdp <= 0.0):
            raise ValueError("pdp entries must be strictly positive")
        if abs(pdp.sum() - 1.0) > 1e-12:
            raise ValueError(f"pdp must sum to 1, got {pdp.sum()!r}")
        alpha = bessel_j0(2.0 * np.pi * self.normalized_doppler)
        object.__setattr__(self, "pdp", pdp)
        object.__setattr__(self, "num_paths", pdp.size)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "process_noise_diag", (1.0 - alpha**2) * pdp)


def make_profile(num_paths: int, normalized_doppler: float, pdp_decay: float) -> ChannelProfile:
    """Build a channel profile with an exponential power-delay profile.

    Tap l carries power proportional to exp(-pdp_decay * l), normalized to
    unit total power.  The normalized Doppler fd*Ts must stay below 0.5,
    where the AR(1) surrogate of the Jakes spectrum stops being meaningful.
    """
    if num_paths < 1:
        raise ValueError(f"num_paths must be >= 1, got {num_paths}")
    if not 0.0 <= pdp_decay < np.inf:
        raise ValueError(f"pdp_decay must be finite and >= 0, got {pdp_decay}")
    if not (0.0 <= normalized_doppler < 0.5):
        raise ValueError(
            f"normalized Doppler must lie in [0, 0.5), got {normalized_doppler!r}"
        )
    pdp = np.exp(-pdp_decay * np.arange(num_paths, dtype=float))
    pdp /= pdp.sum()
    return ChannelProfile(pdp=pdp, normalized_doppler=normalized_doppler)


class Link(NamedTuple):
    """Both links of every point at K consecutive steps, batched over trials.

    The fields lead with the step axis, then the (alice, eve) link axis,
    alice in row 0 and eve in row 1: taps (K, 2, P, T, L) is the true
    impulse response at each of P points, obs (K, 2, P, T, Q) its
    distorted, noisy pilot observation, and offset, slope (K, 2, T) the
    phase distortion, which all points share.
    """

    taps: np.ndarray
    obs: np.ndarray
    offset: np.ndarray
    slope: np.ndarray


# simulate builds as many whole steps at a time as fit in this many rows
# (P points times T trials per step), at least one: 32 steps at one
# trial, one step from 17 rows up.  Longer blocks save little more per
# step and hold more memory.
_BLOCK_ROWS = 32


def _by_link(block: np.ndarray, n: int) -> np.ndarray:
    """View a (K, T, 4n) draw block as (re/im, K, link, T, n): alice then eve, real parts first."""
    return block.reshape(*block.shape[:2], 2, 2, n).transpose(3, 0, 2, 1, 4)


def simulate(
    profiles,
    tables,
    noise_vars,
    max_slope: float,
    rngs,
    num_steps: int,
    *,
    clone_eve: bool = False,
) -> Iterator[Link]:
    """Yield both links of a batch of trials at several points for ``num_steps`` steps.

    The generative model of every Monte Carlo run.  ``profiles`` and
    ``noise_vars`` hold one channel profile and one noise variance per
    point; the profiles must share their taps' number and powers (the
    points of a sweep differ only in SNR or Doppler).  Each block of K
    consecutive steps (below) yields one :class:`Link` whose fields lead
    with the block's step axis, and whose taps and observations carry a
    point axis after the link axis, points in order, alice in row 0 and
    eve in row 1.

    At every point both links are AR(1) channels with that point's
    profile, started at their stationary law.  At each step each link gets
    a phase offset uniform on [-pi, pi), a phase slope uniform on
    [-max_slope, max_slope] and circularly-symmetric complex noise of the
    point's variance per pilot, so its observation is
    ``exp(j offset) exp(j slope q) * (C h) + w`` with C the partial DFT
    of ``tables`` (a :class:`csiguard._kernels.GridTables`).

    All points share the draws, so they see common random numbers: the
    stationary starts, the channel innovations, the unit-variance
    observation noise, and the phase offsets and slopes, whose factor
    ``exp(j offset) conj(ramp(slope))`` is built once for all points.
    Each point's AR(1) coefficient, innovation scale and noise scale
    broadcast as ``(P, 1, 1)``, ``(P, 1, L)`` and ``(P, 1, 1)`` against
    the shared draws, and ``C h`` is one ``(T, L)`` product per step,
    link and point.

    ``rngs`` holds one generator per trial, each consumed in a fixed
    documented order that does not depend on the number of points: first
    one ``standard_normal(4L)`` block for the two stationary starts
    (alice real, alice imaginary, eve real, eve imaginary), then per step
    one ``standard_normal(4L + 4Q)`` block (alice/eve channel
    innovations, then alice/eve observation noise, real parts before
    imaginary parts) followed by one ``uniform(size=4)`` block (alice
    offset, alice slope, eve offset, eve slope).  Exactly ``num_steps``
    steps are drawn, so after the last yield each generator has made the
    start's draws and ``num_steps`` steps' draws, and no more.

    ``clone_eve`` makes eve's channel identical to alice's (the
    indistinguishable-hypothesis case: ``taps[1]`` is a copy of
    ``taps[0]``); eve's noise and phase draws are unchanged.

    Steps are built in blocks of K consecutive steps, K the number of
    whole steps of ``P T`` rows that fit in 32 rows, at least one (so
    K = 32 at one point and one trial, and K = 1 from 17 rows up): the
    generators fill K steps of draws, step by step in the order above,
    and the innovations, noise, phases and observations of the block are
    formed in one pass each.  Only the AR(1) tap recursion runs step by
    step.  Every element is computed by the same operations as in a
    step-at-a-time build, so the results do not depend on K, bit for bit.

    Each generator fills its rows of two draw blocks, ``(K, T, 4L + 4Q)``
    normal and ``(K, T, 4)`` uniform, allocated once and refilled every
    block.  Each block's taps, observations, offsets and slopes go into
    fresh ``(K, ...)`` arrays, which the yielded Link holds, never views
    of the draw blocks; the last block holds the steps left over, fewer
    than K.  :func:`csiguard.harness.run_batch` runs the filter's
    state-free terms once per yielded block.  While suspended at a yield
    the generator holds the two draw blocks, the current block's arrays
    and its phase factor: on the default grid about 0.4 MB at one trial
    (K = 32) and 0.75 MB at T = 64 (K = 1), 250 KB of it the draw blocks.
    """
    profiles = list(profiles)
    noise_vars = np.array(noise_vars, dtype=float)
    if not profiles or noise_vars.shape != (len(profiles),):
        raise ValueError(
            f"need one noise variance per profile, got {noise_vars.size} for "
            f"{len(profiles)} profiles"
        )
    if np.any(noise_vars <= 0.0):
        raise ValueError(f"noise variance must be > 0, got {float(noise_vars.min())!r}")
    if max_slope < 0.0:
        raise ValueError(f"max_slope must be >= 0, got {max_slope!r}")
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps!r}")
    pdp = profiles[0].pdp
    if any(not np.array_equal(p.pdp, pdp) for p in profiles[1:]):
        raise ValueError("all profiles must share one power-delay profile")
    num_paths = profiles[0].num_paths
    num_pilots = tables.c_t.shape[1]
    chan_scale = np.sqrt(pdp / 2.0)
    alpha = np.array([p.alpha for p in profiles])[:, None, None]
    proc_scale = np.sqrt(np.stack([p.process_noise_diag for p in profiles]) / 2.0)[:, None]
    noise_scale = np.sqrt(noise_vars / 2.0)[:, None, None]

    init = np.stack([rng.standard_normal(4 * num_paths) for rng in rngs])
    num_trials = len(init)
    re, im = _by_link(init[None], num_paths)
    # Every point starts from the same (2, 1, T, L) draw.
    taps = (chan_scale * (re[0] + 1j * im[0]))[:, None]
    block = max(1, min(num_steps, _BLOCK_ROWS // (len(profiles) * num_trials)))
    nz = 4 * num_paths
    z = np.empty((block, num_trials, nz + 4 * num_pilots))
    u = np.empty((block, num_trials, 4))
    for start in range(0, num_steps, block):
        k = min(block, num_steps - start)
        # Step by step, so each generator draws in its documented order.
        for z_step, u_step in zip(z[:k], u[:k]):
            for rng, z_row, u_row in zip(rngs, z_step, u_step):
                # Row by row, these draw the same numbers as standard_normal(n)
                # and uniform(size=4) would, without allocating them.
                rng.standard_normal(out=z_row)
                rng.random(out=u_row)

        re, im = _by_link(z[:k, :, :nz], num_paths)
        # (K, 2, P, T, L): each point's scaled innovations.
        innov = proc_scale * (re + 1j * im)[:, :, None]
        noise = _by_link(z[:k, :, nz:], num_pilots)[:, :, :, None]
        offset = -np.pi + 2.0 * np.pi * u[:k, :, 0::2].transpose(0, 2, 1)
        slope = max_slope * (2.0 * u[:k, :, 1::2].transpose(0, 2, 1) - 1.0)
        phase = np.exp(1j * offset)[..., None] * tables.ramp(slope).conj()

        # Each step's taps read the previous step's, so this runs per step.
        block_taps = np.empty(innov.shape, dtype=np.complex128)
        for i in range(k):
            np.multiply(alpha, taps, out=block_taps[i])
            block_taps[i] += innov[i]
            taps = block_taps[i]
        if clone_eve:
            # Alice's taps never read eve's, and a copy per step would
            # overwrite each of eve's: one copy per block gives the same.
            block_taps[:, 1] = block_taps[:, 0]
        obs = block_taps @ tables.c_t
        np.multiply(phase[:, :, None], obs, out=obs)
        obs.real += noise_scale * noise[0]
        obs.imag += noise_scale * noise[1]
        yield Link(block_taps, obs, offset, slope)
