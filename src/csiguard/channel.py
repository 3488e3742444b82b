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

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .numerics import bessel_j0

__all__ = ["ChannelProfile", "Link", "make_profile", "simulate"]


@dataclass(frozen=True, eq=False)
class ChannelProfile:
    """Static statistics of one simulated link.

    pdp holds the per-tap variances (unit total power); alpha is the AR(1)
    transition coefficient; process_noise_diag is the diagonal of the
    innovation covariance, (1 - alpha^2) * pdp.
    """

    num_paths: int
    pdp: np.ndarray
    normalized_doppler: float
    alpha: float
    process_noise_diag: np.ndarray

    def __post_init__(self) -> None:
        pdp = np.asarray(self.pdp, dtype=float)
        if self.num_paths < 1 or pdp.shape != (self.num_paths,):
            raise ValueError(f"pdp must have shape ({self.num_paths},), got {pdp.shape}")
        if np.any(pdp <= 0.0):
            raise ValueError("pdp entries must be strictly positive")
        if abs(pdp.sum() - 1.0) > 1e-12:
            raise ValueError(f"pdp must sum to 1, got {pdp.sum()!r}")
        if abs(self.alpha - bessel_j0(2.0 * np.pi * self.normalized_doppler)) > 1e-9:
            raise ValueError("alpha is inconsistent with the normalized Doppler")
        expected = (1.0 - self.alpha**2) * pdp
        if np.max(np.abs(np.asarray(self.process_noise_diag) - expected)) > 1e-12:
            raise ValueError("process_noise_diag must equal (1 - alpha^2) * pdp")


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
    alpha = bessel_j0(2.0 * np.pi * normalized_doppler)
    return ChannelProfile(
        num_paths=num_paths,
        pdp=pdp,
        normalized_doppler=normalized_doppler,
        alpha=alpha,
        process_noise_diag=(1.0 - alpha**2) * pdp,
    )


class Link(NamedTuple):
    """One link at one step, batched over trials.

    taps (T, L) is the true impulse response, obs (T, Q) its distorted,
    noisy pilot observation, and offset, slope (T,) the phase distortion
    applied to it.
    """

    taps: np.ndarray
    obs: np.ndarray
    offset: np.ndarray
    slope: np.ndarray


def simulate(
    profiles,
    tables,
    noise_vars,
    max_slope: float,
    rngs,
    *,
    clone_eve: bool = False,
) -> Iterator[tuple[tuple[Link, Link], ...]]:
    """Yield (alice, eve) links for a batch of trials at several points, one step at a time.

    The generative model of every Monte Carlo run.  ``profiles`` and
    ``noise_vars`` hold one channel profile and one noise variance per
    point; the profiles must share their taps' number and powers (the
    points of a sweep differ only in SNR or Doppler).  Each step yields
    one (alice, eve) pair per point, in point order.

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
    ``exp(j offset) conj(ramp(slope))`` is built once per step.  Each
    point computes only its own taps, from its own AR(1) coefficient and
    innovation scale, and scales the shared noise to its own variance.

    ``rngs`` holds one generator per trial, each consumed in a fixed
    documented order that does not depend on the number of points: first
    one ``standard_normal(4L)`` block for the two stationary starts
    (alice real, alice imaginary, eve real, eve imaginary), then per step
    one ``standard_normal(4L + 4Q)`` block (alice/eve channel
    innovations, then alice/eve observation noise, real parts before
    imaginary parts) followed by one ``uniform(size=4)`` block (alice
    offset, alice slope, eve offset, eve slope).

    ``clone_eve`` makes eve's channel identical to alice's (the
    indistinguishable-hypothesis case); eve's noise and phase draws are
    unchanged.  The generator never ends; the caller takes as many steps
    as it needs.

    Each generator fills its rows of two draw blocks, ``(T, 4L + 4Q)``
    normal and ``(T, 4)`` uniform, allocated once and refilled every
    step; while suspended at a yield the generator holds them (about
    250 KB at T = 64 on the default grid) and nothing else of their size.
    The yielded arrays are fresh every step and never alias the blocks.
    """
    profiles = list(profiles)
    noise_vars = [float(v) for v in noise_vars]
    if not profiles or len(noise_vars) != len(profiles):
        raise ValueError(
            f"need one noise variance per profile, got {len(noise_vars)} for "
            f"{len(profiles)} profiles"
        )
    for noise_var in noise_vars:
        if noise_var <= 0.0:
            raise ValueError(f"noise variance must be > 0, got {noise_var!r}")
    if max_slope < 0.0:
        raise ValueError(f"max_slope must be >= 0, got {max_slope!r}")
    pdp = profiles[0].pdp
    if any(not np.array_equal(p.pdp, pdp) for p in profiles[1:]):
        raise ValueError("all profiles must share one power-delay profile")
    num_paths = profiles[0].num_paths
    num_pilots = tables.c_t.shape[1]
    chan_scale = np.sqrt(pdp / 2.0)
    points = [
        (p.alpha, np.sqrt(p.process_noise_diag / 2.0), np.sqrt(v / 2.0))
        for p, v in zip(profiles, noise_vars)
    ]

    init = np.stack([rng.standard_normal(4 * num_paths) for rng in rngs])
    h_alice = chan_scale * (init[:, :num_paths] + 1j * init[:, num_paths : 2 * num_paths])
    h_eve = chan_scale * (
        init[:, 2 * num_paths : 3 * num_paths] + 1j * init[:, 3 * num_paths :]
    )
    # (alice, eve) taps per point; every point starts from the same draw.
    taps = [(h_alice, h_eve)] * len(points)
    nz = 4 * num_paths
    z = np.empty((len(init), nz + 4 * num_pilots))
    u = np.empty((len(init), 4))
    while True:
        # Row by row, these draw the same numbers as standard_normal(n)
        # and uniform(size=4) would, without allocating them every step.
        for rng, z_row, u_row in zip(rngs, z, u):
            rng.standard_normal(out=z_row)
            rng.random(out=u_row)

        innov_alice = z[:, :num_paths] + 1j * z[:, num_paths : 2 * num_paths]
        innov_eve = z[:, 2 * num_paths : 3 * num_paths] + 1j * z[:, 3 * num_paths : nz]
        # Both links at once on a (2, T) link axis: alice row 0, eve row 1.
        offset = -np.pi + 2.0 * np.pi * u[:, 0::2].T
        slope = max_slope * (2.0 * u[:, 1::2].T - 1.0)
        phase = np.exp(1j * offset)[..., None] * tables.ramp(slope).conj()
        zn = z[:, nz:].reshape(-1, 2, 2, num_pilots).transpose(1, 2, 0, 3)  # (link, re/im, T, Q)

        step = []
        for i, (alpha, proc_scale, noise_scale) in enumerate(points):
            h_alice, h_eve = taps[i]
            h_alice = alpha * h_alice + proc_scale * innov_alice
            h_eve = h_alice.copy() if clone_eve else alpha * h_eve + proc_scale * innov_eve
            taps[i] = (h_alice, h_eve)
            obs = np.stack((h_alice, h_eve)) @ tables.c_t
            np.multiply(phase, obs, out=obs)
            obs.real += noise_scale * zn[:, 0]
            obs.imag += noise_scale * zn[:, 1]
            step.append(
                (
                    Link(h_alice, obs[0], offset[0], slope[0]),
                    Link(h_eve, obs[1], offset[1], slope[1]),
                )
            )
        yield tuple(step)
