"""Pilot grid of the DFT-domain CSI observations.

A receiver estimating the channel from pilot subcarriers sees
``E(offset, slope) @ C @ h + w``: the partial DFT of the impulse response,
rotated by a per-packet phase error (a common offset from the carrier
frequency offset plus a ramp across subcarriers from the packet-detection
delay), plus complex Gaussian noise.  This module holds the grid, the
partial DFT C and the noise level; :func:`csiguard.channel.simulate`
draws the observations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["PilotGrid", "partial_dft", "snr_to_noise_var"]


@dataclass(frozen=True)
class PilotGrid:
    """Pilot subcarrier layout of the OFDM symbol."""

    dft_size: int
    pilot_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.pilot_indices
        if len(idx) == 0:
            raise ValueError("at least one pilot index is required")
        if any(not (0 <= i < self.dft_size) for i in idx):
            raise ValueError(f"pilot indices must lie in [0, {self.dft_size})")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("pilot indices must be strictly increasing")

    @property
    def num_pilots(self) -> int:
        return len(self.pilot_indices)


@functools.lru_cache(maxsize=16)
def partial_dft(grid: PilotGrid, num_paths: int) -> np.ndarray:
    """Partial DFT matrix: entry (m, l) = exp(-2j*pi*q_m*l / M).

    Maps a length-`num_paths` impulse response to the pilot subcarriers.
    The result is cached per (grid, num_paths) and marked read-only.
    """
    if num_paths > grid.dft_size:
        raise ValueError("channel length exceeds the DFT size")
    q = np.asarray(grid.pilot_indices, dtype=float)
    mat = np.exp(-2j * np.pi * np.outer(q, np.arange(num_paths)) / grid.dft_size)
    mat.setflags(write=False)
    return mat


def snr_to_noise_var(snr_db: float) -> float:
    """Per-pilot noise variance for a given SNR in dB.

    SNR is defined per pilot subcarrier against unit average channel power,
    so with a unit-power delay profile the signal power per pilot is 1 and
    the noise variance is simply 10^(-snr_db/10).
    """
    return float(10.0 ** (-snr_db / 10.0))
