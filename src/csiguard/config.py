"""Scenario configuration: one flat dataclass, its key-value file format, hashing.

Config files are UTF-8 text, one ``key = value`` pair per line, ``#``
comments.  :data:`CONFIG_KEYS` lists every key once, with the
:class:`ScenarioConfig` field it sets and how its text is parsed and
written; some keys carry a dotted prefix that groups them
(``channel.num_paths``, ``grid.pilot_spec``, ``search.slope_points``, ...).
The undotted keys are also command-line flags.  The effective
configuration is hashed (sha256 over its canonical serialization) so
result files can name the exact setup that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelProfile, make_profile
from .errors import ConfigError
from .observation import PilotGrid, partial_dft, snr_to_noise_var

__all__ = [
    "ScenarioConfig",
    "CONFIG_KEYS",
    "parse_config_text",
    "config_from_mapping",
    "format_config",
    "config_hash",
]

KNOWN_DETECTORS = ("kalman", "magnitude_diff")

# Keys that earlier versions accepted; each names why it no longer exists.
_REMOVED_KEYS = {
    "search.offset_points": "the offset is always recovered in closed form",
    "search.refine_iters": "the slope is refined by a fixed three Newton steps",
    "search.refine_tol": "the slope is refined by a fixed three Newton steps",
    "search.include_log_det": (
        "the log-determinant is constant in the phase distortion, so it never "
        "moved the estimate"
    ),
    "channel.model": "the AR(1) Jakes fit is the only channel model",
    "search.slope_bound": "the searched slope range is the drawn one, phase.max_slope",
    "search.objective": "the whitened residual energy is the only objective",
}


def _names(value: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in value.split(",") if n.strip())


# Config key -> (ScenarioConfig field, parse from text, write as text).
CONFIG_KEYS = {
    "snr_db": ("snr_db", float, repr),
    "doppler": ("normalized_doppler", float, repr),
    "num_steps": ("num_steps", int, str),
    "num_trials": ("num_trials", int, str),
    "p_fa": ("nominal_false_alarm", float, repr),
    "seed": ("seed", int, str),
    "detectors": ("detectors", _names, ",".join),
    "phase.max_slope": ("max_slope", float, repr),
    "channel.num_paths": ("num_paths", int, str),
    "channel.pdp_decay": ("pdp_decay", float, repr),
    "grid.dft_size": ("dft_size", int, str),
    "grid.pilot_spec": ("pilot_spec", str, str),
    "search.slope_points": ("slope_points", int, str),
}


def default_slope(dft_size: int) -> float:
    """Phase slope of up to 4 samples of packet-detection delay: 2*pi*4/M.

    The default of ``phase.max_slope``, the bound of both the drawn and
    the searched slope range.
    """
    return 2.0 * np.pi * 4.0 / dft_size


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario; :data:`CONFIG_KEYS` names the config key of each field.

    Construction refuses values that cannot give a valid run.
    """

    snr_db: float = 10.0
    normalized_doppler: float = 1e-4
    num_steps: int = 2000
    num_trials: int = 200
    nominal_false_alarm: float = 0.1
    seed: int = 12345
    num_paths: int = 8
    pdp_decay: float = 0.5
    dft_size: int = 128
    pilot_spec: str = "ieee80211n-40mhz"
    # Least density of the coarse slope grid (see _kernels.slope_tables).
    # Its lattice spacing, at most 2*pi/dft_size, is always finer than the
    # likelihood's main lobe, 2*pi over the pilot span.
    slope_points: int = 64
    detectors: tuple[str, ...] = ("kalman",)
    max_slope: float | None = None  # None: 2*pi*4/dft_size

    def __post_init__(self) -> None:
        # Beyond about +-3,000 dB the noise variance underflows to 0 or
        # overflows, and the run would fail at its first step.
        try:
            noise_var = snr_to_noise_var(self.snr_db)
        except OverflowError:
            noise_var = np.inf
        if not 0.0 < noise_var < np.inf:
            raise ConfigError(
                f"snr_db = {self.snr_db!r} does not give a positive finite noise "
                "variance 10^(-snr_db/10)"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # The slope is searched over the drawn range, so a zero range would
        # leave it unfitted: the statistic would follow chi2(2Q - 1), not the
        # chi2(2Q - 2) of the threshold.
        if self.max_slope is not None and not 0.0 < self.max_slope < np.inf:
            raise ConfigError(
                f"phase.max_slope must be finite and > 0, got {self.max_slope!r}: "
                "the slope is searched over [-max_slope, max_slope] and fitted on "
                "every packet"
            )
        if self.slope_points < 2:
            raise ConfigError("search.slope_points must be >= 2")
        if self.num_steps < 2:
            raise ConfigError("num_steps must be >= 2")
        if self.num_trials < 1:
            raise ConfigError("num_trials must be >= 1")
        if not (0.0 < self.nominal_false_alarm < 1.0):
            raise ConfigError("p_fa must lie in (0, 1)")
        if not self.detectors:
            raise ConfigError("at least one detector must be enabled")
        for name in self.detectors:
            if name not in KNOWN_DETECTORS:
                raise ConfigError(f"unknown detector {name!r}")
        if len(set(self.detectors)) < len(self.detectors):
            raise ConfigError(
                f"detectors {','.join(self.detectors)!r} names a detector more than once"
            )
        pilots = resolve_pilot_spec(self.pilot_spec, self.dft_size)
        if len(pilots) < 2:
            raise ConfigError(
                f"grid.pilot_spec {self.pilot_spec!r} gives {len(pilots)} pilot; "
                "at least 2 are needed: with one pilot the fitted phase offset and "
                "slope are the same phase and the residual keeps no degrees of freedom"
            )
        try:
            partial_dft(self.pilot_grid(), self.channel_profile().num_paths)
        except ValueError as exc:
            raise ConfigError(
                f"channel.num_paths = {self.num_paths}, channel.pdp_decay = "
                f"{self.pdp_decay!r}, doppler = {self.normalized_doppler!r}: {exc}"
            ) from exc

    def resolved_max_slope(self) -> float:
        if self.max_slope is not None:
            return self.max_slope
        return default_slope(self.dft_size)

    def channel_profile(self) -> ChannelProfile:
        return make_profile(
            self.num_paths, self.normalized_doppler, self.pdp_decay
        )

    def pilot_grid(self) -> PilotGrid:
        return PilotGrid(
            dft_size=self.dft_size,
            pilot_indices=resolve_pilot_spec(self.pilot_spec, self.dft_size),
        )


def resolve_pilot_spec(spec: str, dft_size: int) -> tuple[int, ...]:
    """Expand a pilot specification into sorted subcarrier indices.

    Accepted forms:
      - ``ieee80211n-40mhz``: the 114 occupied subcarriers of a 40 MHz
        802.11n symbol (logical indices +-2..+-58), requires dft_size 128;
      - ``all``: every subcarrier 0..M-1;
      - ``first:N``: subcarriers 0..N-1;
      - explicit ranges, e.g. ``2-58,70-126`` or ``0,3,7``; a range's end
        may not lie below its start.
    """
    spec = spec.strip()
    if spec == "ieee80211n-40mhz":
        if dft_size != 128:
            raise ConfigError("pilot_spec 'ieee80211n-40mhz' requires grid.dft_size=128")
        return tuple(range(2, 59)) + tuple(range(70, 127))
    if spec == "all":
        return tuple(range(dft_size))
    if spec.startswith("first:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad pilot_spec {spec!r}") from exc
        if not (1 <= n <= dft_size):
            raise ConfigError(f"pilot_spec {spec!r} out of range for dft_size={dft_size}")
        return tuple(range(n))
    indices: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        try:
            if "-" in part:
                lo, hi = (int(v) for v in part.split("-", 1))
            else:
                lo = hi = int(part)
        except ValueError as exc:
            raise ConfigError(f"bad pilot_spec fragment {part!r}") from exc
        if hi < lo:
            raise ConfigError(f"pilot_spec range {part!r} ends below its start")
        indices.extend(range(lo, hi + 1))
    if not indices or sorted(set(indices)) != indices:
        raise ConfigError(f"pilot_spec {spec!r} must list strictly increasing indices")
    if indices[0] < 0 or indices[-1] >= dft_size:
        raise ConfigError(f"pilot_spec {spec!r} out of range for dft_size={dft_size}")
    return tuple(indices)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines into a flat mapping; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def config_from_mapping(
    mapping: dict[str, str], base: ScenarioConfig | None = None
) -> ScenarioConfig:
    """Apply a flat key-value mapping on top of a base configuration."""
    changes = {}
    for key, value in mapping.items():
        if key in _REMOVED_KEYS:
            raise ConfigError(f"config key {key!r} was removed: {_REMOVED_KEYS[key]}")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse, _ = CONFIG_KEYS[key]
        try:
            changes[name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from exc
    try:
        return replace(base if base is not None else ScenarioConfig(), **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical serialization (sorted keys); parses back to an equal config.

    ``phase.max_slope`` is written resolved, so a config that sets it to its
    default serializes like one that leaves it out.
    """
    lines = []
    for key, (name, _, write) in sorted(CONFIG_KEYS.items()):
        value = cfg.resolved_max_slope() if name == "max_slope" else getattr(cfg, name)
        lines.append(f"{key} = {write(value)}\n")
    return "".join(lines)


def config_hash(cfg: ScenarioConfig) -> str:
    """Short hex digest identifying the effective configuration."""
    return hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()[:12]
