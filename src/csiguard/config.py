"""Scenario configuration: dataclasses, the flat key-value file format, hashing.

Config files are UTF-8 text, one ``key = value`` pair per line, ``#``
comments, with dotted prefixes for the nested sections
(``channel.num_paths``, ``grid.pilot_spec``, ``search.slope_points``, ...).
Command-line flags override file values; the effective configuration is
hashed (sha256 over its canonical serialization) so result files can name
the exact setup that produced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelProfile, make_profile
from .errors import ConfigError
from .observation import PilotGrid, partial_dft

__all__ = [
    "ChannelConfig",
    "GridConfig",
    "PhaseSearchConfig",
    "ScenarioConfig",
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
}


@dataclass(frozen=True)
class ChannelConfig:
    num_paths: int = 8
    pdp_decay: float = 0.5


@dataclass(frozen=True)
class GridConfig:
    dft_size: int = 128
    pilot_spec: str = "ieee80211n-40mhz"


def default_slope(dft_size: int) -> float:
    """Phase slope of up to 4 samples of packet-detection delay: 2*pi*4/M.

    The default of both the drawn slope bound ``phase.max_slope`` and the
    searched one ``search.slope_bound``.
    """
    return 2.0 * np.pi * 4.0 / dft_size


@dataclass(frozen=True)
class PhaseSearchConfig:
    """Search strategy for the per-packet (offset, slope) estimate.

    The offset is always minimized in closed form (the objective is an
    exact cosine in the offset).  The slope is located on a coarse grid of
    ``slope_grid_points`` equally spaced values over
    ``[-bound, bound]`` and then refined by three
    Newton steps on the exact derivatives, confined to the grid cells on
    either side of the grid argmin (see :func:`csiguard._kernels.phase_search`).
    The grid must therefore be finer than the likelihood's main lobe, which
    :class:`ScenarioConfig` checks against its pilot grid.  The bound is
    ``slope_search_bound``, or, when that is None, :func:`default_slope` of
    the searched grid's DFT size, the same as the default drawn slope
    bound (see :meth:`slope_bound`).  ``objective`` selects the whitened
    residual energy (default) or the literal unwhitened cross-term variant.
    """

    slope_grid_points: int = 64
    slope_search_bound: float | None = None  # None: 2*pi*4/dft_size
    objective: str = "whitened"

    def __post_init__(self) -> None:
        if self.slope_grid_points < 2:
            raise ConfigError("search.slope_points must be >= 2")
        if self.slope_search_bound is not None and not 0.0 < self.slope_search_bound < np.inf:
            raise ConfigError("search.slope_bound must be finite and > 0")
        if self.objective not in ("whitened", "paper-literal"):
            raise ConfigError(f"unknown search.objective {self.objective!r}")

    def slope_bound(self, dft_size: int) -> float:
        """Half-width of the searched slope range on a grid of DFT size ``dft_size``."""
        if self.slope_search_bound is not None:
            return self.slope_search_bound
        return default_slope(dft_size)


@dataclass(frozen=True)
class ScenarioConfig:
    snr_db: float = 10.0
    normalized_doppler: float = 1e-4
    num_steps: int = 2000
    num_trials: int = 200
    nominal_false_alarm: float = 0.1
    seed: int = 12345
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    search: PhaseSearchConfig = field(default_factory=PhaseSearchConfig)
    detectors: tuple[str, ...] = ("kalman",)
    max_slope: float | None = None  # None: 2*pi*4/dft_size

    def __post_init__(self) -> None:
        if not np.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_slope is not None and not 0.0 <= self.max_slope < np.inf:
            raise ConfigError(
                f"phase.max_slope must be finite and >= 0, got {self.max_slope!r}"
            )
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
        pilots = resolve_pilot_spec(self.grid.pilot_spec, self.grid.dft_size)
        if len(pilots) < 2:
            raise ConfigError(
                f"grid.pilot_spec {self.grid.pilot_spec!r} gives {len(pilots)} pilot; "
                "at least 2 are needed: with one pilot the fitted phase offset and "
                "slope are the same phase and the residual keeps no degrees of freedom"
            )
        # The Newton refinement moves at most one grid step from the grid
        # argmin, so the grid must sample the likelihood's main lobe, whose
        # width in slope is 2*pi over the pilot span.
        span = pilots[-1] - pilots[0]
        bound = self.resolved_slope_bound()
        spacing = 2.0 * bound / (self.search.slope_grid_points - 1)
        lobe = 2.0 * np.pi / span
        if spacing > lobe:
            needed = int(np.ceil(2.0 * bound / lobe)) + 1
            raise ConfigError(
                f"search.slope_points = {self.search.slope_grid_points} spaces the "
                f"slope grid {spacing:.3g} rad apart, wider than the likelihood's "
                f"main lobe 2*pi/{span} = {lobe:.3g} rad for grid.pilot_spec "
                f"{self.grid.pilot_spec!r}; use at least {needed} points or a smaller "
                "search.slope_bound"
            )
        # A drawn slope outside the searched range cannot be estimated, and
        # every packet drawn there inflates the residual.
        if self.resolved_max_slope() > bound:
            raise ConfigError(
                f"phase.max_slope = {self.resolved_max_slope()!r} exceeds "
                f"search.slope_bound = {bound!r}: slopes drawn outside the searched "
                "range cannot be estimated; raise search.slope_bound or lower "
                "phase.max_slope"
            )
        try:
            partial_dft(self.pilot_grid(), self.channel_profile().num_paths)
        except ValueError as exc:
            raise ConfigError(
                f"channel.num_paths = {self.channel.num_paths}, channel.pdp_decay = "
                f"{self.channel.pdp_decay!r}, doppler = {self.normalized_doppler!r}: {exc}"
            ) from exc

    def resolved_max_slope(self) -> float:
        if self.max_slope is not None:
            return self.max_slope
        return default_slope(self.grid.dft_size)

    def resolved_slope_bound(self) -> float:
        return self.search.slope_bound(self.grid.dft_size)

    def channel_profile(self) -> ChannelProfile:
        return make_profile(
            self.channel.num_paths, self.normalized_doppler, self.channel.pdp_decay
        )

    def pilot_grid(self) -> PilotGrid:
        return PilotGrid(
            dft_size=self.grid.dft_size,
            pilot_indices=resolve_pilot_spec(self.grid.pilot_spec, self.grid.dft_size),
        )


def resolve_pilot_spec(spec: str, dft_size: int) -> tuple[int, ...]:
    """Expand a pilot specification into sorted subcarrier indices.

    Accepted forms:
      - ``ieee80211n-40mhz``: the 114 occupied subcarriers of a 40 MHz
        802.11n symbol (logical indices +-2..+-58), requires dft_size 128;
      - ``all``: every subcarrier 0..M-1;
      - ``first:N``: subcarriers 0..N-1;
      - explicit ranges, e.g. ``2-58,70-126`` or ``0,3,7``.
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
                lo, hi = part.split("-", 1)
                indices.extend(range(int(lo), int(hi) + 1))
            else:
                indices.append(int(part))
        except ValueError as exc:
            raise ConfigError(f"bad pilot_spec fragment {part!r}") from exc
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


def _parse(key: str, value: str, kind):
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from exc


def config_from_mapping(
    mapping: dict[str, str], base: ScenarioConfig | None = None
) -> ScenarioConfig:
    """Apply a flat key-value mapping on top of a base configuration."""
    cfg = base if base is not None else ScenarioConfig()
    channel = cfg.channel
    grid = cfg.grid
    search = cfg.search
    top: dict = {}
    for key, value in mapping.items():
        if key == "snr_db":
            top["snr_db"] = _parse(key, value, float)
        elif key == "doppler":
            top["normalized_doppler"] = _parse(key, value, float)
        elif key == "num_steps":
            top["num_steps"] = _parse(key, value, int)
        elif key == "num_trials":
            top["num_trials"] = _parse(key, value, int)
        elif key == "p_fa":
            top["nominal_false_alarm"] = _parse(key, value, float)
        elif key == "seed":
            top["seed"] = _parse(key, value, int)
        elif key == "detectors":
            names = tuple(n.strip() for n in value.split(",") if n.strip())
            top["detectors"] = names
        elif key == "phase.max_slope":
            top["max_slope"] = _parse(key, value, float)
        elif key == "channel.num_paths":
            channel = replace(channel, num_paths=_parse(key, value, int))
        elif key == "channel.pdp_decay":
            channel = replace(channel, pdp_decay=_parse(key, value, float))
        elif key == "grid.dft_size":
            grid = replace(grid, dft_size=_parse(key, value, int))
        elif key == "grid.pilot_spec":
            grid = replace(grid, pilot_spec=value)
        elif key == "search.slope_points":
            search = replace(search, slope_grid_points=_parse(key, value, int))
        elif key == "search.slope_bound":
            search = replace(search, slope_search_bound=_parse(key, value, float))
        elif key == "search.objective":
            search = replace(search, objective=value)
        elif key in _REMOVED_KEYS:
            raise ConfigError(f"config key {key!r} was removed: {_REMOVED_KEYS[key]}")
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        return replace(cfg, channel=channel, grid=grid, search=search, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical serialization (sorted keys); parses back to an equal config."""
    lines = {
        "snr_db": repr(cfg.snr_db),
        "doppler": repr(cfg.normalized_doppler),
        "num_steps": str(cfg.num_steps),
        "num_trials": str(cfg.num_trials),
        "p_fa": repr(cfg.nominal_false_alarm),
        "seed": str(cfg.seed),
        "detectors": ",".join(cfg.detectors),
        "phase.max_slope": repr(cfg.resolved_max_slope()),
        "channel.num_paths": str(cfg.channel.num_paths),
        "channel.pdp_decay": repr(cfg.channel.pdp_decay),
        "grid.dft_size": str(cfg.grid.dft_size),
        "grid.pilot_spec": cfg.grid.pilot_spec,
        "search.slope_points": str(cfg.search.slope_grid_points),
        "search.slope_bound": repr(cfg.resolved_slope_bound()),
        "search.objective": cfg.search.objective,
    }
    return "".join(f"{k} = {v}\n" for k, v in sorted(lines.items()))


def config_hash(cfg: ScenarioConfig) -> str:
    """Short hex digest identifying the effective configuration."""
    return hashlib.sha256(format_config(cfg).encode("utf-8")).hexdigest()[:12]
