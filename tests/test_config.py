from dataclasses import replace

import numpy as np
import pytest

from csiguard.config import (
    ChannelConfig,
    GridConfig,
    PhaseSearchConfig,
    ScenarioConfig,
    config_from_mapping,
    config_hash,
    format_config,
    parse_config_text,
    resolve_pilot_spec,
)
from csiguard.errors import ConfigError


class TestPilotSpecs:
    def test_80211n_preset(self):
        idx = resolve_pilot_spec("ieee80211n-40mhz", 128)
        assert len(idx) == 114
        assert idx == tuple(range(2, 59)) + tuple(range(70, 127))

    def test_80211n_requires_m128(self):
        with pytest.raises(ConfigError):
            resolve_pilot_spec("ieee80211n-40mhz", 64)

    def test_all_and_first(self):
        assert resolve_pilot_spec("all", 8) == tuple(range(8))
        assert resolve_pilot_spec("first:3", 16) == (0, 1, 2)

    def test_ranges(self):
        assert resolve_pilot_spec("0,3,7", 8) == (0, 3, 7)
        assert resolve_pilot_spec("2-5,9", 16) == (2, 3, 4, 5, 9)

    @pytest.mark.parametrize("bad", ["", "5-2", "3,3", "a-b", "first:0", "0,99"])
    def test_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            resolve_pilot_spec(bad, 16)


class TestScenarioConfig:
    def test_defaults_build(self):
        cfg = ScenarioConfig()
        profile = cfg.channel_profile()
        grid = cfg.pilot_grid()
        assert profile.num_paths == 8
        assert grid.num_pilots == 114
        assert cfg.resolved_max_slope() == pytest.approx(2 * np.pi * 4 / 128)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(num_steps=1)
        with pytest.raises(ConfigError):
            ScenarioConfig(nominal_false_alarm=0.0)
        with pytest.raises(ConfigError):
            ScenarioConfig(detectors=("sonar",))
        for snr_db in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError, match="snr_db"):
                ScenarioConfig(snr_db=snr_db)
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig(seed=-1)
        for max_slope in (float("nan"), -0.1):
            with pytest.raises(ConfigError, match="phase.max_slope"):
                ScenarioConfig(max_slope=max_slope)
        with pytest.raises(ConfigError, match="search.slope_bound"):
            PhaseSearchConfig(slope_search_bound=float("nan"))
        # The channel profile and the partial DFT are built at construction.
        for channel in (ChannelConfig(num_paths=0), ChannelConfig(num_paths=200),
                        ChannelConfig(pdp_decay=-1.0), ChannelConfig(pdp_decay=float("nan"))):
            with pytest.raises(ConfigError, match="channel.num_paths"):
                ScenarioConfig(channel=channel)
        with pytest.raises(ConfigError, match="doppler"):
            ScenarioConfig(normalized_doppler=0.6)

    @pytest.mark.parametrize("spec", ["first:1", "5"])
    def test_single_pilot_rejected(self, spec):
        with pytest.raises(ConfigError, match="at least 2"):
            ScenarioConfig(grid=GridConfig(dft_size=16, pilot_spec=spec))
        with pytest.raises(ConfigError, match="at least 2"):
            config_from_mapping({"grid.dft_size": "16", "grid.pilot_spec": spec})

    def test_two_pilots_accepted(self):
        cfg = ScenarioConfig(grid=GridConfig(dft_size=16, pilot_spec="first:2"))
        assert cfg.pilot_grid().num_pilots == 2

    def test_slope_grid_coarser_than_main_lobe_rejected(self):
        # Default grid: spacing 2 * 0.196 / 1 = 0.39 rad against a main lobe
        # of 2*pi/124 = 0.051 rad.
        with pytest.raises(ConfigError, match="search.slope_points"):
            ScenarioConfig(search=PhaseSearchConfig(slope_grid_points=2))
        with pytest.raises(ConfigError, match="search.slope_points"):
            config_from_mapping({"search.slope_points": "2"})

    def test_main_lobe_edge(self):
        # 2*pi/124 main lobe at the default bound: 9 points space the grid
        # 0.049 rad apart, 8 points 0.056.
        assert ScenarioConfig(search=PhaseSearchConfig(slope_grid_points=9))
        with pytest.raises(ConfigError, match="at least 9 points"):
            ScenarioConfig(search=PhaseSearchConfig(slope_grid_points=8))

    def test_fast_test_grids_accepted(self):
        # The small scenario of the harness and CLI tests: spacing 0.051 rad
        # against a main lobe of 2*pi/15 = 0.42 rad.
        cfg = ScenarioConfig(
            grid=GridConfig(dft_size=32, pilot_spec="first:16"),
            search=PhaseSearchConfig(slope_grid_points=32, slope_search_bound=2 * np.pi * 4 / 32),
        )
        assert cfg.pilot_grid().num_pilots == 16


class TestSlopeRange:
    """The searched slope range must cover the drawn one; by default both
    are 2*pi*4/M."""

    def test_default_bound_follows_dft_size(self):
        for dft_size in (32, 64, 128):
            cfg = ScenarioConfig(grid=GridConfig(dft_size=dft_size, pilot_spec="all"))
            assert cfg.resolved_slope_bound() == cfg.resolved_max_slope()
            assert cfg.resolved_slope_bound() == pytest.approx(2 * np.pi * 4 / dft_size)

    def test_drawn_slope_beyond_search_range_rejected(self):
        with pytest.raises(ConfigError, match="phase.max_slope.*search.slope_bound"):
            ScenarioConfig(max_slope=0.3)
        with pytest.raises(ConfigError, match="phase.max_slope.*search.slope_bound"):
            ScenarioConfig(search=PhaseSearchConfig(slope_search_bound=0.1))
        with pytest.raises(ConfigError, match="phase.max_slope.*search.slope_bound"):
            config_from_mapping({"search.slope_bound": "0.1"})
        # A wider search than the drawn range is allowed.
        assert ScenarioConfig(max_slope=0.1).resolved_slope_bound() > 0.1

    def test_default_hash_and_serialized_bound_unchanged(self):
        # The resolved bound is serialized, so the M = 128 default keeps the
        # hash it had while the bound was a fixed 2*pi*4/128.
        cfg = ScenarioConfig()
        assert "search.slope_bound = 0.19634954084936207\n" in format_config(cfg)
        assert config_hash(cfg) == "c652141e9064"
        explicit = ScenarioConfig(search=PhaseSearchConfig(slope_search_bound=2 * np.pi * 4 / 128))
        assert config_hash(explicit) == config_hash(cfg)


class TestParsing:
    def test_parse_text(self):
        text = """
        # a comment
        snr_db = 5.0
        doppler = 1e-3   # trailing comment
        detectors = kalman,magnitude_diff

        grid.pilot_spec = first:16
        """
        mapping = parse_config_text(text)
        assert mapping["snr_db"] == "5.0"
        assert mapping["doppler"] == "1e-3"
        assert mapping["grid.pilot_spec"] == "first:16"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config_text("this is not a key value line")

    def test_mapping_applies(self):
        cfg = config_from_mapping(
            {
                "snr_db": "3.5",
                "num_trials": "7",
                "channel.num_paths": "4",
                "search.slope_bound": "0.25",
                "detectors": "kalman,magnitude_diff",
            }
        )
        assert cfg.snr_db == 3.5
        assert cfg.num_trials == 7
        assert cfg.channel.num_paths == 4
        assert cfg.search.slope_search_bound == 0.25
        assert cfg.detectors == ("kalman", "magnitude_diff")

    def test_unknown_key_names_offender(self):
        with pytest.raises(ConfigError, match="grid.pilots"):
            config_from_mapping({"grid.pilots": "3"})

    @pytest.mark.parametrize(
        "key",
        [
            "search.offset_points",
            "search.refine_iters",
            "search.refine_tol",
            "search.include_log_det",
            "channel.model",
        ],
    )
    def test_removed_key_says_removed(self, key):
        with pytest.raises(ConfigError, match=f"{key}' was removed"):
            config_from_mapping({key: "20"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="num_trials"):
            config_from_mapping({"num_trials": "many"})

    def test_round_trip(self):
        cfg = ScenarioConfig(
            snr_db=7.25,
            normalized_doppler=3e-4,
            num_trials=17,
            detectors=("kalman", "magnitude_diff"),
            channel=ChannelConfig(num_paths=5, pdp_decay=0.75),
            grid=GridConfig(dft_size=64, pilot_spec="first:20"),
        )
        again = config_from_mapping(parse_config_text(format_config(cfg)))
        # max_slope and the search bound resolve to explicit values on round-trip
        assert again.snr_db == cfg.snr_db
        assert again.normalized_doppler == cfg.normalized_doppler
        assert again.channel == cfg.channel
        assert again.grid == cfg.grid
        assert again.search == replace(cfg.search, slope_search_bound=cfg.resolved_slope_bound())
        assert again.detectors == cfg.detectors
        assert again.resolved_max_slope() == cfg.resolved_max_slope()


class TestHash:
    def test_stable(self):
        assert config_hash(ScenarioConfig()) == config_hash(ScenarioConfig())

    def test_sensitive_to_changes(self):
        a = config_hash(ScenarioConfig())
        b = config_hash(ScenarioConfig(snr_db=11.0))
        c = config_hash(ScenarioConfig(seed=54321))
        assert len({a, b, c}) == 3

    def test_short_hex(self):
        h = config_hash(ScenarioConfig())
        assert len(h) == 12
        int(h, 16)
