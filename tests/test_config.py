from dataclasses import replace

import numpy as np
import pytest

from csiguard.config import (
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

    # "0-5,9-7,12": a reversed range is refused, not dropped.
    @pytest.mark.parametrize(
        "bad", ["", "5-2", "3,3", "a-b", "first:0", "0,99", "0-5,9-7,12"]
    )
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
        with pytest.raises(ConfigError, match="more than once"):
            ScenarioConfig(detectors=("kalman", "magnitude_diff", "kalman"))
        with pytest.raises(ConfigError, match="more than once"):
            config_from_mapping({"detectors": "kalman,kalman"})
        # 4000 dB underflows the noise variance to 0, -4000 dB overflows it.
        for snr_db in (float("nan"), float("inf"), -float("inf"), 4000.0, -4000.0):
            with pytest.raises(ConfigError, match="snr_db"):
                ScenarioConfig(snr_db=snr_db)
        with pytest.raises(ConfigError, match="seed"):
            ScenarioConfig(seed=-1)
        # A zero slope range would leave the slope unfitted.
        for max_slope in (float("nan"), -0.1, 0.0):
            with pytest.raises(ConfigError, match="phase.max_slope"):
                ScenarioConfig(max_slope=max_slope)
        # The channel profile and the partial DFT are built at construction.
        for channel in ({"num_paths": 0}, {"num_paths": 200},
                        {"pdp_decay": -1.0}, {"pdp_decay": float("nan")}):
            with pytest.raises(ConfigError, match="channel.num_paths"):
                ScenarioConfig(**channel)
        with pytest.raises(ConfigError, match="doppler"):
            ScenarioConfig(normalized_doppler=0.6)

    @pytest.mark.parametrize("spec", ["first:1", "5"])
    def test_single_pilot_rejected(self, spec):
        with pytest.raises(ConfigError, match="at least 2"):
            ScenarioConfig(dft_size=16, pilot_spec=spec)
        with pytest.raises(ConfigError, match="at least 2"):
            config_from_mapping({"grid.dft_size": "16", "grid.pilot_spec": spec})

    def test_two_pilots_accepted(self):
        cfg = ScenarioConfig(dft_size=16, pilot_spec="first:2")
        assert cfg.pilot_grid().num_pilots == 2

    def test_slope_grid_coarser_than_main_lobe_rejected(self):
        # Default grid: spacing 2 * 0.196 / 1 = 0.39 rad against a main lobe
        # of 2*pi/124 = 0.051 rad.
        with pytest.raises(ConfigError, match="search.slope_points"):
            ScenarioConfig(slope_points=2)
        with pytest.raises(ConfigError, match="search.slope_points"):
            config_from_mapping({"search.slope_points": "2"})

    def test_main_lobe_edge(self):
        # 2*pi/124 main lobe at the default bound: 9 points space the grid
        # 0.049 rad apart, 8 points 0.056.
        assert ScenarioConfig(slope_points=9)
        with pytest.raises(ConfigError, match="at least 9 points"):
            ScenarioConfig(slope_points=8)

    def test_fast_test_grids_accepted(self):
        # The small scenario of the harness and CLI tests: spacing 0.051 rad
        # against a main lobe of 2*pi/15 = 0.42 rad.
        cfg = ScenarioConfig(
            dft_size=32,
            pilot_spec="first:16",
            slope_points=32,
        )
        assert cfg.pilot_grid().num_pilots == 16


class TestSlopeRange:
    """Slopes are drawn and searched over one range, by default 2*pi*4/M."""

    def test_default_bound_follows_dft_size(self):
        for dft_size in (32, 64, 128):
            cfg = ScenarioConfig(dft_size=dft_size, pilot_spec="all")
            assert cfg.resolved_max_slope() == pytest.approx(2 * np.pi * 4 / dft_size)


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
                "phase.max_slope": "0.25",
                "detectors": "kalman,magnitude_diff",
            }
        )
        assert cfg.snr_db == 3.5
        assert cfg.num_trials == 7
        assert cfg.num_paths == 4
        assert cfg.resolved_max_slope() == 0.25
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
            "search.slope_bound",
            "search.objective",
        ],
    )
    def test_removed_key_says_removed(self, key):
        with pytest.raises(ConfigError, match=f"{key}' was removed"):
            config_from_mapping({key: "20"})

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="num_trials"):
            config_from_mapping({"num_trials": "many"})

    def test_round_trip(self):
        # Every key set away from its default.
        cfg = ScenarioConfig(
            snr_db=7.25,
            normalized_doppler=3e-4,
            num_steps=300,
            num_trials=17,
            nominal_false_alarm=0.05,
            seed=7,
            num_paths=5,
            pdp_decay=0.75,
            dft_size=64,
            pilot_spec="first:20",
            slope_points=80,
            detectors=("kalman", "magnitude_diff"),
            max_slope=0.3,
        )
        default = ScenarioConfig()
        assert all(getattr(cfg, f) != getattr(default, f) for f in vars(cfg))
        # A max_slope left at None comes back as its resolved value.
        for c in (cfg, default):
            again = config_from_mapping(parse_config_text(format_config(c)))
            assert again == replace(c, max_slope=c.resolved_max_slope())


class TestHash:
    def test_stable(self):
        assert config_hash(ScenarioConfig()) == config_hash(ScenarioConfig())

    def test_default_hash_pinned(self):
        # A change to a key, its order or its text changes every config_hash.
        assert config_hash(ScenarioConfig()) == "dab9b2284003"

    def test_sensitive_to_changes(self):
        a = config_hash(ScenarioConfig())
        b = config_hash(ScenarioConfig(snr_db=11.0))
        c = config_hash(ScenarioConfig(seed=54321))
        assert len({a, b, c}) == 3

    def test_short_hex(self):
        h = config_hash(ScenarioConfig())
        assert len(h) == 12
        int(h, 16)
