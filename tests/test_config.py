from dataclasses import replace

import numpy as np
import pytest

from csiguard import _kernels
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

    def test_coarse_densities_share_one_grid(self):
        # At the default bound 2*pi*4/M every density up to 9 points asks for
        # no more than one lattice point per DFT bin, so 2 to 9 all give the
        # same grid, spaced 2*pi/M.
        grids = []
        for points in range(2, 10):
            cfg = ScenarioConfig(slope_points=points)
            tables = _kernels.grid_tables(cfg.pilot_grid(), cfg.num_paths)
            grids.append(_kernels.slope_tables(tables, points, cfg.resolved_max_slope()))
        assert config_from_mapping({"search.slope_points": "2"}).slope_points == 2
        for slopes, table, index, ramps in grids[1:]:
            assert np.array_equal(slopes, grids[0][0])
            assert np.array_equal(table, grids[0][1])
            assert np.array_equal(index, grids[0][2])
            assert np.array_equal(ramps, grids[0][3])
        assert grids[0][0][1] - grids[0][0][0] == pytest.approx(2 * np.pi / 128)

    def test_lattice_finer_than_main_lobe(self):
        # The lattice spacing 2*pi/(k M) is at most 2*pi/M, and the pilot
        # span is at most M - 1, so the grid always samples the
        # likelihood's main lobe, 2*pi/span wide.
        specs = [
            ("ieee80211n-40mhz", 128),
            ("all", 16),
            ("first:2", 8),
            ("0,31", 32),
            ("2-30,34-62", 64),
            ("5,9", 16),
        ]
        worst = 0.0
        for spec, dft_size in specs:
            for bound in (None, 0.01, 0.3, 1.0, 3.0):
                for points in (2, 9, 64, 513):
                    cfg = ScenarioConfig(
                        dft_size=dft_size,
                        pilot_spec=spec,
                        num_paths=2,
                        max_slope=bound,
                        slope_points=points,
                    )
                    pilots = cfg.pilot_grid().pilot_indices
                    lobe = 2 * np.pi / (pilots[-1] - pilots[0])
                    tables = _kernels.grid_tables(cfg.pilot_grid(), cfg.num_paths)
                    slopes = _kernels.slope_tables(tables, points, cfg.resolved_max_slope())[0]
                    worst = max(worst, np.diff(slopes).max() / lobe)
        assert worst < 1.0
        # span / M at k = 1, for "0,31" at M = 32 and for the 802.11n set, 124 / 128.
        assert worst == pytest.approx(31 / 32)

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
