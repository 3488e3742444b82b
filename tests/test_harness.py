import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csiguard import _kernels
from csiguard.channel import simulate
from csiguard.config import ChannelConfig, GridConfig, PhaseSearchConfig, ScenarioConfig
from csiguard.detector import test_statistic as residual_statistic
from csiguard.detector import threshold
from csiguard.harness import (
    RocResult,
    SweepResult,
    derive_trial_seed,
    read_records_csv,
    read_roc_csv,
    read_sweep_csv,
    roc_curve,
    roc_points,
    run_batch,
    sweep,
    trial_records,
    write_csv,
)
from csiguard.numerics import chi2_quantile
from csiguard.observation import snr_to_noise_var

from oracles import filter_step, init_state

# Small, fast scenario used by most harness tests.
FAST = ScenarioConfig(
    snr_db=10.0,
    normalized_doppler=1e-4,
    num_steps=40,
    num_trials=3,
    channel=ChannelConfig(num_paths=4, pdp_decay=0.5),
    grid=GridConfig(dft_size=32, pilot_spec="first:16"),
    search=PhaseSearchConfig(slope_grid_points=32, slope_search_bound=2 * np.pi * 4 / 32),
)


class TestSeeds:
    def test_deterministic(self):
        assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)

    def test_distinct(self):
        seeds = {derive_trial_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


@pytest.fixture(scope="module")
def paper_scale_records():
    cfg = ScenarioConfig(num_steps=2000, num_trials=1)
    return cfg, [record for _, record in trial_records(cfg, derive_trial_seed(cfg.seed, 0))]


class TestRunTrial:

    def test_two_records_per_step(self, paper_scale_records):
        cfg, records = paper_scale_records
        assert len(records) == 2 * cfg.num_steps == 4000

    def test_alternating_truth_labels(self, paper_scale_records):
        _, records = paper_scale_records
        assert all(r.truth == "alice" for r in records[0::2])
        assert all(r.truth == "eve" for r in records[1::2])

    def test_decisions_consistent(self, paper_scale_records):
        _, records = paper_scale_records
        # Records de-rotate the residual by the fitted (offset, slope)
        # pair, so the threshold is the chi-squared(2Q - 2) quantile.
        thr = threshold(0.1, 114, fitted_params=2)
        for rec in records[:200]:
            assert rec.threshold == pytest.approx(thr)
            assert (rec.decision == "H1") == (rec.statistic > rec.threshold)

    def test_bit_identical_reruns(self):
        seed = derive_trial_seed(FAST.seed, 0)
        a = trial_records(FAST, seed)
        b = trial_records(FAST, seed)
        assert [r.statistic for _, r in a] == [r.statistic for _, r in b]

    def test_magnitude_detector_records(self):
        cfg = ScenarioConfig(
            num_steps=250,
            num_trials=1,
            detectors=("kalman", "magnitude_diff"),
            channel=ChannelConfig(num_paths=4),
            grid=GridConfig(dft_size=32, pilot_spec="first:16"),
            search=FAST.search,
        )
        pairs = trial_records(cfg, 1)
        kalman = [r for d, r in pairs if d == "kalman"]
        magnitude = [r for d, r in pairs if d == "magnitude_diff"]
        assert len(kalman) == 2 * 250
        assert len(magnitude) == 2 * 249  # no previous observation at k=1


class TestProtocol:
    def test_filter_ignores_eve(self):
        # Cloning the attacker channel changes only attacker-side
        # observations; the filter must never consume them, so the
        # legitimate-side statistics are bit-identical.
        seeds = [derive_trial_seed(FAST.seed, i) for i in range(2)]
        a = run_batch(FAST, seeds, clone_eve=False)
        b = run_batch(FAST, seeds, clone_eve=True)
        assert np.array_equal(a.lam[:, :, 0], b.lam[:, :, 0])
        assert not np.array_equal(a.lam[:, :, 1], b.lam[:, :, 1])

    def test_clone_eve_detection_matches_false_alarm(self):
        cfg = ScenarioConfig(
            num_steps=1200,
            num_trials=4,
            channel=ChannelConfig(num_paths=4, pdp_decay=0.5),
            grid=GridConfig(dft_size=32, pilot_spec="first:16"),
            search=FAST.search,
        )
        seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
        batch = run_batch(cfg, seeds, clone_eve=True)
        dec = batch.decisions("kalman")[:, batch.test_slice, :]
        fa = dec[:, :, 0].mean()
        det = dec[:, :, 1].mean()
        n = dec[:, :, 0].size
        margin = 4 * np.sqrt(2 * 0.1 * 0.9 / n)
        assert abs(det - fa) <= margin

    def test_batch_width_does_not_change_trials(self):
        seeds = [derive_trial_seed(FAST.seed, i) for i in range(3)]
        batch = run_batch(FAST, seeds)
        for i, seed in enumerate(seeds):
            single = run_batch(FAST, [seed])
            assert np.allclose(single.lam[0], batch.lam[i], rtol=1e-9, atol=1e-9)

    def test_trial_order_invariance(self):
        seeds = [derive_trial_seed(FAST.seed, i) for i in range(3)]
        forward = run_batch(FAST, seeds)
        backward = run_batch(FAST, seeds[::-1])
        assert np.allclose(
            np.sort(forward.lam, axis=0), np.sort(backward.lam, axis=0), rtol=1e-9
        )


@st.composite
def _corner_configs(draw):
    num_paths = draw(st.integers(2, 8))
    return ScenarioConfig(
        snr_db=draw(st.floats(-20.0, 60.0)),
        normalized_doppler=draw(st.floats(0.0, 0.3)),
        num_steps=30,
        num_trials=2,
        channel=ChannelConfig(num_paths=num_paths, pdp_decay=draw(st.floats(0.0, 50.0))),
        grid=GridConfig(dft_size=32, pilot_spec=f"first:{draw(st.integers(2, num_paths))}"),
        search=FAST.search,
    )


class TestConfigSpace:
    @given(_corner_configs())
    @settings(max_examples=30, deadline=None)
    def test_runs_cleanly(self, cfg):
        # Q <= L pilots leave the channel underdetermined per packet; the
        # filter must still produce finite, nonnegative statistics.
        seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = run_batch(cfg, seeds, collect_mse=True)
        assert np.all(np.isfinite(batch.lam)) and np.all(batch.lam >= 0.0)
        assert np.all(np.isfinite(batch.mse))


class TestCollectPhase:
    def test_columns_hold_alice_then_eve(self):
        # At the first step the prediction is the prior, so the estimates
        # can be recomputed from the simulated observations alone.
        cfg = FAST
        seeds = [derive_trial_seed(cfg.seed, i) for i in range(2)]
        batch = run_batch(cfg, seeds, collect_phase=True)
        assert batch.phase_true.shape == batch.phase_est.shape == (2, cfg.num_steps, 2, 2)
        profile = cfg.channel_profile()
        grid = cfg.pilot_grid()
        noise_var = snr_to_noise_var(cfg.snr_db)
        tables = _kernels.grid_tables(grid, profile.num_paths)
        rngs = [np.random.default_rng(s) for s in seeds]
        alice, eve = next(simulate(profile, tables, noise_var, cfg.resolved_max_slope(), rngs))
        cov = np.tile(profile.alpha**2 * profile.pdp + profile.process_noise_diag, (2, 1))
        prep = _kernels.prepare_state(np.zeros((2, profile.num_paths), complex), cov,
                                      noise_var, tables)
        for col, link in enumerate((alice, eve)):
            assert np.array_equal(batch.phase_true[:, 0, col, 0], link.offset)
            assert np.array_equal(batch.phase_true[:, 0, col, 1], link.slope)
            offset, slope = _kernels.phase_search(link.obs, prep, grid, tables, cfg.search)
            assert np.array_equal(batch.phase_est[:, 0, col, 0], offset)
            assert np.array_equal(batch.phase_est[:, 0, col, 1], slope)


class TestDefaultSlopeRange:
    def test_m64_default_runs_near_nominal_false_alarm(self):
        # At M = 64 the default drawn slopes reach 2*pi*4/64 = 0.39 rad; a
        # search range fixed at 2*pi*4/128 could not reach half of them and
        # raised a false alarm on every legitimate packet (rate 1.0).
        cfg = ScenarioConfig(
            num_steps=200, num_trials=2, grid=GridConfig(dft_size=64, pilot_spec="all")
        )
        batch = run_batch(cfg, [derive_trial_seed(cfg.seed, i) for i in range(2)])
        decisions = batch.decisions("kalman")[:, batch.test_slice, :]
        assert 0.02 <= decisions[:, :, 0].mean() <= 0.2
        assert decisions[:, :, 1].mean() >= 0.9


class TestRunnerAgainstPublicOps:
    """Drive the dense reference filter (tests/oracles.py) over the same
    simulated observations as the runner and compare the statistics."""

    def test_statistics_match_dense_path(self):
        cfg = FAST
        seed = derive_trial_seed(cfg.seed, 1)
        batch = run_batch(cfg, [seed])

        profile = cfg.channel_profile()
        grid = cfg.pilot_grid()
        noise_var = snr_to_noise_var(cfg.snr_db)
        tables = _kernels.grid_tables(grid, profile.num_paths)
        links = simulate(
            profile, tables, noise_var, cfg.resolved_max_slope(), [np.random.default_rng(seed)]
        )
        state = init_state(profile)
        for k, (alice, eve) in zip(range(1, cfg.num_steps + 1), links):
            # Eve is scored against the same prediction but never updates it.
            _, _, eps_eve, sigma_eve = filter_step(
                state, eve.obs[0], profile, grid, noise_var, cfg.search
            )
            state, _, eps_alice, sigma_alice = filter_step(
                state, alice.obs[0], profile, grid, noise_var, cfg.search
            )
            lam_alice = residual_statistic(eps_alice, sigma_alice)
            lam_eve = residual_statistic(eps_eve, sigma_eve)

            assert lam_alice == pytest.approx(batch.lam[0, k - 1, 0], rel=1e-8)
            assert lam_eve == pytest.approx(batch.lam[0, k - 1, 1], rel=1e-8)


class TestSweep:
    def test_single_value_single_trial(self):
        cfg = ScenarioConfig(
            num_steps=40,
            num_trials=1,
            channel=FAST.channel,
            grid=FAST.grid,
            search=FAST.search,
        )
        a = sweep(cfg, "snr_db", [10.0])
        b = sweep(cfg, "snr_db", [10.0])
        assert len(a.points) == 1
        assert a.points[0].detection_rate == b.points[0].detection_rate
        assert a.points[0].num_trials == 1

    def test_count_conservation(self):
        # magnitude_diff needs >= 100 calibration steps in the train half
        cfg = ScenarioConfig(
            num_steps=240,
            num_trials=2,
            detectors=("kalman", "magnitude_diff"),
            channel=FAST.channel,
            grid=FAST.grid,
            search=FAST.search,
        )
        result = sweep(cfg, "snr_db", [0.0, 10.0])
        assert len(result.points) == 4
        for p in result.points:
            assert p.detected + (p.num_h1 - p.detected) == p.num_h1
            assert p.detection_rate * p.num_h1 == pytest.approx(p.detected, abs=1e-6)
            assert 0.0 <= p.detection_rate <= 1.0
            assert 0.0 <= p.empirical_false_alarm <= 1.0

    def test_rejects_bad_axis_and_values(self):
        with pytest.raises(ValueError):
            sweep(FAST, "bandwidth", [1.0])
        with pytest.raises(ValueError):
            sweep(FAST, "snr_db", [])
        with pytest.raises(ValueError):
            sweep(FAST, "snr_db", [10.0, 0.0])

    def test_metadata(self):
        result = sweep(
            ScenarioConfig(
                num_steps=40, num_trials=1, channel=FAST.channel, grid=FAST.grid,
                search=FAST.search,
            ),
            "normalized_doppler",
            [1e-4],
        )
        assert "config_hash" in result.metadata
        assert result.metadata["seed"] == 12345


class TestRocCurve:
    def test_perfect_separation(self):
        h0 = np.array([1.0, 2.0, 3.0])
        h1 = np.array([10.0, 11.0, 12.0])
        curve = roc_curve(h0, h1, 101)
        assert (0.0, 1.0) in curve
        assert curve[0] == (0.0, 0.0) or curve[0][0] == 0.0
        assert curve[-1] == (1.0, 1.0)

    def test_chance_performance(self):
        rng = np.random.default_rng(3)
        h0 = rng.chisquare(20, 4000)
        h1 = rng.chisquare(20, 4000)
        for fa, dr in roc_curve(h0, h1, 51):
            assert abs(dr - fa) < 0.05

    def test_monotone(self, rng):
        h0 = rng.chisquare(10, 500)
        h1 = rng.chisquare(16, 500)
        curve = roc_curve(h0, h1, 41)
        fas = [fa for fa, _ in curve]
        drs = [dr for _, dr in curve]
        assert fas == sorted(fas)
        assert drs == sorted(drs)

    def test_analytic_threshold_consistency(self):
        # At the chi-squared 0.9 quantile the false-alarm coordinate of the
        # swept curve must sit near 0.1 for samples that follow the law.
        rng = np.random.default_rng(17)
        h0 = rng.chisquare(228, 20_000)
        h1 = rng.chisquare(228, 20_000) + 80.0
        analytic = chi2_quantile(0.9, 228)
        points = roc_points(h0, h1, 2001)
        thr, fa, _ = min(points, key=lambda p: abs(p[0] - analytic))
        assert abs(thr - analytic) < 2.0
        assert fa == pytest.approx(0.1, abs=3 * np.sqrt(0.1 * 0.9 / h0.size) + 0.002)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            roc_curve([], [1.0], 11)


class TestCsv:
    def test_sweep_round_trip(self, tmp_path):
        cfg = ScenarioConfig(
            num_steps=40, num_trials=2, channel=FAST.channel, grid=FAST.grid,
            search=FAST.search,
        )
        result = sweep(cfg, "snr_db", [0.0, 10.0])
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        again = read_sweep_csv(path)
        assert again.axis == result.axis
        assert again.metadata["config_hash"] == result.metadata["config_hash"]
        assert len(again.points) == len(result.points)
        for a, b in zip(again.points, result.points):
            assert a.detector == b.detector
            assert a.axis_value == pytest.approx(b.axis_value, rel=1e-8)
            # 9 significant digits in the file bounds the round-trip error
            assert a.detection_rate == pytest.approx(b.detection_rate, rel=1e-8)
            assert a.detected == b.detected

    def test_sweep_csv_format(self, tmp_path):
        cfg = ScenarioConfig(
            num_steps=40, num_trials=1, channel=FAST.channel, grid=FAST.grid,
            search=FAST.search,
        )
        result = sweep(cfg, "snr_db", [10.0])
        path = tmp_path / "sweep.csv"
        write_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert " seed=" in lines[0]
        assert (
            lines[1]
            == "axis,axis_value,detector,detection_rate,empirical_false_alarm,num_trials,num_steps"
        )
        fields = lines[2].split(",")
        assert fields[0] == "snr_db"
        # values serialized with 9 significant digits
        assert fields[3] == format(result.points[0].detection_rate, ".9g")

    def test_empty_points_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(SweepResult(axis="snr_db", points=[], metadata={}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("axis,")

    def test_roc_round_trip(self, tmp_path):
        result = RocResult(
            points=[("kalman", 250.0, 0.1, 0.9), ("kalman", 260.0, 0.05, 0.8)],
            metadata={"config_hash": "abc", "seed": 1},
        )
        path = tmp_path / "roc.csv"
        write_csv(result, path)
        again = read_roc_csv(path)
        assert len(again.points) == 2
        assert again.points[0][0] == "kalman"
        assert again.points[0][1] == pytest.approx(250.0)

    def test_records_round_trip(self, tmp_path):
        pairs = trial_records(FAST, derive_trial_seed(FAST.seed, 0))
        path = tmp_path / "records.csv"
        write_csv(pairs, path, metadata={"config_hash": "x", "seed": FAST.seed})
        rows = read_records_csv(path)
        assert len(rows) == len(pairs)
        assert rows[0]["k"] == 1
        assert rows[0]["truth"] == "alice"
        assert rows[0]["detector"] == "kalman"
        assert rows[0]["statistic"] == pytest.approx(pairs[0][1].statistic, rel=1e-8)
        assert rows[0]["decision"] in ("H0", "H1")

    def test_write_failure_has_path_context(self):
        result = SweepResult(axis="snr_db", points=[], metadata={})
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv(result, "no/such/dir/out.csv")
