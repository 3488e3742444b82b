import csv
import platform
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csiguard import _kernels, channel, harness
from csiguard.channel import make_profile, simulate
from csiguard.config import ScenarioConfig, config_hash
from csiguard.detector import threshold
from csiguard.errors import CalibrationError, ConfigError, NumericalError
from csiguard.harness import (
    RocResult,
    SweepResult,
    derive_trial_seed,
    read_records_csv,
    read_roc_csv,
    read_sweep_csv,
    roc_points,
    run_batch,
    sweep,
    trial_records,
    write_csv,
)
from csiguard.numerics import chi2_quantile
from csiguard.observation import snr_to_noise_var

from oracles import filter_step, init_state, residual_statistic, steps_of

# Small, fast scenario used by most harness tests.
FAST = ScenarioConfig(
    snr_db=10.0,
    normalized_doppler=1e-4,
    num_steps=40,
    num_trials=3,
    num_paths=4,
    pdp_decay=0.5,
    dft_size=32,
    pilot_spec="first:16",
    slope_points=32,
)


def _header(cfg):
    """The first line that write_csv writes for cfg."""
    return f"# config_hash={config_hash(cfg)} seed={cfg.seed}"


class TestSeeds:
    def test_deterministic(self):
        assert derive_trial_seed(42, 7) == derive_trial_seed(42, 7)

    def test_distinct(self):
        seeds = {derive_trial_seed(42, i) for i in range(100)}
        assert len(seeds) == 100


@pytest.fixture(scope="module")
def paper_scale_records():
    cfg = ScenarioConfig(num_steps=2000, num_trials=1)
    return cfg, trial_records(cfg, derive_trial_seed(cfg.seed, 0))


class TestRunTrial:

    def test_two_records_per_step(self, paper_scale_records):
        cfg, records = paper_scale_records
        assert len(records) == 2 * cfg.num_steps == 4000

    def test_alternating_truth_labels(self, paper_scale_records):
        _, records = paper_scale_records
        assert all(r[1] == "alice" for r in records[0::2])
        assert all(r[1] == "eve" for r in records[1::2])

    def test_decisions_consistent(self, paper_scale_records):
        _, records = paper_scale_records
        # Records de-rotate the residual by the fitted (offset, slope)
        # pair, so the threshold is the chi-squared(2Q - 2) quantile.
        thr = threshold(0.1, 114, fitted_params=2)
        for k, truth, det, stat, rec_thr, decision in records:
            assert rec_thr == pytest.approx(thr)
            assert (decision == "H1") == (stat > rec_thr)

    def test_bit_identical_reruns(self):
        seed = derive_trial_seed(FAST.seed, 0)
        a = trial_records(FAST, seed)
        b = trial_records(FAST, seed)
        assert a == b

    def test_magnitude_detector_records(self):
        cfg = replace(
            FAST, num_steps=250, num_trials=1, detectors=("kalman", "magnitude_diff")
        )
        rows = trial_records(cfg, 1)
        kalman = [r for r in rows if r[2] == "kalman"]
        magnitude = [r for r in rows if r[2] == "magnitude_diff"]
        assert len(kalman) == 2 * 250
        assert len(magnitude) == 2 * 249  # no previous observation at k=1

    def test_rows_match_batch(self):
        # Every row against the one-trial batch: count, order, the alice/eve
        # alternation, and decision "H1" iff statistic > threshold.
        cfg = replace(
            FAST, num_steps=250, num_trials=1, detectors=("kalman", "magnitude_diff")
        )
        batch = run_batch(cfg, [7])
        rows = trial_records(cfg, 7)
        expected = []
        for k in range(1, 251):
            for det in ("kalman", "magnitude_diff"):
                if det == "magnitude_diff" and k == 1:
                    continue
                stat = batch.statistic(det)[0, k - 1]
                thr = batch.kalman_threshold if det == "kalman" else batch.mag_threshold[0]
                for col, truth in ((0, "alice"), (1, "eve")):
                    decision = "H1" if batch.decisions(det)[0, k - 1, col] else "H0"
                    expected.append((k, truth, det, stat[col], thr, decision))
        assert len(rows) == 2 * 250 + 2 * 249
        assert rows == expected
        for row in rows:
            assert all(type(v) in (int, float, str) for v in row)
            assert (row[5] == "H1") == (row[3] > row[4])

    def test_kalman_only_batch_has_no_magnitude_statistic(self):
        # Nothing reads the magnitude statistic unless the detector is
        # configured, so it is not computed: asking for it raises.
        assert FAST.detectors == ("kalman",)
        batch = run_batch(FAST, [derive_trial_seed(FAST.seed, 0)])
        assert batch.mag is None
        assert batch.mag_threshold is None
        with pytest.raises(CalibrationError):
            batch.statistic("magnitude_diff")
        with pytest.raises(CalibrationError):
            batch.thresholds("magnitude_diff")
        with pytest.raises(CalibrationError):
            batch.decisions("magnitude_diff")
        with pytest.raises(ValueError):
            batch.thresholds("energy")


@pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="fault counts follow glibc malloc's trim and mmap thresholds",
)
def test_wide_batch_steps_do_not_page_fault():
    # Fresh arrays above glibc's mmap threshold go back to the system when
    # freed and page-fault again on the next step: about 220 minor faults
    # per step at T = 64 before phase_search reused its coarse-stage
    # arrays, about 25 after.
    import resource

    cfg = ScenarioConfig(num_steps=40, num_trials=64)
    seeds = range(64)
    run_batch(cfg, seeds)  # fills the caches and the work buffers
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_batch(cfg, seeds)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / cfg.num_steps <= 60


class TestFirstPacketSlopeLock:
    """At the first step the prediction is zero, so nothing anchors the
    slope frame.  A first slope one DFT bin off (a one-tap cyclic delay)
    would make every later packet fit a shifted prediction and lock the
    trial into false alarms."""

    def test_seed_3006_trial_tracks(self):
        # The first trial of seed 3006 at the defaults (10 dB) locked onto the
        # +1-bin alias: step-1 slope error 0.0507 rad, median statistic / 2Q
        # 2.43 on the test half.
        cfg = ScenarioConfig(num_steps=400)
        batch = run_batch(cfg, [derive_trial_seed(3006, 0)])
        alice = batch.lam[0, batch.test_slice, 0]
        ratio = np.median(alice) / (2 * cfg.pilot_grid().num_pilots)
        assert 0.9 < ratio < 1.25

    def test_few_locked_trials_at_20_db(self):
        # A trial is locked when its alice false-alarm rate on the test half
        # exceeds 0.5.  Refining from the grid argmin alone left 12 + 15 + 18
        # of these 1,536 trials locked.
        cfg = ScenarioConfig(snr_db=20.0, num_steps=60)
        locked = 0
        for seed in (1, 2, 3):
            batch = run_batch(cfg, [derive_trial_seed(seed, i) for i in range(512)])
            fa = batch.decisions("kalman")[:, batch.test_slice, 0].mean(axis=1)
            locked += int(np.sum(fa > 0.5))
        assert locked <= 2


# Enough steps (202) for the magnitude baseline's 100 calibration samples.
LOCKSTEP = replace(FAST, num_steps=202, num_trials=2, detectors=("kalman", "magnitude_diff"))


class TestLockstepPoints:
    """Points run in lockstep share draws but nothing else: each point's
    batch equals a one-point run on the same seeds, bit for bit."""

    @pytest.mark.parametrize("clone_eve", [False, True])
    @pytest.mark.parametrize(
        "axis, values",
        [("snr_db", [0.0, 5.0, 10.0, 15.0]), ("normalized_doppler", [1e-4, 1e-2])],
    )
    def test_each_point_equals_its_one_point_run(self, axis, values, clone_eve):
        seeds = [derive_trial_seed(LOCKSTEP.seed, i) for i in range(LOCKSTEP.num_trials)]
        opts = dict(clone_eve=clone_eve, collect_phase=True, collect_mse=True)
        cfgs = [replace(LOCKSTEP, **{axis: v}) for v in values]
        batches = run_batch(cfgs, seeds, **opts)
        assert len(batches) == len(values)
        for cfg, batch in zip(cfgs, batches):
            single = run_batch(cfg, seeds, **opts)
            assert batch.cfg == cfg
            for name in ("lam", "mag", "mag_threshold", "phase_true", "phase_est", "mse"):
                # mag is NaN at the first step, where no previous packet exists.
                assert np.array_equal(
                    getattr(batch, name), getattr(single, name), equal_nan=True
                ), name
            assert batch.kalman_threshold == single.kalman_threshold

    @pytest.mark.parametrize(
        "chain_rows, chains", [(1, [2, 2, 2]), (5, [4, 2]), (6, [6]), (256, [6])]
    )
    def test_kernel_chains_hold_whole_points(self, monkeypatch, chain_rows, chains):
        # Three points of two trials: each chain holds as many whole points
        # as fit in _CHAIN_ROWS rows, at least one, with one covariance (one
        # Woodbury core) per point, and a point's batch is still bit for bit
        # its one-point run.
        searched, cores = [], []
        phase_search = _kernels.phase_search

        def recording_search(block, step, prep, tables):
            searched.append(block.obs.shape[2])
            cores.append(prep.gs.shape[0])
            return phase_search(block, step, prep, tables)

        monkeypatch.setattr(harness, "_CHAIN_ROWS", chain_rows)
        monkeypatch.setattr(harness._kernels, "phase_search", recording_search)
        seeds = [derive_trial_seed(LOCKSTEP.seed, i) for i in range(LOCKSTEP.num_trials)]
        opts = dict(collect_phase=True, collect_mse=True)
        cfgs = [replace(LOCKSTEP, snr_db=v) for v in (0.0, 10.0, 20.0)]
        batches = run_batch(cfgs, seeds, **opts)
        assert searched == chains * LOCKSTEP.num_steps
        # One core per point: [1, 1, 1], [2, 1], [3] and [3] per step.
        assert cores == [rows // LOCKSTEP.num_trials for rows in chains] * LOCKSTEP.num_steps
        for cfg, batch in zip(cfgs, batches):
            single = run_batch(cfg, seeds, **opts)
            for name in ("lam", "mag", "mag_threshold", "phase_est", "mse"):
                assert np.array_equal(
                    getattr(batch, name), getattr(single, name), equal_nan=True
                ), name

    @pytest.mark.parametrize(
        "change",
        [
            dict(num_paths=3),
            dict(num_steps=41),
            dict(max_slope=0.1),
            dict(detectors=("kalman", "magnitude_diff")),
            dict(pilot_spec="first:12"),
            dict(nominal_false_alarm=0.05),
        ],
    )
    def test_points_differing_off_the_axes_are_refused(self, change):
        with pytest.raises(ConfigError, match=next(iter(change))):
            run_batch([FAST, replace(FAST, snr_db=5.0, **change)], [1, 2])

    def test_empty_points_or_seeds_are_refused(self):
        with pytest.raises(ValueError, match="configuration"):
            run_batch([], [1, 2])
        with pytest.raises(ValueError, match="trial seed"):
            run_batch(FAST, [])
        with pytest.raises(ValueError, match="trial seed"):
            run_batch([FAST, replace(FAST, snr_db=5.0)], [])

    def test_draw_order_does_not_depend_on_the_number_of_points(self):
        # After k steps each trial's generator is where a one-point run
        # leaves it, so the documented per-trial draw order still holds.
        profiles = [make_profile(4, d, 0.5) for d in (1e-4, 1e-2, 1e-3)]
        tables = _kernels.grid_tables(FAST.pilot_grid(), 4)
        seeds = [derive_trial_seed(7, i) for i in range(3)]
        states = []
        for points in (profiles[:1], profiles):
            rngs = [np.random.default_rng(s) for s in seeds]
            blocks = list(simulate(points, tables, [0.1] * len(points), 0.2, rngs, 5))
            assert sum(len(block.obs) for block in blocks) == 5
            assert all(block.obs.shape[2] == len(points) for block in blocks)
            states.append([rng.bit_generator.state for rng in rngs])
        assert states[0] == states[1]


class TestOneTrialLockstepPoints:
    """With one trial the P points are P rows of one batch, whose products
    round differently from a one-point run's one-row products, so each
    point agrees with its one-point run to rounding, not bit for bit."""

    @pytest.mark.parametrize(
        "axis, values",
        [("snr_db", [0.0, 5.0, 10.0, 15.0]), ("normalized_doppler", [1e-4, 1e-2])],
    )
    def test_each_point_matches_its_one_point_run(self, axis, values):
        seeds = [derive_trial_seed(LOCKSTEP.seed, 0)]
        cfgs = [replace(LOCKSTEP, num_trials=1, **{axis: v}) for v in values]
        for cfg, batch in zip(cfgs, run_batch(cfgs, seeds)):
            single = run_batch(cfg, seeds)
            assert np.allclose(batch.lam, single.lam, rtol=1e-8, atol=0)
            for det in cfg.detectors:
                assert np.array_equal(batch.decisions(det), single.decisions(det)), det


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
        cfg = replace(FAST, num_steps=1200, num_trials=4)
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
        num_paths=num_paths,
        pdp_decay=draw(st.floats(0.0, 50.0)),
        dft_size=32,
        pilot_spec=f"first:{draw(st.integers(2, num_paths))}",
        slope_points=FAST.slope_points,
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
        [link] = steps_of(
            simulate([profile], tables, [noise_var], cfg.resolved_max_slope(), rngs, 1)
        )
        cov = np.tile(profile.alpha**2 * profile.pdp + profile.process_noise_diag, (2, 1))
        for col in (0, 1):
            assert np.array_equal(batch.phase_true[:, 0, col, 0], link.offset[col])
            assert np.array_equal(batch.phase_true[:, 0, col, 1], link.slope[col])
            # A one-step block predicted from a zero covariance with process noise cov.
            block = _kernels.block_terms(
                link.obs[None, col, 0], np.zeros_like(cov), np.ones(2), cov, noise_var, tables,
                cfg.slope_points, cfg.resolved_max_slope(),
            )
            prep = _kernels.prepare_state(np.zeros((2, profile.num_paths), complex), block, 0,
                                          tables)
            offset, slope, _ = _kernels.phase_search(block, 0, prep, tables)
            assert np.array_equal(batch.phase_est[:, 0, col, 0], offset)
            assert np.array_equal(batch.phase_est[:, 0, col, 1], slope)


class TestLinkAxis:
    def test_search_gets_the_yielded_observations(self, monkeypatch):
        # With one point per kernel chain, run_batch hands each point's
        # (2, T, Q) block of the yielded (K, 2, P, T, Q) observations to the
        # phase search as a view, with no stacking copy between.
        yielded, searched = [], []
        phase_search = _kernels.phase_search

        def recording_simulate(*args, **kwargs):
            for link in simulate(*args, **kwargs):
                yielded.extend(link.obs)
                yield link

        def recording_search(block, step, *args):
            searched.append(block.obs[step])
            return phase_search(block, step, *args)

        monkeypatch.setattr(harness, "simulate", recording_simulate)
        monkeypatch.setattr(harness._kernels, "phase_search", recording_search)
        monkeypatch.setattr(harness, "_CHAIN_ROWS", 1)
        cfg = replace(FAST, num_steps=3)
        cfgs = [cfg, replace(cfg, snr_db=20.0)]
        run_batch(cfgs, [derive_trial_seed(cfg.seed, i) for i in range(2)])
        assert len(yielded) == cfg.num_steps
        assert len(searched) == 2 * cfg.num_steps
        for k, obs in enumerate(yielded):
            assert obs.shape == (2, 2, 2, cfg.pilot_grid().num_pilots)
            for p, h_obs in enumerate(searched[2 * k : 2 * k + 2]):
                assert np.shares_memory(h_obs, obs[:, p])


class TestSimulateBlocks:
    """run_batch runs the filter's state-free terms once per simulate block
    (at one trial 32 steps, at three 10): the results are bit for bit those
    of one-step blocks, and each step is still checked as it ends."""

    @pytest.mark.parametrize("num_trials", [1, 3])
    def test_blocks_equal_one_step_blocks(self, monkeypatch, num_trials):
        # 202 steps, the fewest that calibrate the magnitude baseline, end
        # in a partial block at both trial counts (6 x 32 + 10, 20 x 10 + 2).
        cfg = replace(FAST, num_steps=202, detectors=("kalman", "magnitude_diff"))
        seeds = [derive_trial_seed(cfg.seed, i) for i in range(num_trials)]
        opts = dict(collect_phase=True, collect_mse=True)
        blocks = run_batch(cfg, seeds, **opts)
        monkeypatch.setattr(channel, "_BLOCK_ROWS", 1)
        steps = run_batch(cfg, seeds, **opts)
        for name in ("lam", "mag", "phase_est", "mse"):
            a, b = getattr(blocks, name), getattr(steps, name)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name

    CHECKED = replace(FAST, num_trials=1)

    def _abort(self, monkeypatch, bad_statistic_at, negative_covariance_at,
               bad=lambda quad: -1.0 - np.abs(quad)):
        """(NumericalError message, searches run) of a one-trial batch whose
        statistic turns ``bad`` (negative by default) at one step and whose
        covariance goes negative at another."""
        searches = []
        phase_search, quadform, block_terms = (
            _kernels.phase_search, _kernels.whitened_quadform, _kernels.block_terms
        )

        def counting_search(*args):
            searches.append(None)
            return phase_search(*args)

        def bad_quadform(r, prep, tables):
            g, quad = quadform(r, prep, tables)
            return g, bad(quad) if len(searches) == bad_statistic_at else quad

        def negative_covariance(h_obs, *args):
            block = block_terms(h_obs, *args)
            assert len(h_obs) == channel._BLOCK_ROWS                  # steps 1 to 32
            block.posterior[negative_covariance_at - 1, 0, 2] = -1e-9
            return block

        monkeypatch.setattr(_kernels, "phase_search", counting_search)
        monkeypatch.setattr(_kernels, "whitened_quadform", bad_quadform)
        monkeypatch.setattr(_kernels, "block_terms", negative_covariance)
        with pytest.raises(NumericalError) as failure:
            run_batch(self.CHECKED, [derive_trial_seed(self.CHECKED.seed, 0)])
        return str(failure.value), len(searches)

    def test_negative_statistic_names_its_step(self, monkeypatch):
        # Step 5 of a 32-step block fails on its statistic before step 9's
        # covariance is checked, and before step 6 runs.
        message, searches = self._abort(monkeypatch, 5, 9)
        assert message.startswith("trial batch aborted at step 5: test statistic reached -")
        assert searches == 5

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_statistic_that_is_not_finite_names_its_step(self, monkeypatch, value):
        # A NaN or +inf statistic fails the finite check, not the sign check.
        message, searches = self._abort(monkeypatch, 5, 9, lambda quad: np.full_like(quad, value))
        assert message == f"trial batch aborted at step 5: test statistic reached {value:.3e}"
        assert searches == 5

    def test_negative_covariance_names_its_step(self, monkeypatch):
        # At step 7 the covariance check comes before the statistic's.
        message, searches = self._abort(monkeypatch, 7, 7)
        assert message == "trial batch aborted at step 7: updated covariance reached -1.000e-09"
        assert searches == 7


class TestDefaultSlopeRange:
    def test_m64_default_runs_near_nominal_false_alarm(self):
        # At M = 64 the default drawn slopes reach 2*pi*4/64 = 0.39 rad; a
        # search range fixed at 2*pi*4/128 could not reach half of them and
        # raised a false alarm on every legitimate packet (rate 1.0).
        cfg = ScenarioConfig(
            num_steps=200, num_trials=2, dft_size=64, pilot_spec="all"
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
        max_slope = cfg.resolved_max_slope()
        rngs = [np.random.default_rng(seed)]
        links = simulate([profile], tables, [noise_var], max_slope, rngs, cfg.num_steps)
        state = init_state(profile)
        for k, link in enumerate(steps_of(links), start=1):
            alice_obs, eve_obs = link.obs[:, 0, 0]
            # Eve is scored against the same prediction but never updates it.
            _, _, eps_eve, sigma_eve = filter_step(
                state, eve_obs, profile, grid, noise_var, cfg.slope_points, max_slope
            )
            state, _, eps_alice, sigma_alice = filter_step(
                state, alice_obs, profile, grid, noise_var, cfg.slope_points, max_slope
            )
            lam_alice = residual_statistic(eps_alice, sigma_alice)
            lam_eve = residual_statistic(eps_eve, sigma_eve)

            assert lam_alice == pytest.approx(batch.lam[0, k - 1, 0], rel=1e-8)
            assert lam_eve == pytest.approx(batch.lam[0, k - 1, 1], rel=1e-8)


class TestSweep:
    def test_single_value_single_trial(self):
        cfg = replace(FAST, num_trials=1)
        a = sweep(cfg, "snr_db", [10.0])
        b = sweep(cfg, "snr_db", [10.0])
        assert len(a.points) == 1
        assert a.points[0].detection_rate == b.points[0].detection_rate
        assert a.points[0].num_trials == 1

    def test_count_conservation(self):
        # magnitude_diff needs >= 100 calibration steps in the train half
        cfg = replace(
            FAST, num_steps=240, num_trials=2, detectors=("kalman", "magnitude_diff")
        )
        result = sweep(cfg, "snr_db", [0.0, 10.0])
        assert len(result.points) == 4
        # Both rates count decisions over every test-half step of every trial.
        num_each = cfg.num_trials * (cfg.num_steps - cfg.num_steps // 2)
        for p in result.points:
            for rate in (p.detection_rate, p.empirical_false_alarm):
                assert rate * num_each == pytest.approx(round(rate * num_each), abs=1e-6)
            assert 0.0 <= p.detection_rate <= 1.0
            assert 0.0 <= p.empirical_false_alarm <= 1.0

    def test_rejects_bad_axis_and_values(self):
        with pytest.raises(ValueError):
            sweep(FAST, "bandwidth", [1.0])
        with pytest.raises(ValueError):
            sweep(FAST, "snr_db", [])
        with pytest.raises(ValueError):
            sweep(FAST, "snr_db", [10.0, 0.0])
        with pytest.raises(ValueError, match="distinct"):
            sweep(FAST, "snr_db", [5.0, 5.0])

    def test_metadata(self, tmp_path):
        # The header names the base configuration, not the swept point's.
        cfg = replace(FAST, num_trials=1)
        path = tmp_path / "sweep.csv"
        write_csv(sweep(cfg, "normalized_doppler", [1e-3]), path, cfg)
        first = path.read_text().splitlines()[0]
        assert first == f"# config_hash={config_hash(cfg)} seed=12345"


class TestRocCurve:
    def test_perfect_separation(self):
        h0 = np.array([1.0, 2.0, 3.0])
        h1 = np.array([10.0, 11.0, 12.0])
        curve = [(fa, dr) for _, fa, dr in roc_points(h0, h1, 101)]
        assert (0.0, 1.0) in curve
        assert curve[0] == (0.0, 0.0) or curve[0][0] == 0.0
        assert curve[-1] == (1.0, 1.0)

    def test_chance_performance(self):
        rng = np.random.default_rng(3)
        h0 = rng.chisquare(20, 4000)
        h1 = rng.chisquare(20, 4000)
        for _, fa, dr in roc_points(h0, h1, 51):
            assert abs(dr - fa) < 0.05

    def test_monotone(self, rng):
        h0 = rng.chisquare(10, 500)
        h1 = rng.chisquare(16, 500)
        curve = roc_points(h0, h1, 41)
        fas = [fa for _, fa, _ in curve]
        drs = [dr for _, _, dr in curve]
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
            roc_points([], [1.0], 11)


class TestCsv:
    def test_sweep_round_trip(self, tmp_path):
        cfg = replace(FAST, num_trials=2)
        result = sweep(cfg, "snr_db", [0.0, 10.0])
        path = tmp_path / "sweep.csv"
        write_csv(result, path, cfg)
        again = read_sweep_csv(path)
        assert again.axis == result.axis
        assert path.read_text().splitlines()[0] == _header(cfg)
        assert len(again.points) == len(result.points)
        for a, b in zip(again.points, result.points):
            assert a.detector == b.detector
            assert a.axis_value == pytest.approx(b.axis_value, rel=1e-8)
            # 9 significant digits in the file bounds the round-trip error
            assert a.detection_rate == pytest.approx(b.detection_rate, rel=1e-8)

    def test_sweep_csv_format(self, tmp_path):
        cfg = replace(FAST, num_trials=1)
        result = sweep(cfg, "snr_db", [10.0])
        path = tmp_path / "sweep.csv"
        write_csv(result, path, cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == _header(cfg)
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
        write_csv(SweepResult(axis="snr_db", points=[]), path, FAST)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("axis,")

    def test_roc_round_trip(self, tmp_path):
        result = RocResult(
            points=[("kalman", 250.0, 0.1, 0.9), ("kalman", 260.0, 0.05, 0.8)],
        )
        path = tmp_path / "roc.csv"
        write_csv(result, path, FAST)
        assert path.read_text().splitlines()[0] == _header(FAST)
        again = read_roc_csv(path)
        assert len(again.points) == 2
        assert again.points[0][0] == "kalman"
        assert again.points[0][1] == pytest.approx(250.0)

    def test_records_bytes_are_the_csv_writers(self, tmp_path):
        # The records are written as one string; the file is byte for byte
        # what csv.writer writes with _fmt, for every float form.
        records = trial_records(FAST, derive_trial_seed(FAST.seed, 0))
        records += [
            (41, "eve", "magnitude_diff", stat, thr, "H0")
            for stat, thr in [(np.nan, 1.5), (np.inf, -0.0), (1e-300, 123456789012.0),
                              (0.1 + 0.2, 5e-324), (-np.inf, 2.0**70)]
        ]
        path = tmp_path / "records.csv"
        write_csv(records, path, FAST)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", encoding="utf-8", newline="") as fh:
            fh.write(_header(FAST) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["k", "truth", "detector", "statistic", "threshold", "decision"])
            writer.writerows(
                [harness._fmt(k), truth, det, harness._fmt(stat), harness._fmt(thr), dec]
                for k, truth, det, stat, thr, dec in records
            )
        assert path.read_bytes() == expected.read_bytes()

    def test_records_round_trip(self, tmp_path):
        records = trial_records(FAST, derive_trial_seed(FAST.seed, 0))
        path = tmp_path / "records.csv"
        write_csv(records, path, FAST)
        assert path.read_text().splitlines()[0] == _header(FAST)
        rows = read_records_csv(path)
        assert len(rows) == len(records)
        assert rows[0]["k"] == 1
        assert rows[0]["truth"] == "alice"
        assert rows[0]["detector"] == "kalman"
        assert rows[0]["statistic"] == pytest.approx(records[0][3], rel=1e-8)
        assert rows[0]["decision"] in ("H0", "H1")

    def test_write_failure_has_path_context(self):
        result = SweepResult(axis="snr_db", points=[])
        with pytest.raises(OSError, match="no/such/dir"):
            write_csv(result, "no/such/dir/out.csv", FAST)
