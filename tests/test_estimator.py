import numpy as np
import pytest

from csiguard import _kernels
from csiguard.acceptance import PHASE_RECOVERY_TOLERANCE
from csiguard.channel import make_profile
from csiguard.config import PhaseSearchConfig
from csiguard.errors import NumericalError
from csiguard.observation import partial_dft

from oracles import (
    KalmanState,
    PhaseDistortion,
    filter_step,
    gain,
    init_state,
    negative_log_likelihood,
    phase_diagonal,
    predict,
    update,
)
from test_channel import DOPPLER_FOR_ALPHA_09, simulate_steps, undistorted


def _random_predicted(rng, grid, num_paths, cov_scale=0.3):
    mean = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)) / 2
    cov = cov_scale * np.abs(rng.standard_normal(num_paths)) + 1e-3
    return KalmanState(mean=mean, cov_diag=cov, kind="predicted")


def _random_obs(rng, grid):
    q = grid.num_pilots
    return rng.standard_normal(q) + 1j * rng.standard_normal(q)


def _estimate(obs, pred, grid, noise_var, cfg):
    """Phase pair of one observation: phase_search on a one-row batch."""
    tables = _kernels.grid_tables(grid, len(pred.mean))
    prep = _kernels.prepare_state(pred.mean[None], pred.cov_diag[None], noise_var, tables)
    offset, slope = _kernels.phase_search(obs[None], prep, grid, tables, cfg)
    return PhaseDistortion(offset=float(offset[0]), slope=float(slope[0]))


class TestInitAndPredict:
    def test_init_state(self, profile8):
        s = init_state(profile8)
        assert np.all(s.mean == 0)
        assert s.cov_diag.sum() == pytest.approx(1.0, abs=1e-12)
        assert s.kind == "updated"

    def test_first_prediction_is_stationary(self, profile8):
        pred = predict(init_state(profile8), profile8)
        assert np.allclose(pred.cov_diag, profile8.pdp, atol=1e-15)

    def test_static_channel_prediction(self):
        p = make_profile(2, 0.0, 0.3)
        s = KalmanState(
            mean=np.array([1 + 1j, 2 - 1j]),
            cov_diag=np.array([0.4, 0.6]),
            kind="updated",
        )
        pred = predict(s, p)
        assert np.array_equal(pred.mean, s.mean)
        assert np.array_equal(pred.cov_diag, s.cov_diag)

    def test_scalar_prediction_arithmetic(self):
        # alpha = 0.9: predicted variance 0.81 * 1 + 0.19 = 1 (stationarity).
        p = make_profile(1, DOPPLER_FOR_ALPHA_09, 0.0)
        s = KalmanState(mean=np.array([1 + 0j]), cov_diag=np.array([1.0]), kind="updated")
        pred = predict(s, p)
        assert pred.cov_diag[0] == pytest.approx(1.0, abs=1e-9)
        assert pred.mean[0] == pytest.approx(p.alpha * (1 + 0j))

    def test_predict_requires_updated(self, profile8):
        pred = predict(init_state(profile8), profile8)
        with pytest.raises(ValueError):
            predict(pred, profile8)


class TestNegativeLogLikelihood:
    def test_zero_at_truth(self, small_grid):
        profile = make_profile(4, 1e-4, 0.5)
        [(link, _)] = simulate_steps(profile, [4], 1, grid=small_grid, noise_var=1e-30)
        d = PhaseDistortion(float(link.offset[0]), float(link.slope[0]))
        pred = KalmanState(mean=link.taps[0], cov_diag=0.1 * profile.pdp, kind="predicted")
        assert negative_log_likelihood(d, link.obs[0], pred, small_grid, 0.01) < 1e-18

    def test_scaling_invariance(self, small_grid, rng):
        pred = _random_predicted(rng, small_grid, 4)
        obs = _random_obs(rng, small_grid)
        d = PhaseDistortion(0.3, -0.02)
        g1 = negative_log_likelihood(d, obs, pred, small_grid, 0.2)
        scaled = KalmanState(mean=pred.mean, cov_diag=3.0 * pred.cov_diag, kind="predicted")
        g2 = negative_log_likelihood(d, obs, scaled, small_grid, 0.6)
        assert g2 == pytest.approx(g1 / 3.0, rel=1e-9)

    def test_matches_explicit_dense_formula(self, small_grid, rng):
        pred = _random_predicted(rng, small_grid, 4)
        obs = _random_obs(rng, small_grid)
        d = PhaseDistortion(-1.2, 0.11)
        b = phase_diagonal(d, small_grid)[:, None] * partial_dft(small_grid, 4)
        sigma = (b * pred.cov_diag) @ b.conj().T + 0.15 * np.eye(small_grid.num_pilots)
        eps = obs - b @ pred.mean
        expected = np.real(eps.conj() @ np.linalg.solve(sigma, eps))
        assert negative_log_likelihood(d, obs, pred, small_grid, 0.15) == pytest.approx(
            expected, rel=1e-10
        )

    def test_requires_predicted(self, small_grid, profile8, rng):
        obs = _random_obs(rng, small_grid)
        with pytest.raises(ValueError):
            negative_log_likelihood(
                PhaseDistortion(0, 0), obs, init_state(profile8), small_grid, 0.1
            )


class TestProfiledObjectiveAgainstDense:
    """The search path evaluates the offset-profiled objective through the
    factored kernels; it must equal the dense form at the profiled offset
    and be the conditional minimum over the offset."""

    def test_profile_equals_dense_at_optimal_offset(self, grid114, rng):
        num_paths = 8
        pred = _random_predicted(rng, grid114, num_paths)
        obs = _random_obs(rng, grid114)
        s2 = 0.25
        tables = _kernels.grid_tables(grid114, num_paths)
        prep = _kernels.prepare_state(pred.mean[None], pred.cov_diag[None], s2, tables)
        terms = _kernels.SearchTerms(
            h=obs[None],
            zvec=obs[None] * prep.w.conj(),
            base_quad=np.array([np.vdot(obs, obs).real / s2]),
            const=prep.m_quad,
        )
        for slope in (-0.15, 0.0, 0.07):
            ramp = tables.ramp(np.array([slope]))
            f, zc = _kernels._candidate_objective(ramp, terms, prep, tables)
            offset = float(np.angle(zc[0]))
            dense = negative_log_likelihood(
                PhaseDistortion(offset, slope), obs, pred, grid114, s2
            )
            assert f[0] == pytest.approx(dense, rel=1e-9)
            for delta in (1e-3, -1e-3):
                worse = negative_log_likelihood(
                    PhaseDistortion(offset + delta, slope), obs, pred, grid114, s2
                )
                assert worse >= dense - 1e-9 * abs(dense)

    def test_ramp_matches_exponential(self, grid114, rng):
        tables = _kernels.grid_tables(grid114, 8)
        x = rng.uniform(-0.3, 0.3, size=5)
        expected = np.exp(-1j * x[:, None] * tables.q[None, :])
        assert np.allclose(tables.ramp(x), expected, atol=1e-12)


def _search_batch(grid, snr_db, zero_mean, rng, trials=40, num_paths=8, stacked=False):
    """Observations of rotated channels with a Kalman-like prediction of them.

    With ``zero_mean`` the prediction is the prior (zero mean, stationary
    covariance), the first filter step, where the offset coupling zc is 0.
    With ``stacked`` the observations are the (2, T, Q) stack of alice's
    packets and eve's, both scored against the prediction of alice's channel.
    """
    profile = make_profile(num_paths, 1e-4, 0.5)
    tables = _kernels.grid_tables(grid, num_paths)
    s2 = 10.0 ** (-snr_db / 10.0)
    bound = PhaseSearchConfig().slope_bound(grid.dft_size)
    seeds = rng.integers(2**63, size=trials)
    [(link, eve)] = simulate_steps(profile, seeds, 1, grid=grid, noise_var=s2, max_slope=bound)
    h = link.taps
    if zero_mean:
        mean, cov = np.zeros_like(h), np.tile(profile.pdp, (trials, 1))
    else:
        error = np.sqrt(0.01 * profile.pdp) * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
        mean, cov = h + error, np.tile(0.02 * profile.pdp, (trials, 1))
    obs = np.stack((link.obs, eve.obs)) if stacked else link.obs
    return obs, _kernels.prepare_state(mean, cov, s2, tables), tables


def _profiled_objective(obs, prep, tables, cfg):
    """Slope -> offset-profiled objective per observation, as phase_search scores it."""
    terms = _kernels._search_terms(obs, prep, cfg)
    return lambda x: _kernels._candidate_objective(tables.ramp(x), terms, prep, tables)[0]


def _check_derivatives(obs, prep, tables, cfg, x):
    """Analytic f', f'' against Richardson-extrapolated central differences."""
    terms = _kernels._search_terms(obs, prep, cfg)
    d1, d2 = _kernels._slope_derivatives(tables.ramp(x), terms, prep, tables)
    f = _profiled_objective(obs, prep, tables, cfg)

    def differences(step):
        lo, mid, hi = f(x - step), f(x), f(x + step)
        return (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step**2

    # Richardson extrapolation of two central differences: O(step^4) error.
    (a1, a2), (b1, b2) = differences(2e-4), differences(1e-4)
    fd1, fd2 = (4 * b1 - a1) / 3, (4 * b2 - a2) / 3
    assert np.allclose(d1, fd1, rtol=1e-6, atol=0)
    assert np.allclose(d2, fd2, rtol=1e-6, atol=0)


def _check_no_worse_than_fine_sweep(obs, prep, grid, tables, cfg):
    """phase_search stays in its bracket and scores no worse than a 1001-point sweep of it."""
    _, est_slope = _kernels.phase_search(obs, prep, grid, tables, cfg)
    f = _profiled_objective(obs, prep, tables, cfg)
    slopes = _kernels.slope_tables(
        grid, tables.c.shape[1], cfg.slope_grid_points, cfg.slope_bound(grid.dft_size)
    )[0]
    grid_obj = np.stack([f(np.full(obs.shape[:-1], x)) for x in slopes], axis=-1)
    idx = np.argmin(grid_obj, axis=-1)
    lo = slopes[np.maximum(idx - 1, 0)]
    hi = slopes[np.minimum(idx + 1, len(slopes) - 1)]
    sweep = np.stack([f(lo + t * (hi - lo)) for t in np.linspace(0.0, 1.0, 1001)], axis=-1)
    best = sweep.min(axis=-1)
    assert np.all((est_slope >= lo) & (est_slope <= hi))
    assert np.all(f(est_slope) <= best + 1e-9 * np.abs(best))


class TestNewtonStage:
    """The slope refinement after the coarse grid: exact derivatives, and a
    result no worse than a fine sweep of the bracket it searches."""

    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("objective", ["whitened", "paper-literal"])
    def test_derivatives_match_central_differences(self, grid114, rng, objective, zero_mean):
        # With a zero predicted mean, zc vanishes at every slope and the
        # derivatives must drop its terms rather than divide by |zc| = 0.
        cfg = PhaseSearchConfig(objective=objective)
        obs, prep, tables = _search_batch(grid114, 10.0, zero_mean, rng, trials=8)
        bound = cfg.slope_bound(grid114.dft_size)
        _check_derivatives(obs, prep, tables, cfg, rng.uniform(-bound, bound, 8))

    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    def test_no_worse_than_fine_sweep_of_bracket(self, grid114, rng, snr_db, zero_mean):
        obs, prep, tables = _search_batch(grid114, snr_db, zero_mean, rng)
        _check_no_worse_than_fine_sweep(obs, prep, grid114, tables, PhaseSearchConfig())

    def test_stacked_link_axis(self, grid114, rng):
        # Alice's and eve's packets as one (2, T, Q) batch against alice's
        # prediction, as run_batch scores them.
        cfg = PhaseSearchConfig()
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=8, stacked=True)
        bound = cfg.slope_bound(grid114.dft_size)
        _check_derivatives(obs, prep, tables, cfg, rng.uniform(-bound, bound, (2, 8)))
        _check_no_worse_than_fine_sweep(obs, prep, grid114, tables, cfg)


class TestLinkAxisAndTables:
    """A stacked (2, T, Q) batch is two (T, Q) batches in one call, and the
    GEMM tables hold the projections they stand for."""

    @pytest.mark.parametrize("objective", ["whitened", "paper-literal"])
    @pytest.mark.parametrize("trials", [1, 3, 16, 64])
    def test_stacked_equals_separate_calls(self, grid114, rng, trials, objective):
        cfg = PhaseSearchConfig(objective=objective)
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=trials, stacked=True)
        offset, slope = _kernels.phase_search(obs, prep, grid114, tables, cfg)
        y, quad = _kernels.whitened_quadform(obs, prep, tables)
        assert offset.shape == slope.shape == quad.shape == (2, trials)
        for link in (0, 1):
            one_offset, one_slope = _kernels.phase_search(obs[link], prep, grid114, tables, cfg)
            one_y, one_quad = _kernels.whitened_quadform(obs[link], prep, tables)
            assert np.array_equal(offset[link], one_offset)
            assert np.array_equal(slope[link], one_slope)
            assert np.array_equal(y[link], one_y)
            assert np.array_equal(quad[link], one_quad)

    def test_ramp_takes_leading_axes(self, grid114, rng):
        tables = _kernels.grid_tables(grid114, 8)
        x = rng.uniform(-0.3, 0.3, size=(2, 5))
        assert np.array_equal(tables.ramp(x)[1], tables.ramp(x[1]))

    def test_coarse_table_projects_every_grid_slope(self, grid114, rng):
        tables = _kernels.grid_tables(grid114, 8)
        slopes, phi_t, table = _kernels.slope_tables(grid114, 8, 64, 0.2)
        h = _random_obs(rng, grid114)
        s = (h @ table).reshape(len(slopes), 8)
        c = partial_dft(grid114, 8)
        for g in range(len(slopes)):
            expected = c.conj().T @ (phi_t[:, g] * h)
            assert np.allclose(s[g], expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_c3_projects_ramp_derivatives(self, grid114, rng):
        tables = _kernels.grid_tables(grid114, 8)
        h = _random_obs(rng, grid114)
        u = tables.ramp(np.array(0.05))
        s = ((u * h) @ tables.c3).reshape(3, 8)
        c = partial_dft(grid114, 8)
        q = np.asarray(grid114.pilot_indices, dtype=float)
        # u = exp(-1j x q) and its first two derivatives in x.
        for k, u_k in enumerate((u, -1j * q * u, -q * q * u)):
            expected = c.conj().T @ (u_k * h)
            assert np.allclose(s[k], expected, rtol=0, atol=1e-12 * np.abs(expected).max())


class TestEstimatePhase:
    def test_identity_distortion_recovered(self, small_grid):
        profile = make_profile(4, 1e-4, 0.5)
        [(link, _)] = simulate_steps(profile, [5], 1, grid=small_grid, noise_var=1e-12)
        pred = KalmanState(mean=link.taps[0], cov_diag=1e-6 * profile.pdp, kind="predicted")
        cfg = PhaseSearchConfig(slope_search_bound=0.3)
        d = _estimate(undistorted(link, small_grid)[0], pred, small_grid, 1e-12, cfg)
        assert abs(d.offset) < PHASE_RECOVERY_TOLERANCE
        assert abs(d.slope) < PHASE_RECOVERY_TOLERANCE

    def test_recovers_generating_pair(self, grid114):
        profile = make_profile(8, 1e-4, 0.5)
        [(link, _)] = simulate_steps(profile, [6], 1, grid=grid114, noise_var=1e-12, max_slope=0.1)
        pred = KalmanState(mean=link.taps[0], cov_diag=1e-8 * profile.pdp, kind="predicted")
        cfg = PhaseSearchConfig()
        d = _estimate(link.obs[0], pred, grid114, 1e-12, cfg)
        assert d.slope == pytest.approx(link.slope[0], abs=PHASE_RECOVERY_TOLERANCE)
        assert d.offset == pytest.approx(link.offset[0], abs=PHASE_RECOVERY_TOLERANCE)

    def test_never_worse_than_grid_oracle(self, small_grid, rng):
        # The refined estimate must score at least as well as a brute-force
        # sweep of the likelihood over a fine slope/offset grid.
        profile = make_profile(4, 1e-4, 0.5)
        cfg = PhaseSearchConfig(slope_search_bound=0.2)
        for trial in range(3):
            pred = _random_predicted(rng, small_grid, 4, cov_scale=0.05)
            obs = _random_obs(rng, small_grid)
            s2 = 0.5
            d = _estimate(obs, pred, small_grid, s2, cfg)
            best = negative_log_likelihood(d, obs, pred, small_grid, s2)
            slopes = np.linspace(-0.2, 0.2, 81)
            offsets = np.linspace(-np.pi, np.pi, 181, endpoint=False)
            for slope in slopes:
                for offset in offsets[::6]:
                    other = negative_log_likelihood(
                        PhaseDistortion(offset, slope), obs, pred, small_grid, s2
                    )
                    assert best <= other + 1e-6 * max(1.0, abs(other))

    def test_scale_invariance(self, small_grid, rng):
        pred = _random_predicted(rng, small_grid, 4)
        obs = _random_obs(rng, small_grid)
        cfg = PhaseSearchConfig(slope_search_bound=0.2)
        d1 = _estimate(obs, pred, small_grid, 0.3, cfg)
        c = 2.5
        scaled_pred = KalmanState(
            mean=c * pred.mean,
            cov_diag=c**2 * pred.cov_diag,
            kind="predicted",
        )
        scaled_obs = c * obs
        d2 = _estimate(scaled_obs, scaled_pred, small_grid, c**2 * 0.3, cfg)
        assert d2.slope == pytest.approx(d1.slope, abs=1e-7)
        assert d2.offset == pytest.approx(d1.offset, abs=1e-7)

    def test_paper_literal_objective(self, small_grid, rng):
        # The literal variant drops the whitening from the cross term; its
        # minimizer must match a dense brute-force sweep of that objective.
        pred = _random_predicted(rng, small_grid, 4, cov_scale=0.05)
        obs = _random_obs(rng, small_grid)
        s2 = 0.4
        cfg = PhaseSearchConfig(slope_search_bound=0.2, objective="paper-literal")
        d = _estimate(obs, pred, small_grid, s2, cfg)
        c = partial_dft(small_grid, 4)

        def literal(offset, slope):
            b = phase_diagonal(PhaseDistortion(offset, slope), small_grid)[:, None] * c
            sigma = (b * pred.cov_diag) @ b.conj().T + s2 * np.eye(small_grid.num_pilots)
            term = np.real(
                obs.conj() @ np.linalg.solve(sigma, obs)
            ) - 2 * np.real(obs.conj() @ (b @ pred.mean))
            return term

        best = literal(d.offset, d.slope)
        for slope in np.linspace(-0.2, 0.2, 41):
            for offset in np.linspace(-np.pi, np.pi, 37, endpoint=False):
                assert best <= literal(offset, slope) + 1e-6


class TestGainUpdate:
    def test_zero_prior_gives_zero_gain(self, small_grid):
        pred = KalmanState(
            mean=np.zeros(4, dtype=complex),
            cov_diag=np.zeros(4),
            kind="predicted",
        )
        b = partial_dft(small_grid, 4)
        k = gain(pred, np.asarray(b), 0.5)
        assert np.allclose(k, 0.0, atol=1e-15)

    def test_huge_noise_kills_gain(self, small_grid, rng):
        pred = _random_predicted(rng, small_grid, 4)
        b = np.asarray(partial_dft(small_grid, 4))
        k = gain(pred, b, 1e12)
        assert np.linalg.norm(k) < 1e-9

    def test_scalar_gain(self):
        pred = KalmanState(mean=np.array([0j]), cov_diag=np.array([1.0]), kind="predicted")
        k = gain(pred, np.array([[1.0 + 0j]]), 1.0)
        assert k[0, 0] == pytest.approx(0.5)

    def test_scalar_update(self):
        pred = KalmanState(mean=np.array([0j]), cov_diag=np.array([1.0]), kind="predicted")
        b = np.array([[1.0 + 0j]])
        k = gain(pred, b, 1.0)
        new = update(pred, np.array([1.0 + 0j]), b, k)
        assert new.cov_diag[0] == pytest.approx(0.5)
        assert new.mean[0] == pytest.approx(0.5 + 0j)
        assert new.kind == "updated"

    def test_zero_gain_keeps_prediction(self, small_grid, rng):
        pred = _random_predicted(rng, small_grid, 4)
        b = np.asarray(partial_dft(small_grid, 4))
        obs = _random_obs(rng, small_grid)
        new = update(pred, obs, b, np.zeros((4, small_grid.num_pilots), dtype=complex))
        assert np.array_equal(new.mean, pred.mean)
        assert np.allclose(new.cov_diag, pred.cov_diag)

    def test_posterior_never_exceeds_prior(self, small_grid, rng):
        for _ in range(4):
            pred = _random_predicted(rng, small_grid, 4)
            b = np.asarray(partial_dft(small_grid, 4))
            k = gain(pred, b, 0.3)
            obs = _random_obs(rng, small_grid)
            new = update(pred, obs, b, k)
            assert np.all(new.cov_diag <= pred.cov_diag + 1e-12)

    def test_negative_diagonal_raises(self, small_grid, rng):
        pred = _random_predicted(rng, small_grid, 4)
        b = np.asarray(partial_dft(small_grid, 4))
        bad_gain = 10.0 * pred.cov_diag[:, None] * b.conj().T
        obs = _random_obs(rng, small_grid)
        with pytest.raises(NumericalError):
            update(pred, obs, b, bad_gain)


class TestFilterStep:
    def test_noiseless_convergence_up_to_gauge(self, grid114):
        # With a fresh random offset on every packet, the pair (offset,
        # channel) is only identified up to a global rotation, so the state
        # converges to e^{j theta} h for some fixed theta: compare after
        # aligning that one free phase.
        profile = make_profile(8, 1e-4, 0.5)
        noise_var = 1e-14
        cfg = PhaseSearchConfig()
        state = init_state(profile)
        steps = simulate_steps(profile, [7], 100, grid=grid114, noise_var=noise_var, max_slope=0.1)
        for alice, _ in steps:
            state, d_est, residual, sigma = filter_step(
                state, alice.obs[0], profile, grid114, noise_var, cfg
            )
        h = alice.taps[0]
        inner = np.vdot(state.mean, h)
        aligned = np.exp(1j * np.angle(inner)) * state.mean
        assert np.linalg.norm(aligned - h) < 1e-6

    def test_noiseless_convergence_plain_filter(self, grid114):
        # With phase estimation disabled (undistorted observations) there is
        # no rotational freedom and the raw error reaches the noise floor.
        profile = make_profile(8, 1e-4, 0.5)
        noise_var = 1e-14
        state = init_state(profile)
        for alice, _ in simulate_steps(profile, [8], 100, grid=grid114, noise_var=noise_var):
            obs = undistorted(alice, grid114)[0]
            state, *_ = filter_step(state, obs, profile, grid114, noise_var, None)
        assert np.linalg.norm(state.mean - alice.taps[0]) < 1e-6

    def test_deterministic_system_covariance_shrinks(self, small_grid):
        profile = make_profile(4, 0.0, 0.5)
        state = init_state(profile)
        prev = state.cov_diag.copy()
        for alice, _ in simulate_steps(profile, [2], 10, grid=small_grid, noise_var=1e-12):
            obs = undistorted(alice, small_grid)[0]
            state, *_ = filter_step(state, obs, profile, small_grid, 1e-12, None)
            assert np.all(state.cov_diag <= prev + 1e-15)
            prev = state.cov_diag.copy()
        assert np.all(state.cov_diag < 1e-10)

    def test_returned_sigma_and_residual_shapes(self, grid114):
        profile = make_profile(8, 1e-4, 0.5)
        [(alice, _)] = simulate_steps(profile, [9], 1, grid=grid114, noise_var=0.1)
        state, d, residual, sigma = filter_step(
            init_state(profile), alice.obs[0], profile, grid114, 0.1, PhaseSearchConfig()
        )
        q = grid114.num_pilots
        assert residual.shape == (q,)
        assert sigma.shape == (q, q)
        assert np.allclose(sigma, sigma.conj().T, atol=1e-12)
        assert state.kind == "updated"

    def test_covariance_bounded_by_stationary_prior(self, grid114):
        # Under model-matched filtering the stationary profile is the prior,
        # so the diagonal covariance can never exceed it.
        profile = make_profile(8, 1e-4, 0.5)
        noise_var = 0.1
        cfg = PhaseSearchConfig()
        state = init_state(profile)
        steps = simulate_steps(profile, [10], 150, grid=grid114, noise_var=noise_var,
                               max_slope=0.19)
        for alice, _ in steps:
            state, *_ = filter_step(state, alice.obs[0], profile, grid114, noise_var, cfg)
            assert np.all(state.cov_diag >= 0.0)
            assert np.all(state.cov_diag <= profile.pdp * (1 + 1e-9))
