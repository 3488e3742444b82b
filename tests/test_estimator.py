import numpy as np
import pytest

from csiguard import _kernels
from csiguard.acceptance import PHASE_RECOVERY_TOLERANCE
from csiguard.channel import make_profile
from csiguard.config import ScenarioConfig, default_slope
from csiguard.errors import NumericalError
from csiguard.observation import PilotGrid, partial_dft

from oracles import (
    KalmanState,
    hermitian_solve,
    PhaseDistortion,
    filter_step,
    gain,
    init_state,
    negative_log_likelihood,
    phase_diagonal,
    predict,
    residual_statistic,
    update,
)
from test_channel import DOPPLER_FOR_ALPHA_09, simulate_links, simulate_steps, undistorted

# The default coarse slope grid, search.slope_points.
POINTS = ScenarioConfig.slope_points


def _random_predicted(rng, grid, num_paths, cov_scale=0.3):
    mean = (rng.standard_normal(num_paths) + 1j * rng.standard_normal(num_paths)) / 2
    cov = cov_scale * np.abs(rng.standard_normal(num_paths)) + 1e-3
    return KalmanState(mean=mean, cov_diag=cov, kind="predicted")


def _random_obs(rng, grid):
    q = grid.num_pilots
    return rng.standard_normal(q) + 1j * rng.standard_normal(q)


def _estimate(obs, pred, grid, noise_var, bound):
    """Phase pair of one observation: phase_search on a one-row batch."""
    tables = _kernels.grid_tables(grid, len(pred.mean))
    prep = _kernels.prepare_state(pred.mean[None], pred.cov_diag[None], noise_var, tables)
    offset, slope, _ = _kernels.phase_search(obs[None], prep, tables, POINTS, bound)
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
            h=obs[None], base_quad=np.array([np.vdot(obs, obs).real / s2])
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

    @pytest.mark.parametrize(
        "dft_size, pilots, step",
        [
            # scripts/check_outputs.py's all-keys grid.pilot_spec = 2-30,34-62:
            # steps 1 and 4.
            (64, tuple(range(2, 31)) + tuple(range(34, 63)), 1),
            # Steps 1, 3 and 4, and a grid whose most common step is not 1.
            (32, (0, 1, 2, 5, 6, 10, 11, 12), 1),
            (32, (3, 5, 7, 9, 10, 13, 15, 17, 21), 2),
            # One pilot: no step at all.
            (16, (5,), 1),
        ],
    )
    def test_ramp_with_several_index_steps(self, rng, dft_size, pilots, step):
        # ramp broadcasts the factor of the most common index step and
        # overwrites the columns of the others.
        tables = _kernels.grid_tables(PilotGrid(dft_size, pilots), 4)
        assert tables.ramp_step == step
        assert all(power != step for power, _ in tables.ramp_groups)
        x = rng.uniform(-0.3, 0.3, size=(2, 5))
        expected = np.exp(-1j * x[..., None] * np.asarray(pilots, dtype=float))
        assert np.allclose(tables.ramp(x), expected, rtol=0, atol=1e-12)


def _search_inputs(grid, snr_db, zero_mean, rng, trials=40, num_paths=8, stacked=False):
    """Observations of rotated channels, a Kalman-like prediction of them and s2.

    Returns (obs, mean, cov, s2, tables).  With ``zero_mean`` the prediction
    is the prior (zero mean, stationary covariance), the first filter step,
    where the offset coupling zc is 0.  With ``stacked`` the observations
    are the (2, T, Q) batch of alice's packets and eve's, both scored
    against the prediction of alice's channel.
    """
    profile = make_profile(num_paths, 1e-4, 0.5)
    tables = _kernels.grid_tables(grid, num_paths)
    s2 = 10.0 ** (-snr_db / 10.0)
    bound = default_slope(grid.dft_size)
    seeds = rng.integers(2**63, size=trials)
    [link] = simulate_links(profile, seeds, 1, grid=grid, noise_var=s2, max_slope=bound)
    h = link.taps[0]
    if zero_mean:
        mean, cov = np.zeros_like(h), np.tile(profile.pdp, (trials, 1))
    else:
        error = np.sqrt(0.01 * profile.pdp) * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
        mean, cov = h + error, np.tile(0.02 * profile.pdp, (trials, 1))
    obs = link.obs if stacked else link.obs[0]
    return obs, mean, cov, s2, tables


def _search_batch(grid, snr_db, zero_mean, rng, **options):
    """(obs, prep, tables) of :func:`_search_inputs`."""
    obs, mean, cov, s2, tables = _search_inputs(grid, snr_db, zero_mean, rng, **options)
    return obs, _kernels.prepare_state(mean, cov, s2, tables), tables


def _search_terms(obs, prep):
    return _kernels.SearchTerms(obs, _kernels._real_dot(obs, obs) / prep.noise_var)


def _profiled_objective(obs, prep, tables):
    """Slope -> offset-profiled objective per observation, as phase_search scores it."""
    terms = _search_terms(obs, prep)
    return lambda x: _kernels._candidate_objective(tables.ramp(x), terms, prep, tables)[0]


def _check_derivatives(obs, prep, tables, x):
    """Analytic f', f'' against Richardson-extrapolated central differences."""
    terms = _search_terms(obs, prep)
    d1, d2 = _kernels._slope_derivatives(tables.ramp(x), terms, prep, tables)
    f = _profiled_objective(obs, prep, tables)

    def differences(step):
        lo, mid, hi = f(x - step), f(x), f(x + step)
        return (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step**2

    # Richardson extrapolation of two central differences: O(step^4) error.
    (a1, a2), (b1, b2) = differences(2e-4), differences(1e-4)
    fd1, fd2 = (4 * b1 - a1) / 3, (4 * b2 - a2) / 3
    assert np.allclose(d1, fd1, rtol=1e-6, atol=0)
    assert np.allclose(d2, fd2, rtol=1e-6, atol=0)


def _check_no_worse_than_fine_sweep(obs, prep, grid, tables):
    """phase_search stays in its bracket and scores no worse than a 1001-point sweep of it."""
    bound = default_slope(grid.dft_size)
    _, est_slope, _ = _kernels.phase_search(obs, prep, tables, POINTS, bound)
    f = _profiled_objective(obs, prep, tables)
    slopes = _kernels.slope_tables(tables, POINTS, bound)[0]
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
    def test_derivatives_match_central_differences(self, grid114, rng, zero_mean):
        # With a zero predicted mean, zc vanishes at every slope and the
        # derivatives must drop its terms rather than divide by |zc| = 0.
        obs, prep, tables = _search_batch(grid114, 10.0, zero_mean, rng, trials=8)
        bound = default_slope(grid114.dft_size)
        _check_derivatives(obs, prep, tables, rng.uniform(-bound, bound, 8))

    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    def test_no_worse_than_fine_sweep_of_bracket(self, grid114, rng, snr_db, zero_mean):
        obs, prep, tables = _search_batch(grid114, snr_db, zero_mean, rng)
        _check_no_worse_than_fine_sweep(obs, prep, grid114, tables)

    def test_stacked_link_axis(self, grid114, rng):
        # Alice's and eve's packets as one (2, T, Q) batch against alice's
        # prediction, as run_batch scores them.
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=8, stacked=True)
        bound = default_slope(grid114.dft_size)
        _check_derivatives(obs, prep, tables, rng.uniform(-bound, bound, (2, 8)))
        _check_no_worse_than_fine_sweep(obs, prep, grid114, tables)


class TestLinkAxisAndTables:
    """A stacked (2, T, Q) batch is two (T, Q) batches in one call, and the
    GEMM tables hold the projections they stand for."""

    @pytest.mark.parametrize("trials", [1, 3, 16, 64])
    def test_stacked_equals_separate_calls(self, grid114, rng, trials):
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=trials, stacked=True)
        bound = default_slope(grid114.dft_size)
        searched = _kernels.phase_search(obs, prep, tables, POINTS, bound)
        ch_y, quad = _kernels.whitened_quadform(obs, prep, tables)
        offset, slope, ramp = searched
        assert offset.shape == slope.shape == quad.shape == (2, trials)
        assert ramp.shape == obs.shape
        assert ch_y.shape == (2, trials, 8)
        for link in (0, 1):
            one_searched = _kernels.phase_search(obs[link], prep, tables, POINTS, bound)
            one_ch_y, one_quad = _kernels.whitened_quadform(obs[link], prep, tables)
            for stacked, one in zip(searched, one_searched):
                assert np.array_equal(stacked[link], one)
            assert np.array_equal(ch_y[link], one_ch_y)
            assert np.array_equal(quad[link], one_quad)

    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_stacked_points_equal_separate_calls(self, grid114, rng, zero_mean):
        # The points of a sweep as one (2, P T, Q) batch, point-major, with a
        # noise variance per row: each point's rows come out bit for bit as
        # its own scalar-variance calls give them (T >= 2).
        trials, snrs = 3, (0.0, 10.0, 30.0)
        points = [
            _search_inputs(grid114, snr_db, zero_mean, rng, trials=trials, stacked=True)
            for snr_db in snrs
        ]
        tables = points[0][-1]
        bound = default_slope(grid114.dft_size)
        obs = np.concatenate([p[0] for p in points], axis=1)
        mean, cov = (np.concatenate([p[i] for p in points]) for i in (1, 2))
        noise_var = np.repeat([p[3] for p in points], trials)
        prep = _kernels.prepare_state(mean, cov, noise_var, tables)
        searched = _kernels.phase_search(obs, prep, tables, POINTS, bound)
        whitened = _kernels.whitened_quadform(obs, prep, tables)
        assert np.array_equal(prep.noise_var, noise_var)
        for i, (p_obs, p_mean, p_cov, s2, _) in enumerate(points):
            rows = slice(i * trials, (i + 1) * trials)
            one_prep = _kernels.prepare_state(p_mean, p_cov, s2, tables)
            for name in ("gs", "m", "nu_conj", "m_quad"):
                assert np.array_equal(getattr(prep, name)[rows], getattr(one_prep, name)), name
            one_searched = _kernels.phase_search(p_obs, one_prep, tables, POINTS, bound)
            one_whitened = _kernels.whitened_quadform(p_obs, one_prep, tables)
            for stacked, one in zip((*searched, *whitened), (*one_searched, *one_whitened)):
                assert np.array_equal(stacked[:, rows], one)

    def test_ramp_takes_leading_axes(self, grid114, rng):
        tables = _kernels.grid_tables(grid114, 8)
        x = rng.uniform(-0.3, 0.3, size=(2, 5))
        assert np.array_equal(tables.ramp(x)[1], tables.ramp(x[1]))

    def test_coarse_table_projects_every_grid_slope(self, grid114, rng):
        # Gathered lattice columns are C^H (exp(-1j x_g q) * h) for every grid
        # slope x_g, and the tap-0 columns from index[0, 0] on are
        # sum(exp(-1j x_g q) * h).  Every column is gathered: at a bound far
        # below 2 pi / M the taps' lattice steps do not overlap, and the
        # table has G L columns, not G + k (L - 1).
        tables = _kernels.grid_tables(grid114, 8)
        c = partial_dft(grid114, 8)
        h = _random_obs(rng, grid114)
        for bound in (0.2, default_slope(grid114.dft_size), 1e-4):
            slopes, table, index = _kernels.slope_tables(tables, POINTS, bound)
            proj = h @ table
            s = np.take(proj, index, axis=-1)
            assert s.shape == (len(slopes), 8)
            assert np.array_equal(np.unique(index), np.arange(table.shape[1]))
            assert table.shape[1] <= len(slopes) * 8
            assert index[0, 0] == table.shape[1] - len(slopes)
            for g, x in enumerate(slopes):
                phi = np.exp(-1j * x * tables.q)
                expected = c.conj().T @ (phi * h)
                assert np.allclose(s[g], expected, rtol=0, atol=1e-12 * np.abs(expected).max())
                assert proj[index[0, 0] + g] == pytest.approx(phi @ h, rel=1e-12)

    @pytest.mark.parametrize(
        "dft_size, pilots, bound, points, expected",
        [
            (128, None, default_slope(128), 64, 65),
            # Acceptance criterion 6's grid.
            (128, None, default_slope(128), 512, 513),
            # scripts/check_outputs.py's all-keys scenario.
            (64, tuple(range(2, 31)) + tuple(range(34, 63)), 0.3, 80, 81),
            # k = 13 and bound / delta = 244 land a rounding error above an
            # integer; a plain ceil would give 113 and 491 points.
            (16, tuple(range(16)), default_slope(16), 105, 105),
            (16, tuple(range(16)), default_slope(16), 483, 489),
        ],
    )
    def test_grid_rule(self, grid114, dft_size, pilots, bound, points, expected):
        # The slopes sit on the lattice 2 pi / (k M) with the fewest points
        # per bin that space them no wider than `points` on [-bound, bound].
        grid = grid114 if pilots is None else PilotGrid(dft_size, pilots)
        tables = _kernels.grid_tables(grid, 8 if pilots is None else 6)
        slopes, _, _ = _kernels.slope_tables(tables, points, bound)
        assert len(slopes) == expected
        spacing = np.diff(slopes)
        k = round(2 * np.pi / (dft_size * spacing[0]))
        assert np.allclose(spacing, 2 * np.pi / (k * dft_size), rtol=1e-12, atol=0)
        assert spacing.max() <= 2 * bound / (points - 1) * (1 + 1e-12)
        assert np.array_equal(slopes, -slopes[::-1])
        assert 0.0 in slopes
        assert slopes[-1] >= bound * (1 - 1e-12)
        if bound == default_slope(dft_size):
            # The default bound is a whole number of lattice steps.
            linspace = np.linspace(-bound, bound, expected)
            assert np.allclose(slopes, linspace, rtol=0, atol=1e-15 * bound)

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


class TestPrepareState:
    """prepare_state's L-dimensional offset-coupling vector against the dense
    innovation covariance: Sigma0^{-1} m = C nu and m_quad = m^H Sigma0^{-1} m."""

    @pytest.mark.parametrize("snr_db", [10.0, 60.0])
    def test_nu_matches_dense_solve(self, grid114, rng, snr_db):
        num_paths = 8
        tables = _kernels.grid_tables(grid114, num_paths)
        c = partial_dft(grid114, num_paths)
        s2 = 10.0 ** (-snr_db / 10.0)
        mean = (rng.standard_normal((3, num_paths)) + 1j * rng.standard_normal((3, num_paths))) / 2
        cov = 0.3 * np.abs(rng.standard_normal((3, num_paths))) + 1e-3
        prep = _kernels.prepare_state(mean, cov, s2, tables)
        assert prep.nu_conj.shape == (3, num_paths)
        # Sigma0's condition number grows as 1 / s2, and so do both forms' errors.
        tol = 1e-13 / s2
        for t in range(3):
            sigma0 = (c * cov[t]) @ c.conj().T + s2 * np.eye(grid114.num_pilots)
            m = c @ mean[t]
            w = np.linalg.solve(sigma0, m)
            assert np.allclose(prep.m[t], m, rtol=0, atol=1e-12 * np.abs(m).max())
            cw = prep.nu_conj[t].conj() @ c.T
            assert np.allclose(cw, w, rtol=0, atol=tol * np.abs(w).max())
            assert prep.m_quad[t] == pytest.approx(np.vdot(m, w).real, rel=tol)

    def test_zero_mean_gives_zero_coupling(self, grid114):
        tables = _kernels.grid_tables(grid114, 8)
        prep = _kernels.prepare_state(
            np.zeros((3, 8), dtype=np.complex128), np.full((3, 8), 0.1), 0.1, tables
        )
        assert not prep.nu_conj.any()
        assert not prep.m_quad.any()


class TestWhitenedQuadform:
    """whitened_quadform's two L-dimensional-path outputs against the dense
    innovation covariance: C^H Sigma0^{-1} r and r^H Sigma0^{-1} r."""

    # The default grid (upper band ending at 126) is symmetric about M/2, so
    # its C^H C is real; with the upper band cut short it is complex.
    @pytest.mark.parametrize("upper_end", [127, 110])
    @pytest.mark.parametrize("snr_db", [10.0, 60.0])
    def test_matches_dense_solve(self, rng, upper_end, snr_db):
        grid = PilotGrid(128, tuple(range(2, 59)) + tuple(range(70, upper_end)))
        num_paths, trials = 8, 3
        tables = _kernels.grid_tables(grid, num_paths)
        c = partial_dft(grid, num_paths)
        s2 = 10.0 ** (-snr_db / 10.0)
        mean = (rng.standard_normal((trials, num_paths))
                + 1j * rng.standard_normal((trials, num_paths))) / 2
        cov = 0.3 * np.abs(rng.standard_normal((trials, num_paths))) + 1e-3
        prep = _kernels.prepare_state(mean, cov, s2, tables)
        # Innovation-sized residuals for both links: C x with x ~ CN(0, P), plus noise.
        shape = (2, trials, num_paths)
        x = np.sqrt(cov / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        noise_shape = (2, trials, grid.num_pilots)
        r = x @ c.T + np.sqrt(s2 / 2) * (
            rng.standard_normal(noise_shape) + 1j * rng.standard_normal(noise_shape)
        )
        ch_y, quad = _kernels.whitened_quadform(r, prep, tables)
        assert ch_y.shape == shape
        assert quad.shape == (2, trials)
        # Sigma0's condition number grows as 1 / s2, and so do both forms' errors.
        tol = 1e-13 / s2
        for t in range(trials):
            sigma0 = (c * cov[t]) @ c.conj().T + s2 * np.eye(grid.num_pilots)
            for link in (0, 1):
                expected = c.conj().T @ hermitian_solve(sigma0, r[link, t])
                assert np.allclose(ch_y[link, t], expected, rtol=0, atol=tol * np.abs(expected).max())
                dense = residual_statistic(r[link, t], sigma0) / 2
                assert quad[link, t] == pytest.approx(dense, rel=tol)


class TestSearchRamp:
    """phase_search hands back tables.ramp at the slope it returns, bit for bit,
    whichever start and stage that slope came from."""

    @pytest.mark.parametrize(
        "zero_mean, snr_db",
        [
            # A wide batch at a later step: several rows keep their grid slope.
            (False, 10.0),
            # The first step: the prediction is zero, and at 30 dB a one-bin
            # alias start wins in some rows.
            (True, 30.0),
        ],
    )
    def test_ramp_is_ramp_of_returned_slope(self, grid114, rng, zero_mean, snr_db):
        obs, prep, tables = _search_batch(grid114, snr_db, zero_mean, rng, trials=64, stacked=True)
        bound = default_slope(grid114.dft_size)
        _, slope, ramp = _kernels.phase_search(obs, prep, tables, POINTS, bound)
        assert np.array_equal(ramp, tables.ramp(slope))

        f = _profiled_objective(obs, prep, tables)
        slopes = _kernels.slope_tables(tables, POINTS, bound)[0]
        grid_obj = np.stack([f(np.full(obs.shape[:-1], x)) for x in slopes], axis=-1)
        x0 = slopes[np.argmin(grid_obj, axis=-1)]
        if zero_mean:
            # Some rows end more than one grid cell from the grid argmin, where
            # only an alias start can reach.
            assert np.any(np.abs(slope - x0) > 1.5 * (slopes[1] - slopes[0]))
        else:
            assert np.any(slope == x0)

    def test_ramp_where_newton_lands_worse(self, grid114, rng, monkeypatch):
        # Force every Newton step to the lower bracket end, which scores worse
        # than the grid argmin: those rows return the grid slope, and the
        # ramp must follow it rather than the point Newton reached.
        def to_bracket_end(ramp, terms, prep, tables):
            shape = ramp.shape[:-1]
            return np.full(shape, 1e3), np.ones(shape)

        monkeypatch.setattr(_kernels, "_slope_derivatives", to_bracket_end)
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=16, stacked=True)
        bound = default_slope(grid114.dft_size)
        _, slope, ramp = _kernels.phase_search(obs, prep, tables, POINTS, bound)
        slopes = _kernels.slope_tables(tables, POINTS, bound)[0]
        assert np.all(np.isin(slope, slopes))
        assert np.array_equal(ramp, tables.ramp(slope))


class TestCoarseWorkspace:
    """phase_search reuses its coarse-stage arrays per shape; no result may
    alias them, and a call must not depend on the calls before it."""

    def test_outputs_survive_later_calls(self, grid114, rng):
        bound = default_slope(grid114.dft_size)
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=64, stacked=True)
        other_obs, other_prep, _ = _search_batch(grid114, 0.0, False, rng, trials=64, stacked=True)
        one_obs, one_prep, _ = _search_batch(grid114, 10.0, False, rng, trials=1, stacked=True)

        offset, slope, ramp = _kernels.phase_search(obs, prep, tables, POINTS, bound)
        first = (offset.copy(), slope.copy(), ramp.copy())
        other = _kernels.phase_search(other_obs, other_prep, tables, POINTS, bound)
        assert not np.array_equal(other[1], first[1])
        assert np.array_equal(offset, first[0])
        assert np.array_equal(slope, first[1])
        assert np.array_equal(ramp, first[2])

        _kernels.phase_search(one_obs, one_prep, tables, POINTS, bound)
        again = _kernels.phase_search(obs, prep, tables, POINTS, bound)
        for a, b in zip(again, first):
            assert np.array_equal(a, b)


    def test_coarse_arrays_hold_one_link(self, grid114, rng):
        # The coarse stage scores the (2, R, Q) batch one link at a time, so
        # its two (R, G, L) arrays are not doubled for the link axis; only
        # the small projection covers both links, in one GEMM.
        obs, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=5, stacked=True)
        bound = default_slope(grid114.dft_size)
        _kernels.phase_search(obs, prep, tables, POINTS, bound)
        _, table, index = _kernels.slope_tables(tables, POINTS, bound)
        proj, s, g = _kernels._coarse_workspace(obs.shape, table.shape[1], index.shape)
        assert s.shape == g.shape == (5, *index.shape)
        assert proj.shape == (2, 5, table.shape[1])


class TestTieRule:
    """Exact objective ties on the coarse grid go to the smaller |slope|,
    then to the smaller |offset| (the angle of zc)."""

    def test_argmin_with_ties(self):
        slopes = np.array([-0.2, -0.1, 0.0, 0.1, 0.2])
        obj = np.array(
            [
                [3.0, 1.0, 2.0, 4.0, 5.0],  # no tie
                [1.0, 2.0, 3.0, 1.0, 4.0],  # -0.2 and 0.1: smaller |slope|
                [5.0, 1.0, 3.0, 1.0, 4.0],  # -0.1 and 0.1: smaller |offset| ...
                [5.0, 1.0, 3.0, 1.0, 4.0],  # ... whichever side holds it
                [2.0, 1.0, 3.0, 1.0, 1.0],  # three-way: |slope| then |offset|
            ]
        )
        angle = np.array(
            [
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 3.0, 0.0],
                [2.0, 0.5, 0.0, -0.4, 0.0],
                [0.0, 0.4, 0.0, -0.5, 0.0],
                [0.0, -1.5, 0.0, 1.0, 0.1],
            ]
        )
        zc = 2.0 * np.exp(1j * angle)
        idx = _kernels._argmin_with_ties(obj, slopes, zc)
        assert idx.tolist() == [1, 3, 3, 1, 3]

    def test_all_tied_gives_zero_pair(self, grid114):
        # A zero observation scores every slope and offset the same.
        tables = _kernels.grid_tables(grid114, 8)
        prep = _kernels.prepare_state(
            np.full((3, 8), 0.5 + 0.5j), np.full((3, 8), 0.1), 0.1, tables
        )
        obs = np.zeros((2, 3, grid114.num_pilots), dtype=np.complex128)
        offset, slope, _ = _kernels.phase_search(
            obs, prep, tables, POINTS, default_slope(grid114.dft_size)
        )
        assert np.array_equal(offset, np.zeros((2, 3)))
        assert np.array_equal(slope, np.zeros((2, 3)))


class TestEstimatePhase:
    def test_identity_distortion_recovered(self, small_grid):
        profile = make_profile(4, 1e-4, 0.5)
        [(link, _)] = simulate_steps(profile, [5], 1, grid=small_grid, noise_var=1e-12)
        pred = KalmanState(mean=link.taps[0], cov_diag=1e-6 * profile.pdp, kind="predicted")
        d = _estimate(undistorted(link, small_grid)[0], pred, small_grid, 1e-12, 0.3)
        assert abs(d.offset) < PHASE_RECOVERY_TOLERANCE
        assert abs(d.slope) < PHASE_RECOVERY_TOLERANCE

    def test_recovers_generating_pair(self, grid114):
        profile = make_profile(8, 1e-4, 0.5)
        [(link, _)] = simulate_steps(profile, [6], 1, grid=grid114, noise_var=1e-12, max_slope=0.1)
        pred = KalmanState(mean=link.taps[0], cov_diag=1e-8 * profile.pdp, kind="predicted")
        d = _estimate(link.obs[0], pred, grid114, 1e-12, default_slope(grid114.dft_size))
        assert d.slope == pytest.approx(link.slope[0], abs=PHASE_RECOVERY_TOLERANCE)
        assert d.offset == pytest.approx(link.offset[0], abs=PHASE_RECOVERY_TOLERANCE)

    def test_never_worse_than_grid_oracle(self, small_grid, rng):
        # The refined estimate must score at least as well as a brute-force
        # sweep of the likelihood over a fine slope/offset grid.
        profile = make_profile(4, 1e-4, 0.5)
        for trial in range(3):
            pred = _random_predicted(rng, small_grid, 4, cov_scale=0.05)
            obs = _random_obs(rng, small_grid)
            s2 = 0.5
            d = _estimate(obs, pred, small_grid, s2, 0.2)
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
        d1 = _estimate(obs, pred, small_grid, 0.3, 0.2)
        c = 2.5
        scaled_pred = KalmanState(
            mean=c * pred.mean,
            cov_diag=c**2 * pred.cov_diag,
            kind="predicted",
        )
        scaled_obs = c * obs
        d2 = _estimate(scaled_obs, scaled_pred, small_grid, c**2 * 0.3, 0.2)
        assert d2.slope == pytest.approx(d1.slope, abs=1e-7)
        assert d2.offset == pytest.approx(d1.offset, abs=1e-7)


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
        state = init_state(profile)
        bound = default_slope(grid114.dft_size)
        steps = simulate_steps(profile, [7], 100, grid=grid114, noise_var=noise_var, max_slope=0.1)
        for alice, _ in steps:
            state, d_est, residual, sigma = filter_step(
                state, alice.obs[0], profile, grid114, noise_var, POINTS, bound
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
            init_state(profile), alice.obs[0], profile, grid114, 0.1, POINTS,
            default_slope(grid114.dft_size),
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
        state = init_state(profile)
        steps = simulate_steps(profile, [10], 150, grid=grid114, noise_var=noise_var,
                               max_slope=0.19)
        bound = default_slope(grid114.dft_size)
        for alice, _ in steps:
            state, *_ = filter_step(state, alice.obs[0], profile, grid114, noise_var, POINTS, bound)
            assert np.all(state.cov_diag >= 0.0)
            assert np.all(state.cov_diag <= profile.pdp * (1 + 1e-9))
