import mpmath
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
    argmin_with_ties as oracle_argmin_with_ties,
    hermitian_solve,
    PhaseDistortion,
    filter_step,
    gain,
    init_state,
    negative_log_likelihood,
    phase_diagonal,
    predict,
    ramp as oracle_ramp,
    residual_statistic,
    slope_derivatives as oracle_slope_derivatives,
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


def _one_step(obs, mean, cov, noise_var, tables, bound=None):
    """(block, prep): the one-step block of ``obs`` whose predicted covariance
    is ``cov`` (one step of process noise ``cov`` from a zero covariance), on
    the default slope grid, and its state at the predicted ``mean``."""
    bound = default_slope(tables.dft_size) if bound is None else bound
    block = _kernels.block_terms(
        obs[None], np.zeros_like(cov), np.ones(len(cov)), cov, noise_var, tables, POINTS, bound
    )
    return block, _kernels.prepare_state(mean, block, 0, tables)


def _estimate(obs, pred, grid, noise_var, bound):
    """Phase pair of one observation: phase_search on a one-row batch."""
    tables = _kernels.grid_tables(grid, len(pred.mean))
    block, prep = _one_step(obs[None], pred.mean[None], pred.cov_diag[None], noise_var, tables,
                            bound)
    offset, slope, _ = _kernels.phase_search(block, 0, prep, tables)
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
        _, prep = _one_step(obs[None], pred.mean[None], pred.cov_diag[None], s2, tables)
        # The objective leaves out h^H h / s2 + m^H Sigma0^{-1} m, the same at every slope.
        c = partial_dft(grid114, num_paths)
        sigma0 = (c * pred.cov_diag) @ c.conj().T + s2 * np.eye(grid114.num_pilots)
        m = c @ pred.mean
        const = np.vdot(obs, obs).real / s2 + np.vdot(m, hermitian_solve(sigma0, m)).real
        for slope in (-0.15, 0.0, 0.07):
            ramp = tables.ramp(np.array([slope]))
            f, zc = _kernels._candidate_objective(ramp, obs[None], prep, tables)
            offset = float(np.angle(zc[0]))
            dense = negative_log_likelihood(
                PhaseDistortion(offset, slope), obs, pred, grid114, s2
            )
            assert f[0] + const == pytest.approx(dense, rel=1e-9)
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
        "dft_size, pilots, powers",
        [
            # scripts/check_outputs.py's all-keys grid.pilot_spec = 2-30,34-62:
            # q_0 = 2, steps 1 and 4.
            (64, tuple(range(2, 31)) + tuple(range(34, 63)), (1, 2, 4)),
            # q_0 = 0 and steps 1, 3 and 4; a grid whose most common step is not 1.
            (32, (0, 1, 2, 5, 6, 10, 11, 12), (0, 1, 3, 4)),
            (32, (3, 5, 7, 9, 10, 13, 15, 17, 21), (1, 2, 3, 4)),
            # One pilot: no step at all.
            (16, (5,), (5,)),
        ],
    )
    def test_ramp_with_several_index_steps(self, rng, dft_size, pilots, powers):
        # ramp forms one power per distinct exponent, q_0 or an index step,
        # and ramp_index gives each column's.
        tables = _kernels.grid_tables(PilotGrid(dft_size, pilots), 4)
        assert tables.ramp_powers == powers
        exponents = np.diff(pilots, prepend=0)
        assert np.array_equal(np.asarray(powers)[tables.ramp_index], exponents)
        x = rng.uniform(-0.3, 0.3, size=(2, 5))
        expected = np.exp(-1j * x[..., None] * np.asarray(pilots, dtype=float))
        assert np.allclose(tables.ramp(x), expected, rtol=0, atol=1e-12)


# The grids of test_ramp_with_several_index_steps, the default one and M = 64
# with every bin a pilot (q_0 = 0).
RAMP_GRIDS = [
    PilotGrid(128, tuple(range(2, 59)) + tuple(range(70, 127))),
    PilotGrid(64, tuple(range(2, 31)) + tuple(range(34, 63))),
    PilotGrid(32, (0, 1, 2, 5, 6, 10, 11, 12)),
    PilotGrid(32, (3, 5, 7, 9, 10, 13, 15, 17, 21)),
    PilotGrid(16, (5,)),
    PilotGrid(64, tuple(range(64))),
]


class TestRampOracle:
    """GridTables.ramp equals the oracle's ramp bit for bit, signed zeros included."""

    @pytest.mark.parametrize("grid", RAMP_GRIDS, ids=lambda g: f"M{g.dft_size}-Q{g.num_pilots}")
    @pytest.mark.parametrize("shape", [(5,), (2, 1), (2, 64)], ids=lambda s: "x".join(map(str, s)))
    def test_ramp_matches_oracle(self, rng, grid, shape):
        tables = _kernels.grid_tables(grid, 4)
        bound = default_slope(grid.dft_size)
        x = rng.uniform(-bound, bound, size=shape)
        specials = [0.0, -0.0, bound, -bound]
        x.flat[: len(specials)] = specials[: x.size]
        expected = oracle_ramp(tables, x)
        got = tables.ramp(x)
        assert got.shape == expected.shape
        # Compared as bits, so that a signed zero counts too.
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


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
    """(block, prep, tables): the one-step block of :func:`_search_inputs`."""
    obs, mean, cov, s2, tables = _search_inputs(grid, snr_db, zero_mean, rng, **options)
    return (*_one_step(obs, mean, cov, s2, tables), tables)


def _profiled_objective(obs, prep, tables):
    """Slope -> whitened residual energy per observation, minimized over the offset.

    phase_search scores the slopes of a row on :func:`_kernels._candidate_objective`,
    which leaves out the row's constant ``h^H h / s2 + m^H Sigma0^{-1} m``;
    it is added back here (``Sigma0^{-1} m = C nu``), so that the tolerances
    below are relative to the energy.
    """
    m_quad = _kernels._real_dot(prep.m, prep.nu_conj.conj() @ tables.c_t)
    const = _kernels._real_dot(obs, obs) / prep.noise_var + m_quad
    return lambda x: _kernels._candidate_objective(tables.ramp(x), obs, prep, tables)[0] + const


def _check_derivatives(obs, prep, tables, x):
    """Analytic f', f'' against Richardson-extrapolated central differences."""
    d1, d2 = (-2.0 * d for d in _kernels._slope_derivatives(tables.ramp(x), obs, prep, tables))
    f = _profiled_objective(obs, prep, tables)

    def differences(step):
        lo, mid, hi = f(x - step), f(x), f(x + step)
        return (hi - lo) / (2 * step), (hi - 2 * mid + lo) / step**2

    # Richardson extrapolation of two central differences: O(step^4) error.
    (a1, a2), (b1, b2) = differences(2e-4), differences(1e-4)
    fd1, fd2 = (4 * b1 - a1) / 3, (4 * b2 - a2) / 3
    assert np.allclose(d1, fd1, rtol=1e-6, atol=0)
    assert np.allclose(d2, fd2, rtol=1e-6, atol=0)


def _check_no_worse_than_fine_sweep(block, prep, grid, tables):
    """phase_search stays in its bracket and scores no worse than a 1001-point sweep of it."""
    bound = default_slope(grid.dft_size)
    obs = block.obs[0]
    _, est_slope, _ = _kernels.phase_search(block, 0, prep, tables)
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
        block, prep, tables = _search_batch(grid114, 10.0, zero_mean, rng, trials=8)
        bound = default_slope(grid114.dft_size)
        _check_derivatives(block.obs[0], prep, tables, rng.uniform(-bound, bound, 8))

    @pytest.mark.parametrize("zero_mean", [False, True])
    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    def test_no_worse_than_fine_sweep_of_bracket(self, grid114, rng, snr_db, zero_mean):
        block, prep, tables = _search_batch(grid114, snr_db, zero_mean, rng)
        _check_no_worse_than_fine_sweep(block, prep, grid114, tables)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 60.0])
    def test_gram_form_matches_term_by_term(self, grid114, rng, snr_db):
        # The derivatives read off the Gram products agree with the formulas
        # summed term by term, on alice's and eve's packets and on rows whose
        # prediction is zero (every other row), where zc = 0.  f' vanishes
        # near a minimizer, where any two summation orders differ by the
        # rounding of its terms, so errors count against each link's
        # largest |f'| and |f''|.
        obs, mean, cov, s2, tables = _search_inputs(grid114, snr_db, False, rng, stacked=True)
        mean[::2] = 0.0
        _, prep = _one_step(obs, mean, cov, s2, tables)
        bound = default_slope(grid114.dft_size)
        ramp = tables.ramp(rng.uniform(-bound, bound, obs.shape[:-1]))
        got = [-2.0 * d for d in _kernels._slope_derivatives(ramp, obs, prep, tables)]
        expected = oracle_slope_derivatives(ramp, obs, prep, tables)
        for d, o in zip(got, expected):
            assert np.all(np.abs(d - o) <= 1e-12 * np.abs(o).max(axis=-1, keepdims=True))

    def test_stacked_link_axis(self, grid114, rng):
        # Alice's and eve's packets as one (2, T, Q) batch against alice's
        # prediction, as run_batch scores them.
        block, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=8, stacked=True)
        bound = default_slope(grid114.dft_size)
        _check_derivatives(block.obs[0], prep, tables, rng.uniform(-bound, bound, (2, 8)))
        _check_no_worse_than_fine_sweep(block, prep, grid114, tables)


class TestLinkAxisAndTables:
    """A stacked (2, T, Q) batch is two (T, Q) batches in one call, and the
    GEMM tables hold the projections they stand for."""

    @pytest.mark.parametrize("trials", [1, 3, 16, 64])
    def test_stacked_equals_separate_calls(self, grid114, rng, trials):
        obs, mean, cov, s2, tables = _search_inputs(
            grid114, 10.0, False, rng, trials=trials, stacked=True
        )
        block, prep = _one_step(obs, mean, cov, s2, tables)
        searched = _kernels.phase_search(block, 0, prep, tables)
        g, quad = _kernels.whitened_quadform(obs, prep, tables)
        offset, slope, ramp = searched
        assert offset.shape == slope.shape == quad.shape == (2, trials)
        assert ramp.shape == obs.shape
        assert g.shape == (2, trials, 8)
        for link in (0, 1):
            one_block, one_prep = _one_step(obs[link], mean, cov, s2, tables)
            one_searched = _kernels.phase_search(one_block, 0, one_prep, tables)
            one_g, one_quad = _kernels.whitened_quadform(obs[link], prep, tables)
            for stacked, one in zip(searched, one_searched):
                assert np.array_equal(stacked[link], one)
            assert np.array_equal(g[link], one_g)
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
        obs = np.concatenate([p[0] for p in points], axis=1)
        mean, cov = (np.concatenate([p[i] for p in points]) for i in (1, 2))
        noise_var = np.repeat([p[3] for p in points], trials)
        block, prep = _one_step(obs, mean, cov, noise_var, tables)
        searched = _kernels.phase_search(block, 0, prep, tables)
        whitened = _kernels.whitened_quadform(obs, prep, tables)
        assert np.array_equal(prep.noise_var, noise_var)
        for i, (p_obs, p_mean, p_cov, s2, _) in enumerate(points):
            rows = slice(i * trials, (i + 1) * trials)
            one_block, one_prep = _one_step(p_obs, p_mean, p_cov, s2, tables)
            for name in ("gs", "m", "nu_conj"):
                assert np.array_equal(getattr(prep, name)[rows], getattr(one_prep, name)), name
            one_searched = _kernels.phase_search(one_block, 0, one_prep, tables)
            one_whitened = _kernels.whitened_quadform(p_obs, one_prep, tables)
            for stacked, one in zip((*searched, *whitened), (*one_searched, *one_whitened)):
                assert np.array_equal(stacked[:, rows], one)

    @pytest.mark.parametrize(
        "grid, num_paths, bound, points",
        [
            (PilotGrid(128, tuple(range(2, 59)) + tuple(range(70, 127))), 8, default_slope(128), 64),
            (PilotGrid(64, tuple(range(64))), 8, default_slope(64), 64),
            # scripts/check_outputs.py's all-keys scenario.
            (PilotGrid(64, tuple(range(2, 31)) + tuple(range(34, 63))), 6, 0.3, 80),
        ],
        ids=["default", "M64-all", "all-keys"],
    )
    def test_grid_ramps_are_the_grid_slopes_ramps(self, grid, num_paths, bound, points):
        # Row g of the grid ramps, which the first Newton step starts from,
        # is the ramp at grid slope g; it is read-only, as it is cached.
        # Column g of the brackets is the slopes either side of it, clipped
        # to the grid.
        tables = _kernels.grid_tables(grid, num_paths)
        slopes, _, _, ramps, brackets = _kernels.slope_tables(tables, points, bound)
        assert ramps.shape == (len(slopes), len(tables.q)) and not ramps.flags.writeable
        for expected in (np.exp(-1j * np.outer(slopes, tables.q)), tables.ramp(slopes)):
            assert np.allclose(ramps, expected, rtol=0, atol=1e-14)
        assert not brackets.flags.writeable
        assert np.array_equal(brackets[0], np.concatenate([slopes[:1], slopes[:-1]]))
        assert np.array_equal(brackets[1], np.concatenate([slopes[1:], slopes[-1:]]))

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
            slopes, table, index, *_ = _kernels.slope_tables(tables, POINTS, bound)
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
        slopes = _kernels.slope_tables(tables, points, bound)[0]
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
    innovation covariance: Sigma0^{-1} m = C nu."""

    @pytest.mark.parametrize("snr_db", [10.0, 60.0])
    def test_nu_matches_dense_solve(self, grid114, rng, snr_db):
        num_paths = 8
        tables = _kernels.grid_tables(grid114, num_paths)
        c = partial_dft(grid114, num_paths)
        s2 = 10.0 ** (-snr_db / 10.0)
        mean = (rng.standard_normal((3, num_paths)) + 1j * rng.standard_normal((3, num_paths))) / 2
        cov = 0.3 * np.abs(rng.standard_normal((3, num_paths))) + 1e-3
        _, prep = _one_step(np.zeros((3, grid114.num_pilots)), mean, cov, s2, tables)
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

    # Far above the noise, the Woodbury form mu / s2 - gs (C^H C mu) / s2^2
    # cancels to about P / s2 times the rounding error; gs (mu / P) / s2 does
    # not, neither at the prior's P nor at a steady state's.
    @pytest.mark.parametrize("prior", [0.3, 1e-9])
    def test_nu_matches_high_precision_solve(self, grid114, rng, prior):
        num_paths, trials = 8, 3
        tables = _kernels.grid_tables(grid114, num_paths)
        c = partial_dft(grid114, num_paths)
        s2 = 1e-10                                           # 100 dB
        shape = (trials, num_paths)
        mean = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2
        cov = prior * (1.0 + 0.5 * rng.random(shape))
        nu = _one_step(np.zeros((trials, grid114.num_pilots)), mean, cov, s2, tables)[1]
        nu = nu.nu_conj.conj()
        with mpmath.workdps(50):
            cm = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in c])
            chc = cm.H * cm
            for t in range(trials):
                a = chc.copy()
                for l, p in enumerate(cov[t]):
                    a[l, l] += mpmath.mpf(s2) / mpmath.mpf(p)
                b = mpmath.matrix([mpmath.mpc(z.real, z.imag) / mpmath.mpf(p)
                                   for z, p in zip(mean[t], cov[t])])
                x = mpmath.lu_solve(a, b)
                expected = np.array([complex(x[l]) for l in range(num_paths)])
                assert np.abs(nu[t] - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_zero_mean_gives_zero_coupling(self, grid114):
        tables = _kernels.grid_tables(grid114, 8)
        _, prep = _one_step(
            np.zeros((3, grid114.num_pilots)), np.zeros((3, 8), dtype=np.complex128),
            np.full((3, 8), 0.1), 0.1, tables,
        )
        assert not prep.nu_conj.any()


class TestWhitenedQuadform:
    """whitened_quadform's two L-dimensional-path outputs against the dense
    innovation covariance: g / s2 = P C^H Sigma0^{-1} r and r^H Sigma0^{-1} r."""

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
        # Innovation-sized residuals for both links: C x with x ~ CN(0, P), plus noise.
        shape = (2, trials, num_paths)
        x = np.sqrt(cov / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        noise_shape = (2, trials, grid.num_pilots)
        r = x @ c.T + np.sqrt(s2 / 2) * (
            rng.standard_normal(noise_shape) + 1j * rng.standard_normal(noise_shape)
        )
        _, prep = _one_step(r, mean, cov, s2, tables)
        g, quad = _kernels.whitened_quadform(r, prep, tables)
        assert g.shape == shape
        assert quad.shape == (2, trials)
        # Sigma0's condition number grows as 1 / s2, and so do both forms' errors.
        tol = 1e-13 / s2
        for t in range(trials):
            sigma0 = (c * cov[t]) @ c.conj().T + s2 * np.eye(grid.num_pilots)
            for link in (0, 1):
                expected = cov[t] * (c.conj().T @ hermitian_solve(sigma0, r[link, t]))
                assert np.allclose(g[link, t] / s2, expected, rtol=0, atol=tol * np.abs(expected).max())
                dense = residual_statistic(r[link, t], sigma0) / 2
                assert quad[link, t] == pytest.approx(dense, rel=tol)


class TestKalmanUpdate:
    """kalman_update's mean against a 50-digit solve of the information form
    ``mean + (P^{-1} + C^H C / s2)^{-1} C^H r / s2``."""

    @staticmethod
    def _reference(c, mean, cov, r, s2):
        with mpmath.workdps(50):
            cm = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in c])
            a = cm.H * cm / mpmath.mpf(s2)
            for l, p in enumerate(cov):
                a[l, l] += 1 / mpmath.mpf(p)
            b = cm.H * mpmath.matrix([mpmath.mpc(z.real, z.imag) for z in r]) / mpmath.mpf(s2)
            x = mpmath.lu_solve(a, b)
            return np.array([complex(m + x[l]) for l, m in enumerate(mean)])

    # Far above the noise, the Woodbury form P C^H (C^H r / s2 - C^H C g / s2^2)
    # cancels to about P / s2 times the rounding error; g / s2 does not.
    @pytest.mark.parametrize("snr_db", [100.0, 120.0])
    def test_mean_matches_high_precision_solve(self, grid114, rng, snr_db):
        num_paths, trials = 8, 3
        tables = _kernels.grid_tables(grid114, num_paths)
        c = partial_dft(grid114, num_paths)
        s2 = 10.0 ** (-snr_db / 10.0)
        shape = (trials, num_paths)
        mean = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2
        cov = 0.3 * np.abs(rng.standard_normal(shape)) + 1e-3
        x = np.sqrt(cov / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        noise_shape = (trials, grid114.num_pilots)
        r = x @ c.T + np.sqrt(s2 / 2) * (
            rng.standard_normal(noise_shape) + 1j * rng.standard_normal(noise_shape)
        )
        block, prep = _one_step(r, mean, cov, s2, tables)
        g, _ = _kernels.whitened_quadform(r, prep, tables)
        new_mean = _kernels.kalman_update(mean, g, prep)
        assert np.array_equal(block.posterior[0], np.diagonal(prep.gs, axis1=1, axis2=2).real)
        for t in range(trials):
            expected = self._reference(c, mean[t], cov[t], r[t], s2)
            correction = np.abs(expected - mean[t]).max()
            assert np.abs(new_mean[t] - expected).max() <= 1e-14 * correction


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
        block, prep, tables = _search_batch(grid114, snr_db, zero_mean, rng, trials=64, stacked=True)
        bound, obs = default_slope(grid114.dft_size), block.obs[0]
        _, slope, ramp = _kernels.phase_search(block, 0, prep, tables)
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
        def to_bracket_end(ramp, h, prep, tables):
            # f' = 2e3 and f'' = 2: a Newton step of +1e3 rad, clipped.
            shape = ramp.shape[:-1]
            return np.full(shape, -1e3), -np.ones(shape)

        monkeypatch.setattr(_kernels, "_slope_derivatives", to_bracket_end)
        block, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=16, stacked=True)
        bound = default_slope(grid114.dft_size)
        _, slope, ramp = _kernels.phase_search(block, 0, prep, tables)
        slopes = _kernels.slope_tables(tables, POINTS, bound)[0]
        assert np.all(np.isin(slope, slopes))
        assert np.array_equal(ramp, tables.ramp(slope))

    def test_rows_keep_or_fall_back_on_their_own(self, grid114, rng, monkeypatch):
        # Newton driven to the bracket end on eve's rows only: they fall back
        # to the grid slope, as when every row is, while alice's rows keep
        # Newton's slope, as when none is.
        block, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=16, stacked=True)
        derivatives = _kernels._slope_derivatives

        def search(to_bracket_end):
            def patched(ramp, h, prep, tables):
                a, b = derivatives(ramp, h, prep, tables)
                a[to_bracket_end], b[to_bracket_end] = -1e3, -1.0
                return a, b

            monkeypatch.setattr(_kernels, "_slope_derivatives", patched)
            return _kernels.phase_search(block, 0, prep, tables)

        none, eve, both = (search(links) for links in ([], [1], [0, 1]))
        assert not np.array_equal(none[1][1], both[1][1])
        for a, b in zip(eve, none):
            assert np.array_equal(a[0], b[0])
        for a, b in zip(eve, both):
            assert np.array_equal(a[1], b[1])


class TestKernelFilterStep:
    """_kernels.filter_step, the step run_batch runs on each kernel chain:
    alice's packets alone drive the state, and the prediction clamps the
    covariance that the previous update left."""

    @staticmethod
    def _step(obs, mean, cov, s2, tables):
        # One group per row (P = R): the clamp test below sets one row's covariance.
        rows = mean.shape[0]
        profile = make_profile(mean.shape[1], 1e-4, 0.5)
        alpha = np.full(rows, profile.alpha)
        process_noise = np.tile(profile.process_noise_diag, (rows, 1))
        bound = default_slope(tables.dft_size)
        block = _kernels.block_terms(
            obs[None], cov, alpha, process_noise, np.full(rows, s2), tables, POINTS, bound
        )
        mean, stat, offset, slope = _kernels.filter_step(mean, block, 0, tables)
        return mean, block.posterior[0], stat, offset, slope

    @pytest.mark.parametrize(
        "zero_mean, snr_db",
        [
            (False, 10.0),
            # The first step: the prediction is zero and the alias refines run.
            (True, 30.0),
        ],
    )
    def test_eve_never_reaches_alice_or_the_state(self, grid114, rng, zero_mean, snr_db):
        obs, mean, cov, s2, tables = _search_inputs(
            grid114, snr_db, zero_mean, rng, trials=16, stacked=True
        )
        other = obs.copy()
        other[1] = rng.standard_normal(obs[1].shape) + 1j * rng.standard_normal(obs[1].shape)
        first = self._step(obs, mean, cov, s2, tables)
        second = self._step(other, mean, cov, s2, tables)
        new_mean, new_cov, stat, offset, slope = first
        assert new_mean.shape == mean.shape and new_cov.shape == cov.shape
        assert stat.shape == offset.shape == slope.shape == (2, 16)
        for a, b in zip(first[:2], second[:2]):
            assert np.array_equal(a, b)
        for a, b in zip(first[2:], second[2:]):
            assert np.array_equal(a[0], b[0])
        assert not np.array_equal(stat[1], second[2][1])

    def test_negative_rounding_in_the_covariance_predicts_as_zero(self, grid114, rng):
        obs, mean, cov, s2, tables = _search_inputs(
            grid114, 10.0, False, rng, trials=4, stacked=True
        )
        zero, negative = cov.copy(), cov.copy()
        zero[1, 3] = 0.0
        negative[1, 3] = -1e-13
        # Unclamped, the entry would move this row's prediction.
        profile = make_profile(8, 1e-4, 0.5)
        noise = profile.process_noise_diag[3]
        assert profile.alpha**2 * -1e-13 + noise != noise
        from_zero = self._step(obs, mean, zero, s2, tables)
        from_negative = self._step(obs, mean, negative, s2, tables)
        for a, b in zip(from_zero, from_negative):
            assert np.array_equal(a, b)


class TestBlockTerms:
    """block_terms forms a block's state-free terms at once: each step's
    covariance, Woodbury core and coarse-grid terms are those of a one-step
    block started from the covariance the step before left, bit for bit."""

    def test_block_equals_one_step_blocks(self, grid114, rng):
        # 3 steps x 2 links x 4 groups of 2 rows, at fd Ts = 0.05, so that
        # the covariance, and with it the core, moves at every step.
        steps, groups, trials, num_paths = 3, 4, 2, 8
        tables = _kernels.grid_tables(grid114, num_paths)
        profile = make_profile(num_paths, 0.05, 0.5)
        rows = groups * trials
        shape = (steps, 2, rows, grid114.num_pilots)
        obs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        means = rng.standard_normal((steps, rows, num_paths)) + 1j * rng.standard_normal(
            (steps, rows, num_paths)
        )
        cov = np.stack([profile.pdp * 2.0**-p for p in range(groups)])
        model = (np.full(groups, profile.alpha), np.tile(profile.process_noise_diag, (groups, 1)),
                 np.array([0.01, 0.1, 1.0, 0.3]), tables, POINTS, default_slope(128))

        def terms(block, step, mean):
            prep = _kernels.prepare_state(mean, block, step, tables)
            term, zc = _kernels._coarse_terms(block, step, prep)
            return [a.copy() for a in (block.gs[step], block.posterior[step], term, zc)]

        block = _kernels.block_terms(obs, cov, *model)
        assert block.s.shape == (steps - 1, 2, rows, *block.index.shape)
        got = [terms(block, k, means[k]) for k in range(steps)]
        for k in range(steps):
            one = _kernels.block_terms(obs[k : k + 1], cov, *model)
            expected = terms(one, 0, means[k])
            for name, a, b in zip(("gs", "posterior", "term", "zc"), got[k], expected):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (k, name)
            cov = one.posterior[0]
        # The steps' cores differ, so pairing a step with another's would show.
        assert not np.array_equal(got[1][0], got[2][0])


class TestRowGroups:
    """Rows that share a covariance and a noise variance, one group of
    consecutive rows per sweep point, give what the same rows give with a
    covariance and a noise variance each (P = R)."""

    GROUPS, TRIALS = 4, 16

    def _outputs(self, obs, mean, cov, s2, tables):
        """prep, then (offset, slope) and the statistics (quad, new mean, new cov per row)."""
        block, prep = _one_step(obs, mean, cov, s2, tables)
        offset, slope, _ = _kernels.phase_search(block, 0, prep, tables)
        g, quad = _kernels.whitened_quadform(obs, prep, tables)
        new_mean = _kernels.kalman_update(mean, g[0], prep)
        new_cov = block.posterior[0].repeat(len(mean) // len(cov), axis=0)
        return prep, (offset, slope), (quad, new_mean, new_cov)

    def _agree(self, grouped, per_row):
        (_, (offset, slope), stats), (_, (offset1, slope1), stats1) = grouped, per_row
        turn = np.abs(offset - offset1)
        phases_ok = (
            np.minimum(turn, 2.0 * np.pi - turn).max() <= 1e-12
            and np.abs(slope - slope1).max() <= 1e-12
        )
        return phases_ok and all(
            np.all(np.abs(a - b) <= 1e-12 * np.abs(b)) for a, b in zip(stats, stats1)
        )

    @pytest.mark.parametrize("snr_db", [10.0, 60.0])
    def test_groups_equal_per_row_covariances(self, grid114, rng, snr_db):
        # Four points at snr_db + 0, 5, 10 and 15 dB, each with a covariance
        # of its own, stacked point-major as run_batch stacks them.
        points = [
            _search_inputs(grid114, snr_db + step, False, rng, trials=self.TRIALS, stacked=True)
            for step in (0.0, 5.0, 10.0, 15.0)
        ]
        tables = points[0][-1]
        obs = np.concatenate([p[0] for p in points], axis=1)
        mean = np.concatenate([p[1] for p in points])
        cov = np.stack([p[2][0] * 2.0**i for i, p in enumerate(points)])    # (P, L)
        s2 = np.array([p[3] for p in points])                              # (P,)
        rows_cov, rows_s2 = cov.repeat(self.TRIALS, axis=0), s2.repeat(self.TRIALS)
        grouped = self._outputs(obs, mean, cov, s2, tables)
        per_row = self._outputs(obs, mean, rows_cov, rows_s2, tables)
        assert grouped[0].gs.shape == (self.GROUPS, 8, 8)
        assert per_row[0].gs.shape == (self.GROUPS * self.TRIALS, 8, 8)
        assert np.array_equal(grouped[0].noise_var, rows_s2)
        assert self._agree(grouped, per_row)

        # Rows laid out trial-major pair each group's gs with other groups'
        # rows, and the check above sees it.
        order = np.arange(len(mean)).reshape(self.GROUPS, -1).T.ravel()
        mixed = self._outputs(obs[:, order], mean[order], cov, s2, tables)
        mixed_per_row = self._outputs(
            obs[:, order], mean[order], rows_cov[order], rows_s2[order], tables
        )
        assert not self._agree(mixed, mixed_per_row)


class TestCoarseWorkspace:
    """phase_search reuses its coarse-stage arrays per shape; no result may
    alias them, and a call must not depend on the calls before it."""

    def test_outputs_survive_later_calls(self, grid114, rng):
        inputs = [
            _search_inputs(grid114, snr_db, False, rng, trials=trials, stacked=True)
            for snr_db, trials in ((10.0, 64), (0.0, 64), (10.0, 1))
        ]

        def search(obs, mean, cov, s2, tables):
            block, prep = _one_step(obs, mean, cov, s2, tables)
            return _kernels.phase_search(block, 0, prep, tables)

        offset, slope, ramp = search(*inputs[0])
        first = (offset.copy(), slope.copy(), ramp.copy())
        other = search(*inputs[1])
        assert not np.array_equal(other[1], first[1])
        assert np.array_equal(offset, first[0])
        assert np.array_equal(slope, first[1])
        assert np.array_equal(ramp, first[2])

        search(*inputs[2])
        again = search(*inputs[0])
        for a, b in zip(again, first):
            assert np.array_equal(a, b)

    def test_a_block_built_over_the_workspace_refuses_its_first_step(self, grid114, rng):
        # Blocks of one shape share one projection workspace, so once a
        # second block is built the first one's step 0 would score the
        # second's observations: it raises instead.  Its later steps read
        # the block's own arrays and still search, bit for bit.
        obs, mean, cov, s2, tables = _search_inputs(grid114, 10.0, False, rng, trials=4,
                                                    stacked=True)
        model = (np.ones(len(cov)), cov, s2, tables, POINTS, default_slope(grid114.dft_size))
        steps = np.stack([obs, obs[::-1]])                    # step 1 swaps the links
        first = _kernels.block_terms(steps, np.zeros_like(cov), *model)
        prep0, prep1 = (_kernels.prepare_state(mean, first, k, tables) for k in (0, 1))
        step1 = _kernels.phase_search(first, 1, prep1, tables)

        second = _kernels.block_terms(steps[::-1], np.zeros_like(cov), *model)
        assert second.workspace is first.workspace
        with pytest.raises(RuntimeError, match="another block's observations"):
            _kernels.phase_search(first, 0, prep0, tables)
        for a, b in zip(_kernels.phase_search(first, 1, prep1, tables), step1):
            assert np.array_equal(a, b)
        # The block built last searches its first step.
        _kernels.phase_search(second, 0, _kernels.prepare_state(mean, second, 0, tables), tables)

    def test_coarse_arrays_hold_one_link(self, grid114, rng):
        # The first step scores the (2, R, Q) batch one link at a time, so
        # its two (R, G, L) arrays are not doubled for the link axis; only
        # the small projection covers both links, in one GEMM.
        block, prep, tables = _search_batch(grid114, 10.0, False, rng, trials=5, stacked=True)
        bound = default_slope(grid114.dft_size)
        _kernels.phase_search(block, 0, prep, tables)
        _, table, index, *_ = _kernels.slope_tables(tables, POINTS, bound)
        ws = _kernels._coarse_workspace(block.obs.shape, table.shape[1], index.shape)
        assert ws is block.workspace
        assert ws.s.shape == ws.g.shape == (5, *index.shape)
        assert ws.proj.shape == (1, 2, 5, table.shape[1])
        assert block.s is None and block.term is None


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
        obs = np.zeros((2, 3, grid114.num_pilots), dtype=np.complex128)
        block, prep = _one_step(
            obs, np.full((3, 8), 0.5 + 0.5j), np.full((3, 8), 0.1), 0.1, tables
        )
        offset, slope, _ = _kernels.phase_search(block, 0, prep, tables)
        assert np.array_equal(offset, np.zeros((2, 3)))
        assert np.array_equal(slope, np.zeros((2, 3)))


class TestTieRuleFastPath:
    """_argmin_with_ties gives the oracle's index on (2, 64, 65) batches:
    without ties (one minimum per row), with exact ties and with a NaN row."""

    SLOPES = np.arange(-32, 33) * (0.2 / 32)                  # symmetric, as the grid is

    def _batch(self, rng):
        obj = rng.standard_normal((2, 64, 65))
        zc = rng.standard_normal((2, 64, 65)) + 1j * rng.standard_normal((2, 64, 65))
        return obj, zc

    def _check(self, obj, zc):
        idx = _kernels._argmin_with_ties(obj, self.SLOPES, zc)
        assert idx.shape == obj.shape[:-1]
        assert np.array_equal(idx, oracle_argmin_with_ties(obj, self.SLOPES, zc))

    def test_no_ties(self, rng):
        obj, zc = self._batch(rng)
        assert np.all(np.sum(obj == obj.min(axis=-1, keepdims=True), axis=-1) == 1)
        self._check(obj, zc)

    def test_exact_ties(self, rng):
        obj, zc = self._batch(rng)
        best = obj.min(axis=-1)
        for link, row, cols in [
            (0, 3, (10, 40)),       # two-way
            (1, 7, (32, 33)),       # two-way at slope 0 and its neighbour
            (0, 11, (5, 59)),       # two-way at equal |slope|: the offset decides
            (1, 20, (0, 31, 64)),   # three-way
            (0, 50, (2, 30, 34)),   # three-way, two at equal |slope|
        ]:
            obj[link, row, list(cols)] = best[link, row] - 1.0
        obj[1, 63] = 0.25                                     # every entry equal
        self._check(obj, zc)

    def test_nan_row(self, rng):
        obj, zc = self._batch(rng)
        obj[1, 17, 9] = np.nan
        self._check(obj, zc)
        obj[0, 4, (12, 40)] = obj[0, 4].min() - 1.0           # and a tie elsewhere
        self._check(obj, zc)


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
