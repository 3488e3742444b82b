import numpy as np
import pytest

from csiguard import _kernels, channel
from csiguard.channel import ChannelProfile, Link, make_profile, simulate
from csiguard.numerics import bessel_j0
from csiguard.observation import PilotGrid

from oracles import bessel_j0_first_zero, bessel_j0_series, simulate_by_step

# J0(2 pi fd Ts) from the series oracle.
ALPHA_AT_1E4 = 0.9999999013039584
ALPHA_AT_01 = 0.9037126420924663
# Doppler where the series oracle gives alpha = 0.9 (bisected to 1e-12).
DOPPLER_FOR_ALPHA_09 = 0.10195957079712756


def simulate_links(
    profile, seeds, steps, *, grid=None, noise_var=0.1, max_slope=0.2, clone_eve=False
):
    """The first ``steps`` Links that simulate yields at one point, one trial per seed.

    Each Link's taps and observations lack the point axis: (2, T, L) and (2, T, Q).
    """
    grid = grid or PilotGrid(max(8, profile.num_paths), (0, 1, 3))
    tables = _kernels.grid_tables(grid, profile.num_paths)
    rngs = [np.random.default_rng(s) for s in seeds]
    links = simulate([profile], tables, [noise_var], max_slope, rngs, steps, clone_eve=clone_eve)
    return [link._replace(taps=link.taps[:, 0], obs=link.obs[:, 0]) for link in links]


def split(link):
    """A Link's (alice, eve) rows, each a Link whose fields lack the link axis."""
    return Link(*(field[0] for field in link)), Link(*(field[1] for field in link))


def simulate_steps(profile, seeds, steps, **options):
    """The first ``steps`` (alice, eve) pairs that simulate yields, one trial per seed."""
    return [split(link) for link in simulate_links(profile, seeds, steps, **options)]


def alice_taps(profile, seeds, steps):
    """Alice's taps, shape (steps, trials, L)."""
    return np.stack([alice.taps for alice, _ in simulate_steps(profile, seeds, steps)])


def undistorted(link, grid):
    """A link's observation with its own phase distortion taken out."""
    q = np.asarray(grid.pilot_indices, dtype=float)
    return np.exp(-1j * (link.offset[:, None] + link.slope[:, None] * q)) * link.obs


class TestMakeProfile:
    def test_static_single_path(self):
        p = make_profile(1, 0.0, 0.0)
        assert p.pdp.tolist() == [1.0]
        assert p.alpha == 1.0
        assert p.process_noise_diag.tolist() == [0.0]

    def test_default_doppler_alpha(self):
        p = make_profile(8, 1e-4, 0.5)
        assert p.alpha == pytest.approx(ALPHA_AT_1E4, abs=1e-12)
        assert 1.0 - p.alpha == pytest.approx(9.8696e-8, rel=1e-3)

    def test_fast_fading_alpha(self):
        p = make_profile(2, 0.1, 0.0)
        assert p.alpha == pytest.approx(ALPHA_AT_01, abs=1e-12)

    def test_pdp_shape_and_normalization(self):
        p = make_profile(8, 1e-4, 0.5)
        assert p.pdp.shape == (8,)
        assert p.pdp.sum() == pytest.approx(1.0, abs=1e-12)
        ratios = p.pdp[1:] / p.pdp[:-1]
        assert np.allclose(ratios, np.exp(-0.5))

    def test_process_noise_consistency(self):
        p = make_profile(4, 0.05, 1.0)
        assert np.allclose(p.process_noise_diag, (1 - p.alpha**2) * p.pdp, atol=1e-15)

    @pytest.mark.parametrize("doppler", [0.5, 0.7, -0.1])
    def test_rejects_bad_doppler(self, doppler):
        with pytest.raises(ValueError):
            make_profile(4, doppler, 0.5)

    def test_rejects_bad_paths_and_decay(self):
        with pytest.raises(ValueError):
            make_profile(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            make_profile(2, 0.0, -1.0)

    def test_profile_derives_its_fields(self):
        p = ChannelProfile(pdp=np.array([0.75, 0.25]), normalized_doppler=0.05)
        assert p.num_paths == 2
        assert p.alpha == bessel_j0(2 * np.pi * 0.05)
        assert np.array_equal(p.process_noise_diag, (1 - p.alpha**2) * p.pdp)

    @pytest.mark.parametrize("pdp", [[0.5, 0.6], [1.0, 0.0], [1.5, -0.5], [], [[0.5, 0.5]]])
    def test_profile_refuses_bad_pdp(self, pdp):
        with pytest.raises(ValueError):
            ChannelProfile(pdp=np.array(pdp), normalized_doppler=0.0)


class TestInitChannel:
    def test_deterministic_given_seed(self, profile8):
        a = alice_taps(profile8, [7], 1)
        b = alice_taps(profile8, [7], 1)
        assert np.array_equal(a, b)

    def test_stationary_moments(self):
        # A static channel (alpha = 1, no process noise) keeps its stationary
        # start, and 50 equal-power taps over 2000 trials give 10^5 draws.
        p = make_profile(50, 0.0, 0.0)
        taps = np.sqrt(50) * alice_taps(p, range(2000), 1).ravel()
        assert np.mean(np.abs(taps) ** 2) == pytest.approx(1.0, abs=0.02)
        # Circular symmetry: each real dimension carries half the power.
        assert np.var(taps.real) == pytest.approx(0.5, abs=0.02)
        assert np.var(taps.imag) == pytest.approx(0.5, abs=0.02)


class TestStepChannel:
    def test_frozen_when_static(self):
        p = make_profile(3, 0.0, 0.5)
        taps = alice_taps(p, [1, 2], 4)
        assert np.all(taps == taps[:1])

    def test_alpha_zero_gives_fresh_draw(self):
        # J0's first zero makes the AR coefficient vanish: each step is an
        # independent stationary draw.
        doppler = bessel_j0_first_zero() / (2 * np.pi)
        p = make_profile(1, doppler, 0.0)
        assert abs(p.alpha) < 1e-12
        taps = alice_taps(p, range(100), 201)[:, :, 0]
        corr = np.mean(taps[1:] * np.conj(taps[:-1]))
        assert abs(corr) < 0.05
        assert np.mean(np.abs(taps) ** 2) == pytest.approx(1.0, abs=0.03)


@pytest.fixture(scope="module")
def trajectory():
    # 100 trials x 1000 steps: time runs along axis 0.
    p = make_profile(1, DOPPLER_FOR_ALPHA_09, 0.0)
    return p, alice_taps(p, range(100), 1000)[:, :, 0]


class TestTrajectoryStatistics:

    def test_stationary_variance(self, trajectory):
        _, samples = trajectory
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.0, rel=0.03)

    @pytest.mark.parametrize("lag", [1, 2, 5])
    def test_autocorrelation_decay(self, trajectory, lag):
        # Normalized by the sample power, whose own spread (see
        # test_stationary_variance) would otherwise dominate the tolerance.
        p, samples = trajectory
        power = np.mean(np.abs(samples) ** 2)
        corr = np.mean(samples[lag:] * np.conj(samples[:-lag])).real / power
        expected = bessel_j0_series(2 * np.pi * p.normalized_doppler) ** lag
        tol = 0.01 if lag == 1 else 0.02
        assert corr == pytest.approx(expected, abs=tol)

    def test_total_power_multipath(self, profile8):
        # Ensemble average: at fd*Ts = 1e-4 a single trajectory stays frozen
        # for far longer than any affordable horizon, so stationary power is
        # checked across independent channels at each step.
        taps = alice_taps(profile8, range(3000), 3)
        power = np.sum(np.abs(taps) ** 2, axis=2).mean(axis=1)
        assert power == pytest.approx(np.ones(3), rel=0.03)


class TestSimulate:
    """simulate consumes each trial's generator in its documented order."""

    def test_draw_order_matches_raw_draws(self):
        p = make_profile(3, 0.05, 0.5)
        grid = PilotGrid(16, (1, 2, 5, 9))
        noise_var, max_slope = 0.3, 0.2
        seeds = [11, 12]
        links = simulate_links(p, seeds, 3, grid=grid, noise_var=noise_var, max_slope=max_slope)
        num_paths, num_pilots = 3, 4
        for link in links:
            assert link.taps.shape == (2, len(seeds), num_paths)
            assert link.obs.shape == (2, len(seeds), num_pilots)
            assert link.offset.shape == link.slope.shape == (2, len(seeds))
        c = np.exp(-2j * np.pi * np.outer(grid.pilot_indices, np.arange(num_paths)) / 16)
        q = np.asarray(grid.pilot_indices, dtype=float)
        for t, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            init = rng.standard_normal(4 * num_paths).reshape(4, num_paths)
            h = np.sqrt(p.pdp / 2) * (init[0::2] + 1j * init[1::2])  # rows alice, eve
            for link in links:
                z = rng.standard_normal(4 * num_paths + 4 * num_pilots)
                u = rng.uniform(size=4)
                innov = z[: 4 * num_paths].reshape(4, num_paths)
                noise = z[4 * num_paths :].reshape(4, num_pilots)
                h = p.alpha * h + np.sqrt(p.process_noise_diag / 2) * (
                    innov[0::2] + 1j * innov[1::2]
                )
                for col in (0, 1):
                    offset = -np.pi + 2 * np.pi * u[2 * col]
                    slope = max_slope * (2 * u[2 * col + 1] - 1)
                    w = np.sqrt(noise_var / 2) * (noise[2 * col] + 1j * noise[2 * col + 1])
                    obs = np.exp(1j * (offset + slope * q)) * (c @ h[col]) + w
                    assert np.array_equal(link.taps[col, t], h[col])
                    assert (link.offset[col, t], link.slope[col, t]) == (offset, slope)
                    assert np.allclose(link.obs[col, t], obs, rtol=0, atol=1e-12)

    def test_clone_eve_keeps_eve_draws(self):
        p = make_profile(3, 0.05, 0.5)
        grid = PilotGrid(16, (1, 2, 5, 9))
        tables = _kernels.grid_tables(grid, 3)
        base = simulate_steps(p, [5, 6], 3, grid=grid)
        cloned = simulate_steps(p, [5, 6], 3, grid=grid, clone_eve=True)
        for (alice, eve), (alice_c, eve_c) in zip(base, cloned):
            assert np.array_equal(alice_c.taps, alice.taps)
            assert np.array_equal(alice_c.obs, alice.obs)
            assert np.array_equal(eve_c.taps, alice.taps)
            assert np.array_equal(eve_c.offset, eve.offset)
            assert np.array_equal(eve_c.slope, eve.slope)
            # Same noise: the observations differ by the rotated channel change.
            rot = np.exp(1j * eve.offset)[:, None] * tables.ramp(eve.slope).conj()
            moved = rot * ((alice.taps - eve.taps) @ tables.c_t)
            assert np.allclose(eve_c.obs - eve.obs, moved, rtol=0, atol=1e-12)


def bits(a):
    """An array's bytes as uint64 words, so signed zeros and NaNs compare exactly."""
    return np.ascontiguousarray(a).view(np.uint64)


# (trials, points): T = 1, 2 and 64 at one point, and 3 points of one trial.
BLOCK_SHAPES = [(1, 1), (2, 1), (64, 1), (1, 3)]
# The default grid: 114 pilots of M = 128, with 8 taps.
DEFAULT_TABLES = _kernels.grid_tables(
    PilotGrid(128, tuple(range(2, 59)) + tuple(range(70, 127))), 8
)


def block_run(num_trials, num_points, steps, model=simulate, clone_eve=False):
    """(Links, generators) of ``steps`` steps of ``model`` at T trials and P points."""
    profiles = [make_profile(8, d, 0.5) for d in (1e-4, 1e-2, 1e-3)[:num_points]]
    noise_vars = [0.1, 1.0, 0.01][:num_points]
    rngs = [np.random.default_rng([20, t]) for t in range(num_trials)]
    links = model(profiles, DEFAULT_TABLES, noise_vars, 0.19, rngs, steps, clone_eve=clone_eve)
    return list(links), rngs


def block_counts(num_trials, num_points):
    """Step counts 1, K - 1, K, K + 1 and 2K + 1 for simulate's block length K."""
    k = max(1, channel._BLOCK_ROWS // (num_trials * num_points))
    return sorted({1, k - 1, k, k + 1, 2 * k + 1} - {0})


class TestBlocks:
    """simulate builds blocks of steps, bit for bit a step-at-a-time build."""

    @pytest.mark.parametrize("clone_eve", [False, True])
    @pytest.mark.parametrize("num_trials, num_points", BLOCK_SHAPES)
    def test_every_field_matches_the_step_oracle(self, num_trials, num_points, clone_eve):
        for steps in block_counts(num_trials, num_points):
            links, _ = block_run(num_trials, num_points, steps, clone_eve=clone_eve)
            expected, _ = block_run(
                num_trials, num_points, steps, simulate_by_step, clone_eve=clone_eve
            )
            assert len(links) == len(expected) == steps
            for k, (link, ref) in enumerate(zip(links, expected)):
                for name, got, want in zip(Link._fields, link, ref):
                    assert got.shape == want.shape, (steps, k, name)
                    assert np.array_equal(bits(got), bits(want)), (steps, k, name)

    @pytest.mark.parametrize("num_trials, num_points", BLOCK_SHAPES)
    def test_generators_make_exactly_the_documented_draws(self, num_trials, num_points):
        for steps in [0, *block_counts(num_trials, num_points)]:
            links, rngs = block_run(num_trials, num_points, steps)
            assert len(links) == steps
            for t, rng in enumerate(rngs):
                fresh = np.random.default_rng([20, t])
                fresh.standard_normal(4 * 8)
                for _ in range(steps):
                    fresh.standard_normal(4 * 8 + 4 * 114)
                    fresh.uniform(size=4)
                assert rng.bit_generator.state == fresh.bit_generator.state, (steps, t)

    def test_yielded_links_keep_their_values(self):
        # A Link taken from an early block is not overwritten by later ones.
        steps = 2 * channel._BLOCK_ROWS + 1
        profile = make_profile(8, 1e-2, 0.5)
        rngs = [np.random.default_rng(3)]
        links = simulate([profile], DEFAULT_TABLES, [0.1], 0.19, rngs, steps)
        kept = [(link, [field.copy() for field in link]) for link in links]
        assert len(kept) == steps
        for link, copies in kept:
            for field, copy in zip(link, copies):
                assert np.array_equal(bits(field), bits(copy))

    def test_refuses_a_negative_step_count(self, profile8):
        tables = _kernels.grid_tables(PilotGrid(32, tuple(range(12))), 8)
        with pytest.raises(ValueError, match="num_steps"):
            next(simulate([profile8], tables, [0.1], 0.2, [np.random.default_rng(0)], -1))
