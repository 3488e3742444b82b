import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csiguard import _kernels
from csiguard.channel import make_profile, simulate
from csiguard.observation import PilotGrid, partial_dft, snr_to_noise_var

from oracles import PhaseDistortion, phase_diagonal
from test_channel import simulate_steps, undistorted


def phase_error_matrix(d, grid):
    """Dense phase-error matrix E of the reference filter in oracles.py."""
    return np.diag(phase_diagonal(d, grid))


class TestPilotGrid:
    def test_num_pilots(self, grid114):
        assert grid114.num_pilots == 114

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PilotGrid(8, (3, 1))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PilotGrid(8, (0, 8))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PilotGrid(8, ())


class TestPartialDft:
    def test_first_column_is_ones(self, grid114):
        c = partial_dft(grid114, 8)
        assert np.allclose(c[:, 0], 1.0)

    def test_unit_magnitude(self, grid114):
        assert np.allclose(np.abs(partial_dft(grid114, 8)), 1.0, atol=1e-14)

    def test_full_dft_orthogonality(self):
        grid = PilotGrid(4, (0, 1, 2, 3))
        c = partial_dft(grid, 4)
        assert np.allclose(c @ c.conj().T, 4 * np.eye(4), atol=1e-12)

    def test_single_pilot_row_of_ones(self):
        grid = PilotGrid(16, (0,))
        assert np.allclose(partial_dft(grid, 5), 1.0)

    def test_rejects_too_many_paths(self, small_grid):
        with pytest.raises(ValueError):
            partial_dft(small_grid, 33)


class TestPhaseErrorMatrix:
    def test_zero_distortion_is_identity(self, small_grid):
        e = phase_error_matrix(PhaseDistortion(0.0, 0.0), small_grid)
        assert np.allclose(e, np.eye(small_grid.num_pilots))

    def test_pure_offset(self, small_grid):
        e = phase_error_matrix(PhaseDistortion(np.pi / 2, 0.0), small_grid)
        assert np.allclose(e, 1j * np.eye(small_grid.num_pilots))

    def test_pure_slope(self):
        m = 16
        grid = PilotGrid(m, tuple(range(m)))
        e = phase_error_matrix(PhaseDistortion(0.0, 2 * np.pi / m), grid)
        q = np.arange(m)
        assert np.allclose(np.diag(e), np.exp(2j * np.pi * q / m))

    @given(
        st.floats(min_value=-np.pi, max_value=np.pi - 1e-9),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    @settings(max_examples=40)
    def test_unitary(self, offset, slope):
        grid = PilotGrid(32, tuple(range(0, 32, 3)))
        e = phase_error_matrix(PhaseDistortion(offset, slope), grid)
        assert np.allclose(e.conj().T @ e, np.eye(grid.num_pilots), atol=1e-12)

    def test_offset_wrapped(self):
        d = PhaseDistortion(3 * np.pi / 2, 0.0)
        assert -np.pi <= d.offset < np.pi
        assert d.offset == pytest.approx(-np.pi / 2)


class TestObserve:
    def test_noiseless_identity_phase(self, small_grid):
        profile = make_profile(4, 1e-4, 0.5)
        for alice, eve in simulate_steps(profile, [1, 2], 3, grid=small_grid, noise_var=1e-30):
            for link in (alice, eve):
                expected = link.taps @ partial_dft(small_grid, 4).T
                assert np.allclose(undistorted(link, small_grid), expected, atol=1e-10)

    def test_noise_variance(self):
        grid = PilotGrid(16, tuple(range(8)))
        profile = make_profile(2, 0.0, 0.5)
        noise_var = 0.37
        c = partial_dft(grid, 2)
        noise = np.concatenate(
            [
                (undistorted(link, grid) - link.taps @ c.T).ravel()
                for pair in simulate_steps(profile, range(200), 25, grid=grid, noise_var=noise_var)
                for link in pair
            ]
        )
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(noise_var, rel=0.02)

    def test_magnitude_invariant_to_distortion(self, small_grid):
        profile = make_profile(4, 1e-4, 0.5)
        c = partial_dft(small_grid, 4)
        for alice, eve in simulate_steps(profile, [3], 3, grid=small_grid, noise_var=1e-30):
            for link in (alice, eve):
                clean = np.abs(link.taps @ c.T)
                assert np.allclose(np.abs(link.obs), clean, atol=1e-12)

    def test_rejects_nonpositive_noise(self, small_grid, profile8):
        tables = _kernels.grid_tables(small_grid, 8)
        with pytest.raises(ValueError):
            next(simulate([profile8], tables, [0.0], 0.2, [np.random.default_rng(0)], 1))


class TestDrawPhaseDistortion:
    def test_deterministic_given_seed(self, profile8):
        [(a, _)] = simulate_steps(profile8, [3], 1, max_slope=0.2)
        [(b, _)] = simulate_steps(profile8, [3], 1, max_slope=0.2)
        assert (a.offset, a.slope) == (b.offset, b.slope)

    def test_supports(self):
        profile = make_profile(1, 1e-4, 0.0)
        steps = simulate_steps(profile, range(500), 100, max_slope=0.15)
        offsets = np.array([[a.offset, e.offset] for a, e in steps]).ravel()
        slopes = np.array([[a.slope, e.slope] for a, e in steps]).ravel()
        assert np.all(np.abs(slopes) <= 0.15)
        assert np.all((offsets >= -np.pi) & (offsets < np.pi))
        assert offsets.mean() == pytest.approx(0.0, abs=0.02)

    def test_rejects_bad_bound(self, small_grid, profile8):
        tables = _kernels.grid_tables(small_grid, 8)
        with pytest.raises(ValueError):
            next(simulate([profile8], tables, [0.1], -0.2, [np.random.default_rng(0)], 1))


class TestSnr:
    @pytest.mark.parametrize("db,var", [(0.0, 1.0), (10.0, 0.1), (20.0, 0.01)])
    def test_values(self, db, var):
        assert snr_to_noise_var(db) == pytest.approx(var, rel=1e-12)
