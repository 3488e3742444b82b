import numpy as np
import pytest

from csiguard.config import ScenarioConfig
from csiguard.detector import calibrate_empirical_threshold, magnitude_diff_statistic, threshold
from csiguard.errors import CalibrationError
from csiguard.harness import TrialBatch

from oracles import SingularMatrixError, chi2_quantile_quadrature, residual_statistic

THRESHOLD_01_114 = 255.75889888819424  # quadrature oracle, see oracles.py


class TestTestStatistic:
    """The dense residual statistic of the test oracles (tests/oracles.py)."""

    def test_zero_residual(self):
        assert residual_statistic(np.zeros(3, dtype=complex), np.eye(3)) == 0.0

    def test_scalar_example(self):
        value = residual_statistic(np.array([1.0 + 0j]), np.array([[1.0 + 0j]]))
        assert value == pytest.approx(2.0)

    def test_matches_explicit_inverse(self, rng):
        for _ in range(4):
            q = 6
            m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
            cov = m @ m.conj().T + q * np.eye(q)
            eps = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            expected = 2 * np.real(eps.conj() @ np.linalg.inv(cov) @ eps)
            assert residual_statistic(eps, cov) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self, rng):
        q = 5
        m = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        cov = m @ m.conj().T + q * np.eye(q)
        eps = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        assert residual_statistic(eps, cov) >= 0.0

    def test_propagates_singular(self):
        with pytest.raises(SingularMatrixError):
            residual_statistic(np.ones(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            residual_statistic(np.ones(3, dtype=complex), np.eye(2))


class TestThreshold:
    def test_paper_operating_point(self):
        assert threshold(0.1, 114) == pytest.approx(THRESHOLD_01_114, rel=1e-9)
        assert threshold(0.1, 114) == pytest.approx(
            chi2_quantile_quadrature(0.9, 228), rel=1e-9
        )

    def test_single_pilot_median(self):
        assert threshold(0.5, 1) == pytest.approx(2 * np.log(2), rel=1e-9)

    def test_monotone_in_false_alarm(self):
        values = [threshold(p, 114) for p in (0.01, 0.1, 0.3, 0.5)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestFittedPhaseThreshold:
    def test_paper_operating_point(self):
        # Offset and slope fitted on the packet leave 2Q - 2 = 226 dof.
        assert threshold(0.1, 114, fitted_params=2) == pytest.approx(
            chi2_quantile_quadrature(0.9, 226), rel=1e-9
        )


class TestDecide:
    """The decision rule of TrialBatch.decisions: H1 iff the statistic
    strictly exceeds the threshold, for both detectors."""

    @staticmethod
    def _decisions(statistic, d):
        stat = np.full((1, 1, 2), statistic)
        batch = TrialBatch(
            cfg=ScenarioConfig(detectors=("kalman", "magnitude_diff")),
            lam=stat,
            mag=stat,
            kalman_threshold=d,
            mag_threshold=np.array([d]),
        )
        return [batch.decisions(det).tolist() for det in ("kalman", "magnitude_diff")]

    def test_zero_statistic(self):
        assert self._decisions(0.0, 1.0) == [[[[False, False]]]] * 2

    def test_boundary_accepts(self):
        assert self._decisions(5.0, 5.0) == [[[[False, False]]]] * 2

    def test_just_above_rejects(self):
        assert self._decisions(5.0 + 1e-9, 5.0) == [[[[True, True]]]] * 2

    def test_nan_statistic_accepts(self):
        # The magnitude statistic is NaN at the first step: H0, no warning.
        assert self._decisions(np.nan, 5.0) == [[[[False, False]]]] * 2


class TestFalseAlarmCalibration:
    """Threshold machinery check on synthetic draws that exactly follow the
    modeled chi-squared law.  (The end-to-end pipeline's deviation from that
    law is measured separately by the acceptance suite.)"""

    @pytest.mark.parametrize("p_fa", [0.01, 0.1, 0.3])
    def test_nominal_false_alarm(self, p_fa):
        rng = np.random.default_rng(987)
        q = 114
        samples = rng.chisquare(2 * q, size=10_000)
        fa = np.mean(samples > threshold(p_fa, q))
        sd = np.sqrt(p_fa * (1 - p_fa) / samples.size)
        assert abs(fa - p_fa) <= 3 * sd


class TestMagnitudeDiff:
    def _obs(self, values):
        """|observation| as a one-row batch."""
        return np.abs(np.asarray(values, dtype=complex))[None, :]

    def test_identical_is_zero(self):
        obs = self._obs([1 + 1j, 2 - 1j, 0.5j])
        assert magnitude_diff_statistic(obs, obs) == 0.0

    def test_doubling(self):
        prev = self._obs([1.0, 2.0, 3.0])
        cur = self._obs([2.0, 4.0, 6.0])
        assert magnitude_diff_statistic(cur, prev) == pytest.approx(1.0)

    def test_phase_invariance(self, rng):
        values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        rotated = np.exp(1j * (0.3 + 0.05 * np.arange(8))) * values
        a = self._obs(values)
        b = self._obs(rotated)
        assert magnitude_diff_statistic(b, a) < 1e-12
        assert magnitude_diff_statistic(a, b) < 1e-12

    def test_zero_previous_rejected(self):
        with pytest.raises(ValueError):
            magnitude_diff_statistic(self._obs([1.0]), self._obs([0.0]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            magnitude_diff_statistic(self._obs([1.0, 2.0]), self._obs([1.0]))

    def test_link_batch_equals_separate_calls(self, rng):
        # Both links' (T, Q) magnitudes as one (2, T, Q) batch, each row
        # against the same previous magnitudes, bit for bit.
        previous = np.abs(rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)))
        current = np.abs(rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7)))
        batch = magnitude_diff_statistic(current, previous)
        assert batch.shape == (2, 5)
        for col in (0, 1):
            assert np.array_equal(batch[col], magnitude_diff_statistic(current[col], previous))

    @pytest.mark.parametrize("previous_shape", [(4, 7), (5, 6), (2, 5, 7), (7,)])
    def test_batch_against_mismatched_previous(self, rng, previous_shape):
        current = np.ones((2, 5, 7))
        with pytest.raises(ValueError):
            magnitude_diff_statistic(current, np.ones(previous_shape))


class TestCalibrateEmpiricalThreshold:
    def test_nearest_rank_on_grid(self):
        samples = np.arange(1.0, 101.0)
        assert calibrate_empirical_threshold(samples, 0.1) == 90.0

    def test_median(self):
        samples = np.arange(1.0, 101.0)
        assert calibrate_empirical_threshold(samples, 0.5) == 50.0

    def test_too_few_samples(self):
        with pytest.raises(CalibrationError):
            calibrate_empirical_threshold(np.arange(99.0), 0.1)

    def test_bad_false_alarm(self):
        with pytest.raises(ValueError):
            calibrate_empirical_threshold(np.arange(200.0), 1.0)

    @pytest.mark.parametrize("p_fa", [0.01, 0.1, 0.3])
    def test_rows_equal_one_row_calls(self, rng, p_fa):
        samples = rng.chisquare(20, size=(7, 150))
        rows = calibrate_empirical_threshold(samples, p_fa)
        assert rows.shape == (7,)
        for t in range(7):
            one = calibrate_empirical_threshold(samples[t], p_fa)
            assert isinstance(one, float)
            assert rows[t] == one

    def test_too_few_samples_per_row(self):
        with pytest.raises(CalibrationError):
            calibrate_empirical_threshold(np.ones((200, 99)), 0.1)

    def test_holdout_false_alarm(self):
        rng = np.random.default_rng(55)
        p_fa = 0.1
        train = rng.chisquare(20, size=5_000)
        test = rng.chisquare(20, size=10_000)
        thr = calibrate_empirical_threshold(train, p_fa)
        fa = np.mean(test > thr)
        sd = np.sqrt(p_fa * (1 - p_fa) * (1 / train.size + 1 / test.size))
        assert abs(fa - p_fa) <= 3 * sd
