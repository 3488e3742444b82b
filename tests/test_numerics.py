import math
import os
import pathlib
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csiguard
from csiguard.numerics import bessel_j0, chi2_cdf, chi2_quantile

from oracles import (
    SingularMatrixError,
    bessel_j0_series,
    chi2_cdf_quadrature,
    chi2_quantile_quadrature,
    gaussian_elimination_solve,
    hermitian_solve,
)

# Frozen oracle outputs (power series / quadrature, see oracles.py).
J0_AT_1 = 0.7651976865579666
J0_FIRST_ZERO = 2.4048255576957724
CHI2_CDF_228_AT_228 = 0.5124553843734523
CHI2_Q_228_AT_09 = 255.75889888819424
TWO_LN_2 = 2.0 * np.log(2.0)
# The detector's dofs (2Q - 2 at the default 114 pilots, and 2Q), and two small ones.
ORACLE_DOFS = [2, 10, 226, 228]


def _mp_chi2_cdf(x, dof):
    """P(dof/2, x/2) in 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(mpmath.mpf(dof) / 2, 0, mpmath.mpf(x) / 2, regularized=True)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_series_value(self):
        assert bessel_j0(1.0) == pytest.approx(J0_AT_1, abs=1e-12)

    def test_first_zero(self):
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-10

    def test_against_series_oracle_up_to_20(self):
        for x in np.linspace(-20.0, 20.0, 81):
            assert bessel_j0(x) == pytest.approx(bessel_j0_series(x), abs=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            bessel_j0(bad)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_bounded_by_one(self, x):
        assert abs(bessel_j0(x)) <= 1.0 + 1e-15

    def test_ar1_domain_against_50_digits(self):
        # alpha = J0(2 pi fd Ts) for every normalized Doppler fd Ts in [0, 0.5).
        fds = np.concatenate([np.linspace(0.0, 0.5, 251)[:-1], np.logspace(-6, -1, 26)])
        with mpmath.workdps(50):
            for x in 2.0 * np.pi * fds:
                assert abs(bessel_j0(x) - float(mpmath.besselj(0, x))) <= 2.5e-16

    @pytest.mark.parametrize("x", [25.0, 50.0, 1e3, 1e5, 1e6])
    def test_large_argument_against_50_digits(self, x):
        with mpmath.workdps(50):
            assert abs(bessel_j0(x) - float(mpmath.besselj(0, x))) <= 1e-12
        best = math.inf
        for _ in range(5):
            t0 = time.perf_counter()
            bessel_j0(x)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3


class TestChi2Cdf:
    def test_at_zero(self):
        assert chi2_cdf(0.0, 2) == 0.0

    def test_dof2_closed_form(self):
        # dof=2 has F(x) = 1 - exp(-x/2), so the median is 2 ln 2.
        assert chi2_cdf(TWO_LN_2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_large_dof_against_quadrature(self):
        assert chi2_cdf(228.0, 228) == pytest.approx(CHI2_CDF_228_AT_228, abs=1e-10)

    def test_quadrature_oracle_grid(self):
        for dof in (2, 10, 228):
            for x in (0.5 * dof, dof, 1.5 * dof):
                assert chi2_cdf(x, dof) == pytest.approx(
                    chi2_cdf_quadrature(x, dof), abs=1e-10
                )

    @pytest.mark.parametrize("dof", ORACLE_DOFS)
    def test_against_50_digits(self, dof):
        for x in np.linspace(0.0, 3.0 * dof, 61):
            assert abs(chi2_cdf(x, dof) - float(_mp_chi2_cdf(x, dof))) <= 1e-13

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi2_cdf(-1e-9, 2)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            chi2_cdf(1.0, 0)

    @given(
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=500.0),
        st.sampled_from([2, 10, 228]),
    )
    @settings(max_examples=50)
    def test_monotone_and_clamped(self, x1, x2, dof):
        lo, hi = sorted((x1, x2))
        a, b = chi2_cdf(lo, dof), chi2_cdf(hi, dof)
        assert 0.0 <= a <= b <= 1.0


class TestChi2Quantile:
    def test_dof2_median(self):
        assert chi2_quantile(0.5, 2) == pytest.approx(TWO_LN_2, rel=1e-9)

    def test_large_dof_against_quadrature(self):
        assert chi2_quantile(0.9, 228) == pytest.approx(CHI2_Q_228_AT_09, rel=1e-9)
        assert chi2_quantile(0.9, 228) == pytest.approx(
            chi2_quantile_quadrature(0.9, 228), rel=1e-9
        )

    @pytest.mark.parametrize("dof", ORACLE_DOFS)
    def test_against_50_digits(self, dof):
        # The returned x misses the exact quantile by (F(x) - p) / f(x) to
        # second order, with F and its density f evaluated in 50 digits.
        a = mpmath.mpf(dof) / 2
        for p in np.concatenate([[1e-4, 1e-3, 0.01], np.linspace(0.05, 0.95, 19),
                                 [0.99, 0.999, 1.0 - 1e-4]]):
            x = chi2_quantile(p, dof)
            with mpmath.workdps(50):
                y = mpmath.mpf(x) / 2
                density = mpmath.exp((a - 1) * mpmath.log(y) - y - mpmath.loggamma(a)) / 2
                miss = (_mp_chi2_cdf(x, dof) - p) / density
            assert abs(float(miss)) <= 1e-13 * x

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            chi2_quantile(p, 2)

    def test_strictly_increasing(self):
        ps = np.linspace(0.01, 0.99, 25)
        values = [chi2_quantile(p, 10) for p in ps]
        assert all(b > a for a, b in zip(values, values[1:]))

    @given(
        st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
        st.sampled_from([2, 10, 228]),
    )
    @settings(max_examples=60)
    def test_round_trips(self, p, dof):
        x = chi2_quantile(p, dof)
        assert chi2_cdf(x, dof) == pytest.approx(p, abs=1e-8)
        if x > 0:
            assert chi2_quantile(chi2_cdf(x, dof), dof) == pytest.approx(
                x, rel=1e-8, abs=1e-8
            )


class TestImport:
    def test_package_import_loads_no_scipy_linalg(self):
        # The package needs numpy only; scipy.linalg would add to the
        # set-up time of every run.  A fresh interpreter shows what
        # ``import csiguard`` alone loads.
        src = pathlib.Path(csiguard.__file__).resolve().parents[1]
        code = "import sys, csiguard; print(sorted(m for m in sys.modules if 'scipy.linalg' in m))"
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"

    def test_cli_run_loads_no_scipy(self, tmp_path):
        # The CLI's import and a two-step run (the benchmark's set-up) load no
        # scipy module at all: importing scipy.special alone took about
        # 190 ms, most of a run's set-up.
        src = pathlib.Path(csiguard.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            "from csiguard.cli import cli_main\n"
            "rc = cli_main(['simulate', '--detectors', 'kalman', '--num-steps', '2',\n"
            "               '--seed', '1', '--out', 'two_steps.csv'])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip().splitlines()[-1] == "0 []"


class TestHermitianSolve:
    """The Cholesky solver of the dense test oracles (tests/oracles.py)."""

    def test_identity(self, rng):
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert np.allclose(hermitian_solve(np.eye(3), b), b)

    def test_diagonal(self):
        x = hermitian_solve(np.diag([2.0, 2.0]).astype(complex), np.array([2 + 0j, 4 + 0j]))
        assert np.allclose(x, [1 + 0j, 2 + 0j])

    def test_against_elimination_oracle(self, rng):
        for _ in range(5):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            a = m @ m.conj().T + 4.0 * np.eye(4)
            b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            assert np.allclose(
                hermitian_solve(a, b), gaussian_elimination_solve(a, b), rtol=1e-10
            )

    @pytest.mark.parametrize("dim", [2, 17, 128])
    def test_residual_up_to_dim_128(self, dim, rng):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = m @ m.conj().T + dim * np.eye(dim)
        b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = hermitian_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_matrix_rhs(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = m @ m.conj().T + 5 * np.eye(5)
        b = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        assert np.allclose(a @ hermitian_solve(a, b), b)

    def test_not_positive_definite(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(SingularMatrixError):
            hermitian_solve(a, np.ones(2, dtype=complex))

    def test_not_hermitian(self):
        a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_solve(a, np.ones(2, dtype=complex))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hermitian_solve(np.eye(3), np.ones(2))
