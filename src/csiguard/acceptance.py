"""Acceptance property suite.

Eight end-to-end criteria covering the statistic's null distribution,
false-alarm calibration, detection ordering over SNR, dominance over the
magnitude baseline, the filter's denoising gain, phase recovery, scalar
equivalence with a textbook Kalman filter, and the numerics layer against
independent oracles.  Each criterion runs at a fixed scale with fixed
tolerances and a wall-clock budget; ``run_all`` prints one PASS/FAIL line
per criterion.

The oracles used here (power series, quadrature, textbook recursion) are
deliberately coded from scratch rather than shared with the library.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .channel import make_profile, simulate
from .config import ScenarioConfig
from .detector import null_dof, threshold
from .errors import ConfigError
from .harness import derive_trial_seed, run_batch
from .numerics import bessel_j0, chi2_cdf, chi2_quantile
from .observation import PilotGrid, snr_to_noise_var

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA", "PHASE_RECOVERY_TOLERANCE"]

# Criterion 6: largest offset and slope error (rad) that counts as recovering
# the generating phase pair.
PHASE_RECOVERY_TOLERANCE = 1e-5


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    runtime_s: float
    budget_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"criterion {self.number} {status} [{self.runtime_s:6.1f}s/"
            f"{self.budget_s:.0f}s] {self.name}: {self.details}"
        )


def _finish(number, name, budget, t0, checks) -> CriterionResult:
    runtime = time.perf_counter() - t0
    ok = all(flag for flag, _ in checks) and runtime <= budget
    details = "; ".join(text for _, text in checks)
    if runtime > budget:
        details += f"; over budget ({runtime:.1f}s > {budget:.0f}s)"
    return CriterionResult(number, name, ok, details, runtime, budget)


def _paper_scenario(**overrides) -> ScenarioConfig:
    base = ScenarioConfig(snr_db=10.0, normalized_doppler=1e-4, num_steps=2000)
    return replace(base, **overrides)


def criterion_1_null_distribution() -> CriterionResult:
    """Chi-squared law of the statistic on the legitimate link.

    The law is the one the analytic threshold uses: 2Q degrees of freedom
    less the two phase parameters fitted on each packet.
    """
    t0 = time.perf_counter()
    cfg = _paper_scenario(num_trials=16)
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    batch = run_batch(cfg, seeds)
    lam = np.sort(batch.lam[:, batch.test_slice, 0].ravel())
    n = lam.size
    dof = null_dof(cfg.pilot_grid().num_pilots, _kernels.PHASE_PARAMETERS)
    mean, var = lam.mean(), lam.var(ddof=1)
    cdf = np.array([chi2_cdf(x, dof) for x in lam])
    ks = max(
        np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
        np.max(np.abs(np.arange(0, n) / n - cdf)),
    )
    checks = [
        (n >= 5000, f"n={n}"),
        (abs(mean - dof) <= 0.05 * dof, f"mean={mean:.2f} (target {dof}+-5%)"),
        (abs(var - 2 * dof) <= 0.15 * 2 * dof, f"var={var:.1f} (target {2*dof}+-15%)"),
        (ks < 0.05, f"KS={ks:.4f} (<0.05)"),
    ]
    return _finish(1, "null statistic follows chi-squared(2Q-2)", 120.0, t0, checks)


def criterion_2_false_alarm_calibration() -> CriterionResult:
    """Analytic threshold calibration over 10^4 legitimate decisions."""
    t0 = time.perf_counter()
    cfg = _paper_scenario(num_trials=10)
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    batch = run_batch(cfg, seeds)
    lam = batch.lam[:, batch.test_slice, 0].ravel()
    q = cfg.pilot_grid().num_pilots
    checks = [(lam.size >= 10_000, f"n={lam.size}")]
    for p_fa in (0.01, 0.1, 0.3):
        thr = threshold(p_fa, q, fitted_params=_kernels.PHASE_PARAMETERS)
        fa = float((lam > thr).mean())
        sd = math.sqrt(p_fa * (1.0 - p_fa) / lam.size)
        dev = (fa - p_fa) / sd
        checks.append(
            (abs(dev) <= 3.0, f"P_FA={p_fa}: fa={fa:.4f} ({dev:+.1f} sd, |.|<=3)")
        )
    return _finish(2, "false-alarm rate matches nominal", 180.0, t0, checks)


def _per_trial_rates(batch, column: int) -> np.ndarray:
    dec = batch.decisions("kalman")[:, batch.test_slice, column]
    return dec.mean(axis=1)


def criterion_3_snr_ordering() -> CriterionResult:
    """Detection rate nondecreasing over SNR at fixed false-alarm rate."""
    t0 = time.perf_counter()
    snrs = [0.0, 5.0, 10.0, 15.0]
    cfg = _paper_scenario(num_trials=200)
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    # The four points run in lockstep on one set of channel and noise
    # draws (common random numbers), so the paired differences below
    # compare the same trials at each SNR.
    batches = run_batch([replace(cfg, snr_db=snr) for snr in snrs], seeds)
    per_trial = [_per_trial_rates(batch, 1) for batch in batches]
    rates = [float(r.mean()) for r in per_trial]
    checks = [(True, "rates " + ", ".join(f"{s:g}dB={r:.4f}" for s, r in zip(snrs, rates)))]
    for i in range(len(snrs) - 1):
        # Trials are the independent units (each holds one nearly frozen
        # channel pair), so the binomial error of the paired difference is
        # taken across trials; the seeds are common to both SNR points.
        diff = per_trial[i + 1] - per_trial[i]
        sd = float(diff.std(ddof=1)) / math.sqrt(diff.size)
        inversion = -float(diff.mean())
        checks.append(
            (
                inversion <= 2.0 * sd,
                f"{snrs[i]:g}->{snrs[i+1]:g}dB diff={diff.mean():+.4f} (sd {sd:.4f})",
            )
        )
    return _finish(3, "detection rate nondecreasing in SNR", 600.0, t0, checks)


def criterion_4_baseline_dominance() -> CriterionResult:
    """Whitened-residual detector beats the magnitude baseline at 0 dB."""
    t0 = time.perf_counter()
    cfg = _paper_scenario(
        snr_db=0.0, num_trials=200, detectors=("kalman", "magnitude_diff")
    )
    seeds = [derive_trial_seed(cfg.seed, i) for i in range(cfg.num_trials)]
    batch = run_batch(cfg, seeds)
    kalman = batch.decisions("kalman")[:, batch.test_slice, 1].mean(axis=1)
    magnitude = batch.decisions("magnitude_diff")[:, batch.test_slice, 1].mean(axis=1)
    diff = kalman - magnitude
    sd = float(diff.std(ddof=1)) / math.sqrt(diff.size)
    checks = [
        (
            float(diff.mean()) > 3.0 * sd,
            f"kalman={kalman.mean():.4f} baseline={magnitude.mean():.4f} "
            f"margin={diff.mean():.4f} (> 3 sd = {3*sd:.4f})",
        )
    ]
    return _finish(4, "dominates magnitude baseline at 0 dB", 600.0, t0, checks)


def criterion_5_denoising() -> CriterionResult:
    """Steady-state channel-estimate MSE at least 2x below the noise floor."""
    t0 = time.perf_counter()
    cfg = _paper_scenario(num_steps=5000, num_trials=1)
    noise_var = snr_to_noise_var(cfg.snr_db)
    batch = run_batch(cfg, [derive_trial_seed(cfg.seed, 0)], collect_mse=True)
    steady = batch.mse[0, 1000:]
    mse = float(steady.mean())
    checks = [
        (
            mse <= noise_var / 2.0,
            f"per-pilot MSE={mse:.2e} vs noise floor {noise_var:.1e} "
            f"(need <= {noise_var/2:.1e}; ratio {noise_var/max(mse,1e-300):.0f}x)",
        )
    ]
    return _finish(5, "filter denoises below the observation floor", 60.0, t0, checks)


def criterion_6_phase_recovery() -> CriterionResult:
    """Joint (offset, slope) estimation recovers the generating pair.

    Noiseless converged conditions: the prediction equals the true channel
    and the predicted covariance is the one-step process covariance.  (In
    a closed filter loop the offset is only identified up to the global
    rotation shared with the channel estimate, so the oracle check pins
    the prediction to the truth.)  Each of the 1000 packets is the first
    simulated step of alice's link in its own trial.
    """
    t0 = time.perf_counter()
    packets = 1000
    profile = make_profile(8, 1e-4, 0.5)
    grid = PilotGrid(128, tuple(range(2, 59)) + tuple(range(70, 127)))
    # Near-noiseless, the likelihood valley narrows to ~1e-3 rad while
    # integer-bin slope aliases persist as local minima, so the coarse
    # stage needs enough points to sample every basin near its floor (on
    # the slope lattice, 512 requested points give 513).
    slope_points = 512
    noise_var = 1e-13
    max_slope = 2.0 * np.pi * 4.0 / 128.0
    tables = _kernels.grid_tables(grid, 8)
    rngs = [np.random.default_rng(derive_trial_seed(777, i)) for i in range(packets)]
    [link] = simulate([profile], tables, [noise_var], max_slope, rngs, 1)

    # A one-step block of alice's packets, one covariance per packet: one
    # step of process noise from a zero covariance.
    zero = np.zeros((packets, 8))
    block = _kernels.block_terms(
        link.obs[:, 0, 0], zero, np.full(packets, profile.alpha),
        np.tile(profile.process_noise_diag, (packets, 1)), noise_var, tables,
        slope_points, max_slope,
    )
    prep = _kernels.prepare_state(link.taps[0, 0, 0], block, 0, tables)
    est_offset, est_slope, _ = _kernels.phase_search(block, 0, prep, tables)

    offset_err = np.abs((est_offset - link.offset[0, 0] + np.pi) % (2 * np.pi) - np.pi)
    slope_err = np.abs(est_slope - link.slope[0, 0])
    tol = PHASE_RECOVERY_TOLERANCE
    hit = np.mean((offset_err <= tol) & (slope_err <= tol))
    checks = [
        (
            hit >= 0.99,
            f"{hit*100:.1f}% of {packets} packets within {tol:g} rad "
            f"(max offset err {offset_err.max():.2e}, max slope err {slope_err.max():.2e})",
        )
    ]
    return _finish(6, "phase recovery matches the generator", 60.0, t0, checks)


def criterion_7_scalar_kalman() -> CriterionResult:
    """Single-tap, single-pilot filter equals the textbook scalar recursion.

    The filter is the batched kernel path of every Monte Carlo run
    (block_terms' covariance recursion, then prepare_state,
    whitened_quadform and kalman_update per step) at identity phase.
    """
    t0 = time.perf_counter()
    profile = make_profile(1, 0.05, 0.0)
    grid = PilotGrid(8, (0,))
    noise_var = 0.5
    rng = np.random.default_rng(derive_trial_seed(778, 0))
    steps = 1000

    h = complex(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
    observations = []
    for _ in range(steps):
        h = profile.alpha * h + math.sqrt(
            profile.process_noise_diag[0] / 2.0
        ) * complex(rng.standard_normal(), rng.standard_normal())
        w = math.sqrt(noise_var / 2.0) * complex(rng.standard_normal(), rng.standard_normal())
        observations.append(h + w)

    tables = _kernels.grid_tables(grid, 1)
    # Every step in one block: (steps, 1 row, 1 pilot).  No phase is
    # searched, so the block's slope lattice is the smallest one.
    obs = np.array(observations)[:, None, None]
    block = _kernels.block_terms(
        obs, profile.pdp[None, :], np.array([profile.alpha]),
        profile.process_noise_diag[None, :], noise_var, tables, 2, np.pi,
    )
    state_mean = np.zeros((1, 1), dtype=np.complex128)
    means = np.empty(steps, dtype=np.complex128)
    for k in range(steps):
        state_mean = profile.alpha * state_mean
        prep = _kernels.prepare_state(state_mean, block, k, tables)
        residual = obs[k] - prep.m
        g, _ = _kernels.whitened_quadform(residual, prep, tables)
        state_mean = _kernels.kalman_update(state_mean, g, prep)
        means[k] = state_mean[0, 0]
    variances = block.posterior[:, 0, 0]

    # Independent textbook recursion.
    mean, var = 0.0 + 0.0j, 1.0
    ref_means = np.empty(steps, dtype=np.complex128)
    ref_vars = np.empty(steps)
    for k, y in enumerate(observations):
        mean = profile.alpha * mean
        var = profile.alpha**2 * var + profile.process_noise_diag[0]
        gain = var / (var + noise_var)
        mean = mean + gain * (y - mean)
        var = (1.0 - gain) * var
        ref_means[k] = mean
        ref_vars[k] = var

    mean_err = float(np.max(np.abs(means - ref_means)))
    var_err = float(np.max(np.abs(variances - ref_vars)))
    checks = [
        (mean_err <= 1e-12, f"max mean deviation {mean_err:.2e} (<=1e-12)"),
        (var_err <= 1e-12, f"max variance deviation {var_err:.2e} (<=1e-12)"),
    ]
    return _finish(7, "matches textbook scalar Kalman filter", 1.0, t0, checks)


def _j0_series(x: float) -> float:
    total, term, k = 1.0, 1.0, 0
    ratio = -(x / 2.0) ** 2
    while True:
        k += 1
        term *= ratio / (k * k)
        total += term
        if abs(term) < 1e-18 and k > 4:
            return total


def _chi2_cdf_quad(x: float, dof: int) -> float:
    if x <= 0.0:
        return 0.0
    half = dof / 2.0
    log_norm = half * math.log(2.0) + math.lgamma(half)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    panels = max(16, int(math.ceil(x / max(math.sqrt(2.0 * dof), 1.0))) * 8)
    edges = np.linspace(0.0, x, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(weights @ np.exp((half - 1) * np.log(t) - t / 2 - log_norm))
    return total


def _chi2_quantile_quad(p: float, dof: int) -> float:
    lo, hi = 0.0, dof + 40.0 * math.sqrt(2.0 * dof) + 50.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _chi2_cdf_quad(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def criterion_8_numerics_oracles() -> CriterionResult:
    """Special functions agree with series/quadrature oracles."""
    t0 = time.perf_counter()
    checks = [(bessel_j0(0.0) == 1.0, "J0(0)=1")]
    err = abs(bessel_j0(1.0) - _j0_series(1.0))
    checks.append((err <= 1e-12, f"J0(1) vs series: {err:.1e}"))
    lo, hi = 2.0, 3.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _j0_series(lo) * _j0_series(mid) <= 0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    checks.append((abs(bessel_j0(zero)) <= 1e-10, f"|J0(first zero)|={abs(bessel_j0(zero)):.1e}"))

    checks.append((chi2_cdf(0.0, 2) == 0.0, "F(0|2)=0"))
    err = abs(chi2_cdf(2.0 * math.log(2.0), 2) - 0.5)
    checks.append((err <= 1e-12, f"F(2ln2|2) vs 0.5: {err:.1e}"))
    quad = _chi2_cdf_quad(228.0, 228)
    err = abs(chi2_cdf(228.0, 228) - quad)
    checks.append((err <= 1e-10, f"F(228|228) vs quadrature ({quad:.9f}): {err:.1e}"))

    err = abs(chi2_quantile(0.5, 2) - 2.0 * math.log(2.0)) / (2.0 * math.log(2.0))
    checks.append((err <= 1e-9, f"quantile(0.5|2) vs 2ln2: rel {err:.1e}"))
    quad_q = _chi2_quantile_quad(0.9, 228)
    err = abs(chi2_quantile(0.9, 228) - quad_q) / quad_q
    checks.append((err <= 1e-9, f"quantile(0.9|228) vs quadrature ({quad_q:.4f}): rel {err:.1e}"))

    worst = 0.0
    for dof in (2, 10, 228):
        for p in (0.01, 0.2, 0.5, 0.8, 0.99):
            worst = max(worst, abs(chi2_cdf(chi2_quantile(p, dof), dof) - p))
    checks.append((worst <= 1e-8, f"round-trip worst {worst:.1e}"))
    return _finish(8, "numerics match independent oracles", 1.0, t0, checks)


ALL_CRITERIA = {
    1: criterion_1_null_distribution,
    2: criterion_2_false_alarm_calibration,
    3: criterion_3_snr_ordering,
    4: criterion_4_baseline_dominance,
    5: criterion_5_denoising,
    6: criterion_6_phase_recovery,
    7: criterion_7_scalar_kalman,
    8: criterion_8_numerics_oracles,
}


def run_all(numbers=None) -> list[CriterionResult]:
    """Run the requested criteria (default all), printing one line each."""
    selected = sorted(ALL_CRITERIA) if numbers is None else list(numbers)
    unknown = [n for n in selected if n not in ALL_CRITERIA]
    if unknown:
        raise ConfigError(
            f"no acceptance criterion {unknown[0]}; the criteria are "
            f"{', '.join(str(n) for n in sorted(ALL_CRITERIA))}"
        )
    if len(set(selected)) < len(selected):
        raise ConfigError(
            f"criteria {','.join(str(n) for n in selected)} name a criterion more than once"
        )
    results = []
    for number in selected:
        result = ALL_CRITERIA[number]()
        print(result.line(), flush=True)
        results.append(result)
    return results
