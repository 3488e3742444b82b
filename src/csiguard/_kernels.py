"""Batched numpy kernels behind the adaptive filter.

Everything here carries a trial axis so that a whole Monte Carlo batch
advances in lockstep; a single filter is a batch of one.  The per-step
state (:class:`StatePrep`) has shape ``(T, ...)``; observations and
residuals have shape ``(..., T, Q)`` and broadcast over it, so the
harness scores alice's and eve's packets of one step as a single
``(2, T, Q)`` batch against the same prediction.

The algebra exploits two structural facts to avoid any dense Q x Q work
per candidate distortion:

* The phase-error matrix ``E`` is diagonal unitary, so the innovation
  covariance factors as ``Sigma(d) = E Sigma0 E^H`` with
  ``Sigma0 = C P C^H + s2 I`` independent of the distortion, and the
  whitened residual energy becomes
  ``(E^H h - C mu)^H Sigma0^{-1} (E^H h - C mu)``.
* ``Sigma0`` is a rank-L update of the identity, so its inverse acts in
  O(Q L) through the Woodbury identity with the L x L core
  ``G = I + P^{1/2} C^H C P^{1/2} / s2``.

For a fixed phase slope the objective is an exact cosine in the phase
offset, so the offset is minimized in closed form and the numeric search
runs over the slope axis only, in two stages:

* a coarse grid of G slopes, all candidates evaluated at once as one flat
  GEMM ``h @ table`` of the observations, reshaped to ``(..., T, Q)`` ->
  ``(N, Q)``, against the cached ``(Q, G*L)`` table
  ``phi[g, q] * conj(C[q, l])`` (:func:`slope_tables`); its argmin locates
  the likelihood's main lobe, provided the grid is finer than the lobe (the
  configuration refuses coarser grids);
* three Newton steps from the grid argmin, on the exact first and second
  slope derivatives of the profiled objective, each clipped to the grid
  cells on either side of that argmin.  Each step is one flat GEMM
  ``(ramp * h) @ C3`` against the ``(Q, 3L)`` table
  ``C3 = conj(C) * [1, -1j q, -q^2]`` (:attr:`GridTables.c3`), plus
  ``(ramp * zvec) @ ramp_derivs.T``.  Leaving the slope at grid
  resolution would leak into the offset estimate through the slope-offset
  coupling of the likelihood.  From within half a grid cell, three steps
  bring the slope within 1e-6 rad of the minimizer (measured worst case
  4e-7 rad, at 30 dB on the default grid) and usually within 1e-10.

Real forms ``Re(a^H b)`` are summed over float views of the complex
arrays (:func:`_real_dot`), without forming ``conj(a)``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .observation import PilotGrid, partial_dft

# Newton steps taken on the slope after the coarse grid.
_NEWTON_STEPS = 3


def _int_power(base: np.ndarray, k: int) -> np.ndarray:
    """base**k for integer k >= 0 by square-and-multiply (elementwise)."""
    result = np.ones_like(base)
    factor = base
    while k:
        if k & 1:
            result = result * factor
        k >>= 1
        if k:
            factor = factor * factor
    return result


@dataclass(frozen=True, eq=False)
class GridTables:
    """Constant per-(grid, channel length) arrays used by every step."""

    c: np.ndarray          # (Q, L) partial DFT
    c_conj: np.ndarray     # (Q, L)
    c_t: np.ndarray        # (L, Q) contiguous C.T for right-multiplication
    chc: np.ndarray        # (L, L) C^H C
    chc_diag: np.ndarray   # (L,) real diagonal of C^H C
    q: np.ndarray          # (Q,) pilot indices as float
    ramp_derivs: np.ndarray  # (3, Q) [1, -1j q, -q^2]: d^k/dx^k ramp = ramp * row k
    c3: np.ndarray         # (Q, 3L) conj(C) * ramp_derivs[k], column k*L + l
    ramp_q0: int
    ramp_groups: tuple[tuple[int, np.ndarray], ...]

    def ramp(self, x: np.ndarray) -> np.ndarray:
        """exp(-1j * x[..., None] * q) via one exp per distinct index step.

        The pilot indices are integers, so the ramp is a cumulative
        product of per-step factors base**dq; this replaces Q complex
        exponentials per trial with a handful plus one cumprod.
        """
        base = np.exp(-1j * x)
        fac = np.empty(x.shape + self.q.shape, dtype=np.complex128)
        fac[..., 0] = _int_power(base, self.ramp_q0)
        for power, cols in self.ramp_groups:
            fac[..., cols] = _int_power(base, power)[..., None]
        return np.cumprod(fac, axis=-1)


@functools.lru_cache(maxsize=16)
def grid_tables(grid: PilotGrid, num_paths: int) -> GridTables:
    c = partial_dft(grid, num_paths)
    qi = np.asarray(grid.pilot_indices, dtype=np.int64)
    diffs = np.diff(qi)
    groups = []
    for power in np.unique(diffs):
        cols = np.flatnonzero(diffs == power) + 1
        cols.setflags(write=False)
        groups.append((int(power), cols))
    arrays = dict(
        c=c,
        c_conj=np.ascontiguousarray(c.conj()),
        c_t=np.ascontiguousarray(c.T),
        chc=np.ascontiguousarray(c.conj().T @ c),
        q=np.asarray(grid.pilot_indices, dtype=float),
    )
    q = arrays["q"]
    arrays["ramp_derivs"] = np.stack([np.ones_like(q), -1j * q, -q * q])
    arrays["c3"] = _tap_table(arrays["ramp_derivs"], arrays["c_conj"])
    for a in arrays.values():
        a.setflags(write=False)
    return GridTables(
        chc_diag=np.ascontiguousarray(arrays["chc"].diagonal().real),
        ramp_q0=int(qi[0]),
        ramp_groups=tuple(groups),
        **arrays,
    )


def _tap_table(rows: np.ndarray, c_conj: np.ndarray) -> np.ndarray:
    """(Q, K*L) table ``rows[k, q] * conj(C[q, l])`` at column k*L + l.

    For pilot-domain vectors x of shape (N, Q), ``x @ table`` reshaped to
    (N, K, L) holds ``C^H (rows[k] * x)`` for every k in one GEMM.
    """
    table = np.multiply(rows.T[:, :, None], c_conj[:, None, :], order="C")
    return table.reshape(c_conj.shape[0], -1)


@functools.lru_cache(maxsize=16)
def slope_tables(
    grid: PilotGrid, num_paths: int, num_points: int, bound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarse slope grid and its tables: (slopes, Phi.T, coarse table).

    ``Phi = exp(-1j slopes[:, None] q)`` has shape (G, Q); the coarse
    table is the (Q, G*L) matrix ``Phi[g, q] * conj(C[q, l])`` that
    scores every grid slope in one GEMM (see :func:`_tap_table`).
    """
    slopes = np.linspace(-bound, bound, num_points)
    q = np.asarray(grid.pilot_indices, dtype=float)
    phi = np.exp(-1j * np.outer(slopes, q))
    phi_t = np.ascontiguousarray(phi.T)
    table = _tap_table(phi, grid_tables(grid, num_paths).c_conj)
    for a in (slopes, phi_t, table):
        a.setflags(write=False)
    return slopes, phi_t, table


@dataclass(eq=False)
class StatePrep:
    """Per-step quantities derived from the predicted state batch.

    gs is the scaled Woodbury core ``P^{1/2} G^{-1} P^{1/2}`` so that
    ``Sigma0^{-1} x = x/s2 - C (gs (C^H x)) / s2^2``.  Observations of
    shape ``(..., T, Q)`` broadcast against these ``(T, ...)`` arrays.
    """

    noise_var: float
    gs: np.ndarray       # (T, L, L)
    m: np.ndarray        # (T, Q) predicted DFT-domain channel C mu
    w: np.ndarray        # (T, Q) Sigma0^{-1} m
    m_quad: np.ndarray   # (T,) real m^H Sigma0^{-1} m


def prepare_state(
    mean: np.ndarray,
    cov_diag: np.ndarray,
    noise_var: float,
    tables: GridTables,
) -> StatePrep:
    t, num_paths = mean.shape
    s2 = noise_var
    sp = np.sqrt(cov_diag)
    core = np.eye(num_paths)[None] + (sp[:, :, None] * sp[:, None, :]) * tables.chc[None] / s2
    gs = np.linalg.inv(core)
    gs *= sp[:, :, None] * sp[:, None, :]
    m = mean @ tables.c_t
    w = _apply_whitener(m, gs, s2, tables)
    return StatePrep(noise_var=s2, gs=gs, m=m, w=w, m_quad=_real_dot(m, w))


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(sum(conj(a) * b)) over the last axis, summed over float views.

    Re(conj(a) b) = Re(a) Re(b) + Im(a) Im(b), so viewing each complex
    row as interleaved floats turns the real form into a plain dot
    product, with no ``conj(a)`` copy.  The last axis must be contiguous.
    """
    return np.einsum("...k,...k->...", a.view(np.float64), b.view(np.float64))


def _apply_whitener(
    x: np.ndarray, gs: np.ndarray, s2: float, tables: GridTables
) -> np.ndarray:
    """Sigma0^{-1} x through the Woodbury identity, batched over (..., T)."""
    ctx = x @ tables.c_conj                                   # (..., T, L) C^H x
    g = np.matmul(gs, ctx[..., None])[..., 0]
    return x / s2 - (g @ tables.c_t) / (s2 * s2)


def whitened_quadform(
    r: np.ndarray, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """Return (Sigma0^{-1} r, real quadratic form r^H Sigma0^{-1} r) for r (..., T, Q)."""
    y = _apply_whitener(r, prep.gs, prep.noise_var, tables)
    return y, _real_dot(r, y)


class SearchTerms(NamedTuple):
    """Per-observation inputs of the profiled objective, shapes (..., T, Q) and (..., T).

    For a slope candidate with ramp ``u = exp(-1j slope q)`` the objective
    is ``base_quad - s^H gs s / s2^2 + const - 2 |zc|`` with
    ``s = C^H (u * h)`` and ``zc = sum(u * zvec)``.
    """

    h: np.ndarray          # (..., T, Q) observations
    zvec: np.ndarray       # (..., T, Q) h * conj(Sigma0^{-1} m), or h * conj(m)
    base_quad: np.ndarray  # (..., T) h^H h / s2
    const: np.ndarray      # (T,) m^H Sigma0^{-1} m, or 0


def _search_terms(h_obs: np.ndarray, prep: StatePrep, cfg) -> SearchTerms:
    """The :class:`SearchTerms` of a batch of observations under ``cfg.objective``."""
    whitened = cfg.objective == "whitened"
    zsrc = prep.w if whitened else prep.m
    base_quad = _real_dot(h_obs, h_obs) / prep.noise_var
    const = prep.m_quad if whitened else np.zeros_like(prep.m_quad)
    return SearchTerms(h_obs, h_obs * zsrc.conj(), base_quad, const)


def _candidate_objective(
    ramp: np.ndarray, terms: SearchTerms, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """Offset-profiled objective at one slope candidate per observation.

    ramp is exp(-1j slope q), shape (..., T, Q), so that
    ``(ramp * h) @ conj(C) = C^H (ramp * h)``.
    Returns (objective, zc) with zc the conjugate of the offset coupling
    term; the optimal offset is angle(zc).
    """
    s2 = prep.noise_var
    s = (ramp * terms.h) @ tables.c_conj                      # (..., T, L)
    g = np.matmul(prep.gs, s[..., None])[..., 0]
    quad = terms.base_quad - _real_dot(s, g) / (s2 * s2)
    zc = np.einsum("...q,...q->...", ramp, terms.zvec)
    return quad + terms.const - 2.0 * np.abs(zc), zc


def _slope_derivatives(
    ramp: np.ndarray, terms: SearchTerms, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """First and second slope derivatives of :func:`_candidate_objective`.

    With ``u = ramp``, ``u' = -1j q u`` and ``u'' = -q^2 u``, so
    ``s = C^H (u h)`` and ``zc`` have the exact derivatives
    ``s' = C^H (u' h)``, ``s'' = C^H (u'' h)`` (and likewise ``zc'``,
    ``zc''``).  For ``f = base - s^H G s / s2^2 + const - 2|zc|`` that gives

    * ``f'  = -2 Re(s'^H G s) / s2^2 - 2 Re(conj(zc) zc') / |zc|``
    * ``f'' = -2 [Re(s''^H G s) + s'^H G s'] / s2^2
      - 2 [(|zc'|^2 + Re(conj(zc) zc'')) / |zc| - Re(conj(zc) zc')^2 / |zc|^3]``

    with ``G = prep.gs``.  All three of s, s', s'' come from one GEMM
    against ``tables.c3``, and zc, zc', zc'' from one against
    ``tables.ramp_derivs.T``.  Where ``zc = 0`` (a zero predicted mean
    makes it vanish for every slope) the coupling terms are dropped.
    """
    s2sq = prep.noise_var * prep.noise_var
    s = ((ramp * terms.h) @ tables.c3).reshape(ramp.shape[:-1] + (3, -1))  # (..., T, 3, L)
    zcs = (ramp * terms.zvec) @ tables.ramp_derivs.T          # (..., T, 3): zc, zc', zc''
    zc, zc1, zc2 = zcs[..., 0], zcs[..., 1], zcs[..., 2]
    g = np.matmul(s[..., :2, :], np.conj(prep.gs))           # rows (G s)^T, (G s')^T
    cross = _real_dot(s[..., 1:, :], g[..., :1, :])           # Re(s'^H G s), Re(s''^H G s)
    curv = _real_dot(s[..., 1, :], g[..., 1, :])              # s'^H G s'
    d1 = -2.0 * cross[..., 0] / s2sq
    d2 = -2.0 * (cross[..., 1] + curv) / s2sq
    abs_zc = np.abs(zc)
    inv = np.divide(1.0, abs_zc, out=np.zeros_like(abs_zc), where=abs_zc > 0.0)
    dabs = (zc.real * zc1.real + zc.imag * zc1.imag) * inv   # d|zc|/dx; 0 where zc = 0
    d1 -= 2.0 * dabs
    curv_zc = zc1.real**2 + zc1.imag**2 + zc.real * zc2.real + zc.imag * zc2.imag
    d2 -= 2.0 * (curv_zc * inv - dabs * dabs * inv)
    return d1, d2


# Real parameters phase_search fits on each packet, under either objective:
# the phase offset and the phase slope.  Each absorbs one real degree of
# freedom of the residual (see csiguard.detector.null_dof).
PHASE_PARAMETERS = 2


def phase_search(
    h_obs: np.ndarray,
    prep: StatePrep,
    grid: PilotGrid,
    tables: GridTables,
    cfg,
) -> tuple[np.ndarray, np.ndarray]:
    """Jointly estimate (offset, slope) for a batch of observations.

    ``h_obs`` has shape ``(..., T, Q)``: any leading axes (the harness
    stacks alice's and eve's packets as ``(2, T, Q)``) broadcast against
    the ``(T, ...)`` arrays of ``prep``, and the estimates come back with
    shape ``(..., T)``.  A stacked batch gives the same estimates as
    separate calls.

    Minimizes the whitened residual energy (or, with
    ``cfg.objective == "paper-literal"``, the unwhitened cross-term
    variant) with the offset profiled out in closed form.  The slope is
    first the argmin of ``cfg.slope_grid_points`` equally spaced slopes
    on ``[-bound, bound]``, with ``bound = cfg.slope_bound(grid.dft_size)``,
    all scored by one GEMM against the coarse table of
    :func:`slope_tables`.  It then takes three Newton steps on the exact
    derivatives (:func:`_slope_derivatives`, one GEMM against
    ``tables.c3`` each), each clipped to the grid cells on either side of
    the grid argmin and skipped where the second derivative is not
    positive.  The refined slope is kept only where it scores no worse
    than the grid argmin.  The offset is recovered in closed form at the
    final slope.  Exact objective ties on the grid resolve toward the
    smaller |slope|, then the smaller |offset|.
    """
    s2 = prep.noise_var
    slopes, phi_t, table = slope_tables(
        grid, tables.c.shape[1], cfg.slope_grid_points, cfg.slope_bound(grid.dft_size)
    )

    # Coarse grid, all candidates at once: s[..., g, :] = C^H (phi_g * h).
    # s and g are the largest arrays of the search; they are freed before
    # the per-observation terms are built.
    s = (h_obs @ table).reshape(h_obs.shape[:-1] + (len(slopes), -1))   # (..., T, G, L)
    g = np.matmul(s, np.conj(prep.gs))                        # rows s_g @ gs^T = (gs s_g)^T
    s_gs_s = _real_dot(s, g)
    del s, g
    terms = _search_terms(h_obs, prep, cfg)
    quad = terms.base_quad[..., None] - s_gs_s / (s2 * s2)
    zc = terms.zvec @ phi_t                                   # (..., T, G)
    obj = quad + terms.const[:, None] - 2.0 * np.abs(zc)

    idx = _argmin_with_ties(obj, slopes, zc)
    x0 = slopes[idx]
    lo = slopes[np.maximum(idx - 1, 0)]
    hi = slopes[np.minimum(idx + 1, len(slopes) - 1)]
    f_grid = np.take_along_axis(obj, idx[..., None], axis=-1)[..., 0]
    zc_grid = np.take_along_axis(zc, idx[..., None], axis=-1)[..., 0]
    x = x0
    for _ in range(_NEWTON_STEPS):
        d1, d2 = _slope_derivatives(tables.ramp(x), terms, prep, tables)
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 > 0.0)
        x = np.minimum(np.maximum(x - step, lo), hi)

    f_star, zc_star = _candidate_objective(tables.ramp(x), terms, prep, tables)
    keep = f_star <= f_grid
    slope = np.where(keep, x, x0)
    zc_star = np.where(keep, zc_star, zc_grid)
    return _wrap_offset(np.angle(zc_star)), slope


def _argmin_with_ties(obj: np.ndarray, slopes: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Index of the minimum along the last axis, exact ties toward smaller |slope| then |offset|."""
    best = obj.min(axis=-1, keepdims=True)
    tied = obj == best
    abs_slope = np.where(tied, np.abs(slopes), np.inf)
    best_slope = abs_slope.min(axis=-1, keepdims=True)
    tied &= abs_slope == best_slope
    abs_offset = np.where(tied, np.abs(_wrap_offset(np.angle(zc))), np.inf)
    return np.argmin(abs_offset, axis=-1)


def _wrap_offset(theta: np.ndarray) -> np.ndarray:
    """Map angles from (-pi, pi] (np.angle) onto [-pi, pi)."""
    return np.where(theta >= np.pi, -np.pi, theta)


def kalman_update(
    mean: np.ndarray,
    cov_diag: np.ndarray,
    rotated_residual: np.ndarray,
    y: np.ndarray,
    prep: StatePrep,
    tables: GridTables,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update in the de-rotated frame.

    ``rotated_residual`` is E^H eps and ``y = Sigma0^{-1} rotated_residual``;
    the phase matrices cancel out of both the mean correction
    ``P C^H Sigma0^{-1} (E^H eps)`` and the covariance contraction
    ``P - P C^H Sigma0^{-1} C P``, whose diagonal is kept.
    Returns (new_mean, new_cov_diag); callers decide how to handle
    negative diagonal entries (mathematically the diagonal is >= 0).
    """
    s2 = prep.noise_var
    new_mean = mean + cov_diag * (y @ tables.c_conj)
    a1 = np.matmul(tables.chc[None], prep.gs)                 # (T, L, L)
    quad_diag = np.einsum("tlk,kl->tl", a1, tables.chc).real
    d_diag = tables.chc_diag[None] / s2 - quad_diag / (s2 * s2)
    new_cov = cov_diag * (1.0 - cov_diag * d_diag)
    return new_mean, new_cov
