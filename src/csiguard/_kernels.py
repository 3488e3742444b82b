"""Batched numpy kernels behind the adaptive filter.

Everything here carries a row axis, with a noise variance per row, so
that every trial of every sweep point (R rows) advances in lockstep.  The
per-step state (:class:`StatePrep`) has shape ``(R, ...)``; observations
and residuals have shape ``(..., R, Q)`` and broadcast over it, so the
harness scores alice's and eve's packets of one step as a single
``(2, R, Q)`` batch against the same prediction.

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

* a coarse grid of slopes ``x_g`` spaced ``2 pi / (k M)`` apart, all
  scored at once; its argmin locates the likelihood's main lobe, since
  the spacing, at most ``2 pi / M``, is finer than the lobe's width of
  ``2 pi`` over the pilot span (at most ``M - 1``).  Scoring slope ``x_g`` needs ``s_g = C^H (exp(-1j x_g q) * h)``,
  whose tap-l entry is ``sum_q h_q exp(-1j q (x_g - 2 pi l / M))``: it
  depends on the slope and the tap only through ``x_g - 2 pi l / M``, which
  lies on the same lattice of step ``2 pi / (k M)``.  So ``h`` is
  projected in one flat GEMM onto the distinct lattice ramps,
  ``G + k (L - 1)`` of them at the defaults (:func:`slope_tables`), and
  ``s_g`` is gathered from its columns;
* three Newton steps from the grid argmin, on the exact first and second
  slope derivatives of the profiled objective, each clipped to the grid
  cells on either side of that argmin.  Each step is one flat GEMM
  ``(ramp * h) @ C3`` against the ``(Q, 3L)`` table
  ``C3 = conj(C) * [1, -1j q, -q^2]`` (:attr:`GridTables.c3`), which
  gives ``s`` and its first two slope derivatives.  Leaving the slope at grid
  resolution would leak into the offset estimate through the slope-offset
  coupling of the likelihood.  From within half a grid cell, three steps
  bring the slope within 1e-6 rad of the minimizer (measured worst case
  4e-7 rad, at 30 dB on the default grid) and usually within 1e-10.

The prediction enters the search only through the offset coupling
``zc = sum_q u_q h_q conj((Sigma0^{-1} m)_q)`` for the ramp ``u``.  Since
``m = C mu``, ``Sigma0^{-1} m = C nu`` with the L-vector
``nu = mu / s2 - gs (C^H C mu) / s2^2``, so ``zc = nu^H s`` is read off
the tap projections ``s = C^H (u * h)`` that both stages already form
(and its slope derivatives off ``s'`` and ``s''``).  A zero prediction
(the first step) makes ``zc`` vanish at every slope, so nothing anchors
the slope against a one-bin alias; there the refine also starts one DFT
bin either side of the grid argmin (:func:`phase_search`).

The statistic and the update need only two things of the residual ``r``
at the estimated phases: ``r^H Sigma0^{-1} r`` and the L-vector
``C^H Sigma0^{-1} r``.  Both follow from ``ctx = C^H r`` and
``g = gs ctx`` (:func:`whitened_quadform`), so after one projection of
``r`` nothing per step is Q-dimensional; :func:`phase_search` also hands
back the ramp at the slope it returns, so the residual is de-rotated
without recomputing it.

Real forms ``Re(a^H b)`` are summed over float views of the complex
arrays (:func:`_real_dot`), without forming ``conj(a)``.
"""

from __future__ import annotations

import functools
import math
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

    dft_size: int          # M
    c_conj: np.ndarray     # (Q, L)
    c_t: np.ndarray        # (L, Q) contiguous C.T for right-multiplication
    chc: np.ndarray        # (L, L) C^H C
    q: np.ndarray          # (Q,) pilot indices as float
    c3: np.ndarray         # (Q, 3L) conj(C) * [1, -1j q, -q^2][k], column k*L + l
    ramp_q0: int
    ramp_step: int         # the most common index step
    ramp_groups: tuple[tuple[int, np.ndarray], ...]  # the other steps and their columns

    def ramp(self, x: np.ndarray) -> np.ndarray:
        """exp(-1j * x[..., None] * q) via one exp per distinct index step.

        The pilot indices are integers, so the ramp is a cumulative
        product of per-step factors base**dq; this replaces Q complex
        exponentials per trial with a handful plus one cumprod.  The
        factors are broadcast at the most common step, and only the
        columns of the other steps are overwritten.
        """
        base = np.exp(-1j * x)
        fac = np.empty(x.shape + self.q.shape, dtype=np.complex128)
        fac[..., 0] = _int_power(base, self.ramp_q0)
        fac[..., 1:] = _int_power(base, self.ramp_step)[..., None]
        for power, cols in self.ramp_groups:
            fac[..., cols] = _int_power(base, power)[..., None]
        return np.cumprod(fac, axis=-1)


@functools.lru_cache(maxsize=16)
def grid_tables(grid: PilotGrid, num_paths: int) -> GridTables:
    c = partial_dft(grid, num_paths)
    qi = np.asarray(grid.pilot_indices, dtype=np.int64)
    diffs = np.diff(qi)
    powers, counts = np.unique(diffs, return_counts=True)
    common = int(powers[np.argmax(counts)]) if len(diffs) else 1
    groups = []
    for power in powers[powers != common]:
        cols = np.flatnonzero(diffs == power) + 1
        cols.setflags(write=False)
        groups.append((int(power), cols))
    arrays = dict(
        c_conj=np.ascontiguousarray(c.conj()),
        c_t=np.ascontiguousarray(c.T),
        chc=np.ascontiguousarray(c.conj().T @ c),
        q=np.asarray(grid.pilot_indices, dtype=float),
    )
    q = arrays["q"]
    # d^k/dx^k exp(-1j x q) = exp(-1j x q) * ramp_derivs[k]; column k*L + l
    # of c3 holds ramp_derivs[k, q] * conj(C[q, l]).
    ramp_derivs = np.stack([np.ones_like(q), -1j * q, -q * q])
    c3 = np.multiply(ramp_derivs.T[:, :, None], arrays["c_conj"][:, None, :], order="C")
    arrays["c3"] = c3.reshape(len(q), -1)
    for a in arrays.values():
        a.setflags(write=False)
    return GridTables(
        dft_size=grid.dft_size,
        ramp_q0=int(qi[0]),
        ramp_step=common,
        ramp_groups=tuple(groups),
        **arrays,
    )


def _ceil(x: float) -> int:
    """ceil(x), except that x within rounding error of an integer gives that integer."""
    n = round(x)
    return n if abs(x - n) <= 1e-9 * max(1.0, abs(x)) else math.ceil(x)


@functools.lru_cache(maxsize=16)
def slope_tables(
    tables: GridTables, num_points: int, bound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coarse slope grid on the slope lattice: (slopes, lattice table, gather index).

    The grid is ``j * delta`` for ``|j| <= ceil(bound / delta)``, with
    ``delta = 2 pi / (k M)`` and ``k = ceil(pi (num_points - 1) / (bound M))``
    the fewest lattice points per DFT bin that space the grid no wider
    than ``num_points`` points on ``[-bound, bound]`` would.  It is
    symmetric, holds 0 and covers ``[-bound, bound]``; the default 64 points
    give 65.  (The lattice is never coarser than ``2 pi / M``, so where
    ``2 bound / (num_points - 1)`` exceeds that, k = 1 and the grid holds
    more points than asked for.)

    Tap l of ``C^H (exp(-1j slopes[g] q) * x)`` is ``x`` projected on the
    ramp ``exp(-1j q lam)`` at ``lam = slopes[g] - 2 pi l / M``, which is
    lattice step ``j_g - k l``.  The lattice table holds the ramps of the
    distinct steps in ascending order, ``min(G + k (L - 1), G L)`` columns
    for G slopes; for pilot-domain rows x of shape (N, Q), column
    ``index[g, l]`` of ``x @ table`` is ``(C^H (exp(-1j slopes[g] q) * x))[l]``.
    Tap 0 holds the largest steps, so columns ``index[0, 0]:`` are ``x``
    projected on each grid ramp.  The cache is
    keyed on the identity of ``tables``, which :func:`grid_tables` returns
    once per (grid, channel length).
    """
    k = max(1, _ceil(np.pi * (num_points - 1) / (bound * tables.dft_size)))
    delta = 2.0 * np.pi / (k * tables.dft_size)
    half = _ceil(bound / delta)
    j = np.arange(-half, half + 1)
    slopes = j * delta
    # Lattice step j - k l of each (slope, tap); only the steps used are projected.
    steps, index = np.unique(j[:, None] - k * np.arange(tables.c_conj.shape[1]), return_inverse=True)
    index = index.reshape(len(j), -1)
    table = np.exp(-1j * np.outer(tables.q, steps * delta))
    for a in (slopes, table, index):
        a.setflags(write=False)
    return slopes, table, index


@dataclass(eq=False)
class StatePrep:
    """Per-step quantities derived from the predicted state batch.

    gs is the scaled Woodbury core ``P^{1/2} G^{-1} P^{1/2}`` so that
    ``Sigma0^{-1} x = x/s2 - C (gs (C^H x)) / s2^2``.  With ``m = C mu``
    that makes ``Sigma0^{-1} m = C nu`` for the L-vector
    ``nu = mu/s2 - gs (C^H m) / s2^2``, held conjugated so that the offset
    coupling is ``zc = s @ nu_conj``.  A zero predicted mean gives exactly
    ``nu = 0``.  Observations of shape ``(..., R, Q)`` broadcast against
    these ``(R, ...)`` arrays.
    """

    noise_var: np.ndarray  # (R,) s2 per row (prepare_state also takes a scalar)
    gs: np.ndarray       # (R, L, L)
    m: np.ndarray        # (R, Q) predicted DFT-domain channel C mu
    nu_conj: np.ndarray  # (R, L) conj(nu), Sigma0^{-1} m = C nu
    m_quad: np.ndarray   # (R,) real m^H Sigma0^{-1} m = Re((C^H m)^H nu)


def prepare_state(
    mean: np.ndarray,
    cov_diag: np.ndarray,
    noise_var: float | np.ndarray,
    tables: GridTables,
) -> StatePrep:
    rows, num_paths = mean.shape
    s2 = np.full(rows, noise_var, dtype=float)[:, None]      # (R, 1)
    sp = np.sqrt(cov_diag)
    outer = sp[:, :, None] * sp[:, None, :]
    gs = np.linalg.inv(np.eye(num_paths)[None] + outer * tables.chc[None] / s2[..., None])
    gs *= outer
    m = mean @ tables.c_t
    chm = m @ tables.c_conj                                   # (R, L) C^H m
    nu = mean / s2 - np.matmul(gs, chm[..., None])[..., 0] / (s2 * s2)
    return StatePrep(noise_var=s2[:, 0], gs=gs, m=m, nu_conj=nu.conj(), m_quad=_real_dot(chm, nu))


def _real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(sum(conj(a) * b)) over the last axis, summed over float views.

    Re(conj(a) b) = Re(a) Re(b) + Im(a) Im(b), so viewing each complex
    row as interleaved floats turns the real form into a plain dot
    product, with no ``conj(a)`` copy.  The last axis must be contiguous.
    """
    return np.einsum("...k,...k->...", a.view(np.float64), b.view(np.float64))


def whitened_quadform(
    r: np.ndarray, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """Return (C^H Sigma0^{-1} r, real quadratic form r^H Sigma0^{-1} r) for r (..., R, Q).

    Through the Woodbury identity, with ``ctx = C^H r`` and ``g = gs ctx``,
    ``C^H Sigma0^{-1} r = ctx/s2 - (C^H C) g/s2^2`` and
    ``r^H Sigma0^{-1} r = ||r||^2/s2 - Re(ctx^H g)/s2^2``, batched over
    (..., R); the first is ``(..., R, L)``, the second ``(..., R)``.  The
    energy ``||r||^2`` is summed from ``r`` itself.  The search's profiled
    objective equals the same form at its optimum, but as ``||h||^2/s2``
    less terms of about its size, which cancel to a few digits at high SNR.
    """
    s2 = prep.noise_var
    ctx = r @ tables.c_conj                                   # (..., R, L) C^H r
    g = np.matmul(prep.gs, ctx[..., None])[..., 0]
    ch_y = ctx / s2[:, None] - (g @ tables.chc.T) / (s2 * s2)[:, None]
    return ch_y, _real_dot(r, r) / s2 - _real_dot(ctx, g) / (s2 * s2)


class SearchTerms(NamedTuple):
    """Per-observation inputs of the profiled objective, shapes (..., R, Q) and (..., R).

    For a slope candidate with ramp ``u = exp(-1j slope q)`` the whitened
    residual energy, minimized over the offset, is
    ``base_quad - s^H gs s / s2^2 + m_quad - 2 |zc|`` with
    ``s = C^H (u * h)``, ``zc = s @ nu_conj`` and ``nu_conj``, ``m_quad``
    from :class:`StatePrep`.
    """

    h: np.ndarray          # (..., R, Q) observations
    base_quad: np.ndarray  # (..., R) h^H h / s2


def _candidate_objective(
    ramp: np.ndarray, terms: SearchTerms, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """Offset-profiled objective at one slope candidate per observation.

    ramp is exp(-1j slope q), shape (..., R, Q), so that
    ``(ramp * h) @ conj(C) = C^H (ramp * h)``.
    Returns (objective, zc) with zc the conjugate of the offset coupling
    term; the optimal offset is angle(zc).
    """
    s2 = prep.noise_var
    s = (ramp * terms.h) @ tables.c_conj                      # (..., R, L)
    g = np.matmul(prep.gs, s[..., None])[..., 0]
    quad = terms.base_quad - _real_dot(s, g) / (s2 * s2)
    zc = np.einsum("...l,...l->...", s, prep.nu_conj)
    return quad + prep.m_quad - 2.0 * np.abs(zc), zc


def _slope_derivatives(
    ramp: np.ndarray, terms: SearchTerms, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """First and second slope derivatives of :func:`_candidate_objective`.

    With ``u = ramp``, ``u' = -1j q u`` and ``u'' = -q^2 u``, so
    ``s = C^H (u h)`` and ``zc = nu^H s`` have the exact derivatives
    ``s' = C^H (u' h)``, ``s'' = C^H (u'' h)``, ``zc' = nu^H s'`` and
    ``zc'' = nu^H s''``.  For ``f = base - s^H G s / s2^2 + m_quad - 2|zc|``
    that gives

    * ``f'  = -2 Re(s'^H G s) / s2^2 - 2 Re(conj(zc) zc') / |zc|``
    * ``f'' = -2 [Re(s''^H G s) + s'^H G s'] / s2^2
      - 2 [(|zc'|^2 + Re(conj(zc) zc'')) / |zc| - Re(conj(zc) zc')^2 / |zc|^3]``

    with ``G = prep.gs``.  All three of s, s', s'' come from one GEMM
    against ``tables.c3``, and zc, zc', zc'' from one product with
    ``prep.nu_conj``.  Where ``zc = 0`` (a zero predicted mean
    makes it vanish for every slope) the coupling terms are dropped.
    """
    s2sq = prep.noise_var * prep.noise_var
    s = ((ramp * terms.h) @ tables.c3).reshape(ramp.shape[:-1] + (3, -1))  # (..., R, 3, L)
    zcs = np.matmul(s, prep.nu_conj[..., None])[..., 0]      # (..., R, 3): zc, zc', zc''
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


# Real parameters phase_search fits on each packet: the phase offset and
# the phase slope.  Each absorbs one real degree of freedom of the residual
# (see csiguard.detector.null_dof).
PHASE_PARAMETERS = 2


def phase_search(
    h_obs: np.ndarray,
    prep: StatePrep,
    tables: GridTables,
    slope_points: int,
    bound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly estimate (offset, slope) for a batch of observations.

    ``h_obs`` has shape ``(..., R, Q)``: any leading axes (the harness
    passes the ``(2, R, Q)`` observations of both links) broadcast against
    the ``(R, ...)`` arrays of ``prep``, and the estimates come back with
    shape ``(..., R)``.  A stacked batch gives the same estimates as
    separate calls.  Returns (offset, slope, ramp), where ``ramp`` is
    ``tables.ramp(slope)``, shape ``(..., R, Q)``, bit for bit: it is the
    ramp of the final objective, recomputed only on rows where Newton
    moved the slope but the grid slope scored better; it is fresh.

    Minimizes the whitened residual energy with the offset profiled out
    in closed form.  The slope is first the argmin of the grid of
    :func:`slope_tables` (the harness passes ``search.slope_points`` and
    the drawn slope range ``phase.max_slope``), scored by one GEMM.
    It then takes three Newton steps on the exact derivatives
    (:func:`_slope_derivatives`, one GEMM against ``tables.c3`` each), each
    clipped to the grid cells on either side of the grid argmin and skipped
    where the second derivative is not positive.  The refined slope is
    kept only where it scores no worse than the grid argmin.  Where the
    whole batch's prediction is zero, the refine also starts from the grid
    points one DFT bin either side of the argmin, and the lowest of the
    three objectives wins.  The offset is recovered in closed form at the
    final slope.  Exact objective ties on
    the grid resolve toward the smaller |slope|, then the smaller |offset|.
    """
    s2 = prep.noise_var
    slopes, table, index = slope_tables(tables, slope_points, bound)
    proj, s, g = _coarse_workspace(h_obs.shape, table.shape[1], index.shape)
    terms = SearchTerms(h_obs, _real_dot(h_obs, h_obs) / s2)

    # Coarse grid, all candidates at once: one GEMM projects h on every
    # lattice ramp; link by link, s[r, g, :] = C^H (phi_g * h) is gathered
    # from its columns and zc[..., g] = nu^H s_g.  (mode="clip" lets take
    # write straight into the buffer; "raise" would gather into a
    # temporary first.  index is always in range.)
    np.matmul(h_obs.reshape(-1, h_obs.shape[-1]), table, out=proj.reshape(-1, proj.shape[-1]))
    quad = np.empty(h_obs.shape[:-1] + slopes.shape)          # (..., R, G)
    zc = np.empty_like(quad, dtype=np.complex128)
    for link in np.ndindex(h_obs.shape[:-2]):
        np.take(proj[link], index, axis=-1, out=s, mode="clip")  # (R, G, L)
        np.matmul(s, np.conj(prep.gs), out=g)                 # rows s_g @ gs^T = (gs s_g)^T
        quad[link] = _real_dot(s, g)
        np.matmul(s, prep.nu_conj[..., None], out=zc[link][..., None])
    quad = terms.base_quad[..., None] - quad / (s2 * s2)[:, None]
    obj = quad + prep.m_quad[:, None] - 2.0 * np.abs(zc)

    last = len(slopes) - 1

    def refine(idx):
        """(objective, slope, zc, ramp) after Newton from grid point idx, no worse than it."""
        x0 = slopes[idx]
        lo = slopes[np.maximum(idx - 1, 0)]
        hi = slopes[np.minimum(idx + 1, last)]
        x = x0
        for _ in range(_NEWTON_STEPS):
            d1, d2 = _slope_derivatives(tables.ramp(x), terms, prep, tables)
            step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 > 0.0)
            x = np.minimum(np.maximum(x - step, lo), hi)
        u = tables.ramp(x)
        f_star, zc_star = _candidate_objective(u, terms, prep, tables)
        f_grid = np.take_along_axis(obj, idx[..., None], axis=-1)[..., 0]
        zc_grid = np.take_along_axis(zc, idx[..., None], axis=-1)[..., 0]
        keep = f_star <= f_grid
        # Rows that fall back to the grid slope after Newton moved need its
        # ramp; ramp works row by row, so this matches ramp of the returned
        # slope.  (Most fallback rows are ones Newton never moved.)
        moved = ~keep & (x != x0)
        if moved.any():
            u[moved] = tables.ramp(x0[moved])
        return (
            np.where(keep, f_star, f_grid),
            np.where(keep, x, x0),
            np.where(keep, zc_star, zc_grid),
            u,
        )

    idx = _argmin_with_ties(obj, slopes, zc)
    f_best, slope, zc_best, u_best = refine(idx)
    if not prep.nu_conj.any():
        # A zero prediction (the first step) leaves zc = 0 at every slope,
        # so nothing anchors the slope frame: a slope one DFT bin off is a
        # one-tap cyclic delay, and at high SNR the true lobe can be too
        # narrow for its grid point to beat that alias lobe's.  Refine from
        # one bin (k lattice cells) either side too and keep the lowest.
        k = round(2.0 * np.pi / (tables.dft_size * (slopes[1] - slopes[0])))
        for start in (np.maximum(idx - k, 0), np.minimum(idx + k, last)):
            f_alias, slope_alias, zc_alias, u_alias = refine(start)
            better = f_alias < f_best
            f_best = np.where(better, f_alias, f_best)
            slope = np.where(better, slope_alias, slope)
            zc_best = np.where(better, zc_alias, zc_best)
            u_best = np.where(better[..., None], u_alias, u_best)
    return _wrap_offset(np.angle(zc_best)), slope, u_best


@functools.lru_cache(maxsize=4)
def _coarse_workspace(
    obs_shape: tuple[int, ...], num_columns: int, index_shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The complex arrays that :func:`phase_search`'s coarse stage reuses for one shape.

    For ``h_obs`` of shape ``obs_shape = (..., R, Q)``, a lattice table of
    C = ``num_columns`` columns and a gather index of shape
    ``index_shape = (G, L)``, returns (proj, s, g):

    * proj ``(..., R, C)``: h projected on the lattice ramps, all links in
      one GEMM (one link of one row would round differently);
    * s and g ``(R, G, L)``: ``C^H (phi_g * h)`` and ``(gs s_g)^T``, one link.

    Allocated afresh, arrays of these sizes (about 0.5 MB each at R = 64)
    go back to the system when freed and page-fault again on the next
    step (glibc malloc's mmap and trim thresholds).  Reusing them means
    that phase_search must not run in two threads at once.
    """
    proj = np.empty((*obs_shape[:-1], num_columns), dtype=np.complex128)
    s = np.empty((obs_shape[-2], *index_shape), dtype=np.complex128)
    return proj, s, np.empty_like(s)


def _argmin_with_ties(obj: np.ndarray, slopes: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Index of the minimum along the last axis, exact ties toward smaller |slope| then |offset|.

    The offset angle is computed only on the entries still tied after the
    slope rule, usually one per row.  (Its magnitude needs no
    :func:`_wrap_offset`: pi and -pi have the same.)
    """
    best = obj.min(axis=-1, keepdims=True)
    tied = obj == best
    abs_slope = np.where(tied, np.abs(slopes), np.inf)
    best_slope = abs_slope.min(axis=-1, keepdims=True)
    tied &= abs_slope == best_slope
    abs_offset = np.full(obj.shape, np.inf)
    abs_offset[tied] = np.abs(np.angle(zc[tied]))
    return np.argmin(abs_offset, axis=-1)


def _wrap_offset(theta: np.ndarray) -> np.ndarray:
    """Map angles from (-pi, pi] (np.angle) onto [-pi, pi)."""
    return np.where(theta >= np.pi, -np.pi, theta)


def kalman_update(
    mean: np.ndarray,
    cov_diag: np.ndarray,
    ch_y: np.ndarray,
    prep: StatePrep,
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update in the de-rotated frame.

    ``ch_y = C^H Sigma0^{-1} (E^H eps)``, shape ``(R, L)``, is the
    projected whitened de-rotated residual from :func:`whitened_quadform`;
    the phase matrices cancel out of the mean correction
    ``P C^H Sigma0^{-1} (E^H eps)``.  The posterior covariance
    ``(P^{-1} + C^H C / s2)^{-1} = P^{1/2} G^{-1} P^{1/2}`` is ``prep.gs``,
    whose diagonal is kept; reading it there, rather than forming
    ``P - P C^H Sigma0^{-1} C P``, avoids a difference that cancels to a
    rounding error (and can go negative) once ``s2`` is far below ``P``.
    Returns (new_mean, new_cov_diag).
    """
    new_mean = mean + cov_diag * ch_y
    new_cov = np.diagonal(prep.gs, axis1=-2, axis2=-1).real.copy()
    return new_mean, new_cov
