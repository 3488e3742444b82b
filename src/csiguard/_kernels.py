"""Batched numpy kernels behind the adaptive filter.

Every trial of every sweep point advances in lockstep as a row (R rows),
with one covariance and noise variance per group of consecutive rows, a
point's (P groups, :func:`prepare_state`).  The per-step state
(:class:`StatePrep`) is ``(R, ...)``, its Woodbury core ``(P, ...)``;
observations and residuals are ``(..., R, Q)`` and broadcast over it, so
:func:`filter_step` scores alice's and eve's packets as one ``(2, R, Q)`` batch.

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
  ``(ramp * h) @ C3`` against ``C3 = conj(C) * [1, -1j q, -q^2]``
  (:attr:`GridTables.c3`), giving ``s`` and its first two slope derivatives,
  whose real forms are entries of two 2 x 2 Gram products
  (:func:`_slope_derivatives`); the first step takes the grid point's exact
  ramp from :func:`slope_tables`.  Leaving the slope at grid resolution
  would leak into the offset estimate through the slope-offset coupling of
  the likelihood.  Three steps usually bring the slope within 1e-10 rad of
  the minimizer, but not always: against ten steps from the same grid point
  (default grid, 17,920 searches per SNR) they ended up to 1.4e-5 rad away
  at 10 dB and up to 1.8e-4 rad at 60 dB, where the minimizer lay
  0.38-0.52 cell from the grid point (ROADMAP item 7).

The prediction enters the search only through the offset coupling
``zc = sum_q u_q h_q conj((Sigma0^{-1} m)_q)`` for the ramp ``u``.  Since
``m = C mu``, ``Sigma0^{-1} m = C nu`` with the L-vector
``nu = gs (mu / P) / s2`` (``P`` the diagonal prior covariance and ``gs``
the posterior one, :class:`StatePrep`), so ``zc = nu^H s`` is read off
the tap projections ``s = C^H (u * h)`` that both stages already form
(and its slope derivatives off ``s'`` and ``s''``).  A zero prediction
(the first step) makes ``zc`` vanish at every slope, so nothing anchors
the slope against a one-bin alias; there the refine also starts one DFT
bin either side of the grid argmin (:func:`phase_search`).

Real forms ``Re(a^H b)`` are summed over float views of the complex
arrays (:func:`_real_dot`), without forming ``conj(a)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .observation import PilotGrid, partial_dft

# Newton steps taken on the slope after the coarse grid.
_NEWTON_STEPS = 3


# -1j with a +0.0 real part.  Python's -1j is complex(-0.0, -1.0), whose
# product with slope +0.0 has imaginary part -0.0; this one's has +0.0, so
# the ramp at slope +0.0 is exactly 1 + 0j in every column, as at -0.0.
_MINUS_J = complex(0.0, -1.0)


@dataclass(frozen=True, eq=False)
class GridTables:
    """Constant per-(grid, channel length) arrays used by every step."""

    dft_size: int          # M
    c_conj: np.ndarray     # (Q, L)
    c_t: np.ndarray        # (L, Q) contiguous C.T for right-multiplication
    chc: np.ndarray        # (L, L) C^H C
    q: np.ndarray          # (Q,) pilot indices as float
    c3: np.ndarray         # (Q, 3L) conj(C) * [1, -1j q, -q^2][k], column k*L + l
    ramp_powers: tuple[int, ...]  # distinct exponents of the ramp's factors, ascending
    ramp_index: np.ndarray  # (Q,) column i's factor is base**ramp_powers[ramp_index[i]]

    def ramp(self, x: np.ndarray) -> np.ndarray:
        """exp(-1j * x[..., None] * q) as a cumulative product of per-column factors.

        The pilot indices are integers, so with ``base = exp(-1j x)``
        column 0 of the ramp is ``base**q_0`` and column i is column
        i - 1 times ``base**(q_i - q_{i-1})``.  Each distinct exponent
        (q_0 = 2 and the index steps 1 and 12 on the default grid) gets its
        power once, by square-and-multiply on squarings that all powers
        share, multiplying the set bits' squares from the lowest bit up.
        One take gathers the powers to their columns and one cumulative
        product follows; this replaces Q complex exponentials per slope.
        The result is a fresh array.
        """
        base = np.exp(_MINUS_J * x)
        squares = [base]                                      # base**(2**bit)
        powers = np.empty(base.shape + (len(self.ramp_powers),), dtype=np.complex128)
        for j, k in enumerate(self.ramp_powers):
            power = None
            for bit in range(k.bit_length()):
                if bit == len(squares):
                    squares.append(squares[-1] * squares[-1])
                if k >> bit & 1:
                    power = squares[bit] if power is None else power * squares[bit]
            powers[..., j] = 1.0 if power is None else power
        fac = powers.take(self.ramp_index, axis=-1)
        # Into a new array, not over fac: in place, a 64-trial run_batch
        # took about 36k minor page faults against 15k (glibc's heap trims).
        return np.multiply.accumulate(fac, axis=-1)


@functools.lru_cache(maxsize=16)
def grid_tables(grid: PilotGrid, num_paths: int) -> GridTables:
    c = partial_dft(grid, num_paths)
    qi = np.asarray(grid.pilot_indices, dtype=np.int64)
    # Column i's factor exponent: q_0, then the index steps.
    powers, ramp_index = np.unique(np.concatenate([qi[:1], np.diff(qi)]), return_inverse=True)
    arrays = dict(
        c_conj=np.ascontiguousarray(c.conj()),
        c_t=np.ascontiguousarray(c.T),
        chc=np.ascontiguousarray(c.conj().T @ c),
        q=np.asarray(grid.pilot_indices, dtype=float),
        ramp_index=ramp_index,
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
        ramp_powers=tuple(int(k) for k in powers),
        **arrays,
    )


def _ceil(x: float) -> int:
    """ceil(x), except that x within rounding error of an integer gives that integer."""
    n = round(x)
    return n if abs(x - n) <= 1e-9 * max(1.0, abs(x)) else math.ceil(x)


@functools.lru_cache(maxsize=16)
def slope_tables(
    tables: GridTables, num_points: int, bound: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coarse slope grid on the slope lattice: (slopes, lattice table, gather index, grid ramps).

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
    projected on each grid ramp; row g of the ``(G, Q)`` grid ramps is column
    ``index[g, 0]``, the direct ``exp(-1j slopes[g] q)`` (not
    :meth:`GridTables.ramp`'s product).  The cache is keyed on the identity
    of ``tables``, which :func:`grid_tables` returns once per (grid, channel length).
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
    ramps = table.T[index[:, 0]]                              # (G, Q) exp(-1j slopes[g] q)
    for a in (slopes, table, index, ramps):
        a.setflags(write=False)
    return slopes, table, index, ramps


@dataclass(eq=False)
class StatePrep:
    """Per-step quantities derived from the predicted state batch.

    gs is the scaled Woodbury core ``P^{1/2} G^{-1} P^{1/2}`` so that
    ``Sigma0^{-1} x = x/s2 - C (gs (C^H x)) / s2^2``; it is also the
    posterior covariance ``(P^{-1} + C^H C / s2)^{-1}``, from which
    :func:`kalman_update` reads the new mean and covariance.  With ``m = C mu``
    that makes ``Sigma0^{-1} m = C nu`` for the L-vector
    ``nu = gs (mu / P) / s2``, held conjugated so that the offset
    coupling is ``zc = s @ nu_conj``.  A zero predicted mean gives exactly
    ``nu = 0``.  Observations of shape ``(..., R, Q)`` broadcast against
    the ``(R, ...)`` arrays; ``gs`` is one matrix per group of R / P
    consecutive rows (:func:`prepare_state`).
    """

    noise_var: np.ndarray  # (R,) s2 per row, its group's
    gs: np.ndarray       # (P, L, L)
    gs_conj: np.ndarray  # (P, L, L) conj(gs): row vectors s times it give (gs s)^T
    m: np.ndarray        # (R, Q) predicted DFT-domain channel C mu
    nu_conj: np.ndarray  # (R, L) conj(nu), Sigma0^{-1} m = C nu


def prepare_state(
    mean: np.ndarray,
    cov_diag: np.ndarray,
    noise_var: float | np.ndarray,
    tables: GridTables,
) -> StatePrep:
    """The per-step arrays of R predicted rows that share P covariances.

    ``mean`` holds the R rows' predicted taps, ``(R, L)``.  ``cov_diag``
    holds P diagonal covariances, ``(P, L)``, and ``noise_var`` P noise
    variances, ``(P,)``, or one scalar for all: group p is the R / P
    consecutive rows ``p R / P`` to ``(p + 1) R / P - 1``, so P must divide
    R.  The covariance recursion never reads an observation, so every trial
    of a sweep point shares one covariance; run_batch lays its rows out
    point-major and passes one group per point.  P = R gives every row its
    own covariance.  One Woodbury core is inverted per group, and every
    product with ``gs`` runs as one GEMM per group on its rows.
    """
    rows, num_paths = mean.shape
    s2 = np.full(len(cov_diag), noise_var, dtype=float)[:, None, None]  # (P, 1, 1)
    sp = np.sqrt(cov_diag)
    outer = sp[:, :, None] * sp[:, None, :]
    gs = np.linalg.inv(np.eye(num_paths)[None] + outer * tables.chc[None] / s2)
    gs *= outer
    gs_conj = gs.conj()
    m = mean @ tables.c_t
    # nu^T = (mean / P)^T gs^T, one GEMM per group.
    nu = np.matmul(mean.reshape(len(gs), -1, num_paths) / cov_diag[:, None], gs_conj) / s2
    return StatePrep(noise_var=s2.ravel().repeat(rows // len(gs)), gs=gs, gs_conj=gs_conj,
                     m=m, nu_conj=nu.reshape(rows, num_paths).conj())


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
    """Return (g, real quadratic form r^H Sigma0^{-1} r) for r (..., R, Q).

    With ``ctx = C^H r``, ``g = gs ctx`` is ``(..., R, L)``, and ``g / s2``
    is the mean correction ``P C^H Sigma0^{-1} r`` (:func:`kalman_update`).
    Through the Woodbury identity
    ``r^H Sigma0^{-1} r = ||r||^2/s2 - Re(ctx^H g)/s2^2``, ``(..., R)``,
    with the energy ``||r||^2`` summed from ``r`` itself.
    """
    s2 = prep.noise_var
    ctx = r @ tables.c_conj                                   # (..., R, L) C^H r
    grouped = ctx.shape[:-2] + (len(prep.gs), -1, ctx.shape[-1])
    g = np.matmul(ctx.reshape(grouped), prep.gs_conj).reshape(ctx.shape)
    return g, _real_dot(r, r) / s2 - _real_dot(ctx, g) / (s2 * s2)


def _candidate_objective(
    ramp: np.ndarray, h: np.ndarray, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """Offset-profiled objective at one slope candidate per observation.

    For observations h and the ramp ``u = exp(-1j slope q)``, both
    (..., R, Q), ``f = -s^H gs s / s2^2 - 2 |zc|`` with
    ``s = (u * h) @ conj(C) = C^H (u * h)`` and ``zc = s @ nu_conj``: the
    whitened residual energy at the optimal offset, less
    ``h^H h / s2 + m^H Sigma0^{-1} m``, which no candidate of a row changes.
    Returns (f, zc) with zc the conjugate of the offset coupling term; the
    optimal offset is angle(zc).
    """
    s2 = prep.noise_var
    s = (ramp * h) @ tables.c_conj                            # (..., R, L)
    grouped = s.shape[:-2] + (len(prep.gs), -1, s.shape[-1])
    g = np.matmul(s.reshape(grouped), prep.gs_conj).reshape(s.shape)
    zc = np.einsum("...l,...l->...", s, prep.nu_conj)
    return -_real_dot(s, g) / (s2 * s2) - 2.0 * np.abs(zc), zc


def _slope_derivatives(
    ramp: np.ndarray, h: np.ndarray, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """First and second slope derivatives of :func:`_candidate_objective`.

    With ``u = ramp``, ``u' = -1j q u`` and ``u'' = -q^2 u``, so
    ``s = C^H (u h)`` and ``zc = nu^H s`` have the exact derivatives
    ``s' = C^H (u' h)``, ``s'' = C^H (u'' h)``, ``zc' = nu^H s'`` and
    ``zc'' = nu^H s''``.  For ``f = -s^H G s / s2^2 - 2|zc|``
    that gives

    * ``f'  = -2 Re(s'^H G s) / s2^2 - 2 Re(conj(zc) zc') / |zc|``
    * ``f'' = -2 [Re(s''^H G s) + s'^H G s'] / s2^2
      - 2 [(|zc'|^2 + Re(conj(zc) zc'')) / |zc| - Re(conj(zc) zc')^2 / |zc|^3]``

    with ``G = prep.gs``.  One GEMM against ``tables.c3`` gives s, s', s'' and
    one product with ``prep.nu_conj`` zc, zc', zc''.  Entry (i, j) of two real
    2 x 2 Gram products is ``Re(s_(i+1)^H G s_j)`` (float views of [s', s'']
    times the rows G s, G s', so no ``conj``) and ``Re(conj(zc_(i+1)) zc_j)``:
    f' reads (0, 0) of each, f'' (1, 0) + (0, 1).  Where ``zc = 0`` (a zero
    predicted mean makes it vanish for every slope) the coupling terms are dropped.
    """
    s2sq = prep.noise_var * prep.noise_var
    s = ((ramp * h) @ tables.c3).reshape(ramp.shape[:-1] + (3, -1))  # (..., R, 3, L)
    zcs = np.matmul(s, prep.nu_conj[..., None])               # (..., R, 3, 1): zc, zc', zc''
    grouped = s.shape[:-3] + (len(prep.gs), -1, s.shape[-1])  # one GEMM per group; G s'' unused
    g = np.matmul(s.reshape(grouped), prep.gs_conj).reshape(s.shape)[..., :2, :]
    quad = np.einsum("...ik,...jk->...ij", s[..., 1:, :].view(np.float64), g.view(np.float64))
    coup = (zcs[..., 1:, :].conj() * zcs[..., :2, :].swapaxes(-1, -2)).real
    abs_zc = np.abs(zcs[..., 0, 0])
    inv = np.divide(1.0, abs_zc, out=np.zeros(abs_zc.shape), where=abs_zc > 0.0)
    gram = quad / s2sq[:, None, None] + coup * inv[..., None, None]  # (..., R, 2, 2)
    dabs = coup[..., 0, 0] * inv                              # d|zc|/dx; 0 where zc = 0
    return -2.0 * gram[..., 0, 0], -2.0 * (gram[..., 1, 0] + gram[..., 0, 1] - dabs * dabs * inv)


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

    ``h_obs`` has shape ``(..., R, Q)``: any leading axes (:func:`filter_step`
    passes the ``(2, R, Q)`` observations of both links) broadcast against
    the ``(R, ...)`` arrays of ``prep``, and the estimates come back with
    shape ``(..., R)``.  A stacked batch gives the same estimates as
    separate calls.  Returns (offset, slope, ramp), where ``ramp`` is
    ``tables.ramp(slope)``, shape ``(..., R, Q)``, bit for bit: it is the
    ramp of the final objective, recomputed only on rows where Newton
    moved the slope but the grid slope scored better; it is fresh.

    Minimizes the whitened residual energy, less a constant per row
    (:func:`_candidate_objective`), with the offset profiled out in closed
    form.  The slope is first the argmin of the grid of
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
    slopes, table, index, ramps = slope_tables(tables, slope_points, bound)
    proj, s, g = _coarse_workspace(h_obs.shape, table.shape[1], index.shape)

    # Coarse grid, all candidates at once: one GEMM projects h on every
    # lattice ramp; link by link, s[r, g, :] = C^H (phi_g * h) is gathered
    # from its columns and zc[..., g] = nu^H s_g.  (mode="clip" lets take
    # write straight into the buffer; "raise" would gather into a
    # temporary first.  index is always in range.)
    np.matmul(h_obs.reshape(-1, h_obs.shape[-1]), table, out=proj.reshape(-1, proj.shape[-1]))
    s_grouped, g_grouped = (a.reshape(len(prep.gs), -1, a.shape[-1]) for a in (s, g))
    quad = np.empty(h_obs.shape[:-1] + slopes.shape)          # (..., R, G)
    zc = np.empty_like(quad, dtype=np.complex128)
    for link in np.ndindex(h_obs.shape[:-2]):
        proj[link].take(index, axis=-1, out=s, mode="clip")   # (R, G, L)
        np.matmul(s_grouped, prep.gs_conj, out=g_grouped)     # per group, rows (gs s_g)^T
        quad[link] = _real_dot(s, g)
        np.matmul(s, prep.nu_conj[..., None], out=zc[link][..., None])
    obj = -quad / (s2 * s2)[:, None] - 2.0 * np.abs(zc)

    last = len(slopes) - 1
    # Flat index of each row's grid point 0 in obj and zc.
    row_start = np.arange(0, obj.size, len(slopes)).reshape(obj.shape[:-1])

    def refine(idx):
        """(objective, slope, zc, ramp) after Newton from grid point idx, no worse than it."""
        x0 = slopes[idx]
        lo = slopes[np.maximum(idx - 1, 0)]
        hi = slopes[np.minimum(idx + 1, last)]
        x = x0
        for n in range(_NEWTON_STEPS):
            # Step 1 reads x0's exact ramp; each ramp is freed before the next is built.
            d1, d2 = _slope_derivatives(
                tables.ramp(x) if n else ramps.take(idx, axis=0), h_obs, prep, tables
            )
            step = np.divide(d1, d2, out=np.zeros(d1.shape), where=d2 > 0.0)
            x = np.minimum(np.maximum(x - step, lo), hi)
        u = tables.ramp(x)
        f_star, zc_star = _candidate_objective(u, h_obs, prep, tables)
        flat = row_start + idx
        f_grid = obj.take(flat)
        zc_grid = zc.take(flat)
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

    Where every row has exactly one entry equal to its minimum (no exact
    tie and no NaN in the batch) that entry's index is returned at once.
    Otherwise the whole rule runs on every row, and the offset angle is
    computed only on the entries still tied after the slope rule, usually
    one per row.  (Its magnitude needs no :func:`_wrap_offset`: pi and -pi
    have the same.)
    """
    best = obj.min(axis=-1, keepdims=True)
    tied = obj == best
    if np.count_nonzero(tied) == best.size and not np.isnan(best).any():
        return tied.argmax(axis=-1)                           # one minimum per row
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
    mean: np.ndarray, g: np.ndarray, prep: StatePrep
) -> tuple[np.ndarray, np.ndarray]:
    """Measurement update in the de-rotated frame, in information form.

    ``g = gs C^H (E^H eps)``, shape ``(R, L)``, comes from
    :func:`whitened_quadform` on the de-rotated residual; the phase
    matrices cancel out of the update.  ``prep.gs`` is the posterior
    covariance ``(P^{-1} + C^H C / s2)^{-1}``, so the mean correction
    ``P C^H Sigma0^{-1} (E^H eps)`` is ``g / s2`` and the new covariance
    is the diagonal of ``gs``, ``(P, L)``.  Their Woodbury forms cancel to a rounding
    error once ``s2`` is far below ``P`` (the covariance's can go negative).
    Returns (new_mean, new_cov_diag).
    """
    new_mean = mean + g / prep.noise_var[:, None]
    new_cov = np.diagonal(prep.gs, axis1=-2, axis2=-1).real.copy()
    return new_mean, new_cov


def filter_step(mean, cov, h_obs, alpha, process_noise, noise_var, tables, slope_points, bound):
    """One filter step over R rows: predict, search and score both links, update from alice's.

    ``mean`` is ``(R, L)`` and ``h_obs`` the ``(2, R, Q)`` observations, alice in row 0;
    ``cov`` and ``process_noise`` are ``(P, L)``, ``alpha`` and ``noise_var`` ``(P,)``, one
    per group of R / P rows (:func:`prepare_state`).  Returns the posterior (mean, cov),
    then per link ``(2, R)`` the statistic ``2 r^H Sigma0^{-1} r`` and the phases (offset,
    slope).  Both follow from ``ctx = C^H r`` and ``g = gs ctx`` of the residual ``r``
    (:func:`whitened_quadform`, :func:`kalman_update`), so after one projection of ``r``
    nothing is Q-dimensional; ``r`` is de-rotated inside :func:`phase_search`'s ramp.
    """
    groups, num_paths = cov.shape
    mean = (alpha[:, None, None] * mean.reshape(groups, -1, num_paths)).reshape(mean.shape)
    cov = alpha[:, None] ** 2 * np.maximum(cov, 0.0) + process_noise  # clamps rounding below 0
    prep = prepare_state(mean, cov, noise_var, tables)
    offset, slope, residual = phase_search(h_obs, prep, tables, slope_points, bound)
    # The residual exp(-j offset) (ramp h) - m, formed in the ramp.
    np.multiply(residual, h_obs, out=residual)
    np.multiply(np.exp(-1j * offset)[..., None], residual, out=residual)
    residual -= prep.m
    g, quad = whitened_quadform(residual, prep, tables)
    mean, cov = kalman_update(mean, g[0], prep)
    return mean, cov, 2.0 * quad, offset, slope
