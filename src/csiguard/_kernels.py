"""Batched numpy kernels behind the adaptive filter.

Every trial of every sweep point advances in lockstep as a row (R rows),
with one covariance and noise variance per group of consecutive rows, a
point's (P groups, :func:`prepare_state`).  The per-step state
(:class:`StatePrep`) is ``(R, ...)``, its Woodbury core ``(P, ...)``;
observations and residuals are ``(..., R, Q)`` and broadcast over it, so
:func:`filter_step` scores alice's and eve's packets as one ``(2, R, Q)`` batch.

The filter runs in blocks of K consecutive steps (:class:`Block`).  What
reads no filter state is formed once per block by :func:`block_terms`:
the covariance recursion with its Woodbury cores, the noise variance's
forms that a step divides by, and the coarse grid's covariance term
below; the grid, its ramps and the Newton brackets are cached per grid
(:func:`slope_tables`).  Each step's :func:`filter_step` forms only what
reads the state: the prediction ``m``, the coupling ``nu`` and ``zc``, the
argmin, Newton, the de-rotation, the score and the mean update.  A
one-step block does the work of one step in the same order, and the
terms do not depend on K, bit for bit.

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
  (:func:`_slope_derivatives`), and the step is the ratio of two of their
  sums, with the derivatives' common factor -2 left out; the first step
  takes the grid point's exact ramp from :func:`slope_tables`.  Leaving
  the slope at grid resolution would leak into the offset estimate through
  the slope-offset coupling of the likelihood.  Three steps usually bring the slope within 1e-10 rad of
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
import weakref
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coarse slope grid on the slope lattice: (slopes, lattice table, gather index, grid ramps,
    Newton brackets).

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
    :meth:`GridTables.ramp`'s product).  Column g of the ``(2, G)`` brackets
    holds the slopes one grid point either side of ``slopes[g]``, clipped to
    the grid: the interval that Newton from grid point g searches.  The
    cache is keyed on the identity of ``tables``, which :func:`grid_tables`
    returns once per (grid, channel length).
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
    g = np.arange(len(j))
    brackets = slopes[np.stack([np.maximum(g - 1, 0), np.minimum(g + 1, len(j) - 1)])]
    for a in (slopes, table, index, ramps, brackets):
        a.setflags(write=False)
    return slopes, table, index, ramps, brackets


@dataclass(eq=False)
class Block:
    """The terms of K consecutive filter steps over R rows that read no filter state.

    A Kalman filter's covariance recursion never reads a measurement, and
    neither does the coarse grid's covariance term ``-Re(s_g^H gs s_g) / s2^2``,
    so :func:`block_terms` forms them for a whole block of steps at once,
    with the noise-variance forms that each step divides by.
    ``cov``, ``gs`` and ``posterior`` hold one entry per step and group
    (:func:`prepare_state`).  The gathered tap projections ``s`` and the
    coarse terms ``term`` cover the block's steps after the first (None in
    a one-step block): step 0 is scored link by link in :func:`phase_search`,
    as its ``zc`` is cheapest right after its term, which keeps a
    one-step block's working set to one link's.  ``workspace`` is shared by
    every block of the same shape (:func:`_coarse_workspace`) and records
    the block that filled its projection last: searching step 0 after
    another block of the same shape was built raises RuntimeError.
    """

    obs: np.ndarray        # (K, ..., R, Q) observations
    alpha: np.ndarray      # (P, 1, 1) AR(1) coefficient per group
    noise_var: np.ndarray  # (R,) s2 per row, its group's
    s2sq: np.ndarray       # (R,) s2**2 per row
    s2_groups: np.ndarray  # (P, 1, 1) s2 per group
    cov: np.ndarray        # (K, P, L) predicted diagonal covariance
    gs: np.ndarray         # (K, P, L, L) Woodbury core of each step (StatePrep.gs)
    gs_conj: np.ndarray    # (K, P, L, L) conj(gs)
    posterior: np.ndarray  # (K, P, L) updated diagonal covariance, the diagonal of gs
    slopes: np.ndarray     # (G,) coarse slope grid, and its index, ramps and brackets (slope_tables)
    index: np.ndarray      # (G, L)
    ramps: np.ndarray      # (G, Q)
    brackets: np.ndarray   # (2, G)
    workspace: _Workspace  # proj (K, ..., R, C): obs projected on the lattice ramps
    s: np.ndarray | None     # (K - 1, ..., R, G, L) C^H (phi_g * h) of the later steps
    term: np.ndarray | None  # (K - 1, ..., R, G) -Re(s_g^H gs s_g) / s2^2 of the later steps


def block_terms(h_obs, cov, alpha, process_noise, noise_var, tables, slope_points, bound) -> Block:
    """The state-free terms of the K steps of ``h_obs``, ``(K, ..., R, Q)``.

    ``cov`` is the updated covariance before the block's first step, and
    ``cov``, ``process_noise`` ``(P, L)``, ``alpha`` ``(P,)`` and
    ``noise_var`` (``(P,)`` or one scalar) hold one entry per group of
    R / P consecutive rows (:func:`prepare_state`).  Per step the
    covariance is predicted, ``alpha**2 max(cov, 0) + process_noise``
    (the clamp takes rounding below 0 to 0), its Woodbury core inverted,
    and its update read off the core's diagonal, one step after another.
    One GEMM projects every step's observations on the lattice ramps of
    :func:`slope_tables` (the search's ``slope_points`` and ``bound``);
    for the steps after the first, one gather gives every ``s_g``, one
    GEMM per step and group ``gs s_g``, and one real dot and one division
    their ``term``.  Each array is formed by the same operations as in a
    one-step block, so the terms do not depend on K, bit for bit.  Callers
    that hold a predicted covariance P pass a zero ``cov``, with P as the
    process noise.
    """
    steps, rows = h_obs.shape[0], h_obs.shape[-2]
    groups, num_paths = cov.shape
    s2 = np.full(groups, noise_var, dtype=float)[:, None, None]  # (P, 1, 1)
    prior = np.empty((steps, groups, num_paths))
    gs = np.empty((steps, groups, num_paths, num_paths), dtype=np.complex128)
    posterior = np.empty_like(prior)
    eye = np.eye(num_paths)[None]
    for k in range(steps):
        cov = alpha[:, None] ** 2 * np.maximum(cov, 0.0) + process_noise
        sp = np.sqrt(cov)
        outer = sp[:, :, None] * sp[:, None, :]
        gs[k] = np.linalg.inv(eye + outer * tables.chc[None] / s2)
        gs[k] *= outer
        prior[k] = cov
        cov = posterior[k] = np.diagonal(gs[k], axis1=-2, axis2=-1).real
    gs_conj = gs.conj()
    row_s2 = s2.ravel().repeat(rows // groups)
    s2sq = row_s2 * row_s2

    slopes, table, index, ramps, brackets = slope_tables(tables, slope_points, bound)
    ws = _coarse_workspace(h_obs.shape, table.shape[1], index.shape)
    np.matmul(h_obs.reshape(-1, h_obs.shape[-1]), table, out=ws.proj.reshape(-1, table.shape[1]))
    # The later steps, all links at once: s[k, ..., r, g, :] = C^H (phi_g * h).
    # A one-step block has none: running the stage on empty arrays cost
    # 64-row runs about 2% of their process time.
    s = term = None
    if steps > 1:
        s = ws.proj[1:].take(index, axis=-1)                  # (K - 1, ..., R, G, L)
        lead = (1,) * (h_obs.ndim - 3)                        # the link axes
        grouped = s.reshape(*s.shape[:-3], groups, -1, num_paths)
        g = np.matmul(grouped, gs_conj[1:].reshape(steps - 1, *lead, groups, num_paths, num_paths))
        term = -_real_dot(grouped, g).reshape(s.shape[:-1]) / s2sq[:, None]
    block = Block(obs=h_obs, alpha=alpha[:, None, None], noise_var=row_s2, s2sq=s2sq,
                  s2_groups=s2, cov=prior, gs=gs, gs_conj=gs_conj, posterior=posterior,
                  slopes=slopes, index=index, ramps=ramps, brackets=brackets, workspace=ws,
                  s=s, term=term)
    ws.filled_by = weakref.ref(block)
    return block


@dataclass(eq=False)
class StatePrep:
    """Per-step quantities derived from the predicted state batch.

    gs is the scaled Woodbury core ``P^{1/2} G^{-1} P^{1/2}`` so that
    ``Sigma0^{-1} x = x/s2 - C (gs (C^H x)) / s2^2``; it is also the
    posterior covariance ``(P^{-1} + C^H C / s2)^{-1}``, from which
    :func:`kalman_update` reads the new mean.  With ``m = C mu``
    that makes ``Sigma0^{-1} m = C nu`` for the L-vector
    ``nu = gs (mu / P) / s2``, held conjugated so that the offset
    coupling is ``zc = s @ nu_conj``, and as the column ``nu_col`` that
    stacked projections ``(..., R, n, L)`` multiply.  A zero predicted mean
    gives exactly ``nu = 0``.  Observations of shape ``(..., R, Q)``
    broadcast against the ``(R, ...)`` arrays; ``gs`` is one matrix per
    group of R / P consecutive rows (:func:`prepare_state`), a view of its
    block's, and only ``m`` and ``nu`` are formed per step.
    """

    noise_var: np.ndarray  # (R,) s2 per row, its group's
    s2sq: np.ndarray     # (R,) s2**2 per row
    gs: np.ndarray       # (P, L, L)
    gs_conj: np.ndarray  # (P, L, L) conj(gs): row vectors s times it give (gs s)^T
    m: np.ndarray        # (R, Q) predicted DFT-domain channel C mu
    nu_conj: np.ndarray  # (R, L) conj(nu), Sigma0^{-1} m = C nu
    nu_col: np.ndarray   # (R, L, 1) nu_conj[..., None]


def prepare_state(mean: np.ndarray, block: Block, step: int, tables: GridTables) -> StatePrep:
    """The per-step arrays of R predicted rows at step ``step`` of ``block``.

    ``mean`` holds the R rows' predicted taps, ``(R, L)``.  The block holds
    P covariances per step: group p is the R / P consecutive rows ``p R / P``
    to ``(p + 1) R / P - 1``, so P must divide R.  The covariance recursion
    never reads an observation, so every trial of a sweep point shares one
    covariance; run_batch lays its rows out point-major and passes one
    group per point.  P = R gives every row its own covariance.  Only
    ``m`` and ``nu`` read the state; the Woodbury core and the noise
    variance's forms are the block's, and every product with the core runs
    as one GEMM per group on its rows.
    """
    rows, num_paths = mean.shape
    cov, gs_conj = block.cov[step], block.gs_conj[step]
    m = mean @ tables.c_t
    # nu^T = (mean / P)^T gs^T, one GEMM per group.
    grouped = mean.reshape(len(cov), -1, num_paths)
    nu_conj = (np.matmul(grouped / cov[:, None], gs_conj) / block.s2_groups).reshape(
        rows, num_paths).conj()
    return StatePrep(noise_var=block.noise_var, s2sq=block.s2sq, gs=block.gs[step],
                     gs_conj=gs_conj, m=m, nu_conj=nu_conj, nu_col=nu_conj[..., None])


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
    ctx = r @ tables.c_conj                                   # (..., R, L) C^H r
    grouped = ctx.shape[:-2] + (len(prep.gs), -1, ctx.shape[-1])
    g = np.matmul(ctx.reshape(grouped), prep.gs_conj).reshape(ctx.shape)
    return g, _real_dot(r, r) / prep.noise_var - _real_dot(ctx, g) / prep.s2sq


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
    s = (ramp * h) @ tables.c_conj                            # (..., R, L)
    grouped = s.shape[:-2] + (len(prep.gs), -1, s.shape[-1])
    g = np.matmul(s.reshape(grouped), prep.gs_conj).reshape(s.shape)
    zc = np.einsum("...l,...l->...", s, prep.nu_conj)
    return -_real_dot(s, g) / prep.s2sq - 2.0 * np.abs(zc), zc


def _slope_derivatives(
    ramp: np.ndarray, h: np.ndarray, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with ``f' = -2 a`` and ``f'' = -2 b`` for :func:`_candidate_objective`.

    With ``u = ramp``, ``u' = -1j q u`` and ``u'' = -q^2 u``, so
    ``s = C^H (u h)`` and ``zc = nu^H s`` have the exact derivatives
    ``s' = C^H (u' h)``, ``s'' = C^H (u'' h)``, ``zc' = nu^H s'`` and
    ``zc'' = nu^H s''``.  For ``f = -s^H G s / s2^2 - 2|zc|``
    that gives

    * ``f'  = -2 Re(s'^H G s) / s2^2 - 2 Re(conj(zc) zc') / |zc|``
    * ``f'' = -2 [Re(s''^H G s) + s'^H G s'] / s2^2
      - 2 [(|zc'|^2 + Re(conj(zc) zc'')) / |zc| - Re(conj(zc) zc')^2 / |zc|^3]``

    with ``G = prep.gs``.  One GEMM against ``tables.c3`` gives s, s', s'' and
    one product with ``prep.nu_col`` zc, zc', zc''.  Entry (i, j) of two real
    2 x 2 Gram products is ``Re(s_(i+1)^H G s_j)`` (float views of [s', s'']
    times the rows G s, G s', so no ``conj``) and ``Re(conj(zc_(i+1)) zc_j)``:
    a reads (0, 0) of each, b (1, 0) + (0, 1).  The factor -2 is left to the
    caller: the Newton step ``f' / f''`` is ``a / b``, exactly, as scaling
    by -2 is.  Where ``zc = 0`` (a zero predicted mean makes it vanish for
    every slope) the coupling terms are dropped.
    """
    s = ((ramp * h) @ tables.c3).reshape(ramp.shape[:-1] + (3, -1))  # (..., R, 3, L)
    zcs = np.matmul(s, prep.nu_col)                           # (..., R, 3, 1): zc, zc', zc''
    grouped = s.shape[:-3] + (len(prep.gs), -1, s.shape[-1])  # one GEMM per group; G s'' unused
    g = np.matmul(s.reshape(grouped), prep.gs_conj).reshape(s.shape)[..., :2, :]
    quad = np.einsum("...ik,...jk->...ij", s[..., 1:, :].view(np.float64), g.view(np.float64))
    coup = (zcs[..., 1:, :].conj() * zcs[..., :2, :].swapaxes(-1, -2)).real
    abs_zc = np.abs(zcs[..., 0, 0])
    inv = np.divide(1.0, abs_zc, out=np.zeros(abs_zc.shape), where=abs_zc > 0.0)
    gram = quad / prep.s2sq[:, None, None] + coup * inv[..., None, None]  # (..., R, 2, 2)
    dabs = coup[..., 0, 0] * inv                              # d|zc|/dx; 0 where zc = 0
    return gram[..., 0, 0], gram[..., 1, 0] + gram[..., 0, 1] - dabs * dabs * inv


# Real parameters phase_search fits on each packet: the phase offset and
# the phase slope.  Each absorbs one real degree of freedom of the residual
# (see csiguard.detector.null_dof).
PHASE_PARAMETERS = 2


def _coarse_terms(block: Block, step: int, prep: StatePrep) -> tuple[np.ndarray, np.ndarray]:
    """(term, zc) of every grid slope at step ``step`` of ``block``, each ``(..., R, G)``.

    ``term = -Re(s_g^H gs s_g) / s2^2`` and ``zc = nu^H s_g`` for
    ``s_g = C^H (phi_g * h)``.  After the first step ``term`` and ``s_g``
    are the block's, and only ``zc``, one product with ``nu``, reads the
    state.  Step 0 gathers ``s_g`` from the block's projection link by link,
    forms each link's ``zc`` right after its real dot, and then the term by
    the block's operations; it raises RuntimeError if another block has
    filled the shared projection since.  (mode="clip" lets take write
    straight into the buffer; "raise" would gather into a temporary first.
    index is always in range.)
    """
    if step:
        zc = np.matmul(block.s[step - 1], prep.nu_col)[..., 0]
        return block.term[step - 1], zc
    ws = block.workspace
    if ws.filled_by() is not block:
        raise RuntimeError(
            "the coarse projection holds another block's observations: search a block's "
            "first step before the next block of its shape is built"
        )
    proj, s, g = ws.proj[0], ws.s, ws.g
    s_grouped, g_grouped = (a.reshape(len(prep.gs), -1, a.shape[-1]) for a in (s, g))
    term = np.empty(proj.shape[:-1] + block.slopes.shape)    # (..., R, G)
    zc = np.empty_like(term, dtype=np.complex128)
    for link in np.ndindex(proj.shape[:-2]):
        proj[link].take(block.index, axis=-1, out=s, mode="clip")  # (R, G, L)
        np.matmul(s_grouped, prep.gs_conj, out=g_grouped)     # per group, rows (gs s_g)^T
        term[link] = _real_dot(s, g)
        np.matmul(s, prep.nu_col, out=zc[link][..., None])
    np.negative(term, out=term)
    term /= block.s2sq[:, None]
    return term, zc


def phase_search(
    block: Block, step: int, prep: StatePrep, tables: GridTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jointly estimate (offset, slope) for the observations at step ``step`` of ``block``.

    The observations ``block.obs[step]`` have shape ``(..., R, Q)``: any
    leading axes (:func:`filter_step` passes the ``(2, R, Q)`` observations
    of both links) broadcast against the ``(R, ...)`` arrays of ``prep``,
    and the estimates come back with shape ``(..., R)``.  A stacked batch
    gives the same estimates as separate calls.  Returns (offset, slope,
    ramp), where ``ramp`` is ``tables.ramp(slope)``, shape ``(..., R, Q)``,
    bit for bit: it is the ramp of the final objective, recomputed only on
    rows where Newton moved the slope but the grid slope scored better; it
    is fresh.

    Minimizes the whitened residual energy, less a constant per row
    (:func:`_candidate_objective`), with the offset profiled out in closed
    form.  The slope is first the argmin of the block's grid of
    :func:`slope_tables` (the harness passes ``search.slope_points`` and
    the drawn slope range ``phase.max_slope``), scored from the block's
    coarse terms (:func:`_coarse_terms`).
    It then takes three Newton steps on the exact derivatives
    (:func:`_slope_derivatives`, one GEMM against ``tables.c3`` each), each
    clipped to the grid point's brackets and skipped where the second
    derivative is not positive.  The refined slope is kept only where it
    scores no worse than the grid argmin; where every row keeps it, the
    refine returns at once.  Where the whole batch's prediction is zero,
    the refine also starts from the grid points one DFT bin either side of
    the argmin, and the lowest of the three objectives wins.  The offset is
    recovered in closed form at the final slope.  Exact objective ties on
    the grid resolve toward the smaller |slope|, then the smaller |offset|.
    """
    h_obs, slopes, ramps = block.obs[step], block.slopes, block.ramps
    term, zc = _coarse_terms(block, step, prep)
    obj = term - 2.0 * np.abs(zc)
    # Flat index of each row's grid point 0 in obj and zc.
    row_start = block.workspace.row_start

    def refine(idx):
        """(objective, slope, zc, ramp) after Newton from grid point idx, no worse than it."""
        x0 = slopes[idx]
        lo, hi = block.brackets.take(idx, axis=1)
        x = x0
        for n in range(_NEWTON_STEPS):
            # Step 1 reads x0's exact ramp; each ramp is freed before the next is built.
            a, b = _slope_derivatives(
                tables.ramp(x) if n else ramps.take(idx, axis=0), h_obs, prep, tables
            )
            # f' / f'' = a / b; where f'' = -2 b is not positive, no step.
            step = np.divide(a, b, out=np.zeros(a.shape), where=b < 0.0)
            x = np.minimum(np.maximum(x - step, lo), hi)
        u = tables.ramp(x)
        f_star, zc_star = _candidate_objective(u, h_obs, prep, tables)
        flat = row_start + idx
        f_grid = obj.take(flat)
        keep = f_star <= f_grid
        if keep.all():
            return f_star, x, zc_star, u
        # Rows that fall back to the grid slope after Newton moved need its
        # ramp; ramp works row by row, so this matches ramp of the returned
        # slope.  (Most fallback rows are ones Newton never moved.)
        moved = ~keep & (x != x0)
        if moved.any():
            u[moved] = tables.ramp(x0[moved])
        return (
            np.where(keep, f_star, f_grid),
            np.where(keep, x, x0),
            np.where(keep, zc_star, zc.take(flat)),
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
        last = len(slopes) - 1
        k = round(2.0 * np.pi / (tables.dft_size * (slopes[1] - slopes[0])))
        for start in (np.maximum(idx - k, 0), np.minimum(idx + k, last)):
            f_alias, slope_alias, zc_alias, u_alias = refine(start)
            better = f_alias < f_best
            f_best = np.where(better, f_alias, f_best)
            slope = np.where(better, slope_alias, slope)
            zc_best = np.where(better, zc_alias, zc_best)
            u_best = np.where(better[..., None], u_alias, u_best)
    return _wrap_offset(np.angle(zc_best)), slope, u_best


@dataclass(eq=False)
class _Workspace:
    """The arrays that the coarse stage reuses for one block shape (:func:`_coarse_workspace`)."""

    proj: np.ndarray       # (K, ..., R, C) h projected on the lattice ramps
    s: np.ndarray          # (R, G, L) C^H (phi_g * h) of one link at step 0
    g: np.ndarray          # (R, G, L) (gs s_g)^T of one link at step 0
    row_start: np.ndarray  # (..., R) flat index of each row's grid point 0 in (..., R, G)
    filled_by: weakref.ref | None = None  # the Block whose observations proj holds


@functools.lru_cache(maxsize=4)
def _coarse_workspace(
    obs_shape: tuple[int, ...], num_columns: int, index_shape: tuple[int, int]
) -> _Workspace:
    """The arrays that the coarse stage reuses for one block shape.

    For a block of observations of shape ``obs_shape = (K, ..., R, Q)``, a
    lattice table of C = ``num_columns`` columns and a gather index of shape
    ``index_shape = (G, L)``:

    * proj ``(K, ..., R, C)``: h projected on the lattice ramps, every step
      and link in one GEMM (:func:`block_terms`; one link of one row would
      round differently);
    * s and g ``(R, G, L)``: ``C^H (phi_g * h)`` and ``(gs s_g)^T`` of one
      link at the block's first step (:func:`_coarse_terms`);
    * row_start ``(..., R)``, read-only: where each row's grid scores start
      in the flattened ``(..., R, G)`` scores (:func:`phase_search`).

    Allocated afresh, complex arrays of these sizes (about 0.5 MB each at
    R = 64) go back to the system when freed and page-fault again on the
    next step (glibc malloc's mmap and trim thresholds).  Reusing them means
    that blocks must not be built or searched in two threads at once.
    """
    proj = np.empty((*obs_shape[:-1], num_columns), dtype=np.complex128)
    s = np.empty((obs_shape[-2], *index_shape), dtype=np.complex128)
    rows = obs_shape[1:-1]
    row_start = np.arange(0, math.prod(rows) * index_shape[0], index_shape[0]).reshape(rows)
    row_start.setflags(write=False)
    return _Workspace(proj=proj, s=s, g=np.empty_like(s), row_start=row_start)


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


def kalman_update(mean: np.ndarray, g: np.ndarray, prep: StatePrep) -> np.ndarray:
    """Mean update in the de-rotated frame, in information form.

    ``g = gs C^H (E^H eps)``, shape ``(R, L)``, comes from
    :func:`whitened_quadform` on the de-rotated residual; the phase
    matrices cancel out of the update.  ``prep.gs`` is the posterior
    covariance ``(P^{-1} + C^H C / s2)^{-1}``, so the mean correction
    ``P C^H Sigma0^{-1} (E^H eps)`` is ``g / s2``.  The new covariance, the
    diagonal of ``gs``, reads no data: :func:`block_terms` keeps it.  (Its
    Woodbury form cancels to a rounding error once ``s2`` is far below
    ``P``, and can go negative.)  Returns the new mean.
    """
    return mean + g / prep.noise_var[:, None]


def filter_step(mean, block, step, tables):
    """Step ``step`` of ``block`` over R rows: predict, search and score both links, update from alice's.

    ``mean`` is the ``(R, L)`` updated mean of the step before, and the
    block's observations at this step ``(2, R, Q)``, alice in row 0
    (:func:`block_terms`, which also holds the step's covariance).  Returns
    the updated mean, then per link ``(2, R)`` the statistic
    ``2 r^H Sigma0^{-1} r`` and the phases (offset, slope).  Both follow
    from ``ctx = C^H r`` and ``g = gs ctx`` of the residual ``r``
    (:func:`whitened_quadform`, :func:`kalman_update`), so after one
    projection of ``r`` nothing is Q-dimensional; ``r`` is de-rotated
    inside :func:`phase_search`'s ramp.
    """
    groups, num_paths = block.cov.shape[1:]
    mean = (block.alpha * mean.reshape(groups, -1, num_paths)).reshape(mean.shape)
    prep = prepare_state(mean, block, step, tables)
    offset, slope, residual = phase_search(block, step, prep, tables)
    # The residual exp(-j offset) (ramp h) - m, formed in the ramp.
    np.multiply(residual, block.obs[step], out=residual)
    np.multiply(np.exp(-1j * offset)[..., None], residual, out=residual)
    residual -= prep.m
    g, quad = whitened_quadform(residual, prep, tables)
    return kalman_update(mean, g[0], prep), 2.0 * quad, offset, slope
