"""Special functions: the Bessel function J0 and the chi-squared law.

Everything here is a pure function; the heavy lifting is delegated to
scipy's Cephes bindings in ``scipy.special``, with input validation
matching the conventions of the rest of the package.
"""

from __future__ import annotations

import math

import scipy.special

__all__ = ["bessel_j0", "chi2_cdf", "chi2_quantile"]


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Raises ValueError for non-finite input.
    """
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0 requires a finite argument, got {x!r}")
    return float(scipy.special.j0(x))


def chi2_cdf(x: float, dof: int) -> float:
    """CDF of the chi-squared distribution with `dof` degrees of freedom.

    Computed through the regularized lower incomplete gamma function,
    which stays accurate for the large degree-of-freedom values used by
    the detector (dof of a few hundred).
    """
    if dof <= 0:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"chi2_cdf requires x >= 0, got {x!r}")
    # gammainc is the *regularized* lower incomplete gamma, already in [0, 1].
    value = float(scipy.special.gammainc(0.5 * dof, 0.5 * x))
    return min(1.0, max(0.0, value))


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse of :func:`chi2_cdf` in its first argument.

    Valid for p strictly inside (0, 1).
    """
    if dof <= 0:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"chi2_quantile requires 0 < p < 1, got {p!r}")
    return float(2.0 * scipy.special.gammaincinv(0.5 * dof, p))
