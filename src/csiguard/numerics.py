"""Special functions: the Bessel function J0 and the chi-squared law.

Everything here is a pure function on numpy and the standard library, with
input validation matching the conventions of the rest of the package:

* J0 by the trapezoid rule on ``J0(x) = mean over theta of cos(x sin theta)``,
  which converges geometrically for this periodic integrand (Trefethen &
  Weideman, SIAM Review 2014), and by Hankel's asymptotic expansion for
  large |x|;
* the chi-squared CDF as the regularized lower incomplete gamma function
  ``P(dof/2, x/2)``: its power series below ``a + 1``, and above it Lentz's
  continued fraction for ``Q = 1 - P`` (Press et al., Numerical Recipes,
  3rd ed., section 6.2);
* the chi-squared quantile by Newton's method on that CDF inside a bracket.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_j0", "chi2_cdf", "chi2_quantile"]

# sin(theta_j) at the trapezoid nodes theta_j = pi j / 32 of one period of
# cos(x sin theta).  The rule's error is 2 J_64(x), below 1e-25 for |x| < 20.
_J0_NODES = np.sin(np.pi * np.arange(32) / 32)
# From here on, Hankel's expansion reaches terms below 1e-17 before it diverges.
_HANKEL_FROM = 20.0

_EPS = 2.0 ** -52
_TINY = 1e-300
# Stirling's series ln Gamma(a) = (a - 1/2) ln a - a + ln(2 pi) / 2 + delta(a),
# delta(a) = sum_k B_2k / (2k (2k - 1) a^(2k - 1)); five terms leave under 1e-17
# from a = 20 on.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_STIRLING_FROM = 20.0


def bessel_j0(x: float) -> float:
    """Bessel function of the first kind, order zero.

    Raises ValueError for non-finite input.
    """
    if not math.isfinite(x):
        raise ValueError(f"bessel_j0 requires a finite argument, got {x!r}")
    x = abs(x)
    if x < _HANKEL_FROM:
        # cos y = 1 - 2 sin^2(y / 2): the exactly summed correction to 1 is
        # rounded once, so J0 near 1 (a small Doppler) keeps its last bits.
        half = np.sin((0.5 * x) * _J0_NODES)
        return math.fsum([1.0, *(half * half * (-2.0 / _J0_NODES.size))])
    # J0 = sqrt(2 / (pi x)) (P cos chi - Q sin chi) with chi = x - pi/4 and
    # P + iQ = sum_k a_k (-i)^k, a_k = prod_{j <= k} (2j - 1)^2 / (8 j x).
    total, term, k = 0j, 1.0 + 0j, 0
    while abs(term) >= 1e-17:
        total += term
        k += 1
        term *= -1j * (2 * k - 1) ** 2 / (8 * k * x)
    # sqrt(2) cos chi = cos x + sin x and sqrt(2) sin chi = sin x - cos x, with
    # no rounded x - pi/4.
    c, s = math.cos(x), math.sin(x)
    return (total * complex(c + s, s - c)).real / math.sqrt(math.pi * x)


def _log_gamma_density(a: float, y: float) -> float:
    """ln(y^a e^-y / Gamma(a)) for y > 0, the prefactor of both expansions.

    The direct form's three terms are each about ``a ln a``; for large a,
    Stirling's series turns it into ``-a (t - log1p(t)) + ln(a / 2 pi) / 2
    - delta(a)`` with ``t = (y - a) / a``, whose terms are of the size of
    the result.  Below ``y = a / 2`` (where ``t`` may round to -1) the direct
    form serves: there ``P(a, y) < e^(-a / 6)``, so its relative error of
    about ``a ln(a)`` ulps stays below 1e-15 of P's scale.
    """
    if a < _STIRLING_FROM or y < 0.5 * a:
        return a * math.log(y) - y - math.lgamma(a)
    t = (y - a) / a
    r = 1.0 / (a * a)
    delta = 0.0
    for coef in reversed(_STIRLING):
        delta = delta * r + coef
    return 0.5 * math.log(a / (2.0 * math.pi)) - a * (t - math.log1p(t)) - delta / a


def _regularized_gamma(a: float, y: float) -> tuple[float, float]:
    """(P(a, y), Q(a, y)) for y >= 0: each side's own expansion gives the
    smaller of the two, and the other is its complement."""
    if y == 0.0:
        return 0.0, 1.0
    scale = math.exp(_log_gamma_density(a, y))
    if y < a + 1.0:
        # P = scale * sum_n y^n / (a (a + 1) ... (a + n))
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= y / n
            total += term
        p = scale * total
        return p, 1.0 - p
    # Q = scale / (y + 1 - a - 1 (1 - a) / (y + 3 - a - 2 (2 - a) / ...)),
    # evaluated by the modified Lentz method.
    b = y + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    q = scale * h
    return 1.0 - q, q


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
    value = _regularized_gamma(0.5 * dof, 0.5 * x)[0]
    return min(1.0, max(0.0, value))


def chi2_quantile(p: float, dof: int) -> float:
    """Inverse of :func:`chi2_cdf` in its first argument.

    Valid for p strictly inside (0, 1).
    """
    if dof <= 0:
        raise ValueError(f"dof must be a positive integer, got {dof}")
    if not (0.0 < p < 1.0):
        raise ValueError(f"chi2_quantile requires 0 < p < 1, got {p!r}")
    a = 0.5 * dof
    # Above the median, solve Q(a, y) = 1 - p (exact there): P's absolute
    # rounding near 1 would otherwise limit the upper quantiles.
    upper = p > 0.5
    tail = 1.0 - p if upper else p
    # Wilson-Hilferty start, with the normal quantile of Abramowitz & Stegun
    # 26.2.22 (error below 3e-3).
    t = math.sqrt(-2.0 * math.log(tail))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    y = a * (1.0 - 1.0 / (9.0 * a) + (z if upper else -z) / (3.0 * math.sqrt(a))) ** 3
    if y <= 0.0:
        # The lower tail of a small dof, where P(a, y) ~ y^a / Gamma(a + 1).
        y = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        p_y, q_y = _regularized_gamma(a, y)
        err = tail - q_y if upper else p_y - tail    # the sign of P(a, y) - p
        if err < 0.0:
            lo = y
        else:
            hi = y
        step = err * y / math.exp(_log_gamma_density(a, y))   # err / (dP/dy)
        y -= step
        if abs(step) <= 1e-10 * y:
            break    # Newton converges quadratically: y is now exact to rounding
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
    return 2.0 * y
