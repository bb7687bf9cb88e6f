"""Chi-square and standard normal quantiles.

Everything here is self-contained. Degrees of freedom are integers, so the
chi-square upper tail is a finite sum (Abramowitz and Stegun 1964,
26.4.4-26.4.5) started from ``math.erfc`` for odd ``k``, and the normal CDF
is ``math.erfc`` itself; no statistics package is needed. Quantiles are
obtained by bracketed bisection refined with Newton steps on the analytic
density and are accurate to well below 1e-9 in absolute terms.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .exceptions import ConvergenceError

__all__ = ["chi2_quantile", "normal_quantile"]

# Newton-bisection steps allowed to a quantile; bisection alone pins a
# double within about 64.
_QUANTILE_MAX_ITER = 200


def _check_dof(k: int) -> int:
    """``k`` as a Python int; any integral type but ``bool`` is accepted."""
    try:
        dof = operator.index(k)
    except TypeError:
        dof = 0
    if isinstance(k, bool) or dof < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {k!r}")
    return dof


def _check_prob(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie strictly in (0, 1), got {p}")


def _chi2_upper(x: float, k: int) -> float:
    """``P(chi2_k > x)`` for an integer ``k >= 1``: ``erfc(sqrt(h))`` when
    ``k`` is odd, plus ``h^j e^-h / Gamma(j + 1)`` for ``h = x / 2`` and ``j = (k % 2)
    / 2, (k % 2) / 2 + 1, ..., k / 2 - 1``. Each term is taken in logarithms,
    so none under- or overflows at large ``k`` or ``x``."""
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    half = 0.5 * (k % 2)
    total = math.erfc(math.sqrt(h)) if half else 0.0
    for i in range(k // 2):
        j = half + i
        total += math.exp(j * log_h - h - math.lgamma(j + 1.0))
    return total


def _chi2_pdf(x: float, k: int) -> float:
    if x <= 0.0:
        return 0.0
    half_k = 0.5 * k
    log_pdf = (half_k - 1.0) * math.log(x) - 0.5 * x - half_k * math.log(2.0) - math.lgamma(half_k)
    return math.exp(log_pdf)


def chi2_quantile(p: float, k: int) -> float:
    """Chi-square quantile function (inverse CDF).

    Parameters
    ----------
    p : float
        Probability level, strictly between 0 and 1.
    k : int
        Degrees of freedom, an integer >= 1 of any integral type (a numpy
        integer included, but not ``bool``).

    Returns
    -------
    float
        The value x with ``P(chi2_k <= x) == p``, accurate to better than
        1e-9 in absolute terms.

    Notes
    -----
    The root is bracketed first, then polished with Newton steps on the
    density; any Newton iterate leaving the bracket falls back to bisection.
    The steps are capped: a root not pinned within the cap raises
    ``ConvergenceError`` naming ``p`` and ``k`` instead of returning an
    unconverged iterate, because a sweep applies each critical value to
    every point with that many degrees of freedom. Results are cached
    because sweeps over a simplex grid request the same handful of
    quantiles repeatedly. Arguments are validated before the cache so a
    bool never aliases a cached int key.
    """
    _check_prob(p)
    return _chi2_quantile_cached(float(p), _check_dof(k))


def _invert(cdf, pdf, p: float, hi: float, rtol: float, what: str) -> float:
    """The root of ``cdf(x) = p`` on ``[0, inf)``: ``hi`` doubles until it
    brackets the root, then Newton steps on ``pdf`` run, with bisection for
    a step that leaves the bracket, until ``cdf(x)`` is ``p`` or a step
    moves by at most ``rtol * (1 + |x|)``. Raises ``ConvergenceError`` naming ``what`` after
    ``_QUANTILE_MAX_ITER`` steps."""
    lo = 0.0
    while cdf(hi) < p:
        hi *= 2.0
    x = 0.5 * (lo + hi)
    for _ in range(_QUANTILE_MAX_ITER):
        err = cdf(x) - p
        if err == 0.0:  # else the bracket's new end is x, and x leaves it
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        dens = pdf(x)
        if dens > 0.0:
            nxt = x - err / dens
        else:
            nxt = 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= rtol * (1.0 + abs(nxt)):
            return nxt
        x = nxt
    raise ConvergenceError(f"{what} did not converge in {_QUANTILE_MAX_ITER} iterations")


@lru_cache(maxsize=4096)
def _chi2_quantile_cached(p: float, k: int) -> float:
    # ``k`` is checked, and ``_invert`` evaluates only at x > 0
    return _invert(
        lambda x: 1.0 - _chi2_upper(x, k), lambda x: _chi2_pdf(x, k),
        p, k + 10.0, 1e-14, f"chi-square quantile at p={p!r} with k={k}",
    )


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _normal_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def normal_quantile(p: float) -> float:
    """Standard normal quantile, exact reflection around p = 0.5."""
    _check_prob(p)
    return _normal_quantile_cached(float(p))


@lru_cache(maxsize=4096)
def _normal_quantile_cached(p: float) -> float:
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -_normal_quantile_cached(1.0 - p)
    return _invert(_normal_cdf, _normal_pdf, p, 10.0, 1e-15, f"normal quantile at p={p!r}")
