"""Chi-square and standard normal distribution functions.

Everything here is self-contained: the regularized lower incomplete gamma
function is evaluated by a power series for small arguments and by a
continued fraction for large ones, so no statistics package is needed.
Quantiles are obtained by bracketed bisection refined with Newton steps on
the analytic density and are accurate to well below 1e-9 in absolute terms.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .exceptions import ConvergenceError

__all__ = [
    "regularized_gamma_p",
    "chi2_cdf",
    "chi2_pdf",
    "chi2_quantile",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]

_MAX_ITER = 600
_REL_EPS = 1e-17
# Newton-bisection steps allowed to a quantile; bisection alone pins a
# double within about 64.
_QUANTILE_MAX_ITER = 200


def _lower_series(a: float, x: float) -> float:
    """Power series for the regularized lower incomplete gamma, x < a + 1."""
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _REL_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError("incomplete gamma series did not converge")


def _upper_contfrac(a: float, x: float) -> float:
    """Continued fraction (modified Lentz) for the upper tail, x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            break
    else:
        raise ArithmeticError("incomplete gamma continued fraction did not converge")
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    Parameters
    ----------
    a : float
        Shape parameter, must be positive.
    x : float
        Evaluation point, must be nonnegative.

    Returns
    -------
    float
        P(a, x) in [0, 1].
    """
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    # switch between the series and the continued fraction at x = a + 1
    if x < a + 1.0:
        return min(_lower_series(a, x), 1.0)
    return max(1.0 - _upper_contfrac(a, x), 0.0)


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


def chi2_cdf(x: float, k: int) -> float:
    """Chi-square cumulative distribution function with k degrees of freedom."""
    k = _check_dof(k)
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(0.5 * k, 0.5 * x)


def chi2_pdf(x: float, k: int) -> float:
    """Chi-square density with k degrees of freedom."""
    return _chi2_pdf(x, _check_dof(k))


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
        The value x with ``chi2_cdf(x, k) == p``, accurate to better than
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
    a step that leaves the bracket, until a step moves by at most ``rtol *
    (1 + |x|)``. Raises ``ConvergenceError`` naming ``what`` after
    ``_QUANTILE_MAX_ITER`` steps."""
    lo = 0.0
    while cdf(hi) < p:
        hi *= 2.0
    x = 0.5 * (lo + hi)
    for _ in range(_QUANTILE_MAX_ITER):
        err = cdf(x) - p
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
        lambda x: regularized_gamma_p(0.5 * k, 0.5 * x), lambda x: _chi2_pdf(x, k),
        p, k + 10.0, 1e-14, f"chi-square quantile at p={p!r} with k={k}",
    )


def normal_cdf(z: float) -> float:
    """Standard normal cumulative distribution function."""
    if z == 0.0:
        return 0.5
    tail = 0.5 * regularized_gamma_p(0.5, 0.5 * z * z)
    return 0.5 + math.copysign(tail, z)


def normal_pdf(z: float) -> float:
    """Standard normal density."""
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
    return _invert(normal_cdf, normal_pdf, p, 10.0, 1e-15, f"normal quantile at p={p!r}")
