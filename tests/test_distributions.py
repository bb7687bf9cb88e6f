"""Tests for the chi-squared and normal helpers against independent oracles."""

import math

import numpy as np
import pytest

from simplexci import distributions
from simplexci.distributions import (
    _chi2_pdf,
    _chi2_upper,
    _normal_cdf,
    _normal_pdf,
    chi2_quantile,
    normal_quantile,
)
from simplexci.exceptions import ConvergenceError
from simplexci.inference import confidence_set

from model_helpers import constant_model
from oracles import chi2_quantile_quadrature, normal_quantile_erf

P_GRID = [0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995]


def test_chi2_quantile_two_dof_closed_form():
    # G^-1(p; 2) = -2 ln(1-p)
    for p in P_GRID:
        assert abs(chi2_quantile(p, 2) + 2.0 * math.log1p(-p)) <= 1e-9


def test_chi2_quantile_one_dof_is_squared_normal_quantile():
    for p in [0.5, 0.8, 0.9, 0.95, 0.99]:
        z = normal_quantile_erf(0.5 * (1.0 + p))
        assert abs(chi2_quantile(p, 1) - z * z) <= 1e-8


def test_chi2_quantile_matches_quadrature_oracle():
    for k in range(1, 9):
        for p in [0.5, 0.9, 0.95, 0.99]:
            oracle = chi2_quantile_quadrature(p, k)
            assert abs(chi2_quantile(p, k) - oracle) <= 1e-6, (k, p)


def test_chi2_quantile_converges_for_sweep_levels_up_to_1000_dof():
    # a sweep computes each critical value once and applies it to every
    # point with that many degrees of freedom
    for p in (0.95, 0.995):
        for k in range(1, 1001):
            assert abs(1.0 - _chi2_upper(chi2_quantile(p, k), k) - p) <= 1e-9, (p, k)


def test_chi2_quantile_raises_instead_of_returning_an_unconverged_iterate(monkeypatch):
    monkeypatch.setattr(distributions, "_QUANTILE_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match=r"p=0\.9123 with k=7"):
        chi2_quantile(0.9123, 7)


def test_normal_quantile_raises_instead_of_returning_an_unconverged_iterate(monkeypatch):
    monkeypatch.setattr(distributions, "_QUANTILE_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match=r"normal quantile at p=0\.9123 "):
        normal_quantile(0.9123)
    # the reflected lower tail inverts the same upper-tail root
    with pytest.raises(ConvergenceError, match=r"normal quantile at p=0\.9124 "):
        normal_quantile(1.0 - 0.9124)


def test_an_iterate_that_hits_the_root_exactly_is_returned():
    # cdf(6) is p exactly; moving the bracket's lower end to 6 would leave
    # the Newton step 6 outside it and send the search off by bisection
    def cdf(x):
        return min(x / 16.0, 1.0)

    assert distributions._invert(cdf, lambda x: 1.0 / 16.0, 0.375, 12.0, 1e-14, "line") == 6.0
    # where the density is zero, bisection alone finds the root
    root = distributions._invert(cdf, lambda x: 0.0, 0.3, 12.0, 1e-14, "line")
    assert root == pytest.approx(4.8, abs=1e-12)


def test_numpy_integer_dof_from_a_confidence_set(monkeypatch):
    cs = confidence_set(constant_model([0.3, -0.2], np.eye(2), 50), 0.05, resolution=4)
    k = cs.dof[0]
    assert isinstance(k, np.integer) and not isinstance(k, int)
    # the quantile cache is keyed by a Python int, whatever type came in
    keys = []

    def recorded(p, dof, _inner=distributions._chi2_quantile_cached):
        keys.append(dof)
        return _inner(p, dof)

    monkeypatch.setattr(distributions, "_chi2_quantile_cached", recorded)
    assert chi2_quantile(0.95, k) == chi2_quantile(0.95, int(k))
    assert [type(key) for key in keys] == [int, int]


@pytest.mark.parametrize("k", [2.0, np.float64(2.0), True, np.bool_(True), "2", np.int64(0)])
def test_non_integral_or_boolean_dof_is_rejected(k):
    with pytest.raises(ValueError, match="degrees of freedom must be an integer >= 1"):
        chi2_quantile(0.95, k)


def test_chi2_cdf_quantile_round_trip():
    for k in range(1, 11):
        for p in P_GRID:
            assert abs(1.0 - _chi2_upper(chi2_quantile(p, k), k) - p) <= 1e-10, (k, p)


def test_chi2_quantile_monotone_in_p_and_dof():
    for k in range(1, 8):
        values = [chi2_quantile(p, k) for p in P_GRID]
        assert all(a < b for a, b in zip(values, values[1:]))
    for p in [0.5, 0.95]:
        values = [chi2_quantile(p, k) for k in range(1, 12)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_chi2_cdf_monotone_and_bounded():
    # the CDF is one minus the upper tail
    xs = np.linspace(0.0, 40.0, 200)
    for k in (1, 2, 5):
        values = [_chi2_upper(x, k) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a >= b for a, b in zip(values, values[1:]))
    assert _chi2_upper(0.0, 3) == 1.0
    assert _chi2_upper(-1.0, 3) == 1.0
    assert _chi2_upper(1e4, 3) == pytest.approx(0.0, abs=1e-12)


def test_chi2_pdf_matches_cdf_derivative():
    for k in (1, 2, 4, 7):
        for x in (0.5, 1.5, 4.0, 9.0):
            step = 1e-6 * (1.0 + x)
            numeric = (_chi2_upper(x - step, k) - _chi2_upper(x + step, k)) / (2.0 * step)
            assert abs(_chi2_pdf(x, k) - numeric) <= 1e-6 * (1.0 + numeric)
    assert _chi2_pdf(0.0, 1) == 0.0 and _chi2_pdf(-1.0, 4) == 0.0


def test_normal_quantile_matches_erf_oracle():
    for p in P_GRID:
        assert abs(normal_quantile(p) - normal_quantile_erf(p)) <= 1e-9


def test_normal_quantile_reflection_is_exact():
    for p in [0.005, 0.1, 0.25, 0.4]:
        assert normal_quantile(p) == -normal_quantile(1.0 - p)
    assert normal_quantile(0.5) == 0.0


def test_normal_cdf_symmetry_and_round_trip():
    for z in [0.0, 0.31, 1.0, 1.96, 3.5]:
        assert abs(_normal_cdf(z) + _normal_cdf(-z) - 1.0) <= 1e-14
    for p in P_GRID:
        assert abs(_normal_cdf(normal_quantile(p)) - p) <= 1e-12


def test_normal_pdf_matches_cdf_derivative():
    for z in (-2.0, -0.3, 0.0, 1.2, 2.5):
        numeric = (_normal_cdf(z + 1e-6) - _normal_cdf(z - 1e-6)) / 2e-6
        assert abs(_normal_pdf(z) - numeric) <= 1e-6


def test_frozen_reference_values():
    # closed-form anchors used elsewhere in the package and its docs
    assert abs(chi2_quantile(0.95, 2) - 5.991464547107982) <= 1e-9
    assert abs(chi2_quantile(0.95, 1) - 3.841458820694124) <= 1e-8
    assert abs(normal_quantile(0.975) - 1.959963984540054) <= 1e-9
    assert abs(normal_quantile(0.9775) - 2.004654461765097) <= 1e-9


def test_domain_validation():
    with pytest.raises(ValueError):
        chi2_quantile(0.95, 0)
    with pytest.raises(ValueError):
        chi2_quantile(0.95, True)
    with pytest.raises(ValueError):
        chi2_quantile(0.0, 2)
    with pytest.raises(ValueError):
        chi2_quantile(1.0, 2)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)
    with pytest.raises(ValueError):
        chi2_quantile(0.95, -3)


def test_chi2_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for p in (0.95, 0.995):
        for k in [*range(1, 1001), 2000, 5000]:
            want = stats.chi2.ppf(p, k)
            assert abs(chi2_quantile(p, k) - want) <= 1e-12 * want, (p, k)
    for k in range(1, 11):
        for p in P_GRID:
            want = stats.chi2.ppf(p, k)
            assert abs(chi2_quantile(p, k) - want) <= 1e-12 * want, (p, k)


def test_normal_quantile_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for p in P_GRID:
        assert abs(normal_quantile(p) - stats.norm.ppf(p)) <= 1e-13, p


def test_chi2_upper_matches_scipy_where_exp_of_minus_half_x_underflows():
    special = pytest.importorskip("scipy.special")
    # at x / 2 > 745, exp(-x / 2) is 0 in doubles, so a sum whose terms are
    # built up from it would be 0; each term is taken in logarithms instead
    for k, x in ((1499, 1600.0), (1600, 1600.0), (1601, 1700.0), (5000, 4800.0)):
        assert 0.5 * x > 745.0 and math.exp(-0.5 * x) == 0.0
        want = special.gammaincc(0.5 * k, 0.5 * x)
        assert want > 0.01 and abs(_chi2_upper(x, k) - want) <= 1e-12 * want, (k, x)
