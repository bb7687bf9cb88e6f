"""The generic route end to end: a forecast combination, not a panel.

Any quadratic objective ``0.5 w'Hw - w'h`` with per-unit influences of its
gradient goes through ``QuadraticComponents``, ``InfluenceSet`` and
``make_weight_model`` to the pointwise test. Here the objective is the mean
squared error of a convex combination of ``K`` forecasts (Bates and Granger
1969): ``T`` periods of forecasts ``F`` and a target ``y = F w0 + e`` with
iid errors give ``H = F'F/T``, ``h = F'y/T`` and per-period influences
``f_t f_t' - H`` and ``f_t y_t - h``, centred by construction.
"""

import numpy as np
import pytest

from simplexci.estimators import InfluenceSet, QuadraticComponents, make_weight_model
from simplexci.geometry import solve_simplex_qp
from simplexci.inference import confidence_set, point_test

T = 300
RESOLUTION = 20


def forecast_combination(w0, seed):
    """``H``, ``h``, ``psi_H`` and ``psi_h`` of one draw of ``T`` periods."""
    rng = np.random.default_rng(seed)
    K = len(w0)
    # correlated forecasts with distinct levels and spreads
    common = rng.standard_normal((T, 1))
    own = rng.standard_normal((T, K)) * (1.0 + np.arange(K) / 2)
    F = 1.0 + np.arange(K) / K + 0.5 * common + own
    y = F @ np.asarray(w0) + rng.standard_normal(T)
    H = F.T @ F / T
    h = F.T @ y / T
    psi_H = F[:, :, None] * F[:, None, :] - H
    psi_h = F * y[:, None] - h
    return H, h, psi_H, psi_h


@pytest.mark.parametrize("w0", [(0.2, 0.4, 0.4), (0.5, 0.5, 0.0)], ids=["interior", "boundary"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_forecast_combination_set_holds_the_truth_and_the_estimate(w0, seed):
    H, h, psi_H, psi_h = forecast_combination(w0, seed)
    comps = QuadraticComponents(H, h)
    model = make_weight_model(comps, InfluenceSet(psi_H, psi_h))
    assert model.n == T
    w_hat = solve_simplex_qp(H, h)
    assert point_test(model, w0, 0.05).member
    assert point_test(model, w_hat, 0.05).member
    cs = confidence_set(model, 0.05, RESOLUTION)
    at_w0 = np.flatnonzero(np.all(np.abs(cs.grid - w0) < 1e-12, axis=1))
    assert at_w0.size == 1 and cs.member_mask[at_w0[0]]
    assert 0 < cs.member_mask.sum() < cs.grid.shape[0]  # a proper subset of the lattice


def test_uncentred_influences_are_refused():
    H, h, psi_H, psi_h = forecast_combination((0.2, 0.4, 0.4), 1)
    with pytest.raises(ValueError, match="^influence functions are not mean zero"):
        InfluenceSet(psi_H, psi_h + h)
