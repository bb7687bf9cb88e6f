"""Weight models and single cone projections built directly from arrays,
for tests."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from simplexci.geometry import factor_spd, project_cone
from simplexci.inference import WeightModel


def constant_model(f, omega, n) -> WeightModel:
    """Model whose gradient ``f`` and covariance ``omega`` do not depend on
    the weight: ``G = [0 | f]`` and ``M[K, K] = omega``, every other block
    zero."""
    f = np.asarray(f, dtype=float)
    K = f.size + 1
    G = np.zeros((K - 1, K + 1))
    G[:, K] = f
    M = np.zeros((K + 1, K + 1, K - 1, K - 1))
    M[K, K] = omega
    return WeightModel(G=G, M=M, n=n)


def project_one(f, w, omega) -> SimpleNamespace:
    """Row 0 of the stacked ``project_cone`` on one problem: ``omega`` goes
    through ``factor_spd``, whose failure is raised. The row's columns are
    the attributes ``lam``, ``residual``, ``objective``, ``gradient_image``,
    ``zeros`` and ``over_cap``."""
    _, white, failures = factor_spd(np.asarray(omega, dtype=float)[None])
    if failures:
        raise failures[0]
    f, w = np.asarray(f, dtype=float), np.asarray(w, dtype=float)
    row = (column[0] for column in project_cone(f[None], w[None], white))
    names = ("lam", "residual", "objective", "gradient_image", "zeros", "over_cap")
    return SimpleNamespace(**dict(zip(names, row)))
