"""Weight models built directly from arrays, for tests."""

from __future__ import annotations

import numpy as np

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
