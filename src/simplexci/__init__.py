"""Confidence sets for simplex-constrained weights identified by convex
minimization.

The package tests candidate weight vectors by projecting a transformed
gradient estimate onto the polyhedral cone attached to each candidate,
with chi-square critical values whose degrees of freedom adapt to the face
the projection hits. Sweeping a simplex lattice yields confidence sets that
remain valid when the true weights sit on the boundary; projection and
Bonferroni intervals for scalar functionals follow. A group-level synthetic
control estimator maps panel data into the framework, and a Monte Carlo
harness reproduces coverage experiments.
"""

from . import distributions, estimators, exceptions, geometry, inference, montecarlo
from .distributions import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403

__version__ = "0.1.0"

# each module's __all__ is its API; ``cli`` stays out, so importing the
# package loads no argparse or csv code
__all__ = [
    name
    for module in (exceptions, geometry, distributions, inference, estimators, montecarlo)
    for name in module.__all__
] + ["__version__"]
