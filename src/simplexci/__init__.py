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

from .distributions import (
    chi2_cdf,
    chi2_pdf,
    chi2_quantile,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    regularized_gamma_p,
)
from .estimators import (
    InfluenceSet,
    PanelData,
    QuadraticComponents,
    bootstrap_variance,
    influence_set,
    make_weight_model,
    quadratic_components,
    treatment_functional,
    variance_at,
)
from .exceptions import ConvergenceError, DataError, IllConditionedError
from .geometry import (
    SpdMatrix,
    build_basis,
    check_simplex_point,
    project_cone,
    solve_simplex_qp,
)
from .inference import (
    ConfidenceSet,
    Interval,
    PointTest,
    WeightModel,
    bonferroni_interval,
    confidence_set,
    default_resolution,
    point_test,
    projection_interval,
    simplex_grid,
)
from .montecarlo import CoverageReport, McSpec, coverage_experiment, generate_panel

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DataError",
    "IllConditionedError",
    "SpdMatrix",
    "build_basis",
    "check_simplex_point",
    "project_cone",
    "solve_simplex_qp",
    "regularized_gamma_p",
    "chi2_cdf",
    "chi2_pdf",
    "chi2_quantile",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
    "WeightModel",
    "PointTest",
    "ConfidenceSet",
    "Interval",
    "default_resolution",
    "simplex_grid",
    "point_test",
    "confidence_set",
    "projection_interval",
    "bonferroni_interval",
    "PanelData",
    "QuadraticComponents",
    "InfluenceSet",
    "quadratic_components",
    "influence_set",
    "variance_at",
    "bootstrap_variance",
    "treatment_functional",
    "make_weight_model",
    "McSpec",
    "CoverageReport",
    "generate_panel",
    "coverage_experiment",
    "__version__",
]
