"""Numerical harness for a degenerate Ricci-type flow on screen leaves
of null manifolds, with gradient-estimate verification."""

from .config import ConfigError, RunConfig, parse_config
from .distance import DistanceField, geodesic_distance
from .estimates import (
    CurvatureBounds,
    CutoffCertificate,
    EstimateError,
    EstimateParams,
    EstimateReport,
    build_cutoff,
    verify,
)
from .flow import (
    FlowConfig,
    FlowError,
    FlowTrajectory,
    run_flow,
    step_flow,
)
from .grids import (
    GridError,
    LeafGrid,
    ScalarField,
    make_sphere_grid,
    make_torus_grid,
)
from .metric import (
    CurvaturePack,
    LeafMetric,
    MetricError,
    SingularMetricError,
    bochner_residual,
    christoffel,
    curvature,
    gradient,
    grad_norm_sq,
    hessian,
    laplace_beltrami,
    ricci,
    ricci_identity_residual,
)
from .nullgeom import (
    DegenerateMetric,
    NullCurveFrame,
    NullStructureError,
    ReparamResult,
    distinguished_parameter,
    frenet_functions,
    radical_check,
    screen_projection,
)
from .scenarios import SCENARIOS, ScenarioError, build_scenario_metric

__version__ = "0.1.0"
