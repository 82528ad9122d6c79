"""Projection-based fixed-point iterations on the unit sphere.

The package provides a spherical geometry kernel (arccos metric, geodesic
averaging, the comparison inequality), halfspace-and-cap constraint regions
with an oracle-verified metric projection, a zoo of nonexpansive mappings
with staged averaging, and two iteration drivers (the CQ method and the
shrinking projection method) that converge to the common-fixed-point
projection of their anchor.
"""

from .errors import (
    AntipodalPoints,
    ConfigError,
    EmptyOrDegenerate,
    FeasibilityViolated,
    MonotonicityViolated,
    NoConvergence,
    PerimeterTooLarge,
    SphereProjError,
    WitnessInfeasible,
)
from .geometry import (
    SpherePoint,
    basis_point,
    distance,
    geodesic_combine,
    inner,
    pal_inequality_gap,
    pal_inequality_gaps,
    random_point_in_cap,
    sample_cap,
)
from .iteration import (
    IterationState,
    Problem,
    StopReason,
    StopRule,
    Trace,
    TraceRecord,
    cq_step,
    fejer_audit,
    initial_state,
    iterate,
    run,
    shrink_step,
)
from .mappings import (
    Identity,
    MappingFamily,
    PlaneRotation,
    WMapping,
    fixed_axes,
    residuals,
)
from .regions import (
    Halfspace,
    Region,
    SolveStats,
    contains,
    intersect,
    make_cn,
    make_qn,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "AntipodalPoints", "ConfigError", "EmptyOrDegenerate", "FeasibilityViolated",
    "MonotonicityViolated", "NoConvergence", "PerimeterTooLarge", "SphereProjError",
    "WitnessInfeasible",
    "SpherePoint", "basis_point", "distance", "geodesic_combine", "inner",
    "pal_inequality_gap", "pal_inequality_gaps", "random_point_in_cap",
    "sample_cap",
    "IterationState", "Problem", "StopReason", "StopRule", "Trace",
    "TraceRecord", "cq_step", "fejer_audit", "initial_state", "iterate", "run",
    "shrink_step",
    "Identity", "MappingFamily", "PlaneRotation", "WMapping",
    "fixed_axes", "residuals",
    "Halfspace", "Region", "SolveStats", "contains", "intersect", "make_cn",
    "make_qn", "project",
    "__version__",
]
