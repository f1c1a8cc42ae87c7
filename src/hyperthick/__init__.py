"""Average cross-sectional thickness of star-shaped bodies.

Computes the mean m-dimensional section thickness of n-dimensional
star-shaped bodies, classifies and evaluates the stationary shapes of the
fixed-volume, fixed-centroid variational problem, and cross-checks every
closed form against quadrature and Monte Carlo.
"""

__version__ = "0.1.0"

from .analysis import (
    DeformationSample,
    DumbbellConfig,
    dumbbell_thickness,
    nullvector_recover,
    sphere_optimality_test,
    stationarity_residual,
    stationary_shape,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DegenerateBodyError,
    DomainError,
    GeometryError,
    HyperthickError,
    InsufficientSamplingError,
    NoRootError,
    OutsideSupportError,
    PoleError,
    ProjectionError,
    RankError,
    UnboundedRegionError,
)
from .geometry import (
    DirectionGrid,
    build_grid,
    cartesian_to_spherical,
    frame_from_pole,
    unit_vectors,
)
from .nsphere import unit_ball_volume, unit_sphere_area
from .properties import (
    BodyProperties,
    body_properties,
    closed_form,
    linear_identity_residual,
    thickness_via_identity,
)
from .stationary import (
    ProfileCurve,
    ShapeClass,
    StationaryParams,
    classify,
    critical_support,
    cusp_angle_2d,
    cylindrical_radius,
    ecc_from_mu,
    factorization_residual,
    mu_from_ecc,
    profile_curve,
    radial_profile,
    support_interval,
)
from .thickness import (
    IndicatorBody,
    StarShape,
    average_thickness,
    axis_section_average,
    centroid,
    moment_vector,
    thickness_montecarlo,
    volume,
)

__all__ = [
    "BodyProperties",
    "BudgetError",
    "ConvergenceError",
    "DeformationSample",
    "DegenerateBodyError",
    "DirectionGrid",
    "DomainError",
    "DumbbellConfig",
    "GeometryError",
    "HyperthickError",
    "IndicatorBody",
    "InsufficientSamplingError",
    "NoRootError",
    "OutsideSupportError",
    "PoleError",
    "ProfileCurve",
    "ProjectionError",
    "RankError",
    "ShapeClass",
    "StarShape",
    "StationaryParams",
    "UnboundedRegionError",
    "average_thickness",
    "axis_section_average",
    "body_properties",
    "build_grid",
    "cartesian_to_spherical",
    "centroid",
    "classify",
    "closed_form",
    "critical_support",
    "cusp_angle_2d",
    "cylindrical_radius",
    "dumbbell_thickness",
    "ecc_from_mu",
    "factorization_residual",
    "frame_from_pole",
    "linear_identity_residual",
    "moment_vector",
    "mu_from_ecc",
    "nullvector_recover",
    "profile_curve",
    "radial_profile",
    "sphere_optimality_test",
    "stationarity_residual",
    "stationary_shape",
    "support_interval",
    "thickness_montecarlo",
    "thickness_via_identity",
    "unit_ball_volume",
    "unit_sphere_area",
    "unit_vectors",
    "volume",
]
