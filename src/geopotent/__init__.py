"""geopotent: absolute gravitational potential toolkit for spherical bodies.

Closed-form fields of uniform spheres, exact integrals over tabulated
radial profiles, the direct (maximum potential) and inverse (characteristic
radius) problems, buried-anomaly detectability, and time-varying cavity
precursor series, with a CLI (`geopotent`) on top.
"""

__version__ = "0.1.0"

from .anomaly import (
    AnomalySignal,
    BackgroundState,
    DetectabilityRow,
    SensitivityPair,
    detectability_report,
    point_mass_signal,
    sensitivity_coefficients,
)
from .core import (
    DEFAULT_CONSTANTS,
    AnomalySource,
    CavitySchedule,
    DensityTrend,
    EarthParameters,
    InversionResult,
    PhysicalConstants,
    PotentialBreakdown,
    RadialProfile,
    ScheduleSegment,
    UniformSphere,
)
from .field import (
    FieldSample,
    FieldTable,
    absolute_potential,
    equipotential_velocity,
    gravity,
    kinetic_potential,
    sample_field,
    u_infinity_homogeneous,
)
from .profiles import (
    GradPResult,
    core_equilibrium_gravity,
    enclosed_mass,
    interpolate,
    mean_density,
    pressure_gradient_max,
    surface_potential_integral,
)
from .pulse import (
    PulseSample,
    PulseTable,
    evaluate_schedule,
    pulsating_potential,
    surface_background,
)
from .solver import (
    BoundaryReference,
    HomogeneityBoundReport,
    compression_potential,
    direct_problem,
    homogeneity_bound,
    inverse_problem,
    locate_boundary,
)

__all__ = [
    "__version__",
    "DEFAULT_CONSTANTS",
    "AnomalySignal",
    "AnomalySource",
    "BackgroundState",
    "BoundaryReference",
    "CavitySchedule",
    "DensityTrend",
    "DetectabilityRow",
    "EarthParameters",
    "FieldSample",
    "FieldTable",
    "GradPResult",
    "HomogeneityBoundReport",
    "InversionResult",
    "PhysicalConstants",
    "PotentialBreakdown",
    "PulseSample",
    "PulseTable",
    "RadialProfile",
    "ScheduleSegment",
    "SensitivityPair",
    "UniformSphere",
    "absolute_potential",
    "compression_potential",
    "core_equilibrium_gravity",
    "detectability_report",
    "direct_problem",
    "enclosed_mass",
    "equipotential_velocity",
    "evaluate_schedule",
    "gravity",
    "homogeneity_bound",
    "interpolate",
    "inverse_problem",
    "kinetic_potential",
    "locate_boundary",
    "mean_density",
    "point_mass_signal",
    "pressure_gradient_max",
    "pulsating_potential",
    "sample_field",
    "sensitivity_coefficients",
    "surface_background",
    "surface_potential_integral",
    "u_infinity_homogeneous",
]
