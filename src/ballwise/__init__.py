"""Ball-wise local inference for functional data on triangulated manifold
domains: permutation p-values, ball-product adjustment families and the
sup-adjusted p-value function."""

__version__ = "0.1.0"

from .domain import (
    AdjustmentFamily,
    ComponentGrid,
    ProductDomain,
    circle_component,
    enumerate_component_balls,
    enumerate_family,
    interval_component,
    mesh_component,
)
from .glm import (
    DesignSpec,
    HypothesisSpec,
    StatKernel,
    stat_field,
)
from .mesh import (
    TriangulatedManifold,
    build_icosphere,
    load_mesh,
    save_off,
    triangle_area,
)
from .permute import PermutationPlan, PValueFields, run_inference
from .evalsim import (
    ErrorRates,
    ScenarioConfig,
    compute_error_rates,
    gaussian_kernel_noise,
    run_scenario,
)

__all__ = [
    "AdjustmentFamily", "ComponentGrid", "ProductDomain",
    "circle_component", "enumerate_component_balls",
    "enumerate_family", "interval_component", "mesh_component",
    "DesignSpec", "HypothesisSpec", "StatKernel", "stat_field",
    "TriangulatedManifold", "build_icosphere", "load_mesh", "save_off",
    "triangle_area",
    "PermutationPlan", "PValueFields", "run_inference",
    "ErrorRates", "ScenarioConfig", "compute_error_rates",
    "gaussian_kernel_noise", "run_scenario",
]
