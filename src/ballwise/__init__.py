"""Ball-wise local inference for functional data on triangulated manifold
domains: permutation p-values, ball-product adjustment families and the
sup-adjusted p-value function.

The public names are imported from their submodule on first access (PEP 562),
so a process that uses one layer never compiles or runs the others.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "domain": [
        "AdjustmentFamily", "ComponentGrid", "ProductDomain",
        "circle_component", "enumerate_component_balls",
        "enumerate_family", "interval_component", "mesh_component",
    ],
    "glm": ["StatKernel"],
    "mesh": [
        "TriangulatedManifold", "build_icosphere", "load_mesh", "save_off",
    ],
    "permute": ["PValueFields", "generate_permutations", "run_inference"],
    "evalsim": [
        "ErrorRates", "ScenarioConfig", "compute_error_rates", "run_scenario",
    ],
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
