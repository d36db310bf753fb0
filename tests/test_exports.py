import importlib

import pytest

MODULES = [
    "ballwise",
    "ballwise.cli",
    "ballwise.domain",
    "ballwise.evalsim",
    "ballwise.glm",
    "ballwise.mesh",
    "ballwise.permute",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
