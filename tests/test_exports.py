import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_scipy_sparse_unloaded():
    # `tessellate` never needs a graph, so start-up must not pay for scipy.sparse
    code = (
        "import sys, ballwise.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
