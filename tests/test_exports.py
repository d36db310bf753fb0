import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


SPARSE_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy.sparse'))"


def run_python(code: str, cwd=None) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True).stdout


def test_cli_import_leaves_scipy_sparse_unloaded():
    # `tessellate` never needs a graph, so start-up must not pay for scipy.sparse
    out = run_python(f"import sys, ballwise.cli; print({SPARSE_MODULES})")
    assert out.strip() == "[]"


def test_cli_import_leaves_scipy_unloaded():
    # only the manifest needs scipy, for its version
    out = run_python("import sys, ballwise.cli; print('scipy' in sys.modules)")
    assert out.strip() == "False"


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Inputs of a small run of every command that loads a mesh: an order-2
    icosphere with its distance cache, signals, test configs with a finite
    cap, with and without the cache, the balls of one run and a scenario."""
    from ballwise.cli import main
    from ballwise.glm import save_signals_csv

    work = tmp_path_factory.mktemp("cli")
    assert main(["tessellate", "--order", "2", "--out", str(work / "m.off")]) == 0
    assert main(["distances", "--mesh", str(work / "m.off"), "--out", str(work / "d.bin")]) == 0
    rng = np.random.default_rng(0)
    save_signals_csv(rng.standard_normal((8, 42)), work / "y.csv")
    mesh = {"kind": "mesh", "path": str(work / "m.off"), "radius_cap": 0.6}
    config = {
        "domain": {"components": [mesh]},
        "data": {"path": str(work / "y.csv"), "format": "csv"},
        "model": {"statistic": "t_two_sample_sq", "groups": [0, 0, 0, 0, 1, 1, 1, 1]},
        "inference": {"permutations": 19, "seed": 5, "scheme": "raw_label_permutation"},
    }
    (work / "run.json").write_text(json.dumps(config))
    mesh["distance_cache"] = str(work / "d.bin")
    (work / "cached.json").write_text(json.dumps(config))
    (work / "sim.json").write_text(json.dumps([{
        "id": "s", "mesh_path": str(work / "m.off"), "n_samples": 8, "permutations": 9,
        "replicates": 1, "seed": 1, "radius_cap": "inf",
    }]))
    assert main(["test", "--config", str(work / "run.json"), "--out-dir", str(work / "out")]) == 0
    return work


@pytest.mark.parametrize("args", [
    ["test", "--config", "run.json", "--out-dir", "o1"],
    ["test", "--config", "cached.json", "--out-dir", "o2"],
    ["adjust", "--config", "run.json", "--balls", "out/balls.csv", "--caps", "0.4",
     "--out-dir", "adj"],
    ["simulate", "--config", "sim.json", "--out", "rates.csv"],
    ["distances", "--mesh", "m.off", "--out", "d2.bin"],
    ["tessellate", "--order", "3", "--out", "m3.off"],
], ids=["test", "test-cached", "adjust", "simulate", "distances", "tessellate"])
def test_cli_commands_leave_scipy_sparse_unloaded(cli_runs, args):
    # the shortest paths and connectivity checks are numpy; scipy.sparse
    # would cost every run a slow import
    out = run_python(
        f"import sys; from ballwise.cli import main; print(main({args!r}), {SPARSE_MODULES})",
        cwd=cli_runs,
    )
    assert out.splitlines()[-1] == "0 []"


def test_manifest_records_the_scipy_version(cli_runs):
    import scipy

    # a fresh process, in which the manifest is the first to import scipy
    args = ["test", "--config", "run.json", "--out-dir", "o3"]
    run_python(f"from ballwise.cli import main; assert main({args!r}) == 0", cwd=cli_runs)
    manifest = json.loads((cli_runs / "o3" / "manifest.json").read_text())
    assert manifest["scipy"] == scipy.__version__
