import ast
import importlib
import json
import os
import re
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
# the layers past the mesh, which the commands that only need a mesh must not load
LAYER_MODULES = {"ballwise.domain", "ballwise.glm", "ballwise.permute", "ballwise.evalsim"}


def python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's ``src`` on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)


def run_python(code: str, cwd=None) -> str:
    done = python("-c", code, cwd=cwd)
    done.check_returncode()
    return done.stdout


def test_cli_import_leaves_scipy_sparse_unloaded():
    # `tessellate` never needs a graph, so start-up must not pay for scipy.sparse
    out = run_python(f"import sys, ballwise.cli; print({SPARSE_MODULES})")
    assert out.strip() == "[]"


def test_cli_import_leaves_scipy_unloaded():
    # no command imports scipy: the manifest reads its version from a file
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
    # the shortest paths are numpy, the manifest reads scipy's version from a
    # file, and np.unique and np.isin (which import numpy.ma) are avoided:
    # each of these imports would cost every run more than a small command
    # the probe prints a Python literal, so that it imports no json itself
    out = run_python(
        f"import sys; from ballwise.cli import main; "
        f"print([main({args!r}), list(sys.modules)])",
        cwd=cli_runs,
    )
    code, loaded = ast.literal_eval(out.splitlines()[-1])
    assert code == 0
    assert [m for m in loaded if m.split(".")[0] == "scipy" or m == "numpy.ma"] == []
    if args[0] in ("tessellate", "distances"):
        # nor do they read a config or write a manifest
        assert not (LAYER_MODULES | {"json", "hashlib"}) & set(loaded)


def test_cli_entry_point(tmp_path):
    # python -m ballwise.cli, which freezes the GC before main, as the
    # installed script does
    done = python("-m", "ballwise.cli", "tessellate", "--order", "2", "--out", "m.off",
                  cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout == "wrote icosphere order 2: 42 vertices, 80 faces -> m.off\n"
    assert (tmp_path / "m.off").exists()
    failed = python("-m", "ballwise.cli", "test", "--config", "missing.json", cwd=tmp_path)
    assert failed.returncode == 2
    assert failed.stderr == "error: config file not found: missing.json\n"


def test_manifest_records_the_scipy_version(cli_runs):
    import scipy

    # a fresh process, in which the manifest is the first to import scipy
    args = ["test", "--config", "run.json", "--out-dir", "o3"]
    run_python(f"from ballwise.cli import main; assert main({args!r}) == 0", cwd=cli_runs)
    manifest = json.loads((cli_runs / "o3" / "manifest.json").read_text())
    assert manifest["scipy"] == scipy.__version__


def test_manifest_without_scipy(cli_runs, monkeypatch):
    # scipy is a dependency of the tests only; without it the field is null
    import importlib.util

    from ballwise.cli import main

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: None if name == "scipy" else find_spec(name, *args))
    monkeypatch.chdir(cli_runs)
    assert main(["test", "--config", "run.json", "--out-dir", "o4"]) == 0
    assert json.loads((cli_runs / "o4" / "manifest.json").read_text())["scipy"] is None


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # README's library examples, in order in one namespace, as a reader runs
    # them: a renamed or re-signed call fails here
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
    assert namespace["result"].p.adjusted.shape == (namespace["domain"].size,)
    assert 0 <= namespace["rates"].fwer <= 1
