"""Benchmark workloads: fixed shapes, inputs generated from a seed.

The program sees only the files written here: an OFF mesh (from its own
``tessellate``), binary signals and JSON configs. The seed picks the signals,
the effect region, the group labels and the permutation seed; the domain
shapes are fixed, so the family size is known in advance.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    order: int                      # icosphere order of the mesh component
    mesh_cap: float                 # math.inf for the full cap
    n_obs: int
    permutations: int
    statistic: str = "t_two_sample_sq"
    scheme: str = "raw_label_permutation"
    circle: tuple[int, float, float] | None = None  # points, circumference, cap
    distance_cache: bool = False
    adjust_caps: tuple[float, ...] | None = None    # re-run `adjust` with these
    replicates: int = 0             # > 0: the main command is `simulate`
    expected_balls: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # Product-family materialisation and output writing dominate; the mesh
        # layer does almost nothing (the distances come from a cache).
        Workload(
            name="mesh_circle",
            order=4,
            mesh_cap=0.5,
            n_obs=20,
            permutations=500,
            circle=(12, 12.0, 2.5),
            distance_cache=True,
            adjust_caps=(0.3, 1.5),
            expected_balls=31_752,
        ),
        # The north-star mesh: OFF parse, Heron loop, all-pairs Dijkstra and
        # the per-center dedup dominate; the only Freedman-Lane run.
        Workload(
            name="sphere25",
            order=25,
            mesh_cap=0.06,
            n_obs=30,
            permutations=500,
            statistic="t_trend_cutoff",
            scheme="freedman_lane",
            expected_balls=42_510,
        ),
        # Full-cap family enumerated once and reused across replicates: sparse
        # ball integration and the scatter-max dominate; the only evalsim run.
        Workload(
            name="simulate_fullcap",
            order=5,
            mesh_cap=math.inf,
            n_obs=20,
            permutations=200,
            replicates=3,
        ),
    )
}

MESH = "mesh.off"
CACHE = "dist.bin"
SIGNALS = "signals.bin"
CONFIG = "run.json"
SCENARIOS = "scenarios.json"
SIM_OUT = "rates.csv"
OUT_DIR = "out"
ADJ_DIR = "adj"


def _cap(value: float):
    return "inf" if math.isinf(value) else value


def setup_commands(w: Workload) -> list[list[str]]:
    """The one-time set-up a user runs before the main command."""
    cmds = [["tessellate", "--order", str(w.order), "--out", MESH]]
    if w.distance_cache:
        cmds.append(["distances", "--mesh", MESH, "--out", CACHE])
    return cmds


def main_args(w: Workload) -> list[str]:
    if w.replicates:
        return ["simulate", "--config", SCENARIOS, "--out", SIM_OUT]
    return ["test", "--config", CONFIG, "--out-dir", OUT_DIR]


def adjust_args(w: Workload) -> list[str]:
    caps = ",".join(str(c) for c in w.adjust_caps)
    return ["adjust", "--config", CONFIG, "--balls", f"{OUT_DIR}/balls.csv",
            "--caps", caps, "--out-dir", ADJ_DIR]


def output_files(w: Workload) -> list[str]:
    """Files of the main command that must be byte-identical across repeats."""
    if w.replicates:
        return [SIM_OUT]
    return [f"{OUT_DIR}/pointwise.csv", f"{OUT_DIR}/balls.csv"]


def read_off(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of an ASCII OFF file as written by `tessellate`."""
    tokens = path.read_text().split()
    nv, nf = int(tokens[1]), int(tokens[2])
    verts = np.array(tokens[4:4 + 3 * nv], dtype=float).reshape(nv, 3)
    faces = np.array(tokens[4 + 3 * nv:4 + 3 * nv + 4 * nf], dtype=np.int64)
    return verts, faces.reshape(nf, 4)[:, 1:]


def write_inputs(w: Workload, workdir: Path, seed: int) -> None:
    """Signals and configs for one run; needs the set-up's mesh in ``workdir``."""
    rng = np.random.default_rng(seed)
    verts, _ = read_off(workdir / MESH)
    n_vertices = len(verts)
    # effect region: a spherical cap around a random direction
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    region = verts @ axis / np.linalg.norm(verts, axis=1) > math.cos(0.5)
    inference_seed = int(rng.integers(2**31))

    if w.replicates:
        scenario = {
            "id": f"seed{seed}",
            "mesh_path": MESH,
            "n_samples": w.n_obs,
            "permutations": w.permutations,
            "replicates": w.replicates,
            "seed": inference_seed,
            "radius_cap": _cap(w.mesh_cap),
            "signal_amplitude": 1.5,
            "truth": {"type": "cap", "center": int(rng.integers(n_vertices)),
                      "radius": 0.5},
        }
        (workdir / SCENARIOS).write_text(json.dumps([scenario]))
        return

    n_circle = w.circle[0] if w.circle else 1
    Y = rng.standard_normal((w.n_obs, n_vertices, n_circle))
    mesh_comp = {"kind": "mesh", "path": MESH, "radius_cap": _cap(w.mesh_cap)}
    if w.distance_cache:
        mesh_comp["distance_cache"] = CACHE
    components = [mesh_comp]
    if w.circle:
        points, circumference, cap = w.circle
        components.append({"kind": "circle", "points": points,
                           "circumference": circumference, "radius_cap": _cap(cap)})
    if w.statistic == "t_two_sample_sq":
        groups = rng.permutation(np.repeat([0, 1], w.n_obs // 2))
        Y[groups == 1] += 0.8 * region[:, None]
        model = {"statistic": w.statistic, "groups": groups.tolist()}
    else:
        covariate = np.arange(w.n_obs)
        Y += 0.05 * covariate[:, None, None] * region[:, None]
        model = {"statistic": w.statistic, "covariate": covariate.tolist()}
    config = {
        "domain": {"components": components},
        "data": {"path": SIGNALS, "format": "bin"},
        "model": model,
        "inference": {"permutations": w.permutations, "seed": inference_seed,
                      "scheme": w.scheme},
    }
    Y = np.ascontiguousarray(Y.reshape(w.n_obs, -1), dtype="<f8")
    with open(workdir / SIGNALS, "wb") as fh:
        fh.write(struct.pack("<QQ", *Y.shape))
        fh.write(Y.tobytes())
    (workdir / CONFIG).write_text(json.dumps(config))
