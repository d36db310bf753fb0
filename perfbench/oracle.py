"""Output checks for the benchmark that do not use the family internals.

Everything here is recomputed from the files the program read and wrote: the
OFF mesh, the distance cache (or Dijkstra on the OFF edges when there is no
cache), the circle's arc lengths and the output CSVs. Each check returns a
list of problems; an empty list means the outputs are correct.

p-values are not compared to a stored digest: a tie-robust p-value fix may
change them legitimately. They are checked for what any correct run satisfies.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from workloads import ADJ_DIR, CACHE, MESH, OUT_DIR, SIM_OUT, Workload, read_off

RTOL = 1e-9
# balls whose statistic is recomputed, grid points whose p_adj is recomputed
N_BALLS = 400
N_POINTS = 200


def heron_weights(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """One third of the flat area of every incident triangle, per vertex."""
    a = np.linalg.norm(verts[tris[:, 0]] - verts[tris[:, 1]], axis=1)
    b = np.linalg.norm(verts[tris[:, 1]] - verts[tris[:, 2]], axis=1)
    c = np.linalg.norm(verts[tris[:, 0]] - verts[tris[:, 2]], axis=1)
    s = 0.5 * (a + b + c)
    area = np.sqrt(np.clip(s * (s - a) * (s - b) * (s - c), 0.0, None))
    w = np.zeros(len(verts))
    np.add.at(w, tris.ravel(), np.repeat(area / 3.0, 3))
    return w


class MeshGeometry:
    """Weights and distances d(center, x) of the mesh component.

    Distances are not exactly symmetric in floating point, so d(c, x) is
    always taken from a search started at the center c, as the program does.
    Without a cache, searches stop at twice the radius cap: every ball radius
    is at most the cap, and a bounded search returns the same values as a
    full one inside its bound.
    """

    def __init__(self, workdir: Path, w: Workload):
        verts, tris = read_off(workdir / MESH)
        self.n = len(verts)
        self.weights = heron_weights(verts, tris)
        self.matrix = None
        self.limit = 2 * w.mesh_cap if math.isfinite(w.mesh_cap) else np.inf
        if w.distance_cache:
            raw = (workdir / CACHE).read_bytes()
            self.matrix = np.frombuffer(raw, dtype="<f8", offset=8).reshape(self.n, self.n)
            return
        pairs = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [0, 2]]])
        pairs.sort(axis=1)
        edges = np.unique(pairs, axis=0)
        length = np.linalg.norm(verts[edges[:, 0]] - verts[edges[:, 1]], axis=1)
        i, j = edges[:, 0], edges[:, 1]
        self.graph = coo_matrix(
            (np.concatenate([length, length]), (np.concatenate([i, j]), np.concatenate([j, i]))),
            shape=(self.n, self.n),
        ).tocsr()

    def rows(self, centers: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix[centers]
        return dijkstra(self.graph, directed=False, indices=centers, limit=self.limit)

    def column(self, x: int) -> np.ndarray:
        """d(c, x) for every vertex c (inf beyond the search bound)."""
        if self.matrix is not None:
            return self.matrix[:, x]
        near = np.nonzero(self.rows(np.array([x]))[0] < self.limit)[0]
        col = np.full(self.n, np.inf)
        col[near] = self.rows(near)[:, x]
        return col


class CircleGeometry:
    """Equally spaced points on a circle with arc-length distance."""

    def __init__(self, points: int, circumference: float):
        step = circumference / points
        idx = np.arange(points)
        k = np.abs(idx[:, None] - idx[None, :])
        self.matrix = np.minimum(k, points - k) * step
        self.weights = np.full(points, step)
        self.n = points

    def rows(self, centers: np.ndarray) -> np.ndarray:
        return self.matrix[centers]

    def column(self, x: int) -> np.ndarray:
        return self.matrix[:, x]


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def off_grid(p: np.ndarray, permutations: int) -> np.ndarray:
    """Which values are not of the form (1 + k) / (B + 1) with 0 <= k <= B."""
    k = np.rint(p * (permutations + 1)) - 1
    return (k < 0) | (k > permutations) | ((1.0 + k) / (permutations + 1.0) != p)


class Oracle:
    """Checks for one run's outputs; ``seed`` picks the sampled balls and points."""

    def __init__(self, w: Workload, workdir: Path, seed: int):
        self.w = w
        self.workdir = workdir
        self.seed = seed
        self.components = [MeshGeometry(workdir, w)]
        if w.circle:
            self.components.append(CircleGeometry(w.circle[0], w.circle[1]))
        self.shape = tuple(c.n for c in self.components)

    def _balls(self):
        header, data = read_table(self.workdir / OUT_DIR / "balls.csv")
        L = len(self.components)
        expected = ["ball_id"] + [f"{k}_{l}" for l in range(L)
                                  for k in ("center", "radius", "inner_radius")]
        if header != expected + ["T_ball_obs", "p_ball"]:
            raise ValueError(f"balls.csv header {header}")
        centers = [data[:, 1 + 3 * l].astype(np.int64) for l in range(L)]
        radii = [data[:, 2 + 3 * l] for l in range(L)]
        inner = [data[:, 3 + 3 * l] for l in range(L)]
        return centers, radii, inner, data[:, -2], data[:, -1]

    def _covering_max(self, g: int, centers, radii, p_ball, keep=None) -> float:
        """max p_ball over the balls whose support contains grid point g."""
        cover = np.ones(len(p_ball), dtype=bool) if keep is None else keep.copy()
        for comp, c, r, x in zip(self.components, centers, radii,
                                 np.unravel_index(g, self.shape)):
            cover &= comp.column(int(x))[c] < r
        return float(p_ball[cover].max()) if cover.any() else 0.0

    def _points(self) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 1])
        m = int(np.prod(self.shape))
        return rng.choice(m, min(N_POINTS, m), replace=False)

    def check_test(self) -> list[str]:
        """pointwise.csv and balls.csv of `ballwise test`."""
        problems = []
        header, pw = read_table(self.workdir / OUT_DIR / "pointwise.csv")
        if header[-3:] != ["T_obs", "p", "p_adj"] or len(pw) != np.prod(self.shape):
            return [f"pointwise.csv: header {header}, {len(pw)} rows"]
        T, p, p_adj = pw[:, -3].reshape(self.shape), pw[:, -2], pw[:, -1]
        centers, radii, _, T_ball, p_ball = self._balls()
        B = self.w.permutations

        # (iv) family size
        if self.w.expected_balls is not None and len(p_ball) != self.w.expected_balls:
            problems.append(f"{len(p_ball)} balls, expected {self.w.expected_balls}")
        # (iii) p-values on the permutation grid, and p <= p_adj
        for name, values in (("p", p), ("p_adj", p_adj), ("p_ball", p_ball)):
            bad = np.count_nonzero(off_grid(values, B))
            if bad:
                problems.append(f"{bad} {name} values not of the form (1+k)/(B+1)")
        if np.any(p > p_adj):
            problems.append(f"{np.count_nonzero(p > p_adj)} points with p > p_adj")

        # (i) integrated statistic over the support of sampled balls
        rng = np.random.default_rng([self.seed, 0])
        sample = rng.choice(len(p_ball), min(N_BALLS, len(p_ball)), replace=False)
        rows = [comp.rows(c[sample]) for comp, c in zip(self.components, centers)]
        for i, k in enumerate(sample):
            masks = [row[i] < r[k] for row, r in zip(rows, radii)]
            value = T[np.ix_(*masks)]
            for comp, mask in zip(reversed(self.components), reversed(masks)):
                value = value @ comp.weights[mask]
            if not math.isclose(value, T_ball[k], rel_tol=RTOL):
                problems.append(f"ball {k}: T_ball_obs {T_ball[k]:.17g}, support sum {value:.17g}")

        # (ii) adjusted p is the covering max of the ball p-values
        for g in self._points():
            expected = self._covering_max(g, centers, radii, p_ball)
            if expected != p_adj[g]:
                problems.append(f"grid point {g}: p_adj {p_adj[g]:.17g}, covering max {expected:.17g}")
        return problems

    def check_adjusted(self, caps) -> list[str]:
        """adjusted.csv of `ballwise adjust`: the covering max over the balls
        whose inner radii stay below the new caps."""
        header, adj = read_table(self.workdir / ADJ_DIR / "adjusted.csv")
        if header != ["grid_id", "p_adj"] or len(adj) != np.prod(self.shape):
            return [f"adjusted.csv: header {header}, {len(adj)} rows"]
        centers, radii, inner, _, p_ball = self._balls()
        keep = np.ones(len(p_ball), dtype=bool)
        for ir, cap in zip(inner, caps):
            keep &= ir < cap
        problems = []
        for g in self._points():
            expected = self._covering_max(g, centers, radii, p_ball, keep)
            if expected != adj[g, 1]:
                problems.append(f"grid point {g}: adjusted {adj[g, 1]:.17g}, covering max {expected:.17g}")
        return problems


def check_simulate(w: Workload, workdir: Path) -> list[str]:
    """The rates CSV of `ballwise simulate`: one row, rates in [0, 1]."""
    with open(workdir / SIM_OUT, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return [f"{len(rows)} scenario rows, expected 1"]
    row = rows[0]
    problems = []
    for key in ("sensitivity", "fwer", "fpr", "fdr"):
        value = float(row[key])
        if not 0.0 <= value <= 1.0:
            problems.append(f"{key} = {value} outside [0, 1]")
    if int(row["replicates"]) != w.replicates:
        problems.append(f"{row['replicates']} replicates, expected {w.replicates}")
    return problems
